"""The one harness of qcdiv's golden corpora in ``data/``.

Each pin file belongs to one group: a module of ``corpora/`` whose ``CORPUS``
maps a key to a case and whose ``record(case)`` makes the case's pinned
record, built with the encoders below.  ``PYTHONPATH=src python
tests/pins.py`` rewrites every pin file from its group, byte for byte where
nothing moved.  It needs only the standard library, so it runs under any
CPython from 3.10 up.
"""

import functools
import importlib
import inspect
import io
import itertools
import json
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import qcdiv
from qcdiv import cli, oracles

DATA = Path(__file__).resolve().parent / "data"
# pin file -> the module that owns its corpus
GROUPS = {
    "catalog_pins.json": "corpora.catalog",
    "cli_pins.json": "corpora.cli",
    "oracle_pins.json": "corpora.oracle",
    "spec_pins.json": "corpora.spec",
    "study_table_pins.json": "corpora.study_table",
    "suite_pins.json": "corpora.suite",
}


def _hex(v) -> str:
    return float(v).hex()


def encode(result):
    """A result as JSON: a float as ``float.hex`` and its tie flag, or a result's fields."""
    if isinstance(result, oracles.QuadratureResult):
        return {"value": _hex(result.value), "error_bound": _hex(result.error_bound),
                "panels": result.panels, "converged": result.converged}
    if isinstance(result, oracles.LimitStudy):
        return {"name": result.name, "ks": list(result.ks),
                "params": [_hex(p) for p in result.params],
                "values": [encode(v) for v in result.values], "target": encode(result.target),
                "tol": _hex(result.tol), "scale": _hex(result.scale),
                "converged": result.converged}
    return [_hex(result), getattr(result, "tie_sensitive", None)]


@contextmanager
def _warning_runs():
    """The warnings issued in the block as [category, message, count] runs, in order."""
    runs = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield runs
    keys = ([w.category.__name__, str(w.message)] for w in caught)
    runs.extend([*key, len(list(run))] for key, run in itertools.groupby(keys))


def outcome(call) -> dict:
    """What ``call()`` returned or raised (type and message), and its warnings."""
    with _warning_runs() as runs:
        try:
            out = {"result": encode(call())}
        except Exception as e:  # the pin records every error type and message
            out = {"error": [type(e).__name__, str(e)]}
    return {**out, "warnings": runs}


def run_cli(argv) -> dict:
    """``cli.main(argv)`` in process: its exit code, stdout, stderr and warnings."""
    out, err = io.StringIO(), io.StringIO()
    with _warning_runs() as runs, redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "warnings": runs}


# The library parameter each catalog flag binds to.
PARAM = {"--alpha": "alpha", "--delta": "delta", "--delta1": "delta1", "--delta2": "delta2",
         "--r": "r", "--exponent": "alpha", "--mean-m": "M", "--mean-n": "N"}


def library_call(div, gen, flags, points):
    """The public function of ``cli.DIVERGENCES[div]`` on these inputs."""
    spec = cli.DIVERGENCES[div]
    fn = getattr(qcdiv, spec.name)
    names = list(inspect.signature(fn).parameters)
    kwargs = {}
    if spec.subject is not None:
        g = qcdiv.build_generator(gen)
        kwargs[names.pop(0)] = qcdiv.ExpFamily(g) if spec.subject == "family" else g
    for flag, value in flags.items():
        names.remove(PARAM[flag])
        if flag.startswith("--mean-"):  # power:d gets the library's check, not the CLI's
            value = (qcdiv.MeanSpec.power(float(value[6:])) if value.startswith("power:")
                     else cli._parse_mean(value, flag))
        kwargs[PARAM[flag]] = value
    for name, point in zip(names, points):
        kwargs[name] = point[0] if spec.scalar else point
    return fn(**kwargs)


def eval_argv(div, gen, flags, points):
    """The ``qcdiv eval`` argv of ``library_call(div, gen, flags, points)``."""
    argv = ["eval", "--div", div] + ([] if gen is None else [f"--gen={gen}"])
    argv += [f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}"
             for flag, value in flags.items()]
    argv += [f"{flag}={','.join(map(repr, point))}"
             for flag, point in zip(cli.DIVERGENCES[div].points, points)]
    return argv


@functools.cache
def load(name: str) -> dict:
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def texts() -> dict:
    """Pin file -> its text, made from its group."""
    made = {}
    for name, module in GROUPS.items():
        group = importlib.import_module(module)
        pins = {key: group.record(group.CORPUS[key]) for key in sorted(group.CORPUS)}
        made[name] = json.dumps(pins, indent=1, sort_keys=True) + "\n"
    return made


def regenerate() -> None:
    """Rewrite every pin file from its group; nothing is written unless every group ran."""
    for name, text in texts().items():
        (DATA / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
