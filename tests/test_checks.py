"""The randomized property suites: their results, witnesses and report lines.

The pinned runs in ``data/suite_pins.json`` hold every suite's
``(checked, failed, failures)`` and report lines on a few ``(samples, seed)``
pairs, and on forced-failure runs in which one library function, as
``checks.py`` sees it, is replaced so that each property fails and its
witness format shows.  ``PYTHONPATH=src python tests/pins.py`` regenerates
the file; the suites' output must not change without a reason, so only a
deliberate change should.
"""

import ast
import re
from functools import partial
from pathlib import Path

import pytest

import pins
import qcdiv.checks
from qcdiv.checks import SUITES, SuiteResult, run_suite
from qcdiv.core import ExtReal
from qcdiv.oracles import NonConvergenceError

ROOT = Path(__file__).resolve().parent.parent


SMALL = {
    "identities": 1500,
    "first-order": 700,
    "one-sided-infinity": 700,
    "delta-positivity": 500,
    "kl-quadrature": 10,
    "means": 1500,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    result = run_suite(name, SMALL[name], seed=7)
    assert result.passed, "\n".join(result.report_lines())
    assert result.checked > 0


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_deterministic(name):
    a = run_suite(name, 200, seed=99)
    b = run_suite(name, 200, seed=99)
    assert (a.checked, a.failures) == (b.checked, b.failures)


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nosuch", 10, 0)


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_a_suite_needs_a_sample(name, samples):
    # A suite of no draws would pass having checked nothing.
    with pytest.raises(ValueError, match="^samples must be >= 1$"):
        run_suite(name, samples, 1)


def _stub_rows(*outs):
    """One row whose checks return ``outs`` in order on a single draw."""
    return ((1, lambda i: (), tuple((f"p{k}", lambda out=out: out) for k, out in enumerate(outs))),)


def test_result_collects_witnesses():
    r = qcdiv.checks._run("demo", _stub_rows(True, "first witness", None, "second witness"))
    assert not r.passed
    assert (r.checked, r.failed) == (3, 2)
    assert r.failures == ("p1: first witness", "p3: second witness")
    lines = list(r.report_lines())
    assert lines == ["suite demo: 3 checks, 2 failures -> FAIL",
                     "  witness: p1: first witness", "  witness: p3: second witness"]


def test_report_counts_failures_past_the_witness_cap():
    rows = ((80, lambda i: (i,), (("p", lambda i: f"witness {i}"),)),)
    r = qcdiv.checks._run("x", rows)
    assert (r.checked, r.failed, len(r.failures)) == (80, 80, qcdiv.checks.MAX_WITNESSES)
    assert r.failures[-1] == f"p: witness {qcdiv.checks.MAX_WITNESSES - 1}"
    assert next(r.report_lines()) == "suite x: 80 checks, 80 failures -> FAIL"


def test_report_for_passing_suite():
    r = qcdiv.checks._run("demo", _stub_rows(True, None))
    assert r.passed and (r.checked, r.failures, r.failed) == (1, (), 0)
    lines = list(r.report_lines())
    assert lines == ["suite demo: 1 checks, 0 failures -> PASS"]


def test_kl_quadrature_non_convergence_fails_the_check(monkeypatch):
    """A forward quadrature that raises NonConvergenceError is a failed check, not a crash."""
    monkeypatch.setattr(qcdiv.checks, "kl_quadrature", _forward_raises(qcdiv.checks.kl_quadrature))
    result = run_suite("kl-quadrature", 2, seed=7)
    assert result.checked == 12  # three checks per sample and family
    assert len(result.failures) == 4
    assert result.failures[0].startswith("kl-uniform: t=")
    assert result.failures[0].endswith("quad=KL quadrature: forced")
    assert result.failures[2].startswith("kl-power: alpha=")


# -- pinned runs -------------------------------------------------------------


def _shifted(by):
    return lambda real: lambda *args: real(*args) + by


def _constant(value):
    return lambda real: lambda *args: ExtReal(value)


def _forward_raises(real):
    def kl(p, q):
        if p.theta < q.theta:
            raise NonConvergenceError("KL quadrature: forced")
        return real(p, q)
    return kl


def _reverse_finite(real):
    return lambda p, q: ExtReal(1.0) if p.theta > q.theta else real(p, q)


def _power_negated(real):
    return lambda spec, *args: -real(spec, *args) if spec.kind == "power" else real(spec, *args)


def _arithmetic_shifted(real):
    return lambda spec, *args: real(spec, *args) + (spec.kind == "arithmetic")


# name -> (the checks attribute replaced, its replacement built from the real
# function, the suites run with it).  Together they make every property fail.
FORCED = {
    "qccv_jensen+1": ("_qccv_jensen", _shifted(1.0), ("identities",)),
    "qcvx_jensen+1": ("_qcvx_jensen", _shifted(1.0), ("identities",)),
    "extended_jensen+1e3": ("_extended_jensen", _shifted(1e3), ("identities", "means")),
    "extended_jensen-1e3": ("_extended_jensen", _shifted(-1e3), ("identities", "means")),
    "_bregman+1": ("_bregman", _shifted(1.0), ("identities",)),
    "qcvx_bregman=-1": ("_qcvx_bregman", _constant(-1.0),
                        ("identities", "first-order", "one-sided-infinity")),
    "delta_averaged_qcvx_bregman=0": ("_delta_averaged_qcvx_bregman", _constant(0.0),
                                      ("delta-positivity",)),
    "kl_nested_uniform=7": ("kl_nested_uniform", _constant(7.0), ("kl-quadrature",)),
    "kl_power_nested=7": ("kl_power_nested", _constant(7.0), ("kl-quadrature",)),
    "kl_quadrature forward raises": ("kl_quadrature", _forward_raises, ("kl-quadrature",)),
    "kl_quadrature reverse finite": ("kl_quadrature", _reverse_finite, ("kl-quadrature",)),
    "integrate value 0.5": ("integrate", lambda real: lambda *args: real(*args)._replace(value=0.5),
                            ("kl-quadrature",)),
    "weighted_mean+1e3": ("weighted_mean", _shifted(1e3), ("means",)),
    "weighted_mean power negated": ("weighted_mean", _power_negated, ("means",)),
    "weighted_mean arithmetic+1": ("weighted_mean", _arithmetic_shifted, ("means",)),
    "mn_jensen+1": ("_mn_jensen", _shifted(1.0), ("means",)),
}
FORCED_SAMPLES, FORCED_SEED = 12, 1


def _pinned_run(suite, samples, seed, attr=None, replace=None):
    """The pinned record of one suite run, with ``attr`` replaced when it is given."""
    with pytest.MonkeyPatch.context() as mp:
        if attr is not None:
            mp.setattr(qcdiv.checks, attr, replace(getattr(qcdiv.checks, attr)))
        r = run_suite(suite, samples, seed)
    return {"checked": r.checked, "failed": r.failed, "failures": list(r.failures),
            "report": list(r.report_lines())}


# key -> a zero-argument call that makes the run's record
CORPUS = {f"{suite} {samples} {seed}": partial(_pinned_run, suite, samples, seed)
          for suite in sorted(SUITES)
          for samples, seed in ((1, 0), (7, 3), (40, 11), (120, 4242))}
CORPUS.update({f"{name}: {suite} {FORCED_SAMPLES} {FORCED_SEED}":
               partial(_pinned_run, suite, FORCED_SAMPLES, FORCED_SEED, attr, replace)
               for name, (attr, replace, suites) in FORCED.items() for suite in suites})


def record(run):
    return run()


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_suite_matches_its_pinned_run(key):
    assert record(CORPUS[key]) == pins.load("suite_pins.json")[key]


def _row_labels():
    """Each suite's property labels, read from the rows it hands the driver."""
    labels = {}

    def capture(suite, rows):
        labels[suite] = list(dict.fromkeys(label for _, _, checks in rows for label, _ in checks))
        return SuiteResult(suite)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcdiv.checks, "_run", capture)
        for name in SUITES:
            run_suite(name, 1, 0)
    return labels


def test_the_forced_runs_fail_every_property():
    witnessed = {w.split(": ", 1)[0] for pin in pins.load("suite_pins.json").values()
                 for w in pin["failures"]}
    assert witnessed == {label for labels in _row_labels().values() for label in labels}


def test_readme_lists_each_suites_property_labels():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("Suites for `check`", 1)[1].split("\n\n", 2)[1]
    listed = {}
    for line in section.splitlines():
        suite, *labels = re.findall(r"`([^`]+)`", line)
        listed[suite] = labels
    assert listed == _row_labels()


def test_only_run_builds_a_suite_result():
    """Every property is a row; a hand-written sample loop would build its own SuiteResult."""
    tree = ast.parse((ROOT / "src" / "qcdiv" / "checks.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "SuiteResult"]
    driver = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_run")
    assert len(calls) == 1 and calls[0] in ast.walk(driver)
