"""The CLI's divergence and study catalogs: required flags, check order, dispatch."""

import argparse
import ast
import inspect
import re
import textwrap
from pathlib import Path

import pytest

import qcdiv
from corpora.study_table import FLAGS
from qcdiv import cli, oracles

README = Path(__file__).resolve().parent.parent / "README.md"

# Required flags per --div in the order they are checked; binary divergences
# check --theta-prime last, after the evaluator is built.
REQUIRED = {
    "qcvx-jensen": ["--alpha", "--theta-prime"],
    "qccv-jensen": ["--alpha", "--theta-prime"],
    "log-ratio": ["--alpha", "--theta-prime"],
    "ext-jensen": ["--alpha", "--theta-prime"],
    "mn-jensen": ["--alpha", "--mean-m", "--mean-n", "--theta-prime"],
    "power-jensen": ["--alpha", "--delta", "--theta-prime"],
    "bregman": ["--theta-prime"],
    "qcvx-bregman": ["--theta-prime"],
    "delta-qcvx-bregman": ["--delta", "--theta-prime"],
    "ext-bregman": ["--theta-prime"],
    "power-bregman": ["--delta1", "--delta2", "--theta-prime"],
    "r-power-bregman": ["--r", "--theta-prime"],
    "kl-nested-uniform": ["--theta-prime"],
    "kl-power-nested": ["--exponent", "--theta-prime"],
    "expfam-kl": ["--theta-prime"],
    "expfam-entropy": [],
    "expfam-cross-entropy": ["--theta-prime"],
}
NO_GENERATOR = {"kl-nested-uniform", "kl-power-nested"}
SCALAR_ONLY = {"power-bregman", "r-power-bregman", "kl-nested-uniform", "kl-power-nested"}

# A value for every flag that makes each divergence evaluate successfully.
VALUES = {**FLAGS, "--theta-prime": "2"}


def argv_for(div, omit=(), theta="1"):
    argv = ["eval", "--div", div, "--theta", theta]
    if div not in NO_GENERATOR and "--gen" not in omit:
        argv += ["--gen", "sqrt"]
    for flag in REQUIRED[div]:
        if flag not in omit:
            argv += [flag, VALUES[flag]]
    return argv


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def parser_choices(command, dest):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


def test_div_choices_are_the_catalog_in_order():
    assert list(parser_choices("eval", "div")) == list(REQUIRED)
    assert list(parser_choices("table", "div")) == list(REQUIRED)


@pytest.mark.parametrize("div", list(REQUIRED))
def test_each_required_flag_is_checked_in_order(div, capsys):
    assert run(capsys, argv_for(div))[0] == 0
    flags = REQUIRED[div]
    for i, flag in enumerate(flags):
        for omit in ([flag], flags[i:]):  # alone, and with every later flag
            code, out, err = run(capsys, argv_for(div, omit))
            assert code == 2 and out == ""
            assert f"--div {div} requires {flag}" in err


@pytest.mark.parametrize("div", sorted(set(REQUIRED) - NO_GENERATOR))
def test_generator_loads_before_any_flag_check(div, capsys):
    code, _, err = run(capsys, argv_for(div, ["--gen"] + REQUIRED[div]))
    assert code == 2
    assert "needs a generator: pass --gen or --gen-file" in err


@pytest.mark.parametrize("div", sorted(SCALAR_ONLY))
def test_scalar_check_happens_at_evaluation(div, capsys):
    for flag in REQUIRED[div]:
        code, _, err = run(capsys, argv_for(div, [flag], theta="1,2"))
        assert code == 2 and f"--div {div} requires {flag}" in err
    code, _, err = run(capsys, argv_for(div, theta="1,2"))
    assert code == 2 and "--theta must be a single real for this divergence" in err


def test_table_rejects_the_unary_divergence(capsys):
    code, out, err = run(capsys, ["table", "--div", "expfam-entropy", "--gen", "quadratic",
                                  "--grid-min", "0", "--grid-max", "1", "--grid-step", "0.5"])
    assert code == 2 and out == ""
    assert "--div expfam-entropy is unary; table needs a binary divergence" in err


class FakeStudy:
    converged = True

    def csv_rows(self):
        yield "k,param,value,error"


@pytest.mark.parametrize("study", ["scaled-jensen", "power-jensen", "r-power-bregman"])
def test_study_dispatches_to_its_oracle(study, capsys, monkeypatch):
    name = "limit_" + study.replace("-", "_")
    assert callable(getattr(oracles, name))
    calls = []
    monkeypatch.setattr(oracles, name, lambda *a: calls.append(a) or FakeStudy())
    code, out, _ = run(capsys, ["limit-study", "--study", study, "--gen", "log",
                                "--theta", "1", "--theta-prime", "2", "--k-max", "6"])
    assert code == 0 and out == "k,param,value,error\n"
    assert len(calls) == 1 and calls[0][1:] == ((1.0,), (2.0,), 6)


def test_public_limit_functions_are_exactly_the_studies():
    studies = parser_choices("limit-study", "study")
    public = {n for n, v in vars(oracles).items() if n.startswith("limit_") and callable(v)}
    assert public == {"limit_" + s.replace("-", "_") for s in studies}


def test_readme_divergence_list_is_the_catalog():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"Divergences for `eval`:(.*?)Parameters:", text, re.S).group(1)
    assert re.findall(r"`([a-z-]+)`", listed) == list(cli.DIVERGENCES)


@pytest.mark.parametrize("div", list(cli.DIVERGENCES))
def test_eval_and_table_share_one_kernel(div):
    # eval and table call the catalog's check and kernel, and the library's
    # public function must call that same check and kernel (or be the kernel):
    # no divergence has a second formula or a second check order.
    spec = cli.DIVERGENCES[div]
    public = getattr(qcdiv, spec.name)
    if public is spec.kernel:
        assert spec.raw and spec.check is None
        return
    tree = ast.parse(textwrap.dedent(inspect.getsource(public)))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    for fn in (spec.kernel, spec.check) if spec.check else (spec.kernel,):
        assert fn.__name__ in called and public.__globals__[fn.__name__] is fn
    # A kernel that takes checked points gets them from core._pair.
    assert spec.raw or "_pair" in called
    # A kernel that reads grad Q(theta_p) gets core._gradient from the public function.
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert spec.grad == (not spec.raw and "_gradient" in read)
