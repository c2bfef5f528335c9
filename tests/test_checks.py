"""The randomized property suites: their results, witnesses and report lines.

The pinned runs in ``data/suite_pins.json`` hold every suite's
``(checked, failed, failures)`` and report lines on the runs of
``corpora/suite.py``, forced-failure runs among them.  ``PYTHONPATH=src
python tests/pins.py`` regenerates the file; the suites' output must not
change without a reason, so only a deliberate change should.
"""

import ast
import re
from pathlib import Path

import pytest

import pins
import qcdiv.checks
from corpora.suite import _forward_raises
from qcdiv.checks import SUITES, SuiteResult, run_suite
from test_pins import matches_its_pin

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


test_suite_matches_its_pinned_run = matches_its_pin("suite_pins.json")


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
