import pytest

import qcdiv.checks
from qcdiv.checks import SUITES, SuiteResult, run_suite
from qcdiv.oracles import NonConvergenceError


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


def test_result_collects_witnesses():
    r = SuiteResult("demo")
    r.check(True, "unused")
    r.check(False, lambda: "first witness")
    r.check(False, "second witness")
    assert not r.passed
    assert r.checked == 3
    assert r.failures == ["first witness", "second witness"]
    lines = list(r.report_lines())
    assert lines[0].endswith("FAIL")
    assert any("first witness" in ln for ln in lines)


def test_report_counts_failures_past_the_witness_cap():
    r = SuiteResult("x")
    for i in range(80):
        r.check(False, f"witness {i}")
    assert (r.checked, r.failed, len(r.failures)) == (80, 80, qcdiv.checks.MAX_WITNESSES)
    assert next(r.report_lines()) == "suite x: 80 checks, 80 failures -> FAIL"


def test_report_for_passing_suite():
    r = SuiteResult("demo")
    r.check(True, "unused")
    lines = list(r.report_lines())
    assert len(lines) == 1 and lines[0].endswith("PASS")


def test_kl_quadrature_non_convergence_fails_the_check(monkeypatch):
    """A forward quadrature that raises NonConvergenceError is a failed check, not a crash."""
    real = qcdiv.checks.kl_quadrature

    def forward_fails(p, q):
        if p.theta < q.theta:
            raise NonConvergenceError("KL quadrature: forced")
        return real(p, q)

    monkeypatch.setattr(qcdiv.checks, "kl_quadrature", forward_fails)
    result = run_suite("kl-quadrature", 2, seed=7)
    assert result.checked == 12  # three checks per sample and family
    assert len(result.failures) == 4
    assert result.failures[0].startswith("kl-uniform: t=")
    assert result.failures[0].endswith("quad=KL quadrature: forced")
    assert result.failures[2].startswith("kl-power: alpha=")
