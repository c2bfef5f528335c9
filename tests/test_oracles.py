import math
import random
import time
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcdiv.oracles
from qcdiv.core import (POS_INF, DomainError, ExtReal, Generator, GradientError,
                        PreconditionError, RangeError, build_generator)
from qcdiv.bregman import delta_averaged_qcvx_bregman, qcvx_bregman
from qcdiv.jensen import qcvx_jensen
from qcdiv.means import power_mean_jensen, r_power_bregman
from qcdiv.oracles import (
    G7_WEIGHTS,
    GK15_NODES,
    GK15_WEIGHTS,
    MAX_DEPTH,
    MAX_PANELS,
    InfiniteIntegrandError,
    LimitStudy,
    NonConvergenceError,
    integrate,
    integrate_delta_average,
    kl_quadrature,
    limit_power_jensen,
    limit_r_power_bregman,
    limit_scaled_jensen,
    _gk15,
)
from qcdiv.checks import sample_point, sweep_catalog
from qcdiv.statdiv import PowerNested


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda x: x * x, 0, 1).value == pytest.approx(1 / 3, abs=1e-13)

    def test_sine(self):
        assert integrate(math.sin, 0, math.pi).value == pytest.approx(2.0, abs=1e-10)

    def test_endpoint_singularity_never_evaluated(self):
        # log is singular at 0 but nodes are interior, so this converges
        r = integrate(math.log, 0.0, 1.0, abs_tol=1e-10)
        assert r.value == pytest.approx(-1.0, abs=1e-8)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 1.0)

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
                                     (-1e308, 1e308)])
    def test_unbounded_interval_or_width(self, a, b):
        # [-1e308, 1e308] has finite ends, but its width overflows.
        calls = []
        with pytest.raises(ValueError, match=r"^integration interval must have finite ends"):
            integrate(lambda x: calls.append(x) or math.exp(x), a, b)
        assert calls == []

    @pytest.mark.parametrize("f", [lambda x: math.nan, lambda x: math.inf,
                                   lambda x: -math.inf,
                                   lambda x: math.inf if x > 0.5 else -math.inf],
                             ids=["nan", "inf", "-inf", "inf and -inf"])
    def test_non_finite_integrand(self, f):
        with pytest.raises(RangeError, match=r"^integrand is not finite on the panel \[0, 1\]$"):
            integrate(f, 0, 1)

    def test_non_finite_integrand_names_the_split_panel(self):
        # The first panel's nodes all lie past 1e-3; bisection towards 0 meets inf.
        def f(x):
            return math.inf if x < 1e-3 else x**-0.5

        with pytest.raises(RangeError, match=r"^integrand is not finite on the panel "
                                             r"\[0\.0, 0\.\d+\]$"):
            integrate(f, 0.0, 1.0)

    @pytest.mark.parametrize("f,a,b", [(lambda x: 1e308, 0, 1),
                                       (lambda x: 1e300, -1e10, 1e10),
                                       (lambda x: -1e300, -1e10, 1e10)],
                             ids=["weighted sum", "scaled by the width", "negative"])
    def test_finite_integrand_whose_panel_sums_overflow(self, f, a, b):
        # fsum overflowed (a stray OverflowError), or h * sum gave value=inf
        # with converged=True.
        with pytest.raises(RangeError, match=rf"^the quadrature sums on the panel \[{a}, {b}\] "
                                             r"leave the floats$"):
            integrate(f, a, b)

    def test_error_estimate_overflow_names_the_panel(self):
        # The G7 sum doubles the weights of its nodes, so it overflows first.
        g7 = set(GK15_NODES[1::2])
        with pytest.raises(RangeError, match=r"^the quadrature sums on the panel \[-1, 1\]"):
            integrate(lambda x: 1e308 if x in g7 else 0.0, -1, 1)

    def test_total_overflow_names_the_interval(self):
        # The first panel misses the value at its G7 nodes, and each half fits
        # the floats, but their sum does not.
        first = {4.0 * x for x in GK15_NODES[1::2]}
        with pytest.raises(RangeError,
                           match=r"^the integral over \[-4\.0, 4\.0\] leaves the floats$"):
            integrate(lambda x: 0.0 if x in first else 0.3e308, -4.0, 4.0)
        r = integrate(lambda x: 0.0 if x in first else 0.1e308, -4.0, 4.0)
        assert (r.value, r.panels, r.converged) == (8e307, 2, True)

    @pytest.mark.parametrize("abs_tol", [math.nan, -1.0])
    def test_a_nan_or_negative_tolerance_is_refused_before_f_runs(self, abs_tol):
        # Neither could ever be met: one panel came back as converged=False.
        calls = []
        with pytest.raises(ValueError, match=f"^abs_tol must be >= 0, got {abs_tol}$"):
            integrate(lambda x: calls.append(x) or 1.0, 0.0, 1.0, abs_tol=abs_tol)
        assert calls == []

    def test_self_consistency_under_tighter_tolerance(self):
        def f(x):
            return math.exp(-x * x) * math.cos(3 * x)

        loose = integrate(f, -2, 2, abs_tol=1e-8)
        tight = integrate(f, -2, 2, abs_tol=5e-9)
        assert abs(loose.value - tight.value) <= max(loose.error_bound, 1e-14)


class TestGaussKronrodConstants:
    @staticmethod
    def rule(nodes, weights, k):
        return math.fsum(w * x**k for x, w in zip(nodes, weights))

    @pytest.mark.parametrize("k", range(23))
    def test_monomials_exact_on_reference_interval(self, k):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(self.rule(GK15_NODES, GK15_WEIGHTS, k) - exact) <= 1e-15
        if k <= 13:
            assert abs(self.rule(GK15_NODES[1::2], G7_WEIGHTS, k) - exact) <= 1e-15

    def test_kronrod_degree_is_sharp(self):
        # x^24 is past degree 3*7+1 = 22, so the check above can see a wrong table.
        assert abs(self.rule(GK15_NODES, GK15_WEIGHTS, 24) - 2.0 / 25) > 1e-12
        assert abs(self.rule(GK15_NODES[1::2], G7_WEIGHTS, 14) - 2.0 / 15) > 1e-6

    def test_layout(self):
        assert len(GK15_NODES) == len(GK15_WEIGHTS) == 15 and len(G7_WEIGHTS) == 7
        assert list(GK15_NODES) == sorted(GK15_NODES) and -1.0 < GK15_NODES[0]
        for i in range(15):
            assert GK15_NODES[i] == -GK15_NODES[14 - i]
            assert GK15_WEIGHTS[i] == GK15_WEIGHTS[14 - i]
        assert G7_WEIGHTS == G7_WEIGHTS[::-1]
        assert GK15_NODES[7] == 0.0
        assert math.fsum(GK15_WEIGHTS) == pytest.approx(2.0, abs=1e-15)
        assert math.fsum(G7_WEIGHTS) == pytest.approx(2.0, abs=1e-15)


def three_sum_panel(ys):
    """_gk15 on [-1.0, 1.0] (h = 1, so the nodes are GK15_NODES) by the rule's definition:
    (K15 value, |K15 - G7|, K15 value of |f|), or the RangeError text."""
    overflow = "the quadrature sums on the panel [-1.0, 1.0] leave the floats"
    try:
        mass = math.fsum(map(mul, GK15_WEIGHTS, map(abs, ys)))
        if not math.isfinite(mass):
            return "integrand is not finite on the panel [-1.0, 1.0]"
        k15 = math.fsum(map(mul, GK15_WEIGHTS, ys))
        g7 = math.fsum(map(mul, G7_WEIGHTS, ys[1::2]))
    except OverflowError:
        return overflow
    err = abs(k15 - g7)
    return (k15, err, mass) if math.isfinite(err) else overflow


NON_NEGATIVE = st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                         st.sampled_from([-0.0, 1e308, math.inf]))
ANY_VALUE = st.one_of(st.floats(), st.sampled_from([-0.0, 1e308, -1e308, math.nan]))
NODE_TABLES = st.one_of(
    st.lists(NON_NEGATIVE, min_size=15, max_size=15),
    st.lists(ANY_VALUE, min_size=15, max_size=15),
    # One value of any sign among non-negative ones, at any node.
    st.tuples(st.lists(NON_NEGATIVE, min_size=15, max_size=15), st.integers(0, 14),
              ANY_VALUE).map(lambda c: c[0][:c[1]] + [c[2]] + c[0][c[1] + 1:]))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(ys=NODE_TABLES)
@example(ys=[math.nan] + [1.0] * 14)
@example(ys=[1.0] * 7 + [math.nan] + [1.0] * 7)
@example(ys=[-0.0] * 15)
@example(ys=[1e308] * 15)
@example(ys=[1.0] * 14 + [math.inf])
@example(ys=[-1.0] + [math.inf] * 14)
@example(ys=[-1.0] + [1.0] * 14)
@example(ys=[0.0] * 14 + [-1e-310])
def test_a_panel_with_no_negative_value_sums_once_to_the_same_bits(ys):
    table = dict(zip(GK15_NODES, ys))
    try:
        got = tuple(x.hex() for x in _gk15(table.__getitem__, -1.0, 1.0))
    except RangeError as e:
        got = str(e)
    want = three_sum_panel(ys)
    assert got == (want if isinstance(want, str) else tuple(x.hex() for x in want))


@pytest.mark.parametrize("f,b,sums", [(lambda x: x**-0.5, 1.0, 2), (math.sin, 4.0, 3)],
                         ids=["non-negative", "mixed-sign"])
def test_a_panel_sums_once_fewer_where_no_value_is_negative(monkeypatch, f, b, sums):
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    _gk15(f, 0.0, b)
    assert len(calls) == sums


class TestConvergenceFlag:
    def cases(self, rng):
        """(label, f, a, b, exact) over x^s, log x and exp(-x^2) cos 3x."""
        for k in range(30):
            s = -0.9 + 0.1 * k
            b = rng.uniform(0.5, 3.0)
            yield f"x^{s:.1f}", (lambda x, s=s: x**s), 0.0, b, b ** (s + 1) / (s + 1)
        for _ in range(5):
            b = rng.uniform(0.5, 3.0)
            yield "log", math.log, 0.0, b, b * math.log(b) - b
        # The tails past |x| = 8 are below exp(-64).
        yield ("gauss-cos", lambda x: math.exp(-x * x) * math.cos(3 * x), -8.0, 8.0,
               math.sqrt(math.pi) * math.exp(-2.25))

    def test_converged_implies_within_tolerance(self):
        rng = random.Random(1909)
        converged = 0
        for label, f, a, b, exact in self.cases(rng):
            for tol in (1e-6, 1e-8, 1e-10, 1e-12):
                r = integrate(f, a, b, abs_tol=tol)
                assert r.converged == (r.error_bound <= tol), (label, tol)
                if r.converged:
                    converged += 1
                    assert abs(r.value - exact) <= tol, (label, b, tol, r)
        assert converged >= 100

    def test_strong_singularity_reports_no_convergence(self):
        # x^-0.35 is at the edge of what a panel of width 2^-41 at the
        # singularity resolves to 1e-10: its estimate must say it missed.
        r = integrate(lambda x: x**-0.35, 0.0, 1.0, abs_tol=1e-10)
        assert not r.converged
        assert r.error_bound > 1e-10
        # Splitting stops once the finest panel at 0 alone misses abs_tol:
        # one bisection per level, so at most MAX_DEPTH + 2 leaves.
        assert r.panels <= MAX_DEPTH + 2

    def test_work_stays_bounded_at_the_rounding_floor(self):
        # |f| ~ 1e9 puts the rounding floor near 1e-6, far above abs_tol; the
        # panels still stop splitting long before MAX_DEPTH.
        r = integrate(lambda x: 1e9 * (1.0 + math.sin(x)), -2.0, 2.3)
        assert r.panels <= 100
        assert r.converged == (r.error_bound <= 1e-10)
        exact = 1e9 * (4.3 + math.cos(-2.0) - math.cos(2.3))
        assert abs(r.value - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("b", [1e6, 1e300])
    def test_the_panel_budget_bounds_the_work(self, b):
        # sin over [0, 1e300] has no final panel before depth 41, and over
        # [0, 1e6] needs more panels than the budget: the heap grew toward 2^41
        # panels, and neither call returned within 20 s.
        calls = 0

        def f(x):
            nonlocal calls
            calls += 1
            return math.sin(x)

        start = time.perf_counter()
        r = integrate(f, 0.0, b)
        assert time.perf_counter() - start < 1.0
        assert (r.panels, r.converged) == (MAX_PANELS, False)
        assert calls == 15 * (2 * MAX_PANELS - 1)


class TestNonConvergenceRaises:
    """An oracle whose integral misses its tolerance raises instead of returning it."""

    def test_kl_quadrature(self):
        with pytest.raises(NonConvergenceError, match="^KL quadrature: error estimate"):
            kl_quadrature(PowerNested(2.5, 1.0), PowerNested(2.5, 2.0), abs_tol=0.0)

    def test_integrate_delta_average(self, monkeypatch):
        def unconverged(*args, **kwargs):
            return integrate(*args, **kwargs)._replace(converged=False)

        monkeypatch.setattr(qcdiv.oracles, "integrate", unconverged)
        with pytest.raises(NonConvergenceError, match="^delta-average quadrature: error"):
            integrate_delta_average(build_generator("quadratic"), 1, 2, 0.5)


@pytest.mark.parametrize("abs_tol", [math.nan, -1.0])
@pytest.mark.parametrize("theta_q", [2.0, 0.5], ids=["nested", "not nested"])
def test_kl_quadrature_refuses_a_nan_or_negative_tolerance(theta_q, abs_tol):
    # Supports that do not nest give +inf without a quadrature; the tolerance
    # is refused all the same.
    with pytest.raises(ValueError, match=f"^abs_tol must be >= 0, got {abs_tol}$"):
        kl_quadrature(PowerNested(2.5, 1.0), PowerNested(2.5, theta_q), abs_tol=abs_tol)


class TestIntegrateDeltaAverage:
    def test_quadratic_matches_closed_form(self):
        closed = 2 * 2 * (2 - 1) + 0.5 * (2 - 1) ** 2  # 4.5
        quad = build_generator("quadratic")
        v = integrate_delta_average(quad, 1, 2, 0.5)
        assert abs(v - closed) <= 1e-8 * abs(closed)
        assert abs(v - float(delta_averaged_qcvx_bregman(quad, 1, 2, 0.5))) <= 1e-8 * 4.5

    def test_cubic_matches_closed_form(self):
        cubic = build_generator("cubic")
        v = integrate_delta_average(cubic, -1, 0, 0.5)
        assert abs(v - 0.25) <= 1e-8 * 0.25

    def test_linear(self):
        assert integrate_delta_average(build_generator("linear"), 1, 3, 1.0) == pytest.approx(2.0, rel=1e-10)

    def test_identical_points(self):
        assert integrate_delta_average(build_generator("quadratic"), 1, 1, 0.5) == 0.0

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            integrate_delta_average(build_generator("quadratic"), 2, 1, 0.5)

    def test_reversed_orientation_with_larger_value(self):
        # theta_p < theta but Q(theta_p) >= Q(theta): the signed span is negative
        quad = build_generator("quadratic")
        v = integrate_delta_average(quad, 1, -2, 0.5)
        closed = float(delta_averaged_qcvx_bregman(quad, 1, -2, 0.5))
        assert v == pytest.approx(closed, rel=1e-8)

    def test_infinite_integrand_is_a_hard_failure(self):
        # sine is not quasiconvex, so the shifted nestedness claim can break
        sine = build_generator("sine")
        assert sine(0.0) <= sine(3.0)
        with pytest.raises(InfiniteIntegrandError):
            integrate_delta_average(sine, 0.0, 3.0, 1.0)

    @pytest.mark.parametrize("spec, t, tp, delta", [
        ("quadratic", 0.5, 1.0, 1e19),  # closed form 2.5e18
        ("cubic", -1.0, 0.5, 3e18),  # 3.04e37
        ("log", 1.0, 2.0, 1e50),  # 1.14e-48
    ])
    def test_shifted_points_that_merge_are_a_range_error(self, spec, t, tp, delta):
        # Far along the range x + u == y + u, where the integrand is 0: every
        # node read 0 and the call returned a converged 0.0.
        Q = build_generator(spec)
        assert float(delta_averaged_qcvx_bregman(Q, t, tp, delta)) > 0.0
        with pytest.raises(RangeError, match="^delta-average quadrature: theta [+] u and "
                                             "theta_p [+] u are one float at u = "):
            integrate_delta_average(Q, t, tp, delta)

    def test_agrees_with_closed_form_on_catalog(self):
        rng = random.Random(67)
        for case in sweep_catalog():
            Q = case.generator
            done = 0
            while done < 60:
                t = sample_point(rng, case.box)
                tp = sample_point(rng, case.box)
                if Q(t) > Q(tp):
                    t, tp = tp, t
                delta = rng.uniform(0.1, 1.5)
                extrap = tuple(y + delta * (y - x) for x, y in zip(t, tp))
                if not Q.domain.contains(extrap):
                    continue
                done += 1
                closed = float(delta_averaged_qcvx_bregman(Q, t, tp, delta))
                numeric = integrate_delta_average(Q, t, tp, delta)
                assert abs(numeric - closed) <= 1e-8 * (1 + abs(closed)), (Q.name, t, tp, delta)


# The n-D generators of the cross-check, each with the bounds of every coordinate.
N_D_CASES = {
    "log-norm-sq 2-D": (build_generator({"name": "log-norm-sq", "dim": 2}), (0.1, 10.0)),
    "neg-gauss 3-D": (build_generator({"name": "neg-gauss", "dim": 3}), (-2.0, 2.0)),
    "quadratic+cubic": (build_generator({"separable": ["quadratic", "cubic"]}), (-3.0, 3.0)),
}


def check_against_closed_form(Q, t, tp, delta, scale=1.0):
    """Assert the oracle is within 1e-8 * (1 + |closed|) of ``scale`` times the
    closed form.  True when both gave a value, False when one raised a typed error."""
    try:
        closed = scale * float(delta_averaged_qcvx_bregman(Q, t, tp, delta))
        numeric = integrate_delta_average(Q, t, tp, delta)
    except (DomainError, RangeError, InfiniteIntegrandError, NonConvergenceError):
        return False
    assert abs(numeric - closed) <= 1e-8 * (1 + abs(closed)), (Q.name, t, tp, delta)
    return True


@pytest.mark.parametrize("case", N_D_CASES)
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_n_d_oracle_agrees_with_closed_form(case, data):
    Q, bounds = N_D_CASES[case]
    point = st.tuples(*[st.floats(*bounds)] * Q.dim)
    t, tp = data.draw(point), data.draw(point)
    if Q(t) > Q(tp):
        t, tp = tp, t
    check_against_closed_form(Q, t, tp, data.draw(st.floats(0.1, 1.5)))


def test_n_d_check_rejects_a_closed_form_off_by_1e_6():
    Q, _ = N_D_CASES["log-norm-sq 2-D"]
    assert check_against_closed_form(Q, (1.0, 2.0), (2.0, 3.0), 0.5)
    with pytest.raises(AssertionError):
        check_against_closed_form(Q, (1.0, 2.0), (2.0, 3.0), 0.5, scale=1.0 + 1e-6)


def test_far_end_that_merges_in_one_coordinate_is_a_range_error():
    # At the far end coordinate 0 is near 2^52 + 1 and 2^52 + 2, which stay
    # apart, and coordinate 1 near 2^53 and 2^53 + 1, which round to one float.
    Q = build_generator({"separable": ["quadratic", "linear"]})
    t, tp, delta = (1.0, 2.0**52), (2.0, 2.0**52 + 1.0), 2.0**52
    assert 1.0 + delta != 2.0 + delta and tp[1] + delta == t[1] + delta
    assert float(delta_averaged_qcvx_bregman(Q, t, tp, delta)) > 0.0
    with pytest.raises(RangeError, match="^delta-average quadrature: theta [+] u and "
                                         "theta_p [+] u are one float at u = "):
        integrate_delta_average(Q, t, tp, delta)


class TestLimitScaledJensen:
    def test_log_converges_to_closed_form(self):
        study = limit_scaled_jensen(build_generator("log"), 1, 2, 20)
        assert float(study.target) == 0.5
        assert study.final_error <= 1e-4
        assert study.converged
        assert study.errors_nonincreasing_from(6)

    def test_infinite_branch_diverges(self):
        study = limit_scaled_jensen(build_generator("linear"), 2, 1, 24)
        assert study.target.is_inf
        vals = [float(v) for v in study.values]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert study.converged  # unbounded trend past 1e6 * scale

    def test_identical_points_all_zero(self):
        study = limit_scaled_jensen(build_generator("log"), 2, 2, 12)
        assert all(float(v) == 0.0 for v in study.values)
        assert study.converged

    def test_k_max_required(self):
        with pytest.raises(ValueError, match="^k_max must be >= 4$"):
            limit_scaled_jensen(build_generator("log"), 1, 2, 3)

    def test_last_schedule_point_below_one(self):
        study = limit_scaled_jensen(build_generator("log"), 1, 2, 53)
        # The Jensen gap cancels to 0 there, a known limit of the study, so
        # only the schedule is asserted.
        assert study.params[-1] == 1.0 - 2.0**-53 < 1.0

    def test_schedule_shape(self):
        study = limit_scaled_jensen(build_generator("log"), 1, 2, 9)
        assert study.ks == tuple(range(4, 10))
        assert study.params[0] == 1.0 - 2.0**-4


class TestLimitPowerJensen:
    def test_shifted_quadratic(self):
        F = build_generator({"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}})
        study = limit_power_jensen(F, 0, 2, 10)
        assert float(study.target) == qcvx_jensen(F, 0, 2, 0.5)
        assert study.final_error <= 1e-3 * (1 + abs(float(study.target)))
        assert study.converged
        errs = study.errors
        assert all(b < a for a, b in zip(errs, errs[1:]))  # strictly decreasing

    def test_shifted_linear_hand_value(self):
        # error decays like max{F} * ln2 / delta, so the 1e-3*(1+|target|)
        # criterion needs k_max = 12 here (max F = 4 against target 1)
        F = build_generator({"affine": {"a": 1, "b": 1, "inner": {"name": "linear"}}})
        study = limit_power_jensen(F, 1, 3, 12)
        assert float(study.target) == 1.0  # max{2, 4} - F(2)
        assert study.converged
        assert study.errors_nonincreasing_from(6)

    def test_identical_points_all_zero(self):
        F = build_generator({"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}})
        study = limit_power_jensen(F, 2, 2, 10)
        assert all(float(v) == 0.0 for v in study.values)


class TestLimitRPowerBregman:
    def test_finite_branch(self):
        study = limit_r_power_bregman(build_generator("quadratic"), 1, 2, 20)
        assert float(study.target) == 4.0
        assert study.final_error <= 4e-3
        assert study.converged
        errs = study.errors
        assert all(b < a for a, b in zip(errs, errs[1:]))  # strictly decreasing

    def test_infinite_branch(self):
        study = limit_r_power_bregman(build_generator("quadratic"), 2, 1, 20)
        assert study.target.is_inf
        assert study.values[-1].is_inf
        assert study.converged

    @pytest.mark.parametrize("theta,theta_p", [(20.0, 30.0), (30.0, 20.0)])
    def test_schedule_where_both_powers_overflow(self, theta, theta_p):
        # The last steps' log terms were inf - inf = NaN, a stray ValueError.
        study = limit_r_power_bregman(build_generator("quadratic"), theta, theta_p, 1023)
        assert study.converged and float(study.values[-1]) == float(study.target)

    @pytest.mark.parametrize("theta,theta_p,steps", [(1.0, 2.0, 0), (2.0, 1.0, 1)],
                             ids=["finite", "infinite"])
    def test_the_shared_gradient_keeps_the_first_error(self, monkeypatch, theta, theta_p,
                                                       steps):
        # The target takes grad F(theta_p) first on the finite branch, the first
        # step on the infinite one, where the target is +inf without it.
        g = build_generator("quadratic")
        broken = Generator(1, g.eval, g.domain, lambda t: [math.sqrt(-t[0])],
                           g.declared_class, name="broken")
        ran = []
        step = qcdiv.oracles._r_power_bregman
        monkeypatch.setattr(qcdiv.oracles, "_r_power_bregman",
                            lambda *args: ran.append(args[2]) or step(*args))
        with pytest.raises(GradientError, match=rf"^gradient of broken cannot be evaluated "
                                                rf"at \({theta_p},\): math domain error$"):
            limit_r_power_bregman(broken, theta, theta_p, 8)
        assert ran == [1.0] * steps

    def test_identical_points_near_zero(self):
        study = limit_r_power_bregman(build_generator("quadratic"), 2, 2, 20)
        assert all(abs(float(v)) <= 1e-12 for v in study.values)
        assert study.converged


# Each study with its step and its target through the public functions: the
# parameter schedule, the divergence at a parameter, and the closed form.
PUBLIC_STUDIES = {
    "scaled-jensen": (limit_scaled_jensen, lambda k: 1.0 - 2.0**-k,
                      lambda Q, a, t, tp: ExtReal(qcvx_jensen(Q, t, tp, a) / (a * (1.0 - a))),
                      qcvx_bregman),
    "power-jensen": (limit_power_jensen, lambda k: 2.0**k,
                     lambda F, d, t, tp: ExtReal(power_mean_jensen(F, d, 0.5, t, tp)),
                     lambda F, t, tp: ExtReal(qcvx_jensen(F, t, tp, 0.5))),
    "r-power-bregman": (limit_r_power_bregman, lambda k: 2.0**k, r_power_bregman,
                        qcvx_bregman),
}
ONE_D_CATALOG = {c.generator.name: c for c in sweep_catalog() if c.generator.dim == 1}
POSITIVE_CASES = {
    "sqrt": (build_generator("sqrt"), (0.01, 10.0)),
    "shifted quadratic": (build_generator(
        {"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}}), (-5.0, 5.0)),
}


def _bits(v):
    return float.hex(float(v)), v.tie_sensitive


def check_study_against_public(name, Q, t, tp, k_max):
    """Assert each value of the study, and its target, has the bits and the tie
    flag of the public divergence at the same parameter, or that both raise the
    same error.  Returns whether the target is +inf, None when both raised."""
    study_of, param, public, closed = PUBLIC_STUDIES[name]
    k_min = 4 if name == "scaled-jensen" else 0
    try:
        study = study_of(Q, t, tp, k_max)
        got = [_bits(study.target)] + [_bits(v) for v in study.values]
    except ValueError as e:  # every typed error of qcdiv
        got = (type(e), str(e))
    try:
        want = [_bits(closed(Q, t, tp))] + [_bits(public(Q, param(k), t, tp))
                                            for k in range(k_min, k_max + 1)]
    except ValueError as e:  # every typed error of qcdiv
        want = (type(e), str(e))
    assert got == want, (name, Q.name, t, tp, k_max)
    return study.target.is_inf if isinstance(got, list) else None


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=st.sampled_from(sorted(ONE_D_CATALOG)), seed=st.integers(0, 2**32),
       k_max=st.integers(4, 53), swap=st.booleans())
def test_scaled_jensen_steps_are_the_public_divergence(case, seed, k_max, swap):
    Q, rng = ONE_D_CATALOG[case].generator, random.Random(seed)
    t, tp = (sample_point(rng, ONE_D_CATALOG[case].box) for _ in range(2))
    if (Q(t) > Q(tp)) is not swap:  # swap: the infinite branch
        t, tp = tp, t
    check_study_against_public("scaled-jensen", Q, t, tp, k_max)


@pytest.mark.parametrize("name", ["power-jensen", "r-power-bregman"])
@pytest.mark.parametrize("case", POSITIVE_CASES)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(), k_max=st.integers(4, 80), swap=st.booleans())
def test_power_mean_steps_are_the_public_divergence(name, case, data, k_max, swap):
    F, bounds = POSITIVE_CASES[case]
    t, tp = data.draw(st.floats(*bounds)), data.draw(st.floats(*bounds))
    if (F((t,)) > F((tp,))) is not swap:
        t, tp = tp, t
    check_study_against_public(name, F, t, tp, k_max)


def test_the_public_check_covers_both_branches():
    log, F = build_generator("log"), POSITIVE_CASES["shifted quadratic"][0]
    assert check_study_against_public("scaled-jensen", log, 1.0, 2.0, 20) is False
    assert check_study_against_public("scaled-jensen", log, 2.0, 1.0, 20) is True
    assert check_study_against_public("r-power-bregman", F, 2.0, 1.0, 20) is True
    assert check_study_against_public("power-jensen", log, 0.5, 2.0, 20) is None  # log(0.5) < 0


def test_the_public_check_rejects_a_step_scaled_by_1_plus_2_to_the_minus_50(monkeypatch):
    step = qcdiv.oracles._qcvx_jensen
    monkeypatch.setattr(qcdiv.oracles, "_qcvx_jensen",
                        lambda *args: step(*args) * (1.0 + 2.0**-50))
    with pytest.raises(AssertionError):
        check_study_against_public("scaled-jensen", build_generator("log"), 1.0, 2.0, 20)


@pytest.mark.parametrize("study,gen,k_top", [(limit_scaled_jensen, "log", 53),
                                              (limit_power_jensen, "sqrt", 1023),
                                              (limit_r_power_bregman, "sqrt", 1023)])
@pytest.mark.parametrize("past", [1, 1100])
def test_schedule_past_the_floats_raises_before_any_step(study, gen, k_top, past):
    # Past k_top, 1 - 2^-k rounds to 1 or 2^k overflows.
    calls = []
    g = build_generator(gen)
    g = type(g)(g.dim, lambda t: calls.append(t) or g.eval(t), g.domain, g.grad,
                g.declared_class, name=g.name)
    k_max = k_top + past
    with pytest.raises(ValueError, match=f"^k_max must be <= {k_top}: .* got {k_max}$"):
        study(g, 1.0, 2.0, k_max)
    assert calls == []


def test_monotone_convergence_on_finite_branches():
    """Dyadic error sequences settle into non-increasing decay after k = 6."""
    rng = random.Random(71)
    gens = ["log", "sqrt", "quadratic", "cubic"]
    boxes = {"log": (0.1, 10), "sqrt": (0.1, 10), "quadratic": (-5, 5), "cubic": (-4, 4)}
    for name in gens:
        Q = build_generator(name)
        lo, hi = boxes[name]
        for _ in range(25):
            t, tp = rng.uniform(lo, hi), rng.uniform(lo, hi)
            if Q((t,)) > Q((tp,)):
                t, tp = tp, t
            study = limit_scaled_jensen(Q, t, tp, 20)
            assert study.errors_nonincreasing_from(6), (name, t, tp, study.errors)


def test_nestedness_claim_along_average_segment():
    """Shifted sublevel ordering holds at every quadrature node for valid triples."""
    rng = random.Random(73)
    checked = 0
    cases = [c for c in sweep_catalog() if c.generator.dim == 1]
    while checked < 1000:
        case = cases[checked % len(cases)]
        Q = case.generator
        t = sample_point(rng, case.box)[0]
        tp = sample_point(rng, case.box)[0]
        if Q((t,)) > Q((tp,)):
            t, tp = tp, t
        delta = rng.uniform(0.1, 1.5)
        if not Q.domain.contains((tp + delta * (tp - t),)):
            continue
        checked += 1
        integrate_delta_average(Q, t, tp, delta)  # raises on any infinite node


def test_csv_rows_format():
    study = limit_scaled_jensen(build_generator("log"), 1, 2, 6)
    rows = list(study.csv_rows())
    assert rows[0] == "k,param,value,error"
    assert len(rows) == 4  # header + k in {4, 5, 6}
    k, param, value, error = rows[1].split(",")
    assert int(k) == 4
    assert float(param) == 1 - 2.0**-4
    assert float(value) > 0
    assert float(error) > 0


def test_csv_rows_infinite_token():
    study = limit_r_power_bregman(build_generator("quadratic"), 2, 1, 12)
    rows = list(study.csv_rows())
    assert any(",inf," in row or row.endswith("inf") for row in rows[1:])


@pytest.mark.parametrize("values, trend", [
    ((1.0, 2.0, math.inf), True),
    ((1.0, 2.0, 3e6), True),  # past UNBOUNDED_FACTOR * scale
    ((1.0, 2.0, 3.0), False),
    ((1.0, math.inf, 2.0), False),  # a finite value after an inf one
    ((1.0, 3.0, 2.0, math.inf), False),  # a finite prefix that does not increase
])
def test_unbounded_trend(values, trend):
    study = LimitStudy("scaled-jensen", tuple(range(4, 4 + len(values))),
                       (0.5,) * len(values), tuple(map(ExtReal, values)), POS_INF, 1e-4, 1.0)
    assert study.unbounded_trend is trend
    assert study.converged is trend
