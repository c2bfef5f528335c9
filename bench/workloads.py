"""The benchmark's three workloads: sweep, oracle and cli.

A workload turns its seed into a fixed schedule of operations; the program
sees only the generated inputs.  An operation's ``run()`` is the timed call
into the program and ``verify(out)`` checks the output outside the timed
region, returning ``(units of work, Failure or None)``.

Reference values come from the paper's closed forms evaluated here, or from
the library's own functions where the check is "the CLI prints what the
library computes".  CLI output is formatted here from the conventions in the
README (``inf`` token, 6 significant digits plain, 17 in csv/json), not with
the CLI's own formatter.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import refclock

MODULES = ("core", "jensen", "means", "bregman", "statdiv", "oracles", "checks", "cli")


class ProgramMissing(RuntimeError):
    """The checkout holds no qcdiv sources to benchmark."""


def load_program(root: Path) -> SimpleNamespace:
    """Import qcdiv from ``root/src`` (never from anywhere else)."""
    src = root / "src"
    if not (src / "qcdiv" / "__init__.py").is_file():
        raise ProgramMissing(f"no qcdiv package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("qcdiv")
    if Path(package.__file__).resolve().parent != (src / "qcdiv").resolve():
        raise ProgramMissing(f"qcdiv imported from {package.__file__}, not from {src}")
    modules = {m: importlib.import_module(f"qcdiv.{m}") for m in MODULES}
    return SimpleNamespace(root=root, src=src, **modules)


def child_env(lib) -> dict:
    """Environment for child interpreters: this checkout's sources, bytecode cached.

    Caching is on whatever the parent's setting, so a cold `qcdiv` process
    costs what it costs an installed package; the cache stays inside the
    checkout (src/qcdiv/__pycache__).
    """
    env = dict(os.environ, PYTHONPATH=str(lib.src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass(frozen=True)
class Failure:
    kind: str
    detail: str


# Failures that reproduce defects already known in this program.  They count
# in ``failed`` like any other; a failure of any other kind means the outputs
# are wrong in a new way, and the run reports ``correct: false``.
KNOWN_DEFECTS = {
    # oracles.integrate returns at max_depth without meeting abs_tol.
    ("oracle", "c:x^s", "tol-miss"),
    # limit_scaled_jensen at k near 40: 1 - alpha = 2^-k, so the Jensen gap
    # cancels to a few ulps and the scaled value misses the gradient target.
    ("oracle", "d:scaled-jensen", "no-convergence"),
    # cli.main lets arithmetic errors escape as tracebacks (exit 1).
    ("cli", "eval", "traceback:OverflowError"),
    ("cli", "eval", "traceback:ZeroDivisionError"),
}


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n draws, one uniform draw in each of n equal strata of [lo, hi], shuffled.

    Keeps every seed's mix of easy and hard inputs the same, so timings from
    different seeds measure the same workload.
    """
    xs = [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]
    rng.shuffle(xs)
    return xs


def interleave(*groups) -> list:
    """Round-robin merge, so any prefix of the schedule holds every slice."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# --------------------------------------------------------------------------
# sweep: batches of randomized property suites, in process
# --------------------------------------------------------------------------

SWEEP_SUITES = ("identities", "first-order", "one-sided-infinity", "delta-positivity", "means")
SWEEP_SAMPLES = 25  # per suite per batch
SWEEP_BATCHES = 100
SWEEP_TRACED = 8  # batches in the traced run


class SuiteBatch:
    group = "batch"

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def run(self):
        return [self.lib.checks.run_suite(name, SWEEP_SAMPLES, self.seed) for name in SWEEP_SUITES]

    def verify(self, results):
        bad = [f"{r.suite}: {r.failures[0]}" for r in results if not r.passed]
        failure = Failure("suite-failure", "; ".join(bad)) if bad else None
        return sum(r.checked for r in results), failure


class Sweep:
    name = "sweep"
    reference = staticmethod(refclock.seconds)
    reference_nominal_s = refclock.NOMINAL_S

    def __init__(self, lib, seed: int):
        self.lib, self.seed = lib, seed
        rng = random.Random(seed)
        self.ops = [SuiteBatch(lib, rng.getrandbits(31)) for _ in range(SWEEP_BATCHES)]
        self.trace_ops = self.ops[:SWEEP_TRACED]

    def warm_up(self):
        self.ops[0].run()

    def summary(self, stats) -> dict:
        batches = stats.latencies()
        return {
            "checks_per_s": stats.rate(),
            "batch_ms_p50": (quantile(batches, 0.5) * 1e3, "ms", len(batches)),
            "batch_ms_p90": (quantile(batches, 0.9) * 1e3, "ms", len(batches)),
        }

    def end_to_end(self, stats) -> dict:
        s = self.summary(stats)
        return {"work_per_s": s["checks_per_s"], "op_ms_p50": s["batch_ms_p50"],
                "op_ms_p90": s["batch_ms_p90"]}


# --------------------------------------------------------------------------
# oracle: seeded integrals and limit studies, in process
# --------------------------------------------------------------------------

ORACLE_BLOCKS = 8  # the schedule is this many interleaved blocks
ORACLE_TRACED = 1  # blocks in the traced run
KL_PAIRS, DELTA_CASES, POWER_CASES, LIMIT_CASES = 8, 16, 12, 12  # per block
LIMIT_K = 40


class KlIntegral:
    """(a) kl_quadrature on a nested pair against the closed form."""

    def __init__(self, lib, p, q, exact: float, family: str):
        self.lib, self.p, self.q, self.exact = lib, p, q, exact
        self.group = f"a:kl-{family}"

    def run(self):
        return self.lib.oracles.kl_quadrature(self.p, self.q)

    def verify(self, value):
        err = abs(float(value) - self.exact)
        # kl_quadrature asks integrate for its default abs_tol of 1e-10.
        return 1, (Failure("tol-miss", f"{self.group} error {err:.3g}") if err > 1e-10 else None)


class DeltaAverageIntegral:
    """(b) integrate_delta_average against the delta-averaged closed form."""

    group = "b:delta-average"

    def __init__(self, lib, g, t: float, tp: float, delta: float):
        self.lib, self.g, self.t, self.tp, self.delta = lib, g, t, tp, delta
        # (Q(tp + delta (tp - t)) - Q(tp)) / delta from raw generator values.
        self.exact = (g.eval((tp + delta * (tp - t),)) - g.eval((tp,))) / delta
        self.span = abs(delta * (tp - t))

    def run(self):
        return self.lib.oracles.integrate_delta_average(self.g, self.t, self.tp, self.delta)

    def verify(self, value):
        # The integral over the averaging span was asked for abs_tol 1e-10.
        err = abs(value - self.exact) * self.span
        return 1, (Failure("tol-miss", f"{self.g.name} integral error {err:.3g}")
                   if err > 1e-10 else None)


class PowerIntegral:
    """(c) integrate(x**s, 0, 1) against 1/(s+1); singular at the left endpoint."""

    group = "c:x^s"

    def __init__(self, lib, s: float):
        self.lib, self.s, self.exact = lib, s, 1.0 / (s + 1.0)

    def run(self):
        s = self.s
        return self.lib.oracles.integrate(lambda x: x**s, 0.0, 1.0, abs_tol=1e-10)

    def verify(self, result):
        err = abs(result.value - self.exact)
        return 1, (Failure("tol-miss", f"s={self.s:.4f} error {err:.3g}") if err > 1e-10 else None)


class LimitRun:
    """(d) one dyadic limit study to k_max=40; it must converge."""

    def __init__(self, lib, study: str, g, t: float, tp: float):
        self.lib, self.study, self.g, self.t, self.tp = lib, study, g, t, tp
        self.fn_name = "limit_" + study.replace("-", "_")
        self.group = f"d:{study}"

    def run(self):
        return getattr(self.lib.oracles, self.fn_name)(self.g, self.t, self.tp, LIMIT_K)

    def verify(self, study):
        if study.converged:
            return 1, None
        return 1, Failure("no-convergence",
                          f"{self.study} {self.g.name} t={self.t:.6g} tp={self.tp:.6g} "
                          f"final error {study.final_error:.3g}")


def _finite_pair(rng, g, lo, hi):
    """Two points with g(t) <= g(tp): the finite branch."""
    t, tp = rng.uniform(lo, hi), rng.uniform(lo, hi)
    if g.eval((t,)) > g.eval((tp,)):
        t, tp = tp, t
    return t, tp


class Oracle:
    name = "oracle"
    reference = staticmethod(refclock.seconds)
    reference_nominal_s = refclock.NOMINAL_S

    def __init__(self, lib, seed: int):
        self.lib, self.seed = lib, seed
        rng = random.Random(seed)
        build = lib.core.build_generator
        catalog = [c for c in lib.checks.sweep_catalog() if c.generator.dim == 1]
        positive = (
            (build("sqrt"), 0.1, 10.0),
            (build({"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}}), -5.0, 5.0),
        )
        scaled = [(build(n), lo, hi) for n, lo, hi in
                  (("log", 0.1, 10.0), ("sqrt", 0.1, 10.0), ("quadratic", -5.0, 5.0),
                   ("cubic", -4.0, 4.0))]
        self.ops = []
        for _ in range(ORACLE_BLOCKS):
            kl = []
            for alpha in stratified(rng, KL_PAIRS, 1.2, 4.0):
                a, b = sorted((rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)))
                kl.append(KlIntegral(lib, lib.statdiv.PowerNested(alpha, a),
                                     lib.statdiv.PowerNested(alpha, b), alpha * (b - a), "power"))
                a, b = sorted((rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)))
                kl.append(KlIntegral(lib, lib.statdiv.NestedUniform(a),
                                     lib.statdiv.NestedUniform(b), b - a, "uniform"))
            delta = []
            for i, d in enumerate(stratified(rng, DELTA_CASES, 0.1, 1.5)):
                case = catalog[i % len(catalog)]
                (lo, hi), = ((iv.lower, iv.upper) for iv in case.box.intervals)
                while True:
                    t, tp = _finite_pair(rng, case.generator, lo, hi)
                    if t != tp and case.generator.domain.contains((tp + d * (tp - t),)):
                        break
                delta.append(DeltaAverageIntegral(lib, case.generator, t, tp, d))
            power = [PowerIntegral(lib, s) for s in stratified(rng, POWER_CASES, -0.9, -0.3)]
            limits = []
            for i in range(LIMIT_CASES):
                kind = ("scaled-jensen", "power-jensen", "r-power-bregman")[i % 3]
                g, lo, hi = (scaled[(i // 3) % len(scaled)] if kind == "scaled-jensen"
                             else positive[(i // 3) % len(positive)])
                t, tp = _finite_pair(rng, g, lo, hi)
                if i % 2:  # every other study runs on the infinite branch
                    t, tp = tp, t
                limits.append(LimitRun(lib, kind, g, t, tp))
            self.ops += interleave(kl, delta, power, limits)
        self.trace_ops = self.ops[: len(self.ops) * ORACLE_TRACED // ORACLE_BLOCKS]

    def warm_up(self):
        for op in self.ops[:8]:
            op.run()

    def summary(self, stats) -> dict:
        integrals = stats.latencies(lambda g: g[0] in "abc")
        out = {
            "integrals_per_s": stats.rate(lambda g: g[0] in "abc"),
            "integral_ms_p50": (quantile(integrals, 0.5) * 1e3, "ms", len(integrals)),
            "integral_ms_p99": (quantile(integrals, 0.99) * 1e3, "ms", len(integrals)),
            "limit_studies_per_s": stats.rate(lambda g: g[0] == "d"),
        }
        for part in "abc":
            out[f"integrals_per_s.{part}"] = stats.rate(lambda g, part=part: g[0] == part)
        return out

    def end_to_end(self, stats) -> dict:
        xs = stats.latencies()
        return {
            "work_per_s": stats.rate(),
            "op_ms_p50": (quantile(xs, 0.5) * 1e3, "ms", len(xs)),
            "op_ms_p90": (quantile(xs, 0.9) * 1e3, "ms", len(xs)),
        }


# --------------------------------------------------------------------------
# cli: sequential `python -m qcdiv` processes, one client, closed loop
# --------------------------------------------------------------------------

CLI_EVALS_PER_DIV = 4
CLI_TIMEOUT_S = 60

GENS_1D = (
    ("linear", -5.0, 5.0), ("quadratic", -5.0, 5.0), ("cubic", -4.0, 4.0),
    ("sqrt", 0.1, 10.0), ("log", 0.1, 10.0), ("abs", -5.0, 5.0), ("neg-gauss", -3.0, 3.0),
    ('{"name": "linear-fractional", "a": 1, "b": 0, "c": 1, "d": 2}', -1.5, 10.0),
)
GENS_2D = (
    ('{"name": "log-norm-sq", "dim": 2}', 0.1, 10.0),
    ('{"name": "neg-gauss", "dim": 2}', -3.0, 3.0),
    ('{"separable": [{"name": "quadratic"}, {"name": "abs"}]}', -5.0, 5.0),
)
GENS_POSITIVE = (
    ("sqrt", 0.1, 10.0),
    ('{"affine": {"a": 1, "b": 1, "inner": {"name": "quadratic"}}}', 0.1, 5.0),
)
CUMULANTS = (
    ('{"affine": {"a": 0.5, "b": 0, "inner": {"name": "quadratic"}}}', -4.0, 4.0, 1),
    ('{"separable": [{"affine": {"a": 0.5, "inner": {"name": "quadratic"}}}, '
     '{"affine": {"a": 0.5, "inner": {"name": "quadratic"}}}]}', -4.0, 4.0, 2),
)


def fmt_number(v, digits: int) -> str:
    v = float(v)
    if math.isinf(v):
        return "inf"
    return format(0.0 if v == 0.0 else v, f".{digits}g")


def _flag(name: str, value) -> str:
    if isinstance(value, tuple):
        text = ",".join(repr(float(x)) for x in value)
    else:
        text = repr(float(value)) if isinstance(value, float) else str(value)
    return f"--{name}={text}"


class Invocation:
    """One `qcdiv` command line with the exit code and stdout it must produce."""

    def __init__(self, lib, argv: list, expect_code: int, expect_stdout, rows: int = 0):
        """``expect_stdout`` is the text, or a function computing it on first use."""
        self.lib, self.argv = lib, argv
        self.group = argv[0]
        self.expect_code, self.expect_stdout = expect_code, expect_stdout
        self.units = rows or 1

    def run(self):
        proc = subprocess.run([sys.executable, "-m", "qcdiv", *self.argv], cwd=self.lib.root,
                              env=child_env(self.lib), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        crash = None
        if "Traceback (most recent call last)" in proc.stderr:
            crash = proc.stderr.strip().splitlines()[-1].split(":", 1)[0]
        return proc.returncode, proc.stdout, crash

    def run_in_process(self):
        """cli.main(argv) in this process with stdout/stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.main(list(self.argv))
            except SystemExit as e:
                code = e.code
            except Exception as e:  # an uncaught error would exit 1 with a traceback
                code, crash = 1, type(e).__name__
        return code, out.getvalue(), crash

    def verify(self, out):
        code, stdout, crash = out
        if crash is not None:
            return 0, Failure(f"traceback:{crash}", " ".join(self.argv))
        if code != self.expect_code:
            return 0, Failure(f"exit:{code}", f"expected {self.expect_code}: {' '.join(self.argv)}")
        if callable(self.expect_stdout):
            self.expect_stdout = self.expect_stdout()
        if stdout != self.expect_stdout:
            return 0, Failure("stdout-mismatch", " ".join(self.argv))
        return self.units, None


def _library_value(fn):
    """(value, None) from the library, or (None, exception) if it raises."""
    try:
        return fn(), None
    except Exception as e:  # any raise means the CLI must exit 2 with no traceback
        return None, e


class Cli:
    name = "cli"
    reference_nominal_s = refclock.INTERPRETER_NOMINAL_S

    def __init__(self, lib, seed: int):
        self.lib, self.seed = lib, seed
        rng = random.Random(seed)
        ops = [self._eval(rng, div) for div in EVAL_CASES for _ in range(CLI_EVALS_PER_DIV)]
        ops += self._crashes(rng) + self._invalid(rng)
        ops += [self._table(rng, "qcvx-bregman", "log", lib.bregman.qcvx_bregman),
                self._table(rng, "qcvx-jensen", "sqrt", lib.jensen.qcvx_jensen,
                            rng.uniform(0.1, 0.9)),
                self._table(rng, "ext-bregman", "cubic", lib.bregman.extended_bregman),
                self._table(rng, "bregman", "quadratic", lib.bregman.bregman),
                self._table(rng, "qcvx-bregman", "sqrt", lib.bregman.qcvx_bregman),
                self._table(rng, "ext-jensen", "log", lib.jensen.extended_jensen,
                            rng.uniform(0.1, 0.9))]
        ops += [self._limit(rng, study) for study in ("scaled-jensen", "r-power-bregman")]
        ops.append(self._check(rng))
        rng.shuffle(ops)
        self.ops = self.trace_ops = ops

    def warm_up(self):
        next(op for op in self.ops if op.expect_code == 0).run()

    def reference(self) -> float:
        return refclock.interpreter_seconds(child_env(self.lib))

    # -- eval ------------------------------------------------------------------

    def _eval(self, rng, div: str) -> Invocation:
        lib = self.lib
        for _ in range(20):  # resample until the library accepts the inputs
            flags, compute = EVAL_CASES[div](lib, rng)
            value, error = _library_value(compute)
            if error is None:
                break
        fmt = rng.choice(("plain", "csv", "json"))
        argv = ["eval", f"--div={div}", *flags, f"--format={fmt}"]
        if error is not None:
            return Invocation(lib, argv, 2, "")
        if fmt == "plain":
            text = fmt_number(value, 6) + "\n"
        elif fmt == "csv":
            text = "value\n" + fmt_number(value, 17) + "\n"
        else:
            inf = math.isinf(float(value))
            text = '{"value": %s}\n' % ('"inf"' if inf else fmt_number(value, 17))
        return Invocation(lib, argv, 0, text)

    def _crashes(self, rng) -> list:
        """The two arithmetic errors that escape cli.main as tracebacks."""
        lib, means, build = self.lib, self.lib.means, self.lib.core.build_generator
        ops = []
        p, q, d2 = rng.uniform(5.0, 20.0), rng.uniform(0.5, 2.0), rng.uniform(1500.0, 3000.0)
        cases = (
            # F(p)^delta2 overflows: p^2 >= 25 raised to >= 1500.
            ("quadratic", p, q, 1.0, d2),
            # log(1) = 0 is F(q), the divisor of the first term.
            ("log", rng.uniform(1.5, 5.0), 1.0, rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)),
        )
        for gen, p, q, d1, d2 in cases:
            _, error = _library_value(lambda: means.power_mean_bregman(build(gen), d1, d2, p, q))
            argv = ["eval", "--div=power-bregman", f"--gen={gen}", _flag("delta1", d1),
                    _flag("delta2", d2), _flag("theta", p), _flag("theta-prime", q)]
            ops.append(Invocation(lib, argv, 2 if error else 0, ""))
        return ops

    def _invalid(self, rng) -> list:
        """Usage and configuration errors: exit 2, no stdout, no traceback."""
        lib = self.lib
        t = rng.uniform(0.5, 5.0)
        argvs = (
            ["eval", "--div=no-such-divergence", _flag("theta", t)],
            ["eval", "--div=qcvx-jensen", "--gen=log", _flag("theta", t),
             _flag("theta-prime", 2 * t)],
            ["eval", "--div=qcvx-bregman", "--gen=log", _flag("theta", -t),
             _flag("theta-prime", t)],
            ["eval", "--div=qcvx-bregman", '--gen={"name": "no-such-generator"}',
             _flag("theta", t), _flag("theta-prime", t)],
            ["limit-study", "--study=scaled-jensen", "--gen=log", _flag("theta", t),
             _flag("theta-prime", 2 * t), "--k-max=41"],
        )
        return [Invocation(lib, list(a), 2, "") for a in argvs]

    # -- table, limit-study, check --------------------------------------------

    def _table(self, rng, div: str, gen: str, fn, alpha=None) -> Invocation:
        lib = self.lib
        g = lib.core.build_generator(gen)
        lo, step = round(rng.uniform(0.5, 2.0), 3), 0.01
        hi = lo + 1.0
        # Grid semantics documented by `qcdiv table`: lo + i*step, both axes.
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        points = [lo + i * step for i in range(count)]
        extra = () if alpha is None else (alpha,)

        def expected():
            lines = ["theta,theta_prime,value"]
            for a in points:
                for b in points:
                    v = fn(g, (a,), (b,), *extra)
                    lines.append(f"{fmt_number(a, 17)},{fmt_number(b, 17)},{fmt_number(v, 17)}")
            return "\n".join(lines) + "\n"

        argv = ["table", f"--div={div}", f"--gen={gen}", _flag("grid-min", lo),
                _flag("grid-max", hi), _flag("grid-step", step)]
        argv += [_flag("alpha", a) for a in extra]
        return Invocation(lib, argv, 0, expected, rows=count * count)

    def _limit(self, rng, study: str) -> Invocation:
        lib = self.lib
        gen, lo, hi = ("log", 0.1, 10.0) if study == "scaled-jensen" else GENS_POSITIVE[1]
        g = lib.core.build_generator(gen)
        t, tp = _finite_pair(rng, g, lo, hi)
        k_max = rng.randint(12, 40)
        result = getattr(lib.oracles, "limit_" + study.replace("-", "_"))(g, (t,), (tp,), k_max)
        lines = ["k,param,value,error"] + [
            f"{k},{fmt_number(p, 17)},{fmt_number(v, 17)},{fmt_number(e, 17)}"
            for k, p, v, e in zip(result.ks, result.params, result.values, result.errors)
        ]
        argv = ["limit-study", f"--study={study}", f"--gen={gen}", _flag("theta", t),
                _flag("theta-prime", tp), f"--k-max={k_max}"]
        return Invocation(lib, argv, 0 if result.converged else 1, "\n".join(lines) + "\n")

    def _check(self, rng) -> Invocation:
        suite = rng.choice(("means", "delta-positivity", "kl-quadrature"))
        samples, seed = 20, rng.getrandbits(31)
        result = self.lib.checks.run_suite(suite, samples, seed)
        status = "PASS" if result.passed else "FAIL"
        lines = [f"suite {suite}: {result.checked} checks, "
                 f"{len(result.failures)} failures -> {status}"]
        lines += [f"  witness: {w}" for w in result.failures[:5]]
        argv = ["check", f"--suite={suite}", f"--samples={samples}", f"--seed={seed}"]
        return Invocation(self.lib, argv, 0 if result.passed else 1, "\n".join(lines) + "\n")

    # -- metrics ---------------------------------------------------------------

    def summary(self, stats) -> dict:
        evals = stats.latencies(lambda g: g == "eval", lambda op: op.expect_code == 0)
        return {
            "cli_eval_ms_p50": (quantile(evals, 0.5) * 1e3, "ms", len(evals)),
            "cli_eval_ms_p90": (quantile(evals, 0.9) * 1e3, "ms", len(evals)),
            "cli_table_rows_per_s": stats.rate(lambda g: g == "table"),
        }

    def end_to_end(self, stats) -> dict:
        s = self.summary(stats)
        return {"work_per_s": s["cli_table_rows_per_s"], "op_ms_p50": s["cli_eval_ms_p50"],
                "op_ms_p90": s["cli_eval_ms_p90"]}


def _point(rng, lo, hi, dim):
    v = tuple(rng.uniform(lo, hi) for _ in range(dim))
    return v[0] if dim == 1 else v


def _pick(rng, gens):
    spec, lo, hi = gens[rng.randrange(len(gens))]
    return spec, lo, hi


def _binary(fn_of, gens, extra=lambda rng: {}):
    """Case maker for --div values of the form fn(G, theta, theta_p, **extra)."""
    def make(lib, rng):
        spec, lo, hi = _pick(rng, gens)
        g = lib.core.build_generator(spec)
        t, tp = _point(rng, lo, hi, g.dim), _point(rng, lo, hi, g.dim)
        params = extra(rng)
        flags = [f"--gen={spec}", _flag("theta", t), _flag("theta-prime", tp)]
        flags += [_flag(k.replace("_", "-"), v) for k, v in params.items()]
        return flags, lambda: fn_of(lib)(g, t, tp, *params.values())
    return make


def _skew(rng):
    return {"alpha": rng.uniform(0.05, 0.95)}


def _negated(gens):
    return tuple((json.dumps({"negate": _as_spec(s)}), lo, hi) for s, lo, hi in gens)


def _as_spec(text: str):
    return json.loads(text) if text.startswith("{") else {"name": text}


def _mn_jensen(lib, rng):
    means, build = lib.means, lib.core.build_generator
    spec, lo, hi = GENS_POSITIVE[0]
    g = build(spec)
    t, tp, alpha = rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(0.05, 0.95)
    m_text = rng.choice(("arithmetic", "power:2", "max", "min", "qa:log"))
    n_text = rng.choice(("arithmetic", "power:3", "max", "min"))

    def mean(text):
        if text.startswith("power:"):
            return means.MeanSpec.power(float(text[6:]))
        if text.startswith("qa:"):
            return means.MeanSpec.quasi_arithmetic(build(text[3:]))
        return {"arithmetic": means.MeanSpec.arithmetic(), "max": means.MeanSpec.maximum(),
                "min": means.MeanSpec.minimum()}[text]

    flags = [f"--gen={spec}", _flag("theta", t), _flag("theta-prime", tp), _flag("alpha", alpha),
             f"--mean-m={m_text}", f"--mean-n={n_text}"]
    return flags, lambda: means.mn_jensen(g, mean(m_text), mean(n_text), alpha, t, tp)


def _power_bregman(lib, rng):
    spec, lo, hi = _pick(rng, GENS_POSITIVE)
    g = lib.core.build_generator(spec)
    p, q = rng.uniform(lo, hi), rng.uniform(lo, hi)
    d1, d2 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    flags = [f"--gen={spec}", _flag("delta1", d1), _flag("delta2", d2), _flag("theta", p),
             _flag("theta-prime", q)]
    return flags, lambda: lib.means.power_mean_bregman(g, d1, d2, p, q)


def _r_power_bregman(lib, rng):
    spec, lo, hi = _pick(rng, GENS_POSITIVE)
    g = lib.core.build_generator(spec)
    t, tp, r = rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(1.0, 50.0)
    flags = [f"--gen={spec}", _flag("r", r), _flag("theta", t), _flag("theta-prime", tp)]
    return flags, lambda: lib.means.r_power_bregman(g, r, t, tp)


def _kl_nested(power: bool):
    def make(lib, rng):
        t, tp = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        flags = [_flag("theta", t), _flag("theta-prime", tp)]
        if not power:
            return flags, lambda: lib.statdiv.kl_nested_uniform(t, tp)
        a = rng.uniform(1.2, 4.0)
        return flags + [_flag("exponent", a)], lambda: lib.statdiv.kl_power_nested(a, t, tp)
    return make


def _expfam(name: str, unary: bool = False):
    def make(lib, rng):
        spec, lo, hi, dim = CUMULANTS[rng.randrange(len(CUMULANTS))]
        fam = lib.statdiv.ExpFamily(lib.core.build_generator(spec))
        t, tp = _point(rng, lo, hi, dim), _point(rng, lo, hi, dim)
        fn = getattr(lib.statdiv, name)
        if unary:
            return [f"--gen={spec}", _flag("theta", t)], lambda: fn(fam, t)
        return ([f"--gen={spec}", _flag("theta", t), _flag("theta-prime", tp)],
                lambda: fn(fam, t, tp))
    return make


ALL_GENS = GENS_1D + GENS_2D
EVAL_CASES = {
    "qcvx-jensen": _binary(lambda lib: lib.jensen.qcvx_jensen, ALL_GENS, _skew),
    "qccv-jensen": _binary(lambda lib: lib.jensen.qccv_jensen, _negated(ALL_GENS), _skew),
    "log-ratio": _binary(lambda lib: lib.jensen.log_ratio_gap, GENS_POSITIVE, _skew),
    "ext-jensen": _binary(lambda lib: lib.jensen.extended_jensen, ALL_GENS, _skew),
    "mn-jensen": _mn_jensen,
    "power-jensen": _binary(
        lambda lib: lambda g, t, tp, delta, alpha: lib.means.power_mean_jensen(
            g, delta, alpha, t, tp),
        GENS_POSITIVE,
        lambda rng: {"delta": rng.uniform(0.5, 8.0), "alpha": rng.uniform(0.05, 0.95)}),
    "bregman": _binary(lambda lib: lib.bregman.bregman, ALL_GENS),
    "qcvx-bregman": _binary(lambda lib: lib.bregman.qcvx_bregman, ALL_GENS),
    "delta-qcvx-bregman": _binary(lambda lib: lib.bregman.delta_averaged_qcvx_bregman, ALL_GENS,
                                  lambda rng: {"delta": rng.uniform(0.1, 1.5)}),
    "ext-bregman": _binary(lambda lib: lib.bregman.extended_bregman, ALL_GENS),
    "power-bregman": _power_bregman,
    "r-power-bregman": _r_power_bregman,
    "kl-nested-uniform": _kl_nested(power=False),
    "kl-power-nested": _kl_nested(power=True),
    "expfam-kl": _expfam("expfam_kl"),
    "expfam-entropy": _expfam("expfam_entropy", unary=True),
    "expfam-cross-entropy": _expfam("expfam_cross_entropy"),
}


# --------------------------------------------------------------------------

def quantile(xs, q: float) -> float:
    """Nearest-rank quantile (q=0.5 gives the median of an odd count)."""
    if not xs:
        return 0.0
    ordered = sorted(xs)
    if q == 0.5:
        n = len(ordered)
        return (ordered[(n - 1) // 2] + ordered[n // 2]) / 2
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


WORKLOADS = {w.name: w for w in (Sweep, Oracle, Cli)}


def prepare(root: Path, name: str, seed: int):
    """Import the program, build the seed's schedule and warm it up: the set-up step."""
    workload = WORKLOADS[name](load_program(root), seed)
    workload.warm_up()
    return workload
