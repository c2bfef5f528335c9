"""The randomized property suites' pinned runs: the corpus of ``data/suite_pins.json``.

The file holds every suite's ``(checked, failed, failures)`` and report lines
on a few ``(samples, seed)`` pairs, and on forced-failure runs in which one
library function, as ``checks.py`` sees it, is replaced so that each property
fails and its witness format shows.
"""

from functools import partial
from unittest.mock import patch

import qcdiv.checks
from qcdiv.checks import SUITES, run_suite
from qcdiv.core import ExtReal
from qcdiv.oracles import NonConvergenceError


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
    "weighted_mean+1e3": ("_weighted_mean", _shifted(1e3), ("means",)),
    "weighted_mean power negated": ("_weighted_mean", _power_negated, ("means",)),
    "weighted_mean arithmetic+1": ("_weighted_mean", _arithmetic_shifted, ("means",)),
    "mn_jensen+1": ("_mn_jensen", _shifted(1.0), ("means",)),
}
FORCED_SAMPLES, FORCED_SEED = 12, 1


def _pinned_run(suite, samples, seed):
    """The pinned record of one suite run."""
    r = run_suite(suite, samples, seed)
    return {"checked": r.checked, "failed": r.failed, "failures": list(r.failures),
            "report": list(r.report_lines())}


def _forced_run(suite, attr, replace):
    """The pinned record of a forced-failure run: ``attr`` replaced while the suite runs."""
    with patch.object(qcdiv.checks, attr, replace(getattr(qcdiv.checks, attr))):
        return _pinned_run(suite, FORCED_SAMPLES, FORCED_SEED)


# key -> a zero-argument call that makes the run's record
CORPUS = {f"{suite} {samples} {seed}": partial(_pinned_run, suite, samples, seed)
          for suite in sorted(SUITES)
          for samples, seed in ((1, 0), (7, 3), (40, 11), (120, 4242))}
CORPUS.update({f"{name}: {suite} {FORCED_SAMPLES} {FORCED_SEED}":
               partial(_forced_run, suite, attr, replace)
               for name, (attr, replace, suites) in FORCED.items() for suite in suites})


def record(run):
    return run()
