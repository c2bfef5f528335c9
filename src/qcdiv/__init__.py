"""Quasiconvex Jensen and Bregman divergences with numeric-oracle verification.

The library covers the inequality-gap (Jensen-type) divergences of
quasiconvex and quasiconcave generators, the quasiconvex Bregman
pseudo-divergence and its delta-averaged repair, their comparative-convexity
(power-mean) generalizations, and the Kullback-Leibler closed forms for
nested-support families, together with the quadrature and limit-study oracles
that verify every closed form at desk scale.
"""

from types import ModuleType as _ModuleType

from .core import (
    Box,
    DimensionError,
    DomainError,
    ExtReal,
    Generator,
    GeneratorClassWarning,
    GradientError,
    Interval,
    NonPositiveError,
    POS_INF,
    PreconditionError,
    QuasiconvexityReport,
    RangeError,
    SpecError,
    ViolationWitness,
    as_vector,
    bounded_box,
    build_generator,
    check_quasiconvex,
    eval_generator,
    gradient,
    interpolate,
    positive_ray,
    real_line,
)
from .jensen import extended_jensen, log_ratio_gap, qccv_jensen, qcvx_jensen
from .means import (
    MeanSpec,
    mn_jensen,
    power_mean_bregman,
    power_mean_jensen,
    r_power_bregman,
    weighted_mean,
)
from .bregman import (
    bregman,
    delta_averaged_qcvx_bregman,
    extended_bregman,
    qcvx_bregman,
)
from .statdiv import (
    ExpFamily,
    NestedUniform,
    PowerNested,
    expfam_cross_entropy,
    expfam_entropy,
    expfam_kl,
    kl_nested_uniform,
    kl_power_nested,
    qcvx_bregman_from_kl,
)
from .oracles import (
    InfiniteIntegrandError,
    LimitStudy,
    NonConvergenceError,
    QuadratureResult,
    integrate,
    integrate_delta_average,
    kl_quadrature,
    limit_power_jensen,
    limit_r_power_bregman,
    limit_scaled_jensen,
)
from .checks import SuiteResult, run_suite, sweep_catalog

__version__ = "0.1.0"

# The public API is every name bound above, so it has one list: the imports.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
