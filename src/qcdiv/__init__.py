"""Quasiconvex Jensen and Bregman divergences with numeric-oracle verification.

The library covers the inequality-gap (Jensen-type) divergences of
quasiconvex and quasiconcave generators, the quasiconvex Bregman
pseudo-divergence and its delta-averaged repair, their comparative-convexity
(power-mean) generalizations, and the Kullback-Leibler closed forms for
nested-support families, together with the quadrature and limit-study oracles
that verify every closed form at desk scale.
"""

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

__all__ = [
    "Box",
    "DimensionError",
    "DomainError",
    "ExpFamily",
    "ExtReal",
    "Generator",
    "GeneratorClassWarning",
    "GradientError",
    "InfiniteIntegrandError",
    "Interval",
    "LimitStudy",
    "MeanSpec",
    "NestedUniform",
    "NonPositiveError",
    "POS_INF",
    "PowerNested",
    "PreconditionError",
    "QuadratureResult",
    "QuasiconvexityReport",
    "SpecError",
    "SuiteResult",
    "ViolationWitness",
    "as_vector",
    "bounded_box",
    "bregman",
    "build_generator",
    "check_quasiconvex",
    "delta_averaged_qcvx_bregman",
    "eval_generator",
    "expfam_cross_entropy",
    "expfam_entropy",
    "expfam_kl",
    "extended_bregman",
    "extended_jensen",
    "gradient",
    "integrate",
    "integrate_delta_average",
    "interpolate",
    "kl_nested_uniform",
    "kl_power_nested",
    "kl_quadrature",
    "limit_power_jensen",
    "limit_r_power_bregman",
    "limit_scaled_jensen",
    "log_ratio_gap",
    "mn_jensen",
    "positive_ray",
    "power_mean_bregman",
    "power_mean_jensen",
    "qccv_jensen",
    "qcvx_bregman",
    "qcvx_bregman_from_kl",
    "qcvx_jensen",
    "r_power_bregman",
    "real_line",
    "run_suite",
    "sweep_catalog",
    "weighted_mean",
]
