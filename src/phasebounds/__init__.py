"""Precision bounds for simultaneous multimode optical phase estimation.

A bounds engine for estimating d phase shifts at once in a (d+1)-mode
interferometer fed with entangled coherent or NOON probe states.  The
package computes the quantum Cramer-Rao bound on the total estimation
variance in closed form, optimizes it over the probe's branch coefficient
under the normalization constraint, evaluates independent-estimation and
Bayesian (Ziv-Zakai) baselines, and cross-verifies everything against a
truncated-Fock-space oracle that builds the states and information
matrices from first principles.
"""

from .bounds import (
    BoundKind,
    BoundReport,
    RegionCell,
    Regime,
    ZIV_ZAKAI_LAMBDA,
    ecs_linear_value,
    ecs_nonlinear_value,
    grid_scan_minimizer,
    independent_ecs_total_photons,
    independent_ecs_vs_ntot,
    minimize_bound_over_b,
    noon_linear_value,
    noon_nonlinear_value,
    qcrb_ecs_linear,
    qcrb_ecs_nonlinear,
    qcrb_independent_ecs,
    qcrb_independent_noon,
    qcrb_noon_linear,
    qcrb_noon_nonlinear,
    region_classify,
    zzb_ecs,
    zzb_noon,
)
from .errors import (
    CoefficientDomainError,
    CutoffError,
    DegenerateInputError,
    NormalizationError,
    PhaseBoundsError,
    RegionError,
    SingularMatrixError,
    SizeLimitError,
)
from .moments import (
    coherent_number_moment,
    moment_via_poisson_sum,
    second_moment_ratio,
    stirling2,
)
from .qfim import (
    StructuredQfim,
    ecs_qfim,
    effective_qfi_2param,
    noon_qfim,
    qfim_inverse,
    to_dense,
    trace_inverse_bound,
)
from .states import (
    DomainGeometry,
    EcsParams,
    NoonParams,
    b_domain_limit,
    b_star,
    domain_geometry,
    ecs_params,
    mean_total_photons,
    noon_optimal_b,
    noon_params,
    solve_c,
    uv_coefficients,
    validate_ecs,
    validate_noon,
)

__version__ = "0.1.0"
