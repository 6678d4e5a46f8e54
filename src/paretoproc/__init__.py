"""Simulation and verification toolkit for simple and generalized Pareto
processes on discretized compact domains: constructive sampling via the
radius-times-profile representation, closed-form distribution formulas with
Monte Carlo cross-validation, simple max-stable simulation, and the
peaks-over-threshold lifting of observed fields to much higher levels."""

__version__ = "0.1.0"

from .dfeval import (
    DfQuery,
    DfResult,
    bernoulli_pair_cdf,
    conditional_sup_tail,
    df_findim,
    df_generalized,
    df_leq_general,
    df_leq_positive,
    marginal_conditional_tail,
    survival_gt,
)
from .errors import (
    DegenerateTail,
    DomainError,
    GridMismatch,
    InsufficientData,
    NonPositiveArgument,
    OutOfSupport,
    OutOfSupportWarning,
    ParetoProcError,
    PreconditionFailed,
    SpecGridMismatch,
    ZeroField,
)
from .gof import Check
from .grid import Field, Grid, combine, inf_field, sup_field
from .lifting import (
    FieldSample,
    LiftReport,
    estimate_norming,
    lift,
    run_storm_scenario,
    select_exceedances,
)
from .maxstable import (
    PenroseConfig,
    doa_empirical_check,
    findim_evd,
    sample_max_stable,
    sample_max_stable_batch,
    sample_moving_maximum_batch,
)
from .pareto import (
    SimpleParetoSample,
    decompose,
    pot_conditional_sample,
    recombine,
    sample_simple_pareto,
    sample_simple_pareto_batch,
    sample_simple_pareto_vector,
)
from .rng import make_rng
from .spectral import SpectralProfileSpec, profile_mean, sample_profile, sample_profiles
from .transforms import (
    GpParams,
    NormingFunctions,
    apply_T,
    from_generalized,
    invert_T,
    stability_norming,
    to_generalized,
)

__all__ = [
    "Check",
    "DfQuery",
    "DfResult",
    "DegenerateTail",
    "DomainError",
    "Field",
    "FieldSample",
    "GpParams",
    "Grid",
    "GridMismatch",
    "InsufficientData",
    "LiftReport",
    "NonPositiveArgument",
    "NormingFunctions",
    "OutOfSupport",
    "OutOfSupportWarning",
    "ParetoProcError",
    "PenroseConfig",
    "PreconditionFailed",
    "SimpleParetoSample",
    "SpecGridMismatch",
    "SpectralProfileSpec",
    "ZeroField",
    "apply_T",
    "bernoulli_pair_cdf",
    "combine",
    "conditional_sup_tail",
    "decompose",
    "df_findim",
    "df_generalized",
    "df_leq_general",
    "df_leq_positive",
    "doa_empirical_check",
    "estimate_norming",
    "findim_evd",
    "from_generalized",
    "inf_field",
    "invert_T",
    "lift",
    "make_rng",
    "marginal_conditional_tail",
    "pot_conditional_sample",
    "profile_mean",
    "recombine",
    "run_storm_scenario",
    "sample_max_stable",
    "sample_max_stable_batch",
    "sample_moving_maximum_batch",
    "sample_profile",
    "sample_profiles",
    "sample_simple_pareto",
    "sample_simple_pareto_batch",
    "sample_simple_pareto_vector",
    "select_exceedances",
    "stability_norming",
    "sup_field",
    "survival_gt",
    "to_generalized",
]
