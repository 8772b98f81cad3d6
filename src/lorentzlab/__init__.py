"""lorentz-lab: rearrangements, Lorentz-type norms, reverse Hardy constants,
and associate norms for step functions on the half-line."""

from .associate import (
    AssociateResult,
    ClassicalLorentz,
    EmbeddingResult,
    GenClassicalLorentz,
    GenLorentz,
    Lpq,
    LpqStar,
    Marcinkiewicz,
    NormSpec,
    assoc_classical,
    assoc_generalized,
    duality_oracle,
    embedding_criterion,
    empirical_embedding_check,
    lpq_star_norm,
    norm,
    norm_spec_from_json,
    verify_duality,
)
from .conditions import (
    SigmaFn,
    admissible_check,
    b1_check,
    bp_check,
    delta2_check,
    quasiconcave_check,
    quasinorm_sufficient_check,
    sigma,
    sigma_equivalent,
)
from .errors import (
    BranchMismatch,
    ConfigError,
    DegenerateInput,
    DegenerateProblem,
    DegenerateSigma,
    DegenerateU,
    FitFailed,
    HypothesisViolated,
    InvertedInterval,
    LorentzLabError,
    NonIntegrableNearZero,
    NonRearrangeable,
    NotQuasiconcave,
)
from .funcs import PiecewiseFn, indicator, integrate, p_norm, pointwise_merge
from .grid import DEFAULT_GRID, GeometricGrid
from .hardy import (
    HardyProblem,
    Zeta1Fn,
    ZetaFn,
    a1_constant,
    a2_constant,
    envelope_ratio,
    lhs_rhs,
    parts_identity_sides,
    verify_reverse_hardy,
    zeta,
    zeta1,
    zeta_specialized,
)
from .measures import (
    DiscreteMeasure,
    fit_representation_measure,
    fundamental_equiv_forms,
    fundamental_function,
    nondegeneracy_check,
)
from .rearrangement import (
    DecreasingFn,
    cumulative_eval,
    decreasing_rearrangement,
    distribution,
    maximal,
    weak_norm,
    weighted_maximal,
)
from .reports import ConditionReport, EquivReport
from .sampling import indicator_sweep, random_decreasing, random_step
from .weights import (
    Power,
    PowerLog,
    Tabulated,
    Weight,
    WeightProfile,
    ess_sup_weighted,
    power_integral,
    product_cumulative,
    weight_from_json,
)

__version__ = "0.1.0"
