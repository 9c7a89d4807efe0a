"""Dynamic treatment effects of an irreversible treatment instrumented by a
single time-invariant binary instrument: estimation, diagnosis, point and
partial identification, plus an exact population oracle for all of it."""

from .dgp import (
    DgpSpec,
    HistorySpec,
    check_calendar_homogeneity,
    check_cross_group_homogeneity,
    contaminating_effect_range,
    decompose,
    load_spec,
    make_calendar_homogeneous,
    population_estimands,
    save_spec,
    true_dynamic_lates,
)
from .errors import (
    AllReplicationsFailed,
    AssumptionRequired,
    DegenerateInstrument,
    DynlateError,
    InstrumentVariesWithinUnit,
    MalformedRow,
    NonFiniteResult,
    PeriodOutOfRange,
    RelevanceFailure,
    SchemaMismatch,
    SignedBoundViolation,
    SpecValidationError,
    TreatmentReversal,
    UnbalancedPanel,
)
from .estimands import EstimandSet
from .estimators import (
    BoundsReport,
    IdentifiedProfile,
    NegativeWeightFlag,
    NegativeWeightStatus,
    PanelDiagnostics,
    bounds_general,
    bounds_general_unrestricted,
    bounds_tight,
    check_assumptions,
    estimate,
    identify,
    negative_weight_diagnostic,
    outcome_range_bounds,
)
from .inference import BootstrapResult, bootstrap
from .latent import (
    NEVER,
    AdoptionPair,
    GroupLabel,
    IvType,
    switcher_group_labels,
)
from .panel import Panel, ingest, serialize
from .simulate import MonteCarloSummary, draw_panel, monte_carlo

__version__ = "0.1.0"
