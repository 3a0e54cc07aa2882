"""Score lists of multipartite hypertournaments.

Decide whether candidate losing-score or score lists are realizable, construct
witness hypertournaments when they are, and cross-validate both against
exhaustive enumeration at desk scale.
"""

from . import criteria, model, oracle, realize
from .model import (
    Arc,
    CapacityError,
    Hypertournament,
    Kind,
    MAX_SELECTIONS,
    NoEligibleArcError,
    ScoreLists,
    Shape,
    StructuralError,
    VertexId,
    Violation,
    arc_swap,
    arcs_through,
    binom,
    conform_lists,
    losing_score_map,
    losing_scores,
    score_map,
    scores,
    selection_vertices,
    validate,
)
from .criteria import (
    CheckResult,
    PrefixViolation,
    check_losing_lists,
    check_score_lists,
    check_single_part,
    losing_to_scores,
    scores_to_losing,
)
from .realize import (
    InfeasibleError,
    InvalidListsError,
    NoValidStepError,
    RealizationGapError,
    TransformLog,
    TransformStep,
    realize_flow,
    realize_inductive,
    saturate,
)
from .oracle import (
    DEFAULT_ASSIGNMENT_BUDGET,
    AchievableSet,
    BudgetExceededError,
    CrossValidationReport,
    SplitMix64,
    achievable_losing_lists,
    bounded_candidate_lists,
    cross_validate,
    enumerate_assignments,
    random_hypertournament,
)

__version__ = "0.1.0"

# The package exports exactly what its four library modules export.
__all__ = sorted({*model.__all__, *criteria.__all__, *realize.__all__, *oracle.__all__})
