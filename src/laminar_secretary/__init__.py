"""Online selection under laminar capacity constraints (KickNext rule)
with exact and Monte Carlo verification of its competitive-ratio analysis."""

from types import ModuleType as _ModuleType

from .model import (
    Element,
    FamilyNode,
    InstanceError,
    LaminarInstance,
    dump_instance,
    load_instance,
    make_instance,
    normalize_family,
    order_key,
)
from .matroid import (
    RankedOptimum,
    brank,
    brute_force_opt,
    greedy_opt,
    is_independent,
)
from .kicknext import (
    BreakRecord,
    RunResult,
    TraceEvent,
    Trial,
    make_trial,
    qualifies,
    reference_sets,
    run_kicknext,
    trace_csv,
)
from .theory import (
    TheoryParams,
    allkicked_bound,
    best_p,
    g_exact,
    g_refined_bound,
    g_weak_bound,
    geometric_sum,
    p_grid,
    ratio_lower_bound,
    theory_params,
    weighted_penalty,
    weighted_penalty_telescoped,
)
from .exact import exact_expectation
from .experiments import (
    AllKickedRow,
    ExperimentReport,
    LemmaCheck,
    QualifyingProbability,
    RNG_VERSION,
    RatioEstimate,
    allkicked_frequency,
    derive_seed,
    exact_ratio,
    monte_carlo_ratio,
    qualifying_joint_probability,
    verify_lemmas,
    verify_report,
)
from .generators import GenSpec, generate

# the API: every public name bound above except the submodules themselves
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
