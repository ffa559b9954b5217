"""trajkit: replay-based evaluation harness for GUI agents."""

# Before the submodule imports: ``gateway`` reads it while this package loads.
__version__ = "0.1.0"

from .actions import Action, ActionKind, BBox, Point, derive_scroll_direction, \
    normalize_point, spatial_distance
from .dialects import ParsedResponse, dialect_ids, get_dialect
from .evaluate import EvalPolicy, StepEvaluation, aggregate, evaluate_step, \
    stratify_by_horizon
from .store import Episode, LoadReport, RunRecord, RunWriter, StepTask, load_episodes


__all__ = [
    "Action",
    "ActionKind",
    "BBox",
    "Point",
    "normalize_point",
    "derive_scroll_direction",
    "spatial_distance",
    "ParsedResponse",
    "get_dialect",
    "dialect_ids",
    "StepEvaluation",
    "EvalPolicy",
    "evaluate_step",
    "aggregate",
    "stratify_by_horizon",
    "Episode",
    "StepTask",
    "RunRecord",
    "RunWriter",
    "LoadReport",
    "load_episodes",
    "__version__",
]
