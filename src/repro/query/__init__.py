"""Query processing: distances, top-K, filters, planning, execution."""

from repro.query.batch import BatchQueryExecutor
from repro.query.distance import (
    distances_to_one,
    pairwise_distances,
    surface_distance,
)
from repro.query.executor import QueryExecutor
from repro.query.filters import (
    And,
    Between,
    Compare,
    CompileContext,
    Eq,
    Ge,
    Gt,
    In,
    IsNull,
    Le,
    Lt,
    Match,
    Ne,
    Not,
    Or,
    Predicate,
    default_tokenizer,
)
from repro.query.fts import TokenStats, match_selectivity
from repro.query.planner import HybridQueryPlanner, PlanDecision
from repro.query.selectivity import (
    ColumnStats,
    SelectivityEstimator,
    collect_statistics,
    load_statistics,
)

__all__ = [
    "pairwise_distances",
    "distances_to_one",
    "surface_distance",
    "Predicate",
    "CompileContext",
    "Compare",
    "Between",
    "In",
    "IsNull",
    "Match",
    "And",
    "Or",
    "Not",
    "Eq",
    "Ne",
    "Lt",
    "Le",
    "Gt",
    "Ge",
    "default_tokenizer",
    "TokenStats",
    "match_selectivity",
    "ColumnStats",
    "SelectivityEstimator",
    "collect_statistics",
    "load_statistics",
    "HybridQueryPlanner",
    "PlanDecision",
    "QueryExecutor",
    "BatchQueryExecutor",
]
