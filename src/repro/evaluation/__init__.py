"""Evaluation: metrics, the comparison harness, and per-figure experiments."""

from repro.evaluation.harness import (
    AsyncWorkloadReport,
    ComparisonRun,
    SynopsisEvaluation,
    arrival_offsets,
    evaluate_async_workload,
    evaluate_grouped_workload,
    evaluate_served_workload,
    run_comparison,
)
from repro.evaluation.metrics import (
    QueryRecord,
    WorkloadMetrics,
    ci_ratio,
    evaluate_workload,
    nan_median,
    relative_error,
)
from repro.evaluation.reporting import (
    ExperimentResult,
    Section,
    format_table,
    render_result,
)

__all__ = [
    "AsyncWorkloadReport",
    "ComparisonRun",
    "SynopsisEvaluation",
    "arrival_offsets",
    "evaluate_async_workload",
    "run_comparison",
    "evaluate_served_workload",
    "evaluate_grouped_workload",
    "QueryRecord",
    "WorkloadMetrics",
    "ci_ratio",
    "evaluate_workload",
    "nan_median",
    "relative_error",
    "ExperimentResult",
    "Section",
    "format_table",
    "render_result",
]
