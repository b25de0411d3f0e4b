"""Hill-climbing partition selection — the AQP++ optimizer.

AQP++ [Peng et al. 2018] chooses which aggregate precomputations to
materialize with a practical iterative hill-climbing heuristic rather than a
dynamic program.  Our implementation reproduces that behaviour for the 1-D
experiments: starting from equal-depth boundaries over an optimization
sample, single boundaries are nudged to neighbouring sample ranks and a move
is kept whenever it lowers the maximum single-partition query variance.

The paper's experiments note that this heuristic "performs very similar to
the equal partitioning algorithm", which this implementation also exhibits —
it converges to a local optimum close to its equal-depth start.
"""

from __future__ import annotations

import numpy as np

from repro.data.table import Table
from repro.partitioning.dp import PartitioningResult, _ranks_to_boundaries
from repro.partitioning.boundaries import boxes_from_boundaries
from repro.partitioning.max_variance import MaxVarianceOracle
from repro.query.aggregates import AggregateType

__all__ = ["hill_climbing_partition"]


def _objective(oracle: MaxVarianceOracle, breaks: list[int]) -> float:
    """Max single-partition query variance of a break-rank configuration."""
    edges = np.array([-1] + sorted(breaks) + [oracle.n_samples - 1])
    variance = oracle.max_variance(edges[:-1] + 1, edges[1:])
    # A running max(worst, v) from 0.0: empty partitions score 0.0.
    return float(np.where(variance > 0.0, variance, 0.0).max(initial=0.0))


def hill_climbing_partition(
    table: Table,
    value_column: str,
    predicate_column: str,
    n_partitions: int,
    agg: AggregateType | str = AggregateType.SUM,
    delta: float = 0.05,
    opt_sample_size: int | None = None,
    max_iterations: int = 500,
    patience: int = 100,
    rng: np.random.Generator | int | None = 0,
) -> PartitioningResult:
    """Optimize a 1-D partitioning with the AQP++ hill-climbing heuristic.

    Parameters
    ----------
    table, value_column, predicate_column, n_partitions, agg, delta:
        Same meaning as for :func:`~repro.partitioning.dp.approximate_dp_partition`.
    opt_sample_size:
        Optimization sample size (default ``min(1000, N)``).
    max_iterations:
        Total number of candidate moves evaluated.
    patience:
        Stop after this many consecutive non-improving moves.
    rng:
        Numpy generator or seed (controls both the sample and the moves).
    """
    agg = AggregateType.parse(agg)
    if n_partitions <= 0:
        raise ValueError("n_partitions must be positive")
    generator = (
        rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    )
    if opt_sample_size is None:
        opt_sample_size = min(1000, table.n_rows)
    opt_sample_size = min(opt_sample_size, table.n_rows)

    indices = generator.choice(table.n_rows, size=opt_sample_size, replace=False)
    predicate_values = table.column(predicate_column)[indices].astype(float)
    aggregate_values = table.column(value_column)[indices].astype(float)
    order = np.argsort(predicate_values, kind="stable")
    predicate_sorted = predicate_values[order]
    values_sorted = aggregate_values[order]
    m = values_sorted.shape[0]

    oracle = MaxVarianceOracle(values_sorted, agg=agg, delta=delta, exact=False)
    k = max(1, min(n_partitions, m))
    breaks = sorted({int(round(i * m / k)) - 1 for i in range(1, k)} - {-1, m - 1})
    best_objective = _objective(oracle, breaks)

    stale = 0
    for _ in range(max_iterations):
        if not breaks or stale >= patience:
            break
        position = int(generator.integers(0, len(breaks)))
        step = int(generator.integers(1, max(2, m // (4 * k))))
        direction = 1 if generator.random() < 0.5 else -1
        candidate = list(breaks)
        moved = candidate[position] + direction * step
        lower = candidate[position - 1] + 1 if position > 0 else 0
        upper = candidate[position + 1] - 1 if position + 1 < len(candidate) else m - 2
        moved = max(lower, min(upper, moved))
        if moved == candidate[position]:
            stale += 1
            continue
        candidate[position] = moved
        objective = _objective(oracle, candidate)
        if objective < best_objective:
            breaks = candidate
            best_objective = objective
            stale = 0
        else:
            stale += 1

    boundaries = _ranks_to_boundaries(predicate_sorted, sorted(breaks))
    return PartitioningResult(
        column=predicate_column,
        boundaries=tuple(boundaries),
        boxes=tuple(boxes_from_boundaries(predicate_column, boundaries)),
        objective=best_objective,
        break_ranks=tuple(sorted(breaks)),
    )
