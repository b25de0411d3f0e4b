"""1-D partitioning via dynamic programming (Section 4.3, Appendix A.5).

Given a query template (SUM, COUNT, or AVG) the goal is a partitioning of the
sorted predicate column into ``k`` contiguous buckets that minimizes the
maximum single-partition query variance.  Three algorithm variants are
provided, mirroring the paper's progression:

* :func:`naive_dp_partition` — the exact dynamic program over every tuple with
  exhaustive query enumeration inside each candidate bucket.  Exponentially
  clearer than it is fast; used on tiny inputs and in tests.
* :func:`approximate_dp_partition` — the **ADP** algorithm used in the paper's
  experiments: optimize over a uniform sample of ``m`` tuples, approximate the
  worst in-bucket query with the constant-factor oracles of Appendix A, and
  exploit the monotonicity of the DP to binary-search each split point.
  The ``m`` binary searches of a DP level run in lockstep, so it makes
  ``O(k log m)`` batched oracle calls over ``m`` lanes.
* :func:`optimal_count_partition` — the closed-form optimum for COUNT
  templates (equal-count buckets, Lemma A.1).

All variants return a :class:`PartitioningResult` whose boxes plug directly
into the PASS builder or the stratified-sampling baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.table import Table
from repro.partitioning.boundaries import boxes_from_boundaries
from repro.partitioning.equal import equal_depth_boundaries
from repro.partitioning.max_variance import MaxVarianceOracle
from repro.partitioning.variance import count_query_variance
from repro.query.aggregates import AggregateType
from repro.query.predicate import Box

__all__ = [
    "PartitioningResult",
    "naive_dp_partition",
    "approximate_dp_partition",
    "optimal_count_partition",
]


@dataclass(frozen=True)
class PartitioningResult:
    """Outcome of a 1-D partitioning optimization.

    Attributes
    ----------
    column:
        The predicate column the partitioning applies to.
    boundaries:
        Interior cut values (``k - 1`` of them, possibly fewer after
        deduplication).
    boxes:
        The partition boxes derived from the boundaries.
    objective:
        The optimizer's (approximate) value of the max single-partition query
        variance for the returned partitioning.
    break_ranks:
        For sample-based optimizers, the end rank of each partition except the
        last within the sorted optimization sample; empty otherwise.
    """

    column: str
    boundaries: tuple[float, ...]
    boxes: tuple[Box, ...]
    objective: float
    break_ranks: tuple[int, ...] = ()

    @property
    def n_partitions(self) -> int:
        """Number of partitions produced."""
        return len(self.boxes)


def _run_dp(
    oracle: MaxVarianceOracle,
    n_partitions: int,
    use_binary_search: bool,
) -> tuple[list[int], float]:
    """Core min-max dynamic program over the oracle's rank space.

    Returns the break ranks (end rank of every partition except the last) and
    the optimal objective value.  Level ``j`` depends only on level ``j - 1``,
    so all ``m`` rows of a level are solved together: :func:`_crossings`
    binary-searches every row's split in lockstep, then one batched oracle
    call scores each row's candidate splits ``h`` (the three around its
    crossing, or every ``h < i`` when ``use_binary_search`` is off) as one
    candidate matrix.
    """
    m = oracle.n_samples
    if m == 0:
        raise ValueError("cannot partition an empty sample")
    k = max(1, min(n_partitions, m))

    # best[i][j]: minimal max-variance splitting the first i samples (ranks
    # 0..i-1) into at most j+1 partitions.  parent[i][j]: the chosen h (number
    # of samples in the first j partitions).
    best = np.full((m + 1, k), np.inf)
    parent = np.full((m + 1, k), -1, dtype=int)
    best[0, :] = 0.0
    ends = np.arange(m)  # lane i - 1: the last rank of the first i samples
    best[1:, 0] = oracle.max_variance(0, ends)
    parent[1:, 0] = 0

    for j in range(1, k):
        prev = best[:, j - 1]
        if use_binary_search:
            candidates = _crossings(oracle, prev, ends)[:, None] + np.array([-1, 0, 1])
        else:
            candidates = np.broadcast_to(ends, (m, m))
        valid = (candidates >= 0) & (candidates <= ends[:, None])
        # Invalid candidates become empty ranges, which the oracle skips.
        variance = oracle.max_variance(
            np.where(valid, candidates, ends[:, None] + 1), ends[:, None]
        )
        bound = prev[np.where(valid, candidates, 0)]
        value = np.where(variance > bound, variance, bound)  # max(bound, variance)
        value = np.where(valid & (value < np.inf), value, np.inf)
        # argmin keeps the first minimum: the scalar strict-< scan in
        # candidate order, and h = 0 when no candidate beats inf.
        pick = np.argmin(value, axis=1)
        best[1:, j] = value[ends, pick]
        parent[1:, j] = np.where(best[1:, j] < np.inf, candidates[ends, pick], 0)

    # Reconstruct the break ranks from the parent pointers.
    breaks: list[int] = []
    i = m
    for j in range(k - 1, 0, -1):
        h = int(parent[i, j])
        if 0 < h < m:
            breaks.append(h - 1)
        i = h
        if i <= 0:
            break
    breaks.sort()
    return breaks, float(best[m, k - 1])


def _crossings(
    oracle: MaxVarianceOracle, prev: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Binary-search every lane's crossing of the two monotone DP terms at once.

    ``prev[h]`` (the previous level) is non-decreasing in ``h`` while the max
    variance of the final bucket ``[h, end]`` is non-increasing, so the
    optimal split is where they cross (Appendix A.5).  The searches run in
    lockstep: one oracle call over the still-open lanes per halving step,
    ``ceil(log2 m)`` steps in all.
    """
    lo = np.zeros_like(ends)
    hi = ends.copy()
    while True:
        open_lanes = np.flatnonzero(lo < hi)
        if open_lanes.size == 0:
            return lo
        mid = (lo[open_lanes] + hi[open_lanes]) // 2
        rises = prev[mid] < oracle.max_variance(mid, ends[open_lanes])
        lo[open_lanes] = np.where(rises, mid + 1, lo[open_lanes])
        hi[open_lanes] = np.where(rises, hi[open_lanes], mid)


def _ranks_to_boundaries(
    sorted_predicate: np.ndarray, break_ranks: list[int]
) -> list[float]:
    """Cut values halfway between the last sample of a bucket and the next one."""
    cuts = []
    n = sorted_predicate.shape[0]
    for rank in break_ranks:
        left = float(sorted_predicate[rank])
        right = float(sorted_predicate[min(rank + 1, n - 1)])
        cuts.append(left if left == right else 0.5 * (left + right))
    return sorted(set(cuts))


def naive_dp_partition(
    table: Table,
    value_column: str,
    predicate_column: str,
    n_partitions: int,
    agg: AggregateType | str = AggregateType.SUM,
    delta: float = 0.05,
) -> PartitioningResult:
    """Exact 1-D dynamic program over every tuple (small inputs only).

    Enumerates every candidate query inside every candidate bucket, so the
    cost grows as ``O(k * N^2 * |Q|)``; intended for datasets of at most a few
    hundred rows (ground truth for tests and for validating ADP).
    """
    agg = AggregateType.parse(agg)
    order = np.argsort(table.column(predicate_column), kind="stable")
    predicate_sorted = table.column(predicate_column)[order].astype(float)
    values_sorted = table.column(value_column)[order].astype(float)
    oracle = MaxVarianceOracle(values_sorted, agg=agg, delta=delta, exact=True)
    breaks, objective = _run_dp(oracle, n_partitions, use_binary_search=False)
    boundaries = _ranks_to_boundaries(predicate_sorted, breaks)
    return PartitioningResult(
        column=predicate_column,
        boundaries=tuple(boundaries),
        boxes=tuple(boxes_from_boundaries(predicate_column, boundaries)),
        objective=objective,
        break_ranks=tuple(breaks),
    )


def approximate_dp_partition(
    table: Table,
    value_column: str,
    predicate_column: str,
    n_partitions: int,
    agg: AggregateType | str = AggregateType.SUM,
    delta: float = 0.05,
    opt_sample_size: int | None = None,
    opt_sample_rate: float | None = None,
    rng: np.random.Generator | int | None = 0,
) -> PartitioningResult:
    """The ADP partitioner: sampled, discretized, binary-searched DP.

    Parameters
    ----------
    table, value_column, predicate_column:
        Dataset and column roles.
    n_partitions:
        Desired number of leaf partitions ``k``.
    agg:
        The query template to optimize for (COUNT templates short-circuit to
        the equal-count optimum).
    delta:
        Meaningful-query fraction; AVG candidate windows span ``delta * m``
        samples.
    opt_sample_size / opt_sample_rate:
        Size of the uniform optimization sample ``m`` (default:
        ``min(1000, N)``).  At most one of the two may be given.
    rng:
        Numpy generator or seed for the optimization sample.
    """
    agg = AggregateType.parse(agg)
    if agg == AggregateType.COUNT:
        return optimal_count_partition(table, predicate_column, n_partitions)
    if opt_sample_size is not None and opt_sample_rate is not None:
        raise ValueError("provide at most one of opt_sample_size or opt_sample_rate")
    if opt_sample_rate is not None:
        if not 0.0 < opt_sample_rate <= 1.0:
            raise ValueError("opt_sample_rate must be in (0, 1]")
        opt_sample_size = max(1, int(round(opt_sample_rate * table.n_rows)))
    if opt_sample_size is None:
        opt_sample_size = min(1000, table.n_rows)
    opt_sample_size = min(opt_sample_size, table.n_rows)
    if opt_sample_size < n_partitions:
        opt_sample_size = min(table.n_rows, max(n_partitions * 4, opt_sample_size))

    generator = (
        rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    )
    indices = generator.choice(table.n_rows, size=opt_sample_size, replace=False)
    predicate_values = table.column(predicate_column)[indices].astype(float)
    aggregate_values = table.column(value_column)[indices].astype(float)
    order = np.argsort(predicate_values, kind="stable")
    predicate_sorted = predicate_values[order]
    values_sorted = aggregate_values[order]

    oracle = MaxVarianceOracle(values_sorted, agg=agg, delta=delta, exact=False)
    breaks, objective = _run_dp(oracle, n_partitions, use_binary_search=True)
    boundaries = _ranks_to_boundaries(predicate_sorted, breaks)
    return PartitioningResult(
        column=predicate_column,
        boundaries=tuple(boundaries),
        boxes=tuple(boxes_from_boundaries(predicate_column, boundaries)),
        objective=objective,
        break_ranks=tuple(breaks),
    )


def optimal_count_partition(
    table: Table, predicate_column: str, n_partitions: int
) -> PartitioningResult:
    """Optimal 1-D partitioning for COUNT templates: equal-count buckets.

    Lemma A.1 shows the worst COUNT query in a bucket of ``N_i`` tuples has
    variance proportional to ``N_i``, so equalizing bucket sizes minimizes the
    maximum; this runs in a single sort.
    """
    boundaries = equal_depth_boundaries(table.column(predicate_column), n_partitions)
    boxes = boxes_from_boundaries(predicate_column, boundaries)
    largest = int(np.ceil(table.n_rows / max(1, len(boxes))))
    objective = count_query_variance(largest, largest / 2.0)
    return PartitioningResult(
        column=predicate_column,
        boundaries=tuple(boundaries),
        boxes=tuple(boxes),
        objective=objective,
    )
