"""Multi-dimensional partitioning with k-d trees (Section 4.4).

For more than one predicate column the paper parameterizes the search space
by balanced k-d trees: every node splits its box at the median of each of the
``d`` predicate attributes simultaneously (fan-out ``2^d``).  Starting from
the root, leaves are expanded greedily until ``k`` leaves exist.  Two
expansion policies correspond to the experiment's two systems:

* ``"max_variance"`` — expand the leaf containing the (approximately) largest
  single-leaf query variance; this is **KD-PASS**.
* ``"breadth_first"`` — always expand a leaf of minimal depth, ties broken at
  random; this is the **KD-US** baseline of Section 5.4.

The optimization operates over a uniform sample of the data (like ADP); the
returned boxes partition the full predicate space and are consumed directly
by the PASS builder and the baselines.

The leaves form a list: a split removes its leaf and appends the children,
so the survivors keep their insertion order.  Max-variance expands the
first best-scoring leaf in that order among the splittable leaves at most
``max_depth_spread - 1`` levels below the shallowest leaf (unsplittable
leaves included), or among all splittable leaves when none qualifies.
Each expansion reads one heap per depth keyed ``(-score, insertion order)``
and a leaf count per depth, never the whole list, so growing ``k`` leaves
costs O(k log k) rather than O(k^2).  Breadth-first draws uniformly from
the shallowest splittable leaves in list order.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.table import Table
from repro.partitioning.variance import avg_query_variance, sum_query_variance
from repro.query.aggregates import AggregateType
from repro.query.predicate import Box, Interval

__all__ = ["KDPartitioningResult", "kd_partition"]


@dataclass(frozen=True)
class KDPartitioningResult:
    """Outcome of a k-d tree partitioning.

    Attributes
    ----------
    columns:
        Predicate columns the partitioning spans.
    boxes:
        Leaf boxes; mutually exclusive and jointly covering the space.
    leaf_depths:
        Depth of each leaf in the k-d tree (root = 0).
    objective:
        Approximate max single-leaf query variance of the final partitioning.
    """

    columns: tuple[str, ...]
    boxes: tuple[Box, ...]
    leaf_depths: tuple[int, ...]
    objective: float

    @property
    def n_partitions(self) -> int:
        """Number of leaf partitions."""
        return len(self.boxes)


@dataclass
class _Leaf:
    """A leaf of the growing k-d tree during optimization."""

    box: Box
    indices: np.ndarray
    depth: int
    score: float = 0.0


def _leaf_score(values: np.ndarray, agg: AggregateType, delta_samples: int) -> float:
    """Approximate max in-leaf query variance used to rank leaves.

    For SUM / COUNT templates the leaf's own variance term is a constant-factor
    proxy for its worst in-leaf query (Appendix A.3); for AVG the worst query
    spans about ``delta * m`` samples, so the leaf variance is normalized by
    that window size (the "second algorithm" of Appendix A.4).
    """
    n = values.shape[0]
    if n <= 1:
        return 0.0
    total = float(values.sum())
    total_sq = float((values**2).sum())
    if agg == AggregateType.AVG:
        window = max(1, min(delta_samples, n // 2))
        return avg_query_variance(n, window, total, total_sq)
    if agg == AggregateType.COUNT:
        return float(n)
    return sum_query_variance(n, total, total_sq)


def _split_leaf(
    leaf: _Leaf,
    points: np.ndarray,
    columns: Sequence[str],
) -> list[_Leaf]:
    """Split a leaf at the per-dimension medians of its sample points.

    Dimensions whose values are all identical within the leaf are not split
    (they would create empty children), so the effective fan-out is ``2^d'``
    where ``d'`` is the number of splittable dimensions.  Returns an empty
    list when the leaf cannot be split at all.
    """
    local = points[leaf.indices]
    lows, highs = local.min(axis=0).tolist(), local.max(axis=0).tolist()
    medians = np.median(local, axis=0).tolist()
    splittable: list[tuple[int, float]] = []
    for dim, (low, high, median) in enumerate(zip(lows, highs, medians)):
        if low < high:
            # Guard against a median equal to the maximum, which would put
            # every point on the left side and create an empty right child.
            if median >= high:
                median = float(np.nextafter(high, low))
            splittable.append((dim, median))
    if not splittable:
        return []

    children: list[_Leaf] = []
    for sides in itertools.product((0, 1), repeat=len(splittable)):
        box_intervals = leaf.box.intervals
        mask = np.ones(local.shape[0], dtype=bool)
        for (dim, median), side in zip(splittable, sides):
            column = columns[dim]
            interval = leaf.box.interval(column)
            if side == 0:
                box_intervals[column] = Interval(interval.low, median)
                mask &= local[:, dim] <= median
            else:
                box_intervals[column] = Interval(
                    float(np.nextafter(median, np.inf)), interval.high
                )
                mask &= local[:, dim] > median
        children.append(
            _Leaf(
                box=Box(box_intervals),
                indices=leaf.indices[mask],
                depth=leaf.depth + 1,
            )
        )
    return children


def kd_partition(
    table: Table,
    value_column: str,
    predicate_columns: Sequence[str],
    n_leaves: int,
    policy: str = "max_variance",
    agg: AggregateType | str = AggregateType.SUM,
    delta: float = 0.01,
    opt_sample_size: int | None = None,
    max_depth_spread: int = 2,
    rng: np.random.Generator | int | None = 0,
) -> KDPartitioningResult:
    """Grow a k-d tree partitioning of the predicate space.

    Parameters
    ----------
    table, value_column, predicate_columns:
        Dataset and column roles; the boxes span ``predicate_columns``.
    n_leaves:
        Target number of leaf partitions ``k``.
    policy:
        ``"max_variance"`` (KD-PASS) or ``"breadth_first"`` (KD-US).
    agg:
        Query template the variance scores target.
    delta:
        Meaningful-query fraction used by the AVG leaf score.
    opt_sample_size:
        Uniform optimization sample size (default ``min(5000, N)``).
    max_depth_spread:
        Maximum allowed difference between the deepest and shallowest leaf
        (the paper uses 2 to keep the tree roughly balanced).
    rng:
        Numpy generator or seed.
    """
    if policy not in ("max_variance", "breadth_first"):
        raise ValueError("policy must be 'max_variance' or 'breadth_first'")
    if n_leaves <= 0:
        raise ValueError("n_leaves must be positive")
    if not predicate_columns:
        raise ValueError("at least one predicate column is required")
    agg = AggregateType.parse(agg)
    generator = (
        rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    )
    columns = list(predicate_columns)

    if opt_sample_size is None:
        opt_sample_size = min(5000, table.n_rows)
    opt_sample_size = min(opt_sample_size, table.n_rows)
    sample_idx = generator.choice(table.n_rows, size=opt_sample_size, replace=False)
    points = np.column_stack(
        [table.column(column)[sample_idx].astype(float) for column in columns]
    )
    values = table.column(value_column)[sample_idx].astype(float)
    delta_samples = max(1, int(round(delta * opt_sample_size)))

    root = _Leaf(
        box=Box.unbounded(columns),
        indices=np.arange(opt_sample_size),
        depth=0,
    )
    root.score = _leaf_score(values[root.indices], agg, delta_samples)

    # The leaves in list order (insertion sequence -> leaf): a split removes
    # its leaf and appends the children, so survivors never reorder.
    leaves: dict[int, _Leaf] = {}
    per_depth: Counter[int] = Counter()
    # Per depth, the leaves still worth splitting (two or more sample points,
    # no failed split): sequence numbers in list order (breadth-first), or a
    # heap keyed ``(-score, seq)`` whose top is the depth's first best leaf
    # (max-variance; a score is a count or clamped at 0.0, so never NaN).
    queues: dict[int, list] = {}
    sequence = itertools.count()

    def add(leaf: _Leaf) -> None:
        seq = next(sequence)
        leaves[seq] = leaf
        per_depth[leaf.depth] += 1
        if leaf.indices.shape[0] > 1:
            queue = queues.setdefault(leaf.depth, [])
            if policy == "breadth_first":
                queue.append(seq)
            else:
                heapq.heappush(queue, (-leaf.score, seq))

    add(root)
    while len(leaves) < n_leaves:
        depths = [depth for depth, queue in queues.items() if queue]
        if not depths:
            break
        if policy == "breadth_first":
            queue = queues[min(depths)]
            seq = queue.pop(int(generator.integers(0, len(queue))))
        else:
            min_depth = min(depth for depth, count in per_depth.items() if count)
            eligible = [
                depth for depth in depths if depth + 1 - min_depth <= max_depth_spread
            ]
            best = min(queues[depth][0] + (depth,) for depth in eligible or depths)
            seq = heapq.heappop(queues[best[2]])[1]
        chosen = leaves[seq]
        children = _split_leaf(chosen, points, columns)
        if not children:
            # Every dimension is constant inside this leaf: it stays a leaf
            # (and counts toward the shallowest depth), out of its queue.
            continue
        del leaves[seq]
        per_depth[chosen.depth] -= 1
        for child in children:
            child.score = _leaf_score(values[child.indices], agg, delta_samples)
            add(child)

    objective = max((leaf.score for leaf in leaves.values()), default=0.0)
    return KDPartitioningResult(
        columns=tuple(columns),
        boxes=tuple(leaf.box for leaf in leaves.values()),
        leaf_depths=tuple(leaf.depth for leaf in leaves.values()),
        objective=float(max(objective, 0.0)),
    )
