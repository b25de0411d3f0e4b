"""Building a PASS synopsis from a table and a :class:`PASSConfig`.

The builder performs the offline phase of Section 4: it runs the configured
partitioning optimizer to obtain the leaf partitioning, assigns every row to
its leaf in one pass over the table, computes the exact SUM / COUNT / MIN /
MAX of every leaf from its rows, draws the per-leaf stratified samples under
the configured sampling budget and mode (ESS or BSS), and (unless disabled
via ``with_sketches=False``) packs the mergeable per-leaf quantile and
distinct-count sketches that answer QUANTILE / COUNT_DISTINCT queries.  The
partition tree (Definition 3.1) is grouped bottom-up on arrays of leaf
bounds and statistics, so the build emits the ``(header, arrays)`` pair a
:class:`~repro.core.pass_synopsis.PASSSynopsis` is, and no node or stratum
object is made.  The rules (assignment, leaf order, grouping, merge order)
are written down in ``docs/ARCHITECTURE.md``, "Build"; ``tests/oracle.py``
keeps the object build the arrays are held to, byte for byte.
"""

from __future__ import annotations

import time
import warnings
from typing import Sequence

import numpy as np

from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.soa import FlatSamples
from repro.data.table import Table
from repro.partitioning.dp import (
    approximate_dp_partition,
    optimal_count_partition,
)
from repro.partitioning.equal import equal_depth_partition
from repro.partitioning.hill_climbing import hill_climbing_partition
from repro.partitioning.kdtree import kd_partition
from repro.query.predicate import Box
from repro.sketches.union import LeafSketches, pack_leaf_sketches

__all__ = [
    "build_pass",
    "build_leaf_boxes",
    "build_leaf_samples",
    "resolve_partitioner",
    "PartitionerFallbackWarning",
]

#: 1-D optimizers that cannot span several predicate columns.
_ONE_DIMENSIONAL_PARTITIONERS = ("adp", "equal", "count_optimal", "hill")


class PartitionerFallbackWarning(UserWarning):
    """Warns that a 1-D partitioner was swapped for the k-d construction."""


def resolve_partitioner(config: PASSConfig, predicate_columns: Sequence[str]) -> str:
    """The partitioner a build will actually run for these predicate columns.

    1-D optimizers cannot span several predicate columns, so multi-dimensional
    inputs fall back to the k-d construction of Section 4.4 with the matching
    policy.  The effective choice is recorded on the built synopsis
    (:attr:`PASSSynopsis.effective_partitioner`).
    """
    if (
        len(predicate_columns) > 1
        and config.partitioner in _ONE_DIMENSIONAL_PARTITIONERS
    ):
        return "kd"
    return config.partitioner


def build_leaf_boxes(
    table: Table,
    value_column: str,
    predicate_columns: Sequence[str],
    config: PASSConfig,
) -> list[Box]:
    """Run the configured partitioning optimizer and return the leaf boxes."""
    predicate_columns = list(predicate_columns)
    if not predicate_columns:
        raise ValueError("at least one predicate column is required")
    partitioner = resolve_partitioner(config, predicate_columns)
    if partitioner != config.partitioner:
        warnings.warn(
            f"partitioner {config.partitioner!r} is one-dimensional but "
            f"{len(predicate_columns)} predicate columns were given; using the "
            "k-d construction instead (pass partitioner='kd' or 'kd_us' to "
            "silence this warning)",
            PartitionerFallbackWarning,
            stacklevel=2,
        )

    rng = np.random.default_rng(config.seed)
    if partitioner == "equal":
        return equal_depth_partition(table, predicate_columns[0], config.n_partitions)
    if partitioner == "count_optimal":
        result = optimal_count_partition(
            table, predicate_columns[0], config.n_partitions
        )
        return list(result.boxes)
    if partitioner == "adp":
        result = approximate_dp_partition(
            table,
            value_column,
            predicate_columns[0],
            config.n_partitions,
            agg=config.agg_template,
            delta=config.delta,
            opt_sample_size=config.opt_sample_size,
            rng=rng,
        )
        return list(result.boxes)
    if partitioner == "hill":
        result = hill_climbing_partition(
            table,
            value_column,
            predicate_columns[0],
            config.n_partitions,
            agg=config.agg_template,
            delta=config.delta,
            opt_sample_size=config.opt_sample_size,
            rng=rng,
        )
        return list(result.boxes)
    policy = "max_variance" if partitioner == "kd" else "breadth_first"
    kd_result = kd_partition(
        table,
        value_column,
        predicate_columns,
        config.n_partitions,
        policy=policy,
        agg=config.agg_template,
        delta=config.delta,
        opt_sample_size=config.opt_sample_size,
        rng=rng,
    )
    return list(kd_result.boxes)


class _AssignedBoxes(list):
    """Leaf boxes plus the rows the assignment pass gave each of them.

    :func:`build_pass` hands this list to :func:`build_leaf_samples` in
    place of the plain boxes, so one pass over the table serves the
    statistics, the sketches and the sample draws.
    """

    def __init__(self, boxes: Sequence[Box], rows: list[np.ndarray]) -> None:
        super().__init__(boxes)
        self.rows = rows


def _assign_rows(table: Table, leaf_boxes: Sequence[Box]) -> _AssignedBoxes:
    """Each leaf's row ids in ascending order: the build's one table scan.

    The rule is :meth:`Box.mask`'s: a row is in a leaf iff every column the
    leaf's box constrains holds a value in its closed interval (compared as
    float64; NaN lies in no interval).  The first box column is argsorted
    once, a leaf's rows on it are one band of that order (two
    ``searchsorted`` calls), and only the band is tested on the leaf's other
    columns.  ``ValueError`` when a row lies in two leaves, or when a row
    none of whose box coordinates is NaN lies in none; rows with a NaN box
    coordinate may lie in no leaf.
    """
    columns = sorted({column for box in leaf_boxes for column in box.columns})
    if not columns:
        raise ValueError("the leaf boxes constrain no column")
    data = {column: np.asarray(table.column(column), dtype=float) for column in columns}
    first = columns[0]
    order = np.argsort(data[first], kind="stable")
    ranked = data[first][order]
    rows: list[np.ndarray] = []
    seen = np.zeros(table.n_rows, dtype=bool)
    for leaf, box in enumerate(leaf_boxes):
        band = order
        if first in box:
            interval = box.interval(first)
            start = np.searchsorted(ranked, interval.low, "left")
            stop = np.searchsorted(ranked, interval.high, "right")
            band = order[start:stop]
        inside = np.ones(band.shape[0], dtype=bool)
        for column, interval in box.intervals.items():
            if column != first:
                values = data[column][band]
                inside &= (values >= interval.low) & (values <= interval.high)
        leaf_rows = np.sort(band[inside])
        shared = leaf_rows[seen[leaf_rows]]
        if shared.shape[0]:
            row = int(shared[0])
            other = next(i for i, earlier in enumerate(rows) if row in earlier)
            raise ValueError(
                f"leaf boxes {other} and {leaf} overlap: row {row} lies in both"
            )
        seen[leaf_rows] = True
        rows.append(leaf_rows)

    unassigned = ~seen
    for values in data.values():
        unassigned &= ~np.isnan(values)
    if unassigned.any():
        raise ValueError(
            f"the leaf boxes leave gaps: {int(unassigned.sum())} rows with no NaN "
            "box coordinate lie in no leaf"
        )
    return _AssignedBoxes(leaf_boxes, rows)


def build_leaf_samples(
    table: Table,
    value_column: str,
    predicate_columns: Sequence[str],
    leaf_boxes: Sequence[Box],
    config: PASSConfig,
    extra_columns: Sequence[str] | None = None,
) -> FlatSamples:
    """Draw the per-leaf stratified samples under the configured budget.

    In ESS mode every leaf is sampled at the configured rate, so any query
    touches at most the uniform-sampling budget's worth of tuples.  In BSS
    mode the total number of stored samples is capped and split across leaves
    according to the allocation policy.  ``extra_columns`` are carried in the
    samples beyond the value / predicate / box columns (the distributed layer
    keeps the shard column this way, so shard-column predicates stay
    evaluable inside shards partitioned on other columns).  The samples come
    back as CSR: leaf ``i`` owns rows ``offsets[i]:offsets[i + 1]`` of every
    column, each drawn without replacement from the leaf's ascending row ids.
    """
    if not isinstance(leaf_boxes, _AssignedBoxes):
        leaf_boxes = _assign_rows(table, leaf_boxes)
    rng = np.random.default_rng(config.seed + 1)
    keep_columns = [value_column] + [
        column for column in predicate_columns if column != value_column
    ]
    for column in extra_columns or ():
        if column not in keep_columns:
            keep_columns.append(column)
    box_columns = sorted({col for box in leaf_boxes for col in box.columns})
    for column in box_columns:
        if column not in keep_columns:
            keep_columns.append(column)

    sizes = [int(rows.shape[0]) for rows in leaf_boxes.rows]
    budgets = _leaf_budgets(table.n_rows, sizes, config, max(1, len(box_columns)))
    draws = np.minimum(budgets, sizes).tolist()
    chosen = [
        rng.choice(rows, size=n_draw, replace=False)
        for rows, n_draw in zip(leaf_boxes.rows, draws)
        if n_draw > 0
    ]
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(draws, out=offsets[1:])
    drawn = np.concatenate(chosen) if chosen else np.zeros(0, dtype=np.int64)
    return FlatSamples(
        offsets=offsets,
        columns={
            column: table.column(column)[drawn].astype(float)
            for column in keep_columns
        },
    )


def _leaf_budgets(
    n_rows: int, sizes: Sequence[int], config: PASSConfig, n_dimensions: int
) -> list[int]:
    """Per-leaf sample budgets for the configured mode and allocation.

    ESS mode controls the *per-query* IO: a rectangular query partially
    intersects at most ``2 * d`` leaves of a d-dimensional partitioning along
    its boundary, so giving every leaf ``K / (2 d)`` samples keeps the tuples
    processed per query at roughly the uniform-sampling budget ``K`` while
    letting the synopsis store far more samples in total (Section 5.1.4).
    BSS mode instead caps the *total* stored samples at the budget and splits
    it across leaves according to the allocation policy.
    """
    non_empty = [size for size in sizes if size > 0]
    if not non_empty:
        return [0 for _ in sizes]
    total = config.total_sample_budget(n_rows)
    if config.mode == "ess":
        per_leaf = max(1, total // max(1, 2 * n_dimensions))
        return [min(per_leaf, size) if size > 0 else 0 for size in sizes]
    if config.allocation == "equal":
        per_leaf = max(1, total // len(non_empty))
        return [min(per_leaf, size) if size > 0 else 0 for size in sizes]
    population = sum(sizes)
    return [
        max(1, int(round(total * size / population))) if size > 0 else 0
        for size in sizes
    ]


def _node_arrays(
    leaf_boxes: Sequence[Box],
    leaf_sum: np.ndarray,
    leaf_count: np.ndarray,
    leaf_min: np.ndarray,
    leaf_max: np.ndarray,
    fanout: int,
) -> tuple[list[str], dict[str, np.ndarray]]:
    """The partition tree over the leaves as ``(columns, node arrays)``.

    Leaves are ordered spatially (by their boxes' lower bounds, column by
    column) and grouped ``fanout`` at a time, level by level, until one root
    remains; a group of one passes up unwrapped.  A parent's statistics are
    its children's merged left to right from the empty partition, as
    :meth:`PartitionStats.merge` chains them, and its bounds are their
    bounding box.  Rows are laid out in geometry order (see "Build" in
    ``docs/ARCHITECTURE.md``).
    """
    n_leaves = len(leaf_boxes)
    columns = (
        list(leaf_boxes[0].columns)
        if n_leaves == 1
        else sorted({column for box in leaf_boxes for column in box.columns})
    )
    position = {column: c for c, column in enumerate(columns)}
    lows = np.full((n_leaves, len(columns)), -np.inf)
    highs = np.full((n_leaves, len(columns)), np.inf)
    present = np.zeros((n_leaves, len(columns)), dtype=bool)
    for leaf, box in enumerate(leaf_boxes):
        for column, interval in box.intervals.items():
            c = position[column]
            lows[leaf, c] = interval.low
            highs[leaf, c] = interval.high
            present[leaf, c] = True

    # The spatial order compares each box's (column, low) pairs over its own
    # sorted columns.  Per union column (sorted): a constrained column ranks
    # 0; an unconstrained one ranks 1 when the box constrains a later column
    # (that column's name sorts after) and -1 when it constrains none (a
    # prefix sorts first).  Ties keep the caller's leaf order.
    sorted_positions = [position[column] for column in sorted(columns)]
    later = np.cumsum(present[:, ::-1], axis=1)[:, ::-1] - present
    keys = [np.arange(n_leaves)]
    for c in reversed(sorted_positions):
        keys.append(np.where(present[:, c], lows[:, c], 0.0))
        keys.append(np.where(present[:, c], 0, np.where(later[:, c] > 0, 1, -1)))
    level = np.lexsort(keys)

    node_sum, node_count, node_min, node_max = leaf_sum, leaf_count, leaf_min, leaf_max
    children: list[np.ndarray] = []
    while level.shape[0] > 1:
        wrapped = level[: level.shape[0] - (level.shape[0] % fanout == 1)]
        groups = [
            wrapped[start : start + fanout]
            for start in range(0, wrapped.shape[0], fanout)
        ]
        total = np.zeros(len(groups))
        count = np.zeros(len(groups), dtype=np.int64)
        low_value = np.full(len(groups), np.inf)
        high_value = np.full(len(groups), -np.inf)
        low_bound = np.full((len(groups), len(columns)), np.inf)
        high_bound = np.full((len(groups), len(columns)), -np.inf)
        for slot in range(fanout):
            # The slot-th child of every group that has one (a prefix).
            child = wrapped[slot::fanout]
            k = child.shape[0]
            with np.errstate(invalid="ignore"):  # inf + -inf is NaN, as in Python
                total[:k] += node_sum[child]
            count[:k] += node_count[child]
            for merged, values, smaller in (
                (low_value, node_min[child], True),
                (high_value, node_max[child], False),
                (low_bound, lows[child], True),
                (high_bound, highs[child], False),
            ):
                # Python's min / max: the running value unless strictly beaten.
                better = values < merged[:k] if smaller else values > merged[:k]
                merged[:k] = np.where(better, values, merged[:k])
        first = node_sum.shape[0]
        children += groups
        node_sum = np.concatenate([node_sum, total])
        node_count = np.concatenate([node_count, count])
        node_min = np.concatenate([node_min, low_value])
        node_max = np.concatenate([node_max, high_value])
        lows = np.concatenate([lows, low_bound])
        highs = np.concatenate([highs, high_bound])
        level = np.concatenate(
            [np.arange(first, first + len(groups)), level[wrapped.shape[0] :]]
        )

    # Geometry order: the stack-pop order of the MCF descent (root first,
    # children pushed left to right and popped in reverse).
    rows: list[int] = []
    parents: list[int] = []
    depths: list[int] = []
    stack = [(int(level[0]), -1, 0)]
    while stack:
        node, parent, depth = stack.pop()
        rows.append(node)
        parents.append(parent)
        depths.append(depth)
        if node >= n_leaves:
            row = len(rows) - 1
            group = children[node - n_leaves].tolist()
            stack.extend((child, row, depth + 1) for child in group)
    order = np.asarray(rows, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    parent0 = parent.copy()
    parent0[0] = 0  # root "reaches" itself in the closed-form extraction
    is_leaf = order < n_leaves
    return columns, {
        "node_sum": node_sum[order],
        "node_count": node_count[order],
        "node_min": node_min[order],
        "node_max": node_max[order],
        "parent": parent,
        "parent0": parent0,
        "is_leaf": is_leaf,
        "leaf_of_row": np.where(is_leaf, order, -1),
        "depth": np.asarray(depths, dtype=np.int64),
        "col_lows": np.ascontiguousarray(lows[order].T),
        "col_highs": np.ascontiguousarray(highs[order].T),
    }


def build_pass(
    table: Table,
    value_column: str,
    predicate_columns: Sequence[str],
    config: PASSConfig | None = None,
    leaf_boxes: Sequence[Box] | None = None,
    extra_sample_columns: Sequence[str] | None = None,
) -> PASSSynopsis:
    """Build a PASS synopsis for a table.

    Parameters
    ----------
    table:
        Source table.
    value_column:
        Aggregation column ``A``.
    predicate_columns:
        Predicate columns ``C1..Cd``; a single column selects the 1-D
        optimizers, several columns select the k-d construction.
    config:
        Build configuration (defaults to :class:`PASSConfig`'s defaults:
        64 partitions, 0.5% per-leaf sample rate, ADP partitioner).
    leaf_boxes:
        Pre-computed leaf partitioning; when given, the partitioning
        optimizer is skipped (used by the ablation benchmarks to compare
        partitioners on otherwise identical synopses).  The boxes must be
        disjoint and cover every row of the table (``ValueError`` naming
        two overlapping leaves, or the count of rows left out); a row with
        a NaN box coordinate may lie in no leaf and is then not summarized.
    extra_sample_columns:
        Additional columns to retain in the leaf samples (see
        :func:`build_leaf_samples`).
    """
    config = config or PASSConfig()
    predicate_columns = list(predicate_columns)
    start = time.perf_counter()
    if leaf_boxes is None:
        effective_partitioner = resolve_partitioner(config, predicate_columns)
        leaf_boxes = build_leaf_boxes(table, value_column, predicate_columns, config)
    else:
        effective_partitioner = "precomputed"
    if not leaf_boxes:
        raise ValueError("cannot build a synopsis without leaves")
    fanout = config.fanout
    if fanout is None:
        fanout = (
            2 if len(predicate_columns) == 1 else min(8, 2 ** len(predicate_columns))
        )
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    assigned = _assign_rows(table, leaf_boxes)

    values = table.column(value_column).astype(float)
    n_leaves = len(assigned)
    leaf_count = np.array([rows.shape[0] for rows in assigned.rows], dtype=np.int64)
    leaf_sum = np.zeros(n_leaves)
    leaf_min = np.full(n_leaves, np.inf)
    leaf_max = np.full(n_leaves, -np.inf)
    sketches: list[LeafSketches] = []
    for leaf, rows in enumerate(assigned.rows):
        segment = values[rows]
        if segment.shape[0]:
            leaf_sum[leaf] = segment.sum()
            leaf_min[leaf] = segment.min()
            leaf_max[leaf] = segment.max()
        if config.with_sketches:
            sketches.append(
                LeafSketches.from_values(
                    segment,
                    quantile_k=config.sketch_quantile_k,
                    distinct_k=config.sketch_distinct_k,
                )
            )
    columns, arrays = _node_arrays(
        assigned, leaf_sum, leaf_count, leaf_min, leaf_max, fanout
    )

    samples = build_leaf_samples(
        table,
        value_column,
        predicate_columns,
        assigned,
        config,
        extra_columns=extra_sample_columns,
    )
    arrays["sample_offsets"] = samples.offsets
    arrays.update((f"sample/{column}", v) for column, v in samples.columns.items())
    header = {
        "value_column": value_column,
        "lam": float(config.lam),
        "zero_variance_rule": bool(config.zero_variance_rule),
        "with_fpc": bool(config.with_fpc),
        "columns": columns,
        "sample_columns": list(samples.columns),
        "sketch_keys": [],
        "effective_partitioner": effective_partitioner,
    }
    if config.with_sketches:
        header["sketch_keys"], packed = pack_leaf_sketches(sketches)
        arrays.update(packed)
    synopsis = PASSSynopsis(header, arrays)
    synopsis.build_seconds = time.perf_counter() - start
    return synopsis
