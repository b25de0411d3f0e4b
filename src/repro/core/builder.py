"""Building a PASS synopsis from a table and a :class:`PASSConfig`.

The builder performs the offline phase of Section 4: it runs the configured
partitioning optimizer to obtain the leaf partitioning, computes the exact
SUM / COUNT / MIN / MAX of every leaf, assembles the partition tree
bottom-up, draws the per-leaf stratified samples under the configured
sampling budget and mode (ESS or BSS), and (unless disabled via
``with_sketches=False``) attaches the mergeable per-leaf quantile and
distinct-count sketches that answer QUANTILE / COUNT_DISTINCT queries.
:class:`~repro.core.pass_synopsis.PASSSynopsis` flattens those objects into
the arrays it keeps; the recorded build time includes that.
"""

from __future__ import annotations

import time
import warnings
from typing import Sequence

import numpy as np

from repro.aggregation.partition import PartitionStats
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.tree import PartitionTree
from repro.data.table import Table
from repro.partitioning.dp import (
    approximate_dp_partition,
    optimal_count_partition,
)
from repro.partitioning.equal import equal_depth_partition
from repro.partitioning.hill_climbing import hill_climbing_partition
from repro.partitioning.kdtree import kd_partition
from repro.query.predicate import Box
from repro.sampling.stratified import Stratum
from repro.sketches import LeafSketches

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


def build_leaf_samples(
    table: Table,
    value_column: str,
    predicate_columns: Sequence[str],
    leaf_boxes: Sequence[Box],
    config: PASSConfig,
    extra_columns: Sequence[str] | None = None,
) -> list[Stratum]:
    """Draw the per-leaf stratified samples under the configured budget.

    In ESS mode every leaf is sampled at the configured rate, so any query
    touches at most the uniform-sampling budget's worth of tuples.  In BSS
    mode the total number of stored samples is capped and split across leaves
    according to the allocation policy.  ``extra_columns`` are carried in the
    samples beyond the value / predicate / box columns (the distributed layer
    keeps the shard column this way, so shard-column predicates stay
    evaluable inside shards partitioned on other columns).
    """
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
    data = table.columns(keep_columns)

    # Row indices, not masks: one full-table mask per leaf held at once is
    # n_leaves x n_rows bytes (the builder's peak memory on large inputs).
    leaf_rows = [
        np.flatnonzero(box.mask({col: data[col] for col in box.columns}))
        for box in leaf_boxes
    ]
    sizes = [int(indices.shape[0]) for indices in leaf_rows]
    n_dimensions = max(1, len({col for box in leaf_boxes for col in box.columns}))
    budgets = _leaf_budgets(table.n_rows, sizes, config, n_dimensions)

    samples: list[Stratum] = []
    for box, indices, size, budget in zip(leaf_boxes, leaf_rows, sizes, budgets):
        n_draw = min(budget, size)
        if n_draw > 0:
            chosen = rng.choice(indices, size=n_draw, replace=False)
        else:
            chosen = np.array([], dtype=int)
        sample_columns = {
            column: data[column][chosen].astype(float) for column in keep_columns
        }
        samples.append(Stratum(box=box, size=size, sample_columns=sample_columns))
    return samples


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
        partitioners on otherwise identical synopses).
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
    leaf_boxes = list(leaf_boxes)

    values = table.column(value_column).astype(float)
    stats: list[PartitionStats] = []
    leaf_sketches: list[LeafSketches] | None = [] if config.with_sketches else None
    for box in leaf_boxes:
        mask = box.mask(table.columns(box.columns))
        leaf_values = values[mask]
        stats.append(PartitionStats.from_values(leaf_values))
        if leaf_sketches is not None:
            leaf_sketches.append(
                LeafSketches.from_values(
                    leaf_values,
                    quantile_k=config.sketch_quantile_k,
                    distinct_k=config.sketch_distinct_k,
                )
            )

    fanout = config.fanout
    if fanout is None:
        fanout = (
            2 if len(predicate_columns) == 1 else min(8, 2 ** len(predicate_columns))
        )
    tree = PartitionTree.build_from_leaves(leaf_boxes, stats, fanout=fanout)
    samples = build_leaf_samples(
        table,
        value_column,
        predicate_columns,
        leaf_boxes,
        config,
        extra_columns=extra_sample_columns,
    )
    synopsis = PASSSynopsis(
        tree=tree,
        leaf_samples=samples,
        value_column=value_column,
        lam=config.lam,
        zero_variance_rule=config.zero_variance_rule,
        with_fpc=config.with_fpc,
        effective_partitioner=effective_partitioner,
        leaf_sketches=leaf_sketches,
    )
    synopsis.build_seconds = time.perf_counter() - start
    return synopsis
