"""Building the per-shard synopses of a shard plan, in the calling process.

Shard ``i`` of a :class:`~repro.distributed.planner.ShardPlan` is built by
:func:`~repro.core.builder.build_pass` (or as a
:class:`~repro.core.updates.DynamicPASS`) on seed ``config.seed + i``, so
shard samples are independent and every build is reproducible bit for bit.
The shards are built one after another in this process: a shard build is
cheaper than starting a worker interpreter and importing numpy into it, so
no process pool is used.  The built shards are stitched into one tree, a
:class:`~repro.distributed.sharded.ShardedSynopsis`.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.planner import ShardPlan, ShardPlanner
from repro.distributed.sharded import ShardedSynopsis

__all__ = ["build_sharded_from_plan", "build_sharded_pass"]


def build_sharded_from_plan(
    plan: ShardPlan,
    value_column: str,
    predicate_columns: Sequence[str] | None = None,
    config: PASSConfig | None = None,
    dynamic: bool = False,
) -> ShardedSynopsis:
    """Build one synopsis per shard of ``plan`` and stitch them into one tree.

    Parameters
    ----------
    plan:
        The shard plan (key boxes + table chunks) from a
        :class:`~repro.distributed.planner.ShardPlanner`.
    value_column / predicate_columns / config:
        Per-shard build parameters; ``predicate_columns`` defaults to the
        shard column, and each shard's config gets a distinct seed
        (``config.seed + shard index``) so shard samples are independent.
    dynamic:
        Build every shard as a :class:`DynamicPASS` so the sharded
        synopsis accepts streaming updates.
    """
    config = config or PASSConfig()
    predicate_columns = list(
        predicate_columns if predicate_columns is not None else [plan.shard_column]
    )
    extra_sample_columns = []
    if plan.shard_column != value_column and plan.shard_column not in predicate_columns:
        # Keep the shard column in the shard samples so predicates that
        # constrain it remain evaluable inside every shard.
        extra_sample_columns.append(plan.shard_column)
    build = DynamicPASS if dynamic else build_pass
    start = time.perf_counter()
    shards = [
        build(
            table,
            value_column,
            predicate_columns,
            config.with_overrides(seed=config.seed + index),
            extra_sample_columns=extra_sample_columns,
        )
        for index, table in enumerate(plan.tables)
    ]
    return ShardedSynopsis(
        shards=shards,
        key_boxes=plan.key_boxes,
        shard_column=plan.shard_column,
        strategy=plan.strategy,
        lam=config.lam,
        hash_modulus=plan.hash_modulus,
        hash_owners=plan.hash_owners,
        build_seconds=time.perf_counter() - start,
    )


def build_sharded_pass(
    table: Table,
    value_column: str,
    shard_column: str,
    n_shards: int = 4,
    strategy: str = "range",
    predicate_columns: Sequence[str] | None = None,
    config: PASSConfig | None = None,
    dynamic: bool = False,
) -> ShardedSynopsis:
    """One-call convenience: plan the shards, then build them.

    Equivalent to ``ShardPlanner(n_shards, strategy).plan(table, shard_column)``
    followed by :func:`build_sharded_from_plan`.
    """
    plan = ShardPlanner(n_shards, strategy).plan(table, shard_column)
    return build_sharded_from_plan(
        plan,
        value_column,
        predicate_columns=predicate_columns,
        config=config,
        dynamic=dynamic,
    )
