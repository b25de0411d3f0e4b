"""Distributed layer: sharding, per-shard builds, scatter-gather.

This subsystem makes PASS horizontally scalable:

* :class:`ShardPlanner` splits a :class:`~repro.data.table.Table` into
  range- or hash-sharded chunks on a chosen shard column;
* :func:`build_sharded_from_plan` (and the :func:`build_sharded_pass`
  convenience) builds the per-shard synopses in the calling process, one
  seeded build per shard;
* :class:`ShardedSynopsis` answers aggregate queries by scatter-gather —
  prune shards whose key range cannot match, query the survivors through
  the batch path, and merge the per-shard estimates, variances,
  and deterministic bounds into a single :class:`~repro.result.AQPResult`
  (the mergeability of PASS's partition statistics is what makes the merge
  exact for the tree components);
* :class:`StreamingShardRouter` directs inserts / deletes to the owning
  shard's :class:`~repro.core.updates.DynamicPASS`, tracks per-shard
  staleness, and re-optimizes drifted shards without pausing reads on the
  others.

Sharded synopses register in a :class:`~repro.serving.catalog.SynopsisCatalog`
and serve through a :class:`~repro.serving.engine.ServingEngine` like any
other synopsis, and persist through :mod:`repro.serving.persistence`.
"""

from repro.distributed.parallel import build_sharded_from_plan, build_sharded_pass
from repro.distributed.planner import (
    STRATEGIES,
    ShardPlan,
    ShardPlanner,
    ShardRouting,
    hash_assign,
)
from repro.distributed.router import ShardUpdateStats, StreamingShardRouter
from repro.distributed.sharded import ShardedSynopsis

__all__ = [
    "ShardPlan",
    "ShardPlanner",
    "ShardRouting",
    "STRATEGIES",
    "hash_assign",
    "build_sharded_from_plan",
    "build_sharded_pass",
    "ShardedSynopsis",
    "StreamingShardRouter",
    "ShardUpdateStats",
]
