"""Distributed layer: sharding, per-shard builds, one stitched tree.

This subsystem makes PASS horizontally scalable:

* :class:`ShardPlanner` splits a :class:`~repro.data.table.Table` into
  range- or hash-sharded chunks on a chosen shard column;
* :func:`build_sharded_from_plan` (and the :func:`build_sharded_pass`
  convenience) builds the per-shard synopses in the calling process, one
  seeded build per shard, and stitches them into one tree;
* :class:`ShardedSynopsis` is that tree: a shard is a subtree under one
  root, so the one flat kernel answers it and shard pruning is the descent;
* :class:`StreamingShardRouter` applies inserts / deletes to it, tracks
  per-shard staleness, and rebuilds a drifted shard in place of its slice.

Sharded synopses register in a :class:`~repro.serving.catalog.SynopsisCatalog`,
serve through a :class:`~repro.serving.engine.ServingEngine` like any other
synopsis, persist through :mod:`repro.serving.persistence` as one file and
publish to the worker pool as one generation file.
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
from repro.distributed.sharded import DynamicShardedSynopsis, ShardedSynopsis

__all__ = [
    "ShardPlan",
    "ShardPlanner",
    "ShardRouting",
    "STRATEGIES",
    "hash_assign",
    "build_sharded_from_plan",
    "build_sharded_pass",
    "ShardedSynopsis",
    "DynamicShardedSynopsis",
    "StreamingShardRouter",
    "ShardUpdateStats",
]
