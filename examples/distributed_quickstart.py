"""Distributed quickstart: shard, build, scatter-gather, stream.

Run with::

    PYTHONPATH=src python examples/distributed_quickstart.py

(or just ``python examples/distributed_quickstart.py`` after
``pip install -e .``.)

The script walks the distributed lifecycle end to end:

1. split a generated table into range shards with a :class:`ShardPlanner`;
2. build one dynamic PASS synopsis per shard with
   :func:`build_sharded_from_plan`;
3. answer queries by scatter-gather through the :class:`ShardedSynopsis` —
   watch shard pruning skip work for selective predicates;
4. serve the sharded synopsis through the regular :class:`ServingEngine`
   catalog/routing machinery;
5. stream inserts through a :class:`StreamingShardRouter` until one shard
   drifts past the staleness threshold and is rebuilt in place — without
   pausing reads on the other shards.
"""

from __future__ import annotations

import numpy as np

from repro import (
    AggregateQuery,
    RectPredicate,
    PASSConfig,
    ServingEngine,
    ShardPlanner,
    StreamingShardRouter,
    SynopsisCatalog,
    Table,
    build_sharded_from_plan,
)


def main() -> None:
    # 1. Generate a table and split it into range shards on `key`.
    rng = np.random.default_rng(0)
    n = 200_000
    key = rng.uniform(0.0, 100.0, size=n)
    value = np.abs(rng.normal(50.0, 15.0, size=n) + 0.3 * key)
    table = Table({"key": key, "value": value}, name="events")

    planner = ShardPlanner(n_shards=4, strategy="range")
    plan = planner.plan(table, "key")
    print(f"Planned {plan.n_shards} range shards over {table.n_rows:,} rows:")
    for box, chunk in zip(plan.key_boxes, plan.tables):
        print(f"  {chunk.name}: {chunk.n_rows:,} rows, key ∈ {box.interval('key')!r}")

    # 2. Build one dynamic synopsis per shard (shard i on seed 0 + i).
    config = PASSConfig(n_partitions=32, sample_rate=0.01, opt_sample_size=1000, seed=0)
    sharded = build_sharded_from_plan(plan, "value", ["key"], config, dynamic=True)
    print(
        f"\nBuilt {sharded.n_shards} shards in {sharded.build_seconds:.2f}s "
        f"({sharded.n_partitions} partitions, {sharded.sample_size:,} samples total)"
    )

    # 3. Scatter-gather queries.  A selective predicate prunes the shards
    #    whose key range cannot match.
    wide = AggregateQuery("AVG", "value", RectPredicate.from_bounds(key=(5.0, 95.0)))
    narrow = AggregateQuery("SUM", "value", RectPredicate.from_bounds(key=(12.0, 15.0)))
    for name, query in (("wide", wide), ("narrow", narrow)):
        survivors = sharded.surviving_shards(query)
        result = sharded.query(query)
        print(
            f"{name} query touched {len(survivors)}/{sharded.n_shards} shards: "
            f"estimate={result.estimate:,.2f} ±{result.ci_half_width:,.2f}, "
            f"skipped {result.tuples_skipped:,} tuples"
        )

    # Batches share per-shard mask evaluation across all queries.
    workload = [
        AggregateQuery(agg, "value", RectPredicate.from_bounds(key=(low, low + 20.0)))
        for agg in ("SUM", "COUNT", "AVG")
        for low in np.linspace(0.0, 75.0, 6)
    ]
    results = sharded.query_batch(workload)
    print(
        f"Batch of {len(workload)} queries answered; first={results[0].estimate:,.1f}"
    )

    # 4. The serving layer treats a sharded synopsis like any other: register
    #    it in a catalog and serve it with routing + caching.
    catalog = SynopsisCatalog()
    catalog.register("events_value", sharded, table_name="events")
    engine = ServingEngine(catalog)
    served = engine.execute(wide, table="events")
    print(f"Served through the engine: {served.estimate:,.2f} (cached on repeat)")

    # 5. Stream updates through the shard router.  Concentrated inserts age
    #    one shard past the threshold and trigger a rebuild of just that
    #    shard; the other shards' synopses are untouched (reads never pause).
    #    The router is the single writer for the synopsis — so after a burst
    #    of router-applied updates, drop the serving engine's cached results
    #    (updates applied through the engine itself invalidate automatically).
    router = StreamingShardRouter(sharded, plan.tables, rebuild_threshold=0.01)
    owner = sharded.shard_for_value(12.5)
    others_before = [s for i, s in enumerate(sharded.shards) if i != owner]
    target = int(sharded.shards[owner].population_size * 0.011) + 1
    for step in range(target):
        router.insert({"key": 12.5, "value": 60.0 + (step % 7)})
    stats = router.stats()
    print(
        f"\nStreamed {target:,} inserts into shard {owner}: "
        f"rebuilds={stats[owner].rebuilds}, staleness={stats[owner].staleness:.4f}"
    )
    others_after = [s for i, s in enumerate(sharded.shards) if i != owner]
    untouched = all(a is b for a, b in zip(others_before, others_after))
    print(f"Other shards untouched by the rebuild: {untouched}")
    dropped = engine.invalidate("events_value")
    refreshed = engine.execute(narrow, table="events")
    print(
        f"Narrow query after streaming (cache dropped {dropped} stale results): "
        f"{refreshed.estimate:,.2f}"
    )


if __name__ == "__main__":
    main()
