"""Distributed quickstart: shard, build, stitch, query, stream.

Run with::

    PYTHONPATH=src python examples/distributed_quickstart.py

(or just ``python examples/distributed_quickstart.py`` after
``pip install -e .``.)

The script walks the distributed lifecycle end to end:

1. split a generated table into range shards with a :class:`ShardPlanner`;
2. build one dynamic PASS synopsis per shard and stitch them into one tree
   with :func:`build_sharded_from_plan`;
3. answer queries through the :class:`ShardedSynopsis` — watch the descent
   skip the shards a selective predicate cannot reach;
4. serve the sharded synopsis through the regular :class:`ServingEngine`
   catalog/routing machinery;
5. stream inserts through a :class:`StreamingShardRouter` until one shard
   drifts past the staleness threshold and is rebuilt and stitched back in
   place, the other shards' slices untouched.

``--check`` switches to CI mode: every printed answer's hard bounds must
contain the exact answer, the selective query must reach fewer shards than
the wide one, and the rebuild must change the owning shard's slice only;
exits non-zero otherwise.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import (
    AggregateQuery,
    ExactEngine,
    RectPredicate,
    PASSConfig,
    ServingEngine,
    ShardPlanner,
    StreamingShardRouter,
    SynopsisCatalog,
    Table,
    build_sharded_from_plan,
)


def _slices(sharded) -> list[list[bytes]]:
    """Each shard's exported arrays, as bytes (what a rebuild may change)."""
    return [
        [array.tobytes() for array in shard.export_buffers()[1].values()]
        for shard in sharded.shards
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: verify bounds, shard pruning and the per-shard rebuild",
    )
    options = parser.parse_args()
    failures: list[str] = []

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

    # 2. Build one dynamic synopsis per shard (shard i on seed 0 + i) and
    #    stitch them under one root.
    config = PASSConfig(n_partitions=32, sample_rate=0.01, opt_sample_size=1000, seed=0)
    sharded = build_sharded_from_plan(plan, "value", ["key"], config, dynamic=True)
    print(
        f"\nBuilt {sharded.n_shards} shards in {sharded.build_seconds:.2f}s "
        f"({sharded.n_partitions} partitions, {sharded.sample_size:,} samples total)"
    )

    exact = ExactEngine(table)

    def report(name: str, query: AggregateQuery, result, engine=exact) -> None:
        truth = engine.execute(query)
        print(
            f"{name}: estimate={result.estimate:,.2f} ±{result.ci_half_width:,.2f}, "
            f"hard bounds [{result.hard_lower:,.2f}, {result.hard_upper:,.2f}], "
            f"exact {truth:,.2f}"
        )
        eps = 1e-9 * max(1.0, abs(truth))
        if not result.hard_lower - eps <= truth <= result.hard_upper + eps:
            failures.append(f"{name}: exact {truth!r} outside the hard bounds")

    # 3. Queries.  A selective predicate's descent reaches fewer shards.
    wide = AggregateQuery("AVG", "value", RectPredicate.from_bounds(key=(5.0, 95.0)))
    narrow = AggregateQuery("SUM", "value", RectPredicate.from_bounds(key=(12.0, 15.0)))
    reached = {}
    for name, query in (("wide", wide), ("narrow", narrow)):
        reached[name] = len(sharded.surviving_shards(query))
        result = sharded.query(query)
        print(
            f"{name} query reached {reached[name]}/{sharded.n_shards} shards, "
            f"skipped {result.tuples_skipped:,} tuples"
        )
        report(f"  {name}", query, result)
    if not reached["narrow"] < reached["wide"]:
        failures.append(f"the narrow query reached {reached} shards")

    # Batches share one frontier per distinct predicate.
    workload = [
        AggregateQuery(agg, "value", RectPredicate.from_bounds(key=(low, low + 20.0)))
        for agg in ("SUM", "COUNT", "AVG")
        for low in np.linspace(0.0, 75.0, 6)
    ]
    results = sharded.query_batch(workload)
    print(f"Batch of {len(workload)} queries answered")
    report("  first of the batch", workload[0], results[0])

    # 4. The serving layer treats a sharded synopsis like any other: register
    #    it in a catalog and serve it with routing + caching.
    catalog = SynopsisCatalog()
    catalog.register("events_value", sharded, table_name="events")
    engine = ServingEngine(catalog)
    report("Served through the engine", wide, engine.execute(wide, table="events"))

    # 5. Stream updates through the shard router.  Concentrated inserts age
    #    one shard past the threshold and trigger a rebuild of just that
    #    shard, stitched back in place of its slice.  The synopsis is served,
    #    so the router writes under the engine's write lock: no query reads
    #    it mid-update or mid-stitch.  The router is the single writer for the
    #    synopsis — so after a burst of router-applied updates, drop the
    #    serving engine's cached results (updates applied through the engine
    #    itself invalidate automatically).
    router = StreamingShardRouter(sharded, plan.tables, rebuild_threshold=0.01)
    router.set_write_lock(engine.write_locked)
    owner = sharded.shard_for_value(12.5)
    before = _slices(sharded)
    target = int(sharded.shard_population(owner) * 0.011) + 1
    inserted = []
    for step in range(target):
        row = {"key": 12.5, "value": 60.0 + (step % 7)}
        router.insert(row)
        inserted.append(row)
    stats = router.stats()
    print(
        f"\nStreamed {target:,} inserts into shard {owner}: "
        f"rebuilds={stats[owner].rebuilds}, staleness={stats[owner].staleness:.4f}"
    )
    after = _slices(sharded)
    moved = [index for index, slices in enumerate(after) if slices != before[index]]
    print(f"Shards whose slice changed: {moved}")
    if stats[owner].rebuilds != 1 or moved != [owner]:
        failures.append(f"the rebuild of shard {owner} changed the slices of {moved}")
    dropped = engine.invalidate("events_value")
    refreshed = engine.execute(narrow, table="events")
    print(f"Narrow query after streaming (cache dropped {dropped} stale results):")
    streamed = ExactEngine(
        Table(
            {
                column: np.concatenate(
                    [table.column(column), [row[column] for row in inserted]]
                )
                for column in ("key", "value")
            },
            name="events",
        )
    )
    report("  refreshed", narrow, refreshed, streamed)

    if options.check:
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        if not failures:
            print(
                "distributed check OK: every answer inside its hard bounds, the "
                "narrow query reached fewer shards, the rebuild moved one slice"
            )
    return 1 if options.check and failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
