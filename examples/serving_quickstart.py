"""Serving quickstart: build a synopsis catalog, persist it, reload, and serve.

Run with::

    python examples/serving_quickstart.py [--check]

The script walks the full serving lifecycle:

1. build a static PASS synopsis and a dynamic (update-accepting) one;
2. register both in a :class:`SynopsisCatalog` with an exact-scan fallback;
3. save the catalog to disk and load it back (simulating a process restart);
4. serve a query workload through the :class:`ServingEngine` — sequentially,
   then as a batch against the warm result cache;
5. apply streaming updates through the engine and show the cache
   invalidation and staleness telemetry;
6. save the updated catalog and serve the saved directory from a worker
   pool, which reads the same generation format a publisher writes.

``--check`` switches to CI mode: it asserts that the reloaded catalog
answers bit-identically to the one that was saved, and that a pool over the
saved directory answers bit-identically to a ``ServingEngine`` over
``load_catalog`` of it, for the static and the dynamic entry; non-zero exit
on any difference.
"""

from __future__ import annotations

import argparse
import dataclasses
import struct
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    AggregateQuery,
    DynamicPASS,
    PASSConfig,
    RectPredicate,
    ServingEngine,
    SynopsisCatalog,
    build_pass,
    load_catalog,
    load_dataset,
    save_catalog,
)
from repro.serving import MPServingPool


def _bits(result) -> tuple:
    """An answer's fields, floats as their IEEE-754 bytes (NaN equals NaN)."""
    return tuple(
        struct.pack("<d", value) if isinstance(value, float) else value
        for value in dataclasses.astuple(result)
    )


def _differences(label: str, got: list, want: list) -> list[str]:
    return [
        f"{label}: answer {index} differs ({a} != {b})"
        for index, (a, b) in enumerate(zip(got, want))
        if _bits(a) != _bits(b)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: assert bit-identical reload and pool answers",
    )
    options = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        failures = serve(Path(scratch) / "catalog", options.check)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if options.check and not failures:
        print(
            "serving check OK: the reloaded catalog and a pool over the saved "
            "directory answer bit-identically (static and dynamic entries)"
        )
    return 1 if failures else 0


def serve(directory: Path, check: bool) -> list[str]:
    """Run the walkthrough, saving under ``directory``; the check failures."""
    # 1. Build two synopses over the Intel-Wireless surrogate: a static one
    #    for light readings and a dynamic one that accepts inserts/deletes.
    dataset = load_dataset("intel", n_rows=100_000)
    table = dataset.table
    config = PASSConfig(n_partitions=64, sample_rate=0.005, seed=0)
    static = build_pass(table, "light", ["time"], config)
    dynamic = DynamicPASS(table, "temperature", ["time"], config)
    print(f"Built 2 synopses over {table.name} ({table.n_rows} rows)")

    # 2. Register them in a catalog.  The router sends each query to the
    #    best-matching synopsis; the registered table is the exact fallback.
    catalog = SynopsisCatalog()
    catalog.register("light_by_time", static, table_name=table.name)
    catalog.register("temp_by_time", dynamic, table_name=table.name)
    catalog.register_table(table)

    # 3. Persist and reload — builds survive process restarts.
    rng = np.random.default_rng(7)
    times = table.column("time")
    queries = []
    for _ in range(50):
        low, high = sorted(rng.uniform(times.min(), times.max(), size=2))
        predicate = RectPredicate.from_bounds(time=(float(low), float(high)))
        for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
            queries.append(AggregateQuery(agg, "light", predicate))
            queries.append(AggregateQuery(agg, "temperature", predicate))
    saved = [ServingEngine(catalog, cache_size=0).execute(q) for q in queries]
    save_catalog(catalog, directory)
    catalog = load_catalog(directory, tables={table.name: table})
    print(f"Saved and reloaded catalog from {directory}")
    failures = []
    if check:
        reloaded = [ServingEngine(catalog, cache_size=0).execute(q) for q in queries]
        failures += _differences("reloaded catalog", reloaded, saved)

    # 4. Serve a workload.  The engine caches results on the canonical query
    #    form, so the second (batched) pass is answered from memory.
    engine = ServingEngine(catalog)

    for query in queries[:4]:
        result = engine.execute(query)
        print(
            f"  {query.agg.value}({query.value_column}) -> "
            f"{result.estimate:,.1f} +/- {result.ci_half_width:,.1f}"
        )
    engine.execute_batch(queries)  # cold misses execute with shared mask work
    engine.execute_batch(queries)  # warm: served from the result cache

    # 5. Stream updates through the engine: it takes the write lock, applies
    #    the update, and drops exactly the cached results whose region the
    #    update touched.
    for _ in range(100):
        engine.insert(
            "temp_by_time",
            {
                "time": float(rng.uniform(times.min(), times.max())),
                "temperature": float(rng.normal(22.0, 3.0)),
            },
        )
    print(f"Cache after updates: {engine.cache_info()}")

    # p50 / p99 come from the per-synopsis latency histogram: interpolated
    # inside its buckets over every miss so far, not exact recent values.
    print("Serving telemetry (latency percentiles are histogram-interpolated):")
    for name, snapshot in engine.stats().items():
        print(
            f"  {name}: {snapshot.queries} queries, "
            f"hit rate {snapshot.hit_rate:.0%}, "
            f"p50 {snapshot.p50_latency_ms:.3f} ms, "
            f"p99 {snapshot.p99_latency_ms:.3f} ms, "
            f"staleness {snapshot.staleness:.4f}, "
            f"{snapshot.invalidations} invalidations"
        )

    # 6. A saved catalog is a generation directory: save the updated one, and
    #    a worker pool serves it as it stands.
    save_catalog(engine.catalog, directory)
    with MPServingPool(str(directory), n_workers=1) as pool:
        pooled = pool.execute_batch(queries, table.name)
    print(f"A worker pool served {len(pooled)} answers from {directory}")
    if check:
        expected = ServingEngine(load_catalog(directory), cache_size=0)
        want = [expected.execute(query, table.name) for query in queries]
        failures += _differences("pool over the saved directory", pooled, want)
    return failures


if __name__ == "__main__":
    raise SystemExit(main())
