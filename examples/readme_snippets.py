"""Executes the README's code blocks so the quickstarts can never go stale.

Each section below is the corresponding README snippet, verbatim up to the
small amounts of scaffolding a standalone script needs (a temp directory
instead of a literal path, a generated table for the distributed snippet,
reduced row counts).  CI runs this with ``--check``; if a README block
drifts from the current API this script breaks, and the README section it
mirrors is named in the failure.

Run standalone::

    python examples/readme_snippets.py [--check]
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np


def quickstart_and_serving() -> None:
    """README 'Quickstart': build, query, persist, serve."""
    from repro import (
        AggregateQuery,
        PASSConfig,
        RectPredicate,
        ServingEngine,
        SynopsisCatalog,
        build_pass,
        load_catalog,
        load_dataset,
        save_catalog,
    )

    dataset = load_dataset("intel", n_rows=20_000)
    synopsis = build_pass(
        dataset.table,
        "light",
        ["time"],
        PASSConfig(n_partitions=64, sample_rate=0.005),
    )

    query = AggregateQuery.sum(
        "light", RectPredicate.from_bounds(time=(0.5, 2.0))
    )
    result = synopsis.query(query)
    assert result.hard_lower <= result.hard_upper

    catalog = SynopsisCatalog()
    catalog.register("light_by_time", synopsis, table_name=dataset.table.name)
    catalog.register_table(dataset.table)
    with tempfile.TemporaryDirectory() as catalog_dir:
        save_catalog(catalog, catalog_dir)
        engine = ServingEngine(
            load_catalog(catalog_dir, tables={dataset.table.name: dataset.table})
        )
        engine.execute(query)
        engine.execute_batch([query] * 100)
        # A saved catalog is a generation directory a worker pool serves.
        from repro.serving import MPServingPool

        with MPServingPool(catalog_dir, n_workers=1) as pool:
            assert pool.execute(query) == engine.execute(query)
    print("quickstart + serving snippet ok")


def distributed() -> None:
    """README 'Distributed layer': sharded build + scatter-gather query."""
    from repro import AggregateQuery, PASSConfig, RectPredicate, build_sharded_pass
    from repro.data.table import Table

    rng = np.random.default_rng(0)
    table = Table(
        {
            "key": rng.uniform(0.0, 100.0, size=20_000),
            "value": np.abs(rng.normal(50.0, 15.0, size=20_000)),
        },
        name="sensors",
    )
    sharded = build_sharded_pass(
        table,
        "value",
        shard_column="key",
        n_shards=8,
        config=PASSConfig(n_partitions=32),
        dynamic=True,
    )
    result = sharded.query(
        AggregateQuery.sum("value", RectPredicate.from_bounds(key=(10, 20)))
    )
    assert result.hard_lower <= result.estimate <= result.hard_upper
    print("distributed snippet ok")

    groupby(sharded, table)


def groupby(sharded, table) -> None:
    """README 'Group-by / multi-aggregate queries': compile + execute."""
    from repro.core.batching import grouped_query
    from repro.core.builder import build_pass
    from repro.query import AggregateSpec, GroupByQuery, GroupingColumn

    groupby_query = GroupByQuery(
        groupings=(GroupingColumn.bins("key", [0, 25, 50, 75, 100]),),
        aggregates=(
            AggregateSpec("SUM", "value"),
            AggregateSpec("COUNT", "value"),
            AggregateSpec("AVG", "value"),
        ),
    )
    grouped = sharded.query_grouped(groupby_query.compile())
    synopsis = build_pass(table, "value", ["key"])
    grouped_single = grouped_query(synopsis, groupby_query.compile(table))
    assert len(grouped) == len(grouped_single) == 4
    for labels, results in grouped:
        assert len(labels) == 1 and len(results) == 3
    print("groupby snippet ok")


def async_serving() -> None:
    """README 'Async serving': coalescing tier over the serving engine."""
    from repro import AggregateQuery, PASSConfig, RectPredicate
    from repro.data.table import Table
    from repro.serving import AsyncServingEngine, ServingEngine, SynopsisCatalog

    rng = np.random.default_rng(1)
    table = Table(
        {
            "time": rng.uniform(0.0, 100.0, size=10_000),
            "power": np.abs(rng.normal(40.0, 10.0, size=10_000)),
        },
        name="sensors",
    )
    from repro.core.updates import DynamicPASS

    dynamic = DynamicPASS(
        table, "power", ["time"], config=PASSConfig(n_partitions=32)
    )
    catalog = SynopsisCatalog()
    # `tier.insert` routes to the owning DynamicPASS, so the catalog entry
    # must be dynamic (a static synopsis raises TypeError on writes).
    catalog.register("sensors_power", dynamic, table_name="sensors")

    async def drive() -> None:
        dashboard_queries = [
            AggregateQuery.sum(
                "power", RectPredicate.from_bounds(time=(float(i), float(i + 10)))
            )
            for i in range(0, 50, 10)
        ]
        async with AsyncServingEngine(ServingEngine(catalog)) as tier:
            await asyncio.gather(*(tier.execute(q) for q in dashboard_queries))
            await tier.insert("sensors_power", {"time": 20.0, "power": 55.0})

    asyncio.run(drive())
    print("async serving snippet ok")


def main(argv: list[str] | None = None) -> int:
    """Run every README snippet; any API drift raises."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on any snippet failure (CI mode; same behavior)",
    )
    parser.parse_args(argv)
    quickstart_and_serving()
    distributed()
    async_serving()
    print("all README snippets executed against the current API")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
