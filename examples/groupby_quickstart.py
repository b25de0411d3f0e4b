"""Group-by quickstart: compile a GROUP BY into boxes, serve it three ways.

The walkthrough mirrors a dashboard query::

    SELECT bin(time), SUM(light), COUNT(light), AVG(light)
    FROM sensors GROUP BY bin(time)

1. declare a :class:`GroupByQuery` (bin edges for ``time``),
2. answer it on a single synopsis through the vectorized grouped executor,
3. answer it through a serving engine (per-group result caching), and
4. answer it by scatter-gather over a sharded synopsis,

comparing every estimate against exact per-group aggregation.

Run::

    PYTHONPATH=src python examples/groupby_quickstart.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.batching import grouped_query
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.loaders import load_dataset
from repro.distributed.parallel import build_sharded_pass
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.query import ExactEngine
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine


def main() -> None:
    dataset = load_dataset("intel", n_rows=40_000)
    table = dataset.table
    value = dataset.value_column
    key = dataset.default_predicate_column
    low, high = table.column_bounds(key)

    # 1. Declare the grouped query: 8 equal-width time bins, 3 aggregates.
    groupby = GroupByQuery(
        groupings=(
            GroupingColumn.bins(key, [float(e) for e in np.linspace(low, high, 9)]),
        ),
        aggregates=(
            AggregateSpec("SUM", value),
            AggregateSpec("COUNT", value),
            AggregateSpec("AVG", value),
        ),
    )
    plan = groupby.compile(table)
    print(
        f"Compiled {len(plan.cells)} group cells x {len(plan.aggregates)} "
        f"aggregates into {plan.n_queries} canonical queries."
    )

    # 2. Single synopsis: one frontier + one mask pass per group cell.
    config = PASSConfig(n_partitions=64, sample_rate=0.01, opt_sample_size=800, seed=0)
    synopsis = build_pass(table, value, [key], config)
    start = time.perf_counter()
    grouped = grouped_query(synopsis, plan)
    elapsed = (time.perf_counter() - start) * 1e3
    exact = ExactEngine(table)
    print(f"\nGrouped execution on one synopsis ({elapsed:.1f} ms):")
    header = f"{'time bin':>22} " + "".join(
        f"{spec.name:>16}" for spec in plan.aggregates
    )
    print(header)
    for (labels, results), (_, cell) in zip(grouped, plan.live_cells()):
        bin_low, bin_high = labels[0]
        row = "".join(f"{result.estimate:>16,.1f}" for result in results)
        truth = exact.execute(plan.cell_query(cell, plan.aggregates[1]))
        print(f"  [{bin_low:8.2f}, {bin_high:8.2f}) {row}   (exact count {truth:,.0f})")

    # 3. Serving engine: compiled queries get per-group cache keys.
    catalog = SynopsisCatalog()
    catalog.register("light_by_time", synopsis, table_name=table.name)
    catalog.register_table(table)
    engine = ServingEngine(catalog)
    engine.execute_grouped(groupby, table=table.name)  # cold: fills the cache
    start = time.perf_counter()
    engine.execute_grouped(groupby, table=table.name)  # warm: all cache hits
    warm_ms = (time.perf_counter() - start) * 1e3
    info = engine.cache_info()
    print(
        f"\nServed grouped query twice: {info['size']} cached per-group results, "
        f"warm pass {warm_ms:.2f} ms."
    )

    # 4. Sharded scatter-gather: exact mergeable per-group aggregation.
    sharded = build_sharded_pass(
        table, value, key, n_shards=4, config=config
    )
    grouped_sharded = sharded.query_grouped(plan)
    worst = max(
        abs(row[1].estimate - exact.execute(plan.cell_query(cell, plan.aggregates[1])))
        for (_, row), (_, cell) in zip(
            iter(grouped_sharded), plan.live_cells()
        )
    )
    print(
        f"Sharded grouped execution over {sharded.n_shards} shards: "
        f"worst per-group COUNT deviation from exact = {worst:,.1f}."
    )


if __name__ == "__main__":
    main()
