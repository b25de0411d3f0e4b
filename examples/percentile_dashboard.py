"""Percentile-dashboard quickstart: p50/p95/p99 latency + distinct users.

The workload every service dashboard runs::

    SELECT bin(time), P50(latency), P95(latency), P99(latency)
    FROM requests GROUP BY bin(time)

    SELECT COUNT(DISTINCT user_id) FROM requests WHERE time BETWEEN ...

Neither aggregate is linear, so the classic PASS partition statistics cannot
answer them — the mergeable per-leaf sketches (``src/repro/sketches/``) can:

1. build a synopsis over a synthetic request log (sketches are attached per
   leaf by default),
2. read single percentile / distinct-count queries with certified bounds,
3. run the grouped p50/p95/p99 dashboard through the serving engine (each
   percentile caches under its own canonical key), and
4. shard the log and show scatter-gather answers staying inside the
   single-synopsis certified bounds.

Run::

    PYTHONPATH=src python examples/percentile_dashboard.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery, ExactEngine
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine


def make_request_log(n_rows: int = 400_000, seed: int = 0) -> Table:
    """A synthetic request log: timestamps, lognormal latencies, user ids."""
    rng = np.random.default_rng(seed)
    hour = rng.uniform(0.0, 24.0, size=n_rows)
    # Latency worsens during the evening peak; heavy lognormal tail.
    latency = np.round(
        rng.lognormal(3.0, 0.5, size=n_rows) * (1.0 + 0.4 * (hour > 18)), 1
    )
    user = np.floor(rng.zipf(1.3, size=n_rows) % 25_000).astype(float)
    return Table(
        {"hour": hour, "latency_ms": latency, "user_id": user}, name="requests"
    )


def main() -> None:
    table = make_request_log()
    config = PASSConfig(
        n_partitions=48,
        sample_rate=0.005,
        partitioner="equal",
        sketch_quantile_k=200,
        sketch_distinct_k=4096,
    )

    print(f"building synopses over {table.n_rows:,} requests ...")
    latency_synopsis = build_pass(table, "latency_ms", ["hour"], config)
    users_synopsis = build_pass(table, "user_id", ["hour"], config)
    exact = ExactEngine(table)

    # ------------------------------------------------------------------
    # Single queries with certified bounds
    # ------------------------------------------------------------------
    evening = RectPredicate({"hour": Interval(18.0, 24.0)})
    print("\n== Evening window (18:00-24:00) ==")
    for q in (0.5, 0.95, 0.99):
        query = AggregateQuery("QUANTILE", "latency_ms", evening, quantile=q)
        result = latency_synopsis.query(query)
        truth = exact.execute(query)
        print(
            f"  p{q * 100:g} latency: {result.estimate:8.1f} ms  "
            f"(certified [{result.hard_lower:.1f}, {result.hard_upper:.1f}], "
            f"exact {truth:.1f})"
        )
    distinct_query = AggregateQuery.count_distinct("user_id", evening)
    result = users_synopsis.query(distinct_query)
    truth = exact.execute(distinct_query)
    print(
        f"  distinct users:  {result.estimate:8.0f}     "
        f"(envelope [{result.hard_lower:.0f}, {result.hard_upper:.0f}], "
        f"exact {truth:.0f})"
    )

    # ------------------------------------------------------------------
    # The grouped dashboard through the serving engine
    # ------------------------------------------------------------------
    catalog = SynopsisCatalog()
    catalog.register("latency", latency_synopsis, table_name="requests")
    catalog.register_table(table, "requests")
    engine = ServingEngine(catalog)

    dashboard = GroupByQuery(
        groupings=(GroupingColumn.bins("hour", list(range(0, 25, 3))),),
        aggregates=(
            AggregateSpec("QUANTILE", "latency_ms", 0.5),
            AggregateSpec("QUANTILE", "latency_ms", 0.95),
            AggregateSpec("QUANTILE", "latency_ms", 0.99),
        ),
    )
    start = time.perf_counter()
    grouped = engine.execute_grouped(dashboard, table="requests")
    cold_ms = 1e3 * (time.perf_counter() - start)
    start = time.perf_counter()
    engine.execute_grouped(dashboard, table="requests")
    warm_ms = 1e3 * (time.perf_counter() - start)

    print("\n== Hourly latency dashboard (p50 / p95 / p99, ms) ==")
    for record in grouped.to_records():
        low, high = record["hour"]
        print(
            f"  {low:5.0f}-{high:<5.0f} "
            f"p50={record['P50(latency_ms)']:7.1f}  "
            f"p95={record['P95(latency_ms)']:7.1f}  "
            f"p99={record['P99(latency_ms)']:7.1f}"
        )
    print(f"  cold {cold_ms:.1f} ms -> warm (cached) {warm_ms:.1f} ms")

    # ------------------------------------------------------------------
    # Sharded scatter-gather stays inside the certified bounds
    # ------------------------------------------------------------------
    sharded = build_sharded_pass(
        table, "latency_ms", "hour", n_shards=4, config=config
    )
    print("\n== 4-shard scatter-gather vs single synopsis (p95, evening) ==")
    query = AggregateQuery("QUANTILE", "latency_ms", evening, quantile=0.95)
    single = latency_synopsis.query(query)
    merged = sharded.query(query)
    print(
        f"  single : {single.estimate:.1f} ms  "
        f"[{single.hard_lower:.1f}, {single.hard_upper:.1f}]"
    )
    print(
        f"  sharded: {merged.estimate:.1f} ms  "
        f"[{merged.hard_lower:.1f}, {merged.hard_upper:.1f}]"
    )
    overlap = max(single.hard_lower, merged.hard_lower) <= min(
        single.hard_upper, merged.hard_upper
    )
    print(f"  certified intervals overlap: {overlap}")


if __name__ == "__main__":
    main()
