"""Distributed-layer benchmark: sharded query latency vs shard count.

Per-query latency of a mixed SUM / COUNT / AVG workload through
:meth:`ShardedSynopsis.query` and the batched
:meth:`ShardedSynopsis.query_batch` (the shards stitched into one tree, so
both run the one flat kernel), across increasing shard counts, with the
shard-pruning rate recorded alongside; then the cost of one per-shard
rebuild through :class:`StreamingShardRouter` and the part of it spent
re-stitching the tree (:meth:`ShardedSynopsis.replace_shard`).

Run standalone::

    python benchmarks/bench_distributed.py            # full: 1M rows
    python benchmarks/bench_distributed.py --tiny     # CI smoke: seconds

(The other ``bench_*`` files are pytest-benchmark suites; this one is a
plain script so CI can smoke-test it directly.)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.config import PASSConfig
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_from_plan
from repro.distributed.planner import ShardPlanner
from repro.distributed.router import StreamingShardRouter
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery

KEY_HIGH = 1000.0


def generate_table(n_rows: int, seed: int = 0) -> Table:
    """A generated table with keyed structure in the aggregation column."""
    rng = np.random.default_rng(seed)
    key = rng.uniform(0.0, KEY_HIGH, size=n_rows)
    value = np.abs(rng.normal(50.0, 15.0, size=n_rows) + 0.05 * key)
    return Table({"key": key, "value": value}, name="bench_distributed")


def make_workload(n_queries: int, seed: int = 1) -> list[AggregateQuery]:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(n_queries // 3 + 1):
        low, high = sorted(rng.uniform(0.0, KEY_HIGH, size=2))
        predicate = RectPredicate.from_bounds(key=(float(low), float(high)))
        for agg in ("SUM", "COUNT", "AVG"):
            queries.append(AggregateQuery(agg, "value", predicate))
    return queries[:n_queries]


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def bench_sharded_queries(
    table: Table,
    config: PASSConfig,
    shard_counts: list[int],
    n_queries: int,
) -> list[dict]:
    """Per-query sharded latency and pruning rate per shard count."""
    workload = make_workload(n_queries)
    rows = []
    print(f"\n== Sharded query latency: {n_queries} queries ==")
    print(f"  {'shards':>6} {'seq ms/q':>10} {'batch ms/q':>11} {'pruned %':>9}")
    for n_shards in shard_counts:
        sharded = build_sharded_from_plan(
            ShardPlanner(n_shards, "range").plan(table, "key"),
            "value",
            ["key"],
            config,
        )
        # Best of 3 passes: single-shot timings of a small workload are
        # noise-dominated on shared CI runners, and the perf gate tracks them.
        sequential_seconds = min(
            _timed(lambda: [sharded.query(query) for query in workload])
            for _ in range(3)
        )
        sequential_ms = sequential_seconds / len(workload) * 1e3
        batch_seconds = min(
            _timed(lambda: sharded.query_batch(workload)) for _ in range(3)
        )
        batch_ms = batch_seconds / len(workload) * 1e3

        scanned = sum(len(sharded.surviving_shards(q)) for q in workload)
        pruned = 1.0 - scanned / (len(workload) * sharded.n_shards)
        rows.append(
            {
                "shards": sharded.n_shards,
                "sequential_ms": sequential_ms,
                "batch_ms": batch_ms,
                "pruned_fraction": pruned,
            }
        )
        print(
            f"  {sharded.n_shards:>6} {sequential_ms:>10.3f} {batch_ms:>11.3f}"
            f" {100 * pruned:>8.1f}%"
        )
    return rows


def bench_shard_rebuilds(
    table: Table, config: PASSConfig, shard_counts: list[int]
) -> list[dict]:
    """One per-shard rebuild's wall time, and its re-stitch's, per shard count.

    A rebuild builds the replacement from the shard's rows alone, then
    re-stitches the whole tree around it; the second column shows how the
    re-stitch grows with the synopsis while the build stays one shard's.
    """
    rows = []
    print("\n== Per-shard rebuild (shard 0), best of 3 ==")
    print(f"  {'shards':>6} {'rebuild ms':>11} {'re-stitch ms':>13}")
    for n_shards in shard_counts:
        plan = ShardPlanner(n_shards, "range").plan(table, "key")
        sharded = build_sharded_from_plan(plan, "value", ["key"], config, dynamic=True)
        router = StreamingShardRouter(sharded, plan.tables, rebuild_threshold=None)
        rebuild_ms = min(_timed(lambda: router.rebuild(0)) for _ in range(3)) * 1e3
        shard = sharded.shards[0]
        stitch_seconds = min(
            _timed(lambda: sharded.replace_shard(0, shard)) for _ in range(3)
        )
        stitch_ms = stitch_seconds * 1e3
        rows.append(
            {"shards": n_shards, "rebuild_ms": rebuild_ms, "restitch_ms": stitch_ms}
        )
        print(f"  {n_shards:>6} {rebuild_ms:>11.1f} {stitch_ms:>13.1f}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows", type=int, default=1_000_000, help="table size (default 1M)"
    )
    parser.add_argument(
        "--queries", type=int, default=120, help="workload size for the latency sweep"
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke configuration: a few thousand rows, seconds of runtime",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="OUT",
        help="write perf-gate metrics (see benchmarks/perf_gate.py) to OUT",
    )
    args = parser.parse_args(argv)

    if args.tiny:
        n_rows, shard_counts, n_queries = 20_000, [1, 2, 4], 30
        config = PASSConfig(
            n_partitions=16, sample_rate=0.01, opt_sample_size=500, seed=0
        )
    else:
        n_rows, shard_counts, n_queries = args.rows, [1, 2, 4, 8], args.queries
        config = PASSConfig(
            n_partitions=64, sample_rate=0.005, opt_sample_size=2000, seed=0
        )

    print(f"generating {n_rows:,} rows ...")
    table = generate_table(n_rows)

    sharded_rows = bench_sharded_queries(table, config, shard_counts, n_queries)
    bench_shard_rebuilds(table, config, shard_counts)

    if args.json:
        widest = sharded_rows[-1]
        metrics = {
            "distributed_batch_ms_per_query": {
                "value": widest["batch_ms"],
                "direction": "lower",
            },
            "distributed_batch_vs_sequential_speedup": {
                "value": widest["sequential_ms"] / widest["batch_ms"],
                "direction": "higher",
            },
            "distributed_pruned_fraction": {
                "value": widest["pruned_fraction"],
                "direction": "higher",
            },
        }
        Path(args.json).write_text(json.dumps({"metrics": metrics}, indent=2))
        print(f"wrote {args.json}")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
