"""Serving-layer throughput: batch vs sequential, cold vs warm cache.

These benchmarks measure what a deployment sizes against: queries/second
through the :class:`~repro.serving.engine.ServingEngine` front end.  Four
paths are compared on the same workload:

* sequential execution with the result cache disabled (the baseline — one
  MCF lookup plus per-leaf mask evaluation per query);
* batch execution with the cache disabled (duplicates answered once, one
  MCF frontier per distinct predicate, the same kernel per query);
* sequential execution against a warm cache;
* batch execution against a warm cache (the production fast path).

``test_warm_batch_vs_sequential_uncached_speedup`` asserts the serving
layer's headline property: warm-cache batch throughput at least 5x the
sequential uncached path.

Besides the pytest-benchmark suite, the module runs standalone for the CI
perf gate::

    python benchmarks/bench_serving_throughput.py --tiny --json OUT
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.loaders import DatasetSpec, load_dataset
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine

N_ROWS = 60_000
N_QUERIES = 300


@pytest.fixture(scope="module")
def intel_spec() -> DatasetSpec:
    return load_dataset("intel", N_ROWS)


@pytest.fixture(scope="module")
def catalog(intel_spec) -> SynopsisCatalog:
    synopsis = build_pass(
        intel_spec.table,
        intel_spec.value_column,
        [intel_spec.default_predicate_column],
        PASSConfig(n_partitions=64, sample_rate=0.005, opt_sample_size=1000, seed=0),
    )
    catalog = SynopsisCatalog()
    catalog.register("intel_light", synopsis, table_name=intel_spec.table.name)
    catalog.register_table(intel_spec.table)
    return catalog


@pytest.fixture(scope="module")
def workload(intel_spec) -> list[AggregateQuery]:
    rng = np.random.default_rng(0)
    times = intel_spec.table.column(intel_spec.default_predicate_column)
    low, high = float(times.min()), float(times.max())
    queries = []
    for _ in range(N_QUERIES // 3):
        a, b = sorted(rng.uniform(low, high, size=2))
        predicate = RectPredicate.from_bounds(time=(float(a), float(b)))
        for agg in ("SUM", "COUNT", "AVG"):
            queries.append(AggregateQuery(agg, intel_spec.value_column, predicate))
    return queries


def test_sequential_uncached_throughput(benchmark, catalog, workload):
    engine = ServingEngine(catalog, cache_size=0)

    def run():
        for query in workload:
            engine.execute(query)

    benchmark(run)


def test_batch_uncached_throughput(benchmark, catalog, workload):
    engine = ServingEngine(catalog, cache_size=0)
    benchmark(engine.execute_batch, workload)


def test_sequential_warm_cache_throughput(benchmark, catalog, workload):
    engine = ServingEngine(catalog)
    for query in workload:
        engine.execute(query)

    def run():
        for query in workload:
            engine.execute(query)

    benchmark(run)


def test_batch_warm_cache_throughput(benchmark, catalog, workload):
    engine = ServingEngine(catalog)
    engine.execute_batch(workload)
    benchmark(engine.execute_batch, workload)


def _build_catalog(n_rows: int, n_partitions: int) -> tuple[SynopsisCatalog, list]:
    """Standalone-mode setup mirroring the pytest fixtures."""
    spec = load_dataset("intel", n_rows)
    synopsis = build_pass(
        spec.table,
        spec.value_column,
        [spec.default_predicate_column],
        PASSConfig(
            n_partitions=n_partitions, sample_rate=0.005, opt_sample_size=1000, seed=0
        ),
    )
    catalog = SynopsisCatalog()
    catalog.register("intel_light", synopsis, table_name=spec.table.name)
    catalog.register_table(spec.table)

    rng = np.random.default_rng(0)
    times = spec.table.column(spec.default_predicate_column)
    low, high = float(times.min()), float(times.max())
    queries = []
    for _ in range(N_QUERIES // 3):
        a, b = sorted(rng.uniform(low, high, size=2))
        predicate = RectPredicate.from_bounds(time=(float(a), float(b)))
        for agg in ("SUM", "COUNT", "AVG"):
            queries.append(AggregateQuery(agg, spec.value_column, predicate))
    return catalog, queries


def main(argv: list[str] | None = None) -> int:
    """Standalone serving-throughput smoke for the CI perf gate."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=N_ROWS, help="table size")
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
    n_rows = 20_000 if args.tiny else args.rows
    n_partitions = 32 if args.tiny else 64

    print(f"building catalog over {n_rows:,} rows ...")
    catalog, workload = _build_catalog(n_rows, n_partitions)

    uncached = ServingEngine(catalog, cache_size=0)
    start = time.perf_counter()
    for query in workload:
        uncached.execute(query)
    sequential_seconds = time.perf_counter() - start

    start = time.perf_counter()
    uncached.execute_batch(workload)
    batch_seconds = time.perf_counter() - start

    warm = ServingEngine(catalog)
    warm.execute_batch(workload)
    start = time.perf_counter()
    warm.execute_batch(workload)
    warm_seconds = time.perf_counter() - start

    n = len(workload)
    sequential_qps = n / sequential_seconds
    batch_qps = n / batch_seconds
    warm_qps = n / max(warm_seconds, 1e-9)
    speedup = warm_qps / sequential_qps
    print(
        f"sequential uncached: {sequential_qps:,.0f} q/s | "
        f"batch uncached: {batch_qps:,.0f} q/s | "
        f"warm-cache batch: {warm_qps:,.0f} q/s | warm speedup: {speedup:.1f}x"
    )

    if args.json:
        metrics = {
            "serving_sequential_uncached_qps": {
                "value": sequential_qps,
                "direction": "higher",
            },
            "serving_batch_uncached_qps": {"value": batch_qps, "direction": "higher"},
            "serving_warm_batch_speedup": {"value": speedup, "direction": "higher"},
        }
        Path(args.json).write_text(json.dumps({"metrics": metrics}, indent=2))
        print(f"wrote {args.json}")
    return 0


def test_warm_batch_vs_sequential_uncached_speedup(catalog, workload):
    """Warm-cache batch serving must beat sequential uncached by >= 5x."""
    uncached = ServingEngine(catalog, cache_size=0)
    start = time.perf_counter()
    for query in workload:
        uncached.execute(query)
    sequential_seconds = time.perf_counter() - start

    warm = ServingEngine(catalog)
    warm.execute_batch(workload)  # warm the cache
    start = time.perf_counter()
    warm.execute_batch(workload)
    warm_seconds = time.perf_counter() - start

    sequential_qps = len(workload) / sequential_seconds
    warm_qps = len(workload) / max(warm_seconds, 1e-9)
    speedup = warm_qps / sequential_qps
    print(
        f"\nsequential uncached: {sequential_qps:,.0f} q/s | "
        f"warm-cache batch: {warm_qps:,.0f} q/s | speedup: {speedup:.1f}x"
    )
    assert speedup >= 5.0, f"warm batch path only {speedup:.1f}x faster"


if __name__ == "__main__":
    raise SystemExit(main())
