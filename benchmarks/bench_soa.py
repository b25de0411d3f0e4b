"""Array-native execution benchmarks: SoA engine vs per-leaf object path.

The object path answers a query by walking `PartitionNode` objects and
masking per-leaf `Stratum` samples one Python object at a time.  The SoA
engine (:mod:`repro.core.soa`) answers the *same* query — bit-identically —
over contiguous geometry/stats arrays and CSR leaf samples: the frontier is
a closed-form vectorized classification and the partial-leaf moments are a
handful of batched ufunc calls over gathered CSR segments.

The workload is the multi-dimensional shape the paper targets (Section 4.4):
a 2-D k-d partitioning where a rectangular predicate partially overlaps a
whole *boundary* of leaves, so per-leaf Python overhead dominates the object
path.  Two metrics gate the engine:

- ``soa_single_query_speedup``: mean single-query latency of the object path
  divided by the SoA path over a mixed SUM / AVG / COUNT / MIN / MAX
  workload — the moment kernels and the extremum kernel.  Every run first
  asserts that the two paths return the same bits for every query.
- ``soa_grouped_speedup``: the naive per-cell object-path loop divided by
  one ``grouped_query`` call on the SoA engine for a binned 2-D group-by.

Run standalone::

    python benchmarks/bench_soa.py            # full: 200k rows, 1024 leaves
    python benchmarks/bench_soa.py --tiny     # CI smoke: seconds
    python benchmarks/bench_soa.py --check    # assert single-query >= 3x
    python benchmarks/bench_soa.py --json OUT # write perf-gate metrics

(Like the other serving benchmarks this is a plain script, not a
pytest-benchmark suite, so CI can smoke it directly.)
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.batching import grouped_query
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.generators import uniform_random
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery

#: The single-query mix: every classic aggregate, so a smoke run executes
#: both partial-leaf kernels of ``core/soa.py``.
AGGREGATES = ("SUM", "AVG", "COUNT", "MIN", "MAX")
#: The grouped plan keeps its three moment aggregates.
GROUPED_AGGREGATES = ("SUM", "AVG", "COUNT")
PREDICATE_COLUMNS = ("c0", "c1")


def build_synopsis(n_rows: int, n_partitions: int, seed: int = 3):
    """A 2-D k-d synopsis over uniform data (samples but no sketches)."""
    table = uniform_random(
        n_rows=n_rows, n_predicate_columns=len(PREDICATE_COLUMNS), seed=7
    )
    config = PASSConfig(
        n_partitions=n_partitions,
        sample_rate=0.02,
        partitioner="kd",
        with_sketches=False,
        seed=seed,
    )
    synopsis = build_pass(table, "value", list(PREDICATE_COLUMNS), config)
    return table, synopsis


def make_predicates(table, n_predicates: int, seed: int = 11) -> list[RectPredicate]:
    """Random 2-D rectangles spanning 30-50% of each dimension's range."""
    rng = np.random.default_rng(seed)
    spans = {
        column: (float(table.column(column).min()), float(table.column(column).max()))
        for column in PREDICATE_COLUMNS
    }
    predicates = []
    for _ in range(n_predicates):
        bounds = {}
        for column in PREDICATE_COLUMNS:
            low, high = spans[column]
            width = high - low
            a = rng.uniform(0.0, 0.5)
            b = a + rng.uniform(0.3, 0.5)
            bounds[column] = (low + a * width, low + b * width)
        predicates.append(RectPredicate.from_bounds(**bounds))
    return predicates


def make_groupby(table, n_bins_c0: int, n_bins_c1: int) -> GroupByQuery:
    """A binned 2-D dashboard group-by with one aggregate row per cell."""
    groupings = []
    for column, n_bins in zip(PREDICATE_COLUMNS, (n_bins_c0, n_bins_c1)):
        values = table.column(column)
        edges = np.linspace(float(values.min()), float(values.max()), n_bins + 1)
        groupings.append(GroupingColumn.bins(column, [float(e) for e in edges]))
    return GroupByQuery(
        groupings=tuple(groupings),
        aggregates=tuple(AggregateSpec(agg, "value") for agg in GROUPED_AGGREGATES),
    )


def _best_of(run, repeats: int) -> float:
    """Best-of-repeats wall time; minima are least noise-sensitive on CI."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _result_bits(result) -> tuple:
    """An answer as the IEEE-754 bit patterns of its floats plus its counts."""
    return (
        struct.pack(
            "<5d",
            result.estimate,
            result.ci_half_width,
            result.variance,
            result.hard_lower,
            result.hard_upper,
        ),
        result.tuples_processed,
        result.tuples_skipped,
        result.exact,
    )


def assert_bit_identical(synopsis, queries) -> None:
    """Every answer of the SoA path carries the object path's bits."""
    for query in queries:
        flat, obj = synopsis.query(query), synopsis.query_object(query)
        if _result_bits(flat) != _result_bits(obj):
            raise AssertionError(f"{query}: soa={flat!r} object={obj!r}")


def bench_single_queries(synopsis, predicates, repeats: int) -> dict:
    """Mean per-query latency: SoA `query` vs object-path `query_object`."""
    queries = [
        AggregateQuery(agg, "value", predicate)
        for predicate in predicates
        for agg in AGGREGATES
    ]
    # Doubles as the warm-up of both paths' caches and lazy builds.
    assert_bit_identical(synopsis, queries)
    soa_s = _best_of(lambda: [synopsis.query(q) for q in queries], repeats)
    object_s = _best_of(lambda: [synopsis.query_object(q) for q in queries], repeats)
    soa_us = 1e6 * soa_s / len(queries)
    object_us = 1e6 * object_s / len(queries)
    speedup = object_us / soa_us
    print(f"\n== Single queries: {len(queries)} mixed {'/'.join(AGGREGATES)} ==")
    print(f"  object path : {object_us:>8.1f} us/query")
    print(f"  soa path    : {soa_us:>8.1f} us/query")
    print(f"  speedup     : {speedup:>8.2f}x")
    return {"soa_us": soa_us, "object_us": object_us, "speedup": speedup}


def bench_grouped(synopsis, plan, repeats: int) -> dict:
    """One SoA `grouped_query` call vs the naive per-cell object loop."""
    cell_queries = plan.queries()
    grouped = grouped_query(synopsis, plan)  # warm-up + sanity
    assert grouped
    grouped_ms = 1e3 * _best_of(lambda: grouped_query(synopsis, plan), repeats)
    naive_ms = 1e3 * _best_of(
        lambda: [synopsis.query_object(q) for q in cell_queries], repeats
    )
    speedup = naive_ms / grouped_ms
    print(f"\n== Grouped: {len(cell_queries)} cell-aggregates ==")
    print(f"  naive object loop : {naive_ms:>8.2f} ms")
    print(f"  soa grouped_query : {grouped_ms:>8.2f} ms")
    print(f"  speedup           : {speedup:>8.2f}x")
    return {"grouped_ms": grouped_ms, "naive_ms": naive_ms, "speedup": speedup}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=200_000, help="table size")
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke configuration: a few thousand rows, seconds of runtime",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the soa single-query path beats the object path >= 3x",
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
        n_rows, n_partitions, n_predicates, repeats = 30_000, 256, 20, 2
        bins = (4, 2)
    else:
        n_rows, n_partitions, n_predicates, repeats = args.rows, 1024, 100, 3
        bins = (8, 4)

    print(f"building 2-D kd synopsis: {n_rows:,} rows, {n_partitions} leaves ...")
    table, synopsis = build_synopsis(n_rows, n_partitions)
    predicates = make_predicates(table, n_predicates)
    plan = make_groupby(table, *bins).compile()

    single = bench_single_queries(synopsis, predicates, repeats)
    grouped = bench_grouped(synopsis, plan, repeats)

    if args.json:
        metrics = {
            "soa_single_query_speedup": {
                "value": single["speedup"],
                "direction": "higher",
            },
            "soa_single_query_us": {
                "value": single["soa_us"],
                "direction": "lower",
            },
            "soa_grouped_speedup": {
                "value": grouped["speedup"],
                "direction": "higher",
            },
        }
        Path(args.json).write_text(json.dumps({"metrics": metrics}, indent=2))
        print(f"wrote {args.json}")

    if args.check and single["speedup"] < 3.0:
        print(
            "FAIL: expected soa single-query speedup >= 3x, "
            f"measured {single['speedup']:.2f}x"
        )
        return 1
    if args.check:
        print("soa speedup check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
