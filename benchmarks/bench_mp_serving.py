"""Multi-process serving tier: scaling over one published synopsis.

The multi-process tier exists for CPU-bound query traffic that one
interpreter cannot serve past roughly a single core: the publisher writes
the synopsis once as a generation file, and a spawn-based worker pool
answers queries over zero-copy views of its mapping.  This benchmark measures what that
buys and verifies what it must not cost:

* **Worker scaling** — the same large query batch is timed through an
  :class:`~repro.serving.server.MPServingPool` with 1 worker and with 4
  workers (fresh pools each round; pool spin-up and file attach happen
  in an untimed warm-up batch).  Rounds are paired and the median
  per-round ratio reported, same estimator as the async-tier benchmark:
  machine drift moves both sides of a round together.  ``--check``
  asserts the acceptance floor — **>= 3x queries/s at 4 workers vs 1** —
  when the machine has at least 4 cores, and prints an explicit skip note
  otherwise (a 1-core container cannot exhibit process-level scaling).
* **Bit-identity** — a sample of the workload, plus one QUANTILE and one
  COUNT_DISTINCT query, and a 64-bin classic and a 64-bin percentile
  group-by plan are answered both by the pool and by an in-process
  :class:`~repro.serving.engine.ServingEngine` over the same synopsis;
  every :class:`~repro.result.AQPResult` must be field-identical
  (NaN-aware, field types included) and every plan's ``pruned`` equal.
  ``--check`` fails on any mismatch: multi-process serving is only correct
  if it is indistinguishable from in-process serving.  The pool's grouped
  milliseconds per plan (median) are printed beside.

Standalone modes for CI::

    python benchmarks/bench_mp_serving.py --tiny --check --json OUT
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.loaders import load_dataset
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.serving import (
    MPServingPool,
    ServingEngine,
    SynopsisCatalog,
    SynopsisPublisher,
)

N_ROWS = 200_000
N_QUERIES = 4096
AGGS = ("SUM", "COUNT", "AVG", "MIN", "MAX")
SCALE_WORKERS = 4


def _build(n_rows: int, n_partitions: int):
    spec = load_dataset("intel", n_rows)
    synopsis = build_pass(
        spec.table,
        spec.value_column,
        [spec.default_predicate_column],
        PASSConfig(
            n_partitions=n_partitions, sample_rate=0.005, opt_sample_size=1000, seed=0
        ),
    )
    return spec, synopsis


def query_workload(spec, n_queries: int, seed: int = 0) -> list[AggregateQuery]:
    """Random range-aggregate traffic over the predicate column's domain."""
    rng = np.random.default_rng(seed)
    times = spec.table.column(spec.default_predicate_column)
    low, high = float(times.min()), float(times.max())
    queries = []
    for _ in range(n_queries):
        a, b = sorted(rng.uniform(low, high, size=2))
        predicate = RectPredicate.from_bounds(time=(float(a), float(b)))
        queries.append(
            AggregateQuery(
                AGGS[int(rng.integers(len(AGGS)))], spec.value_column, predicate
            )
        )
    return queries


def _pool_seconds(register_name: str, queries, n_workers: int) -> float:
    """One timed batch through a fresh pool; spawn + attach stay untimed.

    The warm-up batch forces worker start-up, the first manifest read,
    and the generation-file attach outside the measured region, so
    the timed number is steady-state serving throughput.
    """
    with MPServingPool(register_name, n_workers=n_workers) as pool:
        pool.execute_batch(queries[: 16 * n_workers])
        start = time.perf_counter()
        pool.execute_batch(queries)
        return time.perf_counter() - start


def paired_scaling(register_name: str, queries, rounds: int = 3):
    """Median per-round ratio of 1-worker time to 4-worker time."""
    ratios = []
    best_one = best_four = float("inf")
    for _ in range(rounds):
        one = _pool_seconds(register_name, queries, n_workers=1)
        four = _pool_seconds(register_name, queries, n_workers=SCALE_WORKERS)
        ratios.append(one / four)
        best_one = min(best_one, one)
        best_four = min(best_four, four)
    n_queries = len(queries)
    return float(np.median(ratios)), n_queries / best_one, n_queries / best_four


def _differs(a: AQPResult, b: AQPResult) -> bool:
    """True unless every field is equal (NaN-aware) and of the same type."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        same_nan = isinstance(x, float) and math.isnan(x) and math.isnan(y)
        if type(x) is not type(y) or (x != y and not same_nan):
            return True
    return False


def grouped_plans(spec) -> dict:
    """A 64-bin classic and a 64-bin percentile plan over the whole domain."""
    column = spec.default_predicate_column
    values = spec.table.column(column)
    edges = np.linspace(float(values.min()), float(values.max()), 65).tolist()
    kinds = {
        "classic": [AggregateSpec(agg, spec.value_column) for agg in AGGS],
        "percentile": [
            AggregateSpec("QUANTILE", spec.value_column, q) for q in (0.5, 0.95, 0.99)
        ],
    }
    return {
        kind: GroupByQuery(
            groupings=(GroupingColumn.bins(column, edges),), aggregates=tuple(aggs)
        ).compile()
        for kind, aggs in kinds.items()
    }


def identity_mismatches(
    register_name: str, spec, synopsis, queries, plans: dict, repeats: int = 9
) -> tuple[int, int, dict[str, float]]:
    """Pool answers that differ from the in-process engine's.

    Returns the differing query answers, the differing plan cells (plus one
    per plan whose ``pruned`` differs) and the pool's median milliseconds
    per ``execute_grouped`` call of each plan.
    """
    catalog = SynopsisCatalog()
    catalog.register("intel_light", synopsis, table_name=spec.table.name)
    catalog.register_table(spec.table)
    engine = ServingEngine(catalog, cache_size=0)
    grouped, grouped_ms = {}, {}
    with MPServingPool(register_name, n_workers=2) as pool:
        pooled = pool.execute_batch(queries)
        for kind, plan in plans.items():
            grouped[kind] = pool.execute_grouped(plan)
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                pool.execute_grouped(plan)
                times.append(1e3 * (time.perf_counter() - start))
            grouped_ms[kind] = float(np.median(times))
    mismatches = sum(
        _differs(from_pool, engine.execute(query))
        for query, from_pool in zip(queries, pooled)
    )
    cell_mismatches = 0
    for kind, plan in plans.items():
        expected = engine.execute_grouped(plan)
        cell_mismatches += grouped[kind].pruned != expected.pruned
        cell_mismatches += sum(
            _differs(a, b)
            for row, expected_row in zip(grouped[kind].cells, expected.cells)
            for a, b in zip(row, expected_row)
        )
    return mismatches, cell_mismatches, grouped_ms


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=N_ROWS, help="table size")
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke configuration: a few thousand rows, seconds of runtime",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert bit-identity always, and the >=3x 4-worker scaling floor "
        "when the machine has >= 4 cores (exit 1 on failure)",
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
    n_queries = 2048 if args.tiny else N_QUERIES

    print(f"building synopsis over {n_rows:,} rows ...")
    spec, synopsis = _build(n_rows, n_partitions)
    queries = query_workload(spec, n_queries)

    with SynopsisPublisher() as publisher:
        epoch = publisher.publish(
            "intel_light", synopsis, table_name=spec.table.name
        )
        print(f"published one generation file (epoch {epoch})")

        scaling, one_qps, four_qps = paired_scaling(
            publisher.register_name, queries
        )
        print(
            f"1 worker: {one_qps:,.0f} q/s | {SCALE_WORKERS} workers: "
            f"{four_qps:,.0f} q/s | scaling {scaling:.2f}x "
            f"(machine has {os.cpu_count()} cores)"
        )

        # The identity set also covers the sketch-backed aggregates (workers
        # unpack the segment's packed sketches); the timed traffic does not.
        sketch_predicate = queries[0].predicate
        sample = queries[: 256 if args.tiny else 512] + [
            AggregateQuery(
                "QUANTILE", spec.value_column, sketch_predicate, quantile=0.95
            ),
            AggregateQuery("COUNT_DISTINCT", spec.value_column, sketch_predicate),
        ]
        plans = grouped_plans(spec)
        mismatches, cell_mismatches, grouped_ms = identity_mismatches(
            publisher.register_name, spec, synopsis, sample, plans
        )
        n_cells = sum(plan.n_cells * len(plan.aggregates) for plan in plans.values())
        print(
            f"bit-identity vs in-process engine: {mismatches} mismatches "
            f"over {len(sample)} queries, {cell_mismatches} over {n_cells} "
            "grouped cells"
        )
        print(
            "pool execute_grouped (64 bins, median): "
            + ", ".join(f"{kind} {ms:.2f} ms" for kind, ms in grouped_ms.items())
        )

    if args.json:
        metrics = {
            "mp_serving_scaling_4w": {"value": scaling, "direction": "higher"},
            "mp_serving_pool_qps": {"value": four_qps, "direction": "higher"},
        }
        Path(args.json).write_text(json.dumps({"metrics": metrics}, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.check:
        failed = False
        if mismatches or cell_mismatches:
            print(
                f"CHECK FAILED: {mismatches} pool results and {cell_mismatches} "
                "grouped cells differ from the in-process engine "
                "(multi-process serving must be bit-identical)"
            )
            failed = True
        cores = os.cpu_count() or 1
        if cores >= SCALE_WORKERS:
            if scaling < 3.0:
                print(
                    f"CHECK FAILED: {SCALE_WORKERS}-worker scaling "
                    f"{scaling:.2f}x < 3.0x (1 worker {one_qps:,.0f} q/s, "
                    f"{SCALE_WORKERS} workers {four_qps:,.0f} q/s)"
                )
                failed = True
            else:
                print(f"scaling check passed: {scaling:.2f}x >= 3.0x")
        else:
            print(
                f"scaling check skipped: machine has {cores} core(s) < "
                f"{SCALE_WORKERS}; process-level scaling cannot manifest "
                "(bit-identity was still asserted)"
            )
        if failed:
            return 1
        print("check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
