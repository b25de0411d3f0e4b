"""Observability quickstart: metrics, trace spans, and the structured query log.

Builds a small serving deployment with an enabled
:class:`~repro.obs.Observability` context, pushes a mixed async workload
through it (coalesced stampedes, distinct micro-batched queries, cache
hits, streaming updates), then prints what the instruments captured:

1. the Prometheus text exposition of every registered metric family;
2. the slowest request traces as rendered span trees — one ``serve.request``
   root per query, decomposed into cache probe, queue wait, batch window,
   plan compile, frontier descent, and per-query execution;
3. the structured query-log tail: per-request outcome, predicate box,
   per-stage latencies, and error-bound width.

Run with::

    python examples/observability_quickstart.py

``--check`` switches to CI mode: no dumps, strict validation of the
exposition format and the span trees, non-zero exit on any violation.
"""

import argparse
import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.obs import Observability, validate_exposition
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving import AsyncServingEngine, ServingEngine, SynopsisCatalog

N_ROWS = 20_000
N_STAMPEDE = 32


def build_engine(obs: Observability) -> ServingEngine:
    rng = np.random.default_rng(7)
    table = Table(
        {
            "time": rng.uniform(0.0, 100.0, size=N_ROWS),
            "power": np.abs(rng.normal(40.0, 12.0, size=N_ROWS)),
        },
        name="sensors",
    )
    synopsis = DynamicPASS(
        table,
        "power",
        ["time"],
        PASSConfig(n_partitions=32, sample_rate=0.01, opt_sample_size=400, seed=0),
    )
    catalog = SynopsisCatalog()
    catalog.register("sensors_power", synopsis, table_name="sensors")
    catalog.register_table(table)
    return ServingEngine(catalog, obs=obs)


async def serve_workload(engine: ServingEngine) -> None:
    """A workload that exercises every instrumented code path."""
    rng = np.random.default_rng(11)
    hot = AggregateQuery("AVG", "power", RectPredicate.from_bounds(time=(10.0, 30.0)))
    async with AsyncServingEngine(engine, batch_window=0.002) as tier:
        # A stampede of identical queries: one leader, the rest coalesce.
        await asyncio.gather(*(tier.execute(hot) for _ in range(N_STAMPEDE)))
        # Distinct queries dispatch as vectorized micro-batches.
        distinct = []
        for _ in range(16):
            low = float(rng.uniform(0.0, 80.0))
            predicate = RectPredicate.from_bounds(time=(low, low + 15.0))
            for agg in ("SUM", "COUNT", "AVG"):
                distinct.append(AggregateQuery(agg, "power", predicate))
        await asyncio.gather(*(tier.execute(q) for q in distinct))
        # Cache hits: the stampede query is resident now.
        await tier.execute(hot)
        # A streaming write, serialized through the scheduler.
        await tier.insert("sensors_power", {"time": 20.0, "power": 41.5})
        await tier.execute(hot)


def check(obs: Observability) -> int:
    """CI mode: validate the exposition and the span trees; 0 on success."""
    failures: list[str] = []
    try:
        families = validate_exposition(obs.prometheus_text())
    except Exception as exc:  # noqa: BLE001 - report, don't crash CI opaquely
        families = {}
        failures.append(f"exposition invalid: {exc}")
    for family in (
        "repro_serving_cache_hits_total",
        "repro_serving_cache_misses_total",
        "repro_serving_query_latency_seconds",
        "repro_scheduler_batches_total",
        "repro_async_coalesced_total",
        "repro_catalog_route_total",
    ):
        if family not in families:
            failures.append(f"metric family missing from exposition: {family}")

    traces = obs.tracer.finished()
    if not traces:
        failures.append("no finished traces retained")
    executed = [
        t
        for t in traces
        if t.attributes.get("outcome") == "executed"
        and t.find("serving.execute_batch") is not None
    ]
    if not executed:
        failures.append("no executed request trace with a serving.execute_batch span")
    for root in executed[:1]:
        stage_ms = root.stage_durations_ms()
        # Fixed per-request stages are *stamped* onto the root (cheap dict
        # entries), while variable-depth engine work appears as child spans;
        # stage_durations_ms merges both views.
        for stage in ("cache.probe", "queue.wait"):
            if stage not in stage_ms:
                failures.append(f"stamped stage {stage!r} missing from a trace")
        for span_name in ("plan.compile", "frontier.descent"):
            if root.find(span_name) is None:
                failures.append(f"span {span_name!r} missing from an executed trace")
        child_ms = sum(stage_ms.values())
        if child_ms > root.duration_ms * 1.001:
            failures.append(
                f"stage durations exceed the root span: {child_ms:.3f} > "
                f"{root.duration_ms:.3f} ms"
            )

    records = obs.query_log.tail(obs.query_log.capacity)
    outcomes = {record.outcome for record in records}
    for expected in ("miss", "cache_hit", "coalesced"):
        if expected not in outcomes:
            failures.append(f"query-log outcome {expected!r} never recorded")
    if not any(record.predicate_box for record in records):
        failures.append("no query-log record carries a predicate box")
    # Concurrent duplicates are summarized: one ``coalesced`` record per
    # leader-with-joiners whose coalesced_waiters carries the join count.
    summarized = sum(
        record.coalesced_waiters
        for record in records
        if record.outcome == "coalesced"
    )
    if summarized < N_STAMPEDE - 1:
        failures.append(
            f"coalesce summaries cover {summarized} joiners, expected at "
            f"least {N_STAMPEDE - 1}"
        )

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(
            f"observability check OK: {len(families)} metric families, "
            f"{len(traces)} traces, {len(records)} query-log records"
        )
    return 1 if failures else 0


def dump(obs: Observability) -> None:
    """Interactive mode: show what the instruments captured."""
    print("=" * 72)
    print("Prometheus exposition")
    print("=" * 72)
    print(obs.prometheus_text())

    print("=" * 72)
    print("Slowest request traces")
    print("=" * 72)
    for root in obs.tracer.slowest(3):
        print(root.render())
        print()

    print("=" * 72)
    print("Query-log tail")
    print("=" * 72)
    for record in obs.query_log.tail(5):
        print(json.dumps(record.as_dict(), default=str))

    counts = obs.query_log.outcome_counts()
    print()
    print(f"outcomes: {counts}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: validate exposition and span trees, exit non-zero on failure",
    )
    options = parser.parse_args()

    # Full-fidelity tracing: the serving default head-samples span trees
    # (1-in-64), which is right for production QPS but not for a demo that
    # wants to render every request's trace.
    obs = Observability(trace_sample_rate=1.0)
    engine = build_engine(obs)
    asyncio.run(serve_workload(engine))

    if options.check:
        return check(obs)
    dump(obs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
