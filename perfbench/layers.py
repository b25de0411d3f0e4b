"""Per-layer metrics of the traced run (layer = module name under ``repro``).

Two sources, both outside the program:

* spans from :mod:`tracing` around the public entry points registered in
  :func:`register_targets`, with counts read from their public arguments and
  results;
* direct timings of public functions the request path does not reach in
  this process (``grouped_query``, the JSON and pickle codecs, shared-memory
  attach, catalog persistence).  Spawned pool workers cannot be wrapped from
  here, so worker compute is estimated by running the same queries through
  the in-process ``FlatSynopsis.query``; the rest of ``MPServingPool.execute``
  is reported as ``serving.server.pool_overhead_us``.

A metric a workload does not exercise is reported as 0.
"""

from __future__ import annotations

import json
import pickle
import shutil
import statistics
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core import batching, builder
from repro.core.batching import BatchPlan, grouped_query
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.soa import FlatSynopsis
from repro.core.updates import DynamicPASS
from repro.distributed.sharded import ShardedSynopsis
from repro.obs import Observability
from repro.query.groupby import GroupByQuery
from repro.query.query import AggregateQuery
from repro.serving import server, shm
from repro.serving.async_engine import AsyncServingEngine
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine
from repro.serving.persistence import load_catalog, save_catalog
from repro.serving.planner import GroupByPlanner
from repro.serving.scheduler import MicroBatchScheduler
from repro.serving.server import MPServingPool
from repro.serving.shm import EpochRegister, SynopsisPublisher

from tracing import REQUEST, SpanRecorder

__all__ = ["register_targets", "TracedRun", "counters", "collect"]

_ENGINE_READS = ("ServingEngine.execute", "ServingEngine.execute_batch", "ServingEngine.execute_grouped")
_ENGINE_WRITES = ("ServingEngine.insert", "ServingEngine.delete")


def register_targets(recorder: SpanRecorder) -> None:
    """Register every public entry point the traced run wraps."""
    counts = recorder.counts
    # Admission time per leader request, keyed by its query object, so the
    # batch that executes the query can tell how long it queued.
    submitted: defaultdict[int, deque[float]] = defaultdict(deque)

    def on_frontier(name, start, args, frontier) -> None:
        counts["soa.nodes_visited"] += frontier.nodes_visited
        counts["soa.partial_leaves"] += frontier.partial.shape[0]

    def on_flat_query(name, start, args, result) -> None:
        counts["soa.sample_rows"] += result.tuples_processed

    def on_compile(name, start, args, plan) -> None:
        counts["batch.compiled_queries"] += len(plan.queries)
        counts["batch.slots"] += len(plan.slot_queries)

    def on_plan_execute(name, start, args, results) -> None:
        counts[f"{name}.queries"] += len(results)

    def on_submit(name, start, args, _result) -> None:
        submitted[id(args[1].query)].append(start)

    def on_execute_batch(name, start, args, _results) -> None:
        for query in args[1]:
            queued = submitted.get(id(query))
            if queued:
                recorder.samples["queue_wait_s"].append(start - queued.popleft())

    for owner, attr, on_result in (
        (ServingEngine, "execute", None),
        (ServingEngine, "execute_batch", on_execute_batch),
        (ServingEngine, "execute_grouped", None),
        (ServingEngine, "insert", None),
        (ServingEngine, "delete", None),
        (SynopsisCatalog, "route", None),
        (AggregateQuery, "cache_key", None),
        (GroupByQuery, "compile", None),
        (PASSSynopsis, "query", None),
        (PASSSynopsis, "sketch_union", None),
        (FlatSynopsis, "query", on_flat_query),
        (FlatSynopsis, "frontier", on_frontier),
        (batching, "compile_batch", on_compile),
        (BatchPlan, "execute", on_plan_execute),
        (BatchPlan, "execute_vectorized", on_plan_execute),
        (batching, "grouped_query", None),
        (DynamicPASS, "insert", None),
        (DynamicPASS, "delete", None),
        (AsyncServingEngine, "execute", None),
        (MicroBatchScheduler, "submit", on_submit),
        (MPServingPool, "execute", None),
        (MPServingPool, "execute_batch", None),
        (server, "query_from_payload", None),
        (server, "result_to_payload", None),
        (EpochRegister, "read", None),
        (SynopsisPublisher, "publish", None),
        (shm, "attach_flat_synopsis", None),
        (ShardedSynopsis, "query_grouped", None),
        (ShardedSynopsis, "query_batch", None),
        (builder, "build_leaf_boxes", None),
        (builder, "build_leaf_samples", None),
        (builder, "build_pass", None),
    ):
        recorder.target(
            owner, attr, f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}", on_result
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(
    counts: dict, summary: dict, setup_summary: dict, setups: int, request_seconds: float
) -> dict[str, float]:
    """The per-layer metrics that come straight from spans and counts.

    ``summary`` covers the traced passes, ``setup_summary`` the ``setups``
    set-ups before them.  ``request_seconds`` is the harness-measured latency
    of every traced request, the denominator of ``bench.layer_sum_ratio``.
    """

    def total(names, key: str, table: dict = summary) -> float:
        names = (names,) if isinstance(names, str) else names
        return sum(table[name][key] for name in names if name in table)

    def setup_seconds(name: str) -> float:
        return total(name, "total_s", setup_summary) / setups

    def per_call_us(names, key: str = "total_s") -> float:
        return 1e6 * _ratio(total(names, key), total(names, "calls"))

    flat_queries = total("FlatSynopsis.query", "calls")
    compiled = counts["batch.compiled_queries"]
    layered = total(REQUEST, "total_s") - total(REQUEST, "self_s")
    return {
        "query.cache_key_us": per_call_us("AggregateQuery.cache_key"),
        "query.groupby_compile_ms": per_call_us("GroupByQuery.compile") / 1e3,
        "serving.catalog.route_us": per_call_us("SynopsisCatalog.route"),
        "core.soa.frontier_us": per_call_us("FlatSynopsis.frontier"),
        "core.soa.moments_us": per_call_us("FlatSynopsis.query", "self_s"),
        "core.soa.nodes_visited_per_query": _ratio(
            counts["soa.nodes_visited"], total("FlatSynopsis.frontier", "calls")
        ),
        "core.soa.partial_leaves_per_query": _ratio(
            counts["soa.partial_leaves"], total("FlatSynopsis.frontier", "calls")
        ),
        "core.soa.sample_rows_scanned_per_query": _ratio(
            counts["soa.sample_rows"], flat_queries
        ),
        "core.pass_synopsis.dispatch_us": per_call_us("PASSSynopsis.query", "self_s"),
        "core.batching.compile_us_per_query": 1e6
        * _ratio(total("batching.compile_batch", "total_s"), compiled),
        "core.batching.execute_us_per_query": 1e6
        * _ratio(total("BatchPlan.execute", "total_s"), counts["BatchPlan.execute.queries"]),
        "core.batching.execute_vectorized_us_per_query": 1e6
        * _ratio(
            total("BatchPlan.execute_vectorized", "total_s"),
            counts["BatchPlan.execute_vectorized.queries"],
        ),
        "core.batching.frontier_slots_per_query": _ratio(counts["batch.slots"], compiled),
        "sketches.union_us_per_cell": per_call_us("PASSSynopsis.sketch_union"),
        "serving.engine.self_us": per_call_us(_ENGINE_READS, "self_s"),
        "serving.engine.update_self_us": per_call_us(_ENGINE_WRITES, "self_s"),
        "core.updates.insert_us": per_call_us("DynamicPASS.insert"),
        "core.updates.delete_us": per_call_us("DynamicPASS.delete"),
        "core.builder.boxes_s": setup_seconds("builder.build_leaf_boxes"),
        "core.builder.samples_s": setup_seconds("builder.build_leaf_samples"),
        "core.builder.build_s": setup_seconds("builder.build_pass"),
        "serving.shm.publish_ms": 1e3 * setup_seconds("SynopsisPublisher.publish"),
        "serving.server.pool_execute_us": per_call_us("MPServingPool.execute"),
        "bench.layer_sum_ratio": _ratio(layered, request_seconds),
    }


@dataclass
class TracedRun:
    """What the traced passes of one run produced, for :func:`collect`."""

    recorder: SpanRecorder
    results: list  # PassResult of every traced pass
    untraced_qps: float  # the untraced baseline pass of the same run
    before: dict  # counters() taken before the traced passes
    setup_spans: list  # spans of the ``setups`` set-ups (warm-up included)
    setups: int
    next_index: int
    pass_seconds: float
    out_dir: Path
    #: Filled in by :func:`collect`, read by the direct measurements.
    summary: dict = field(default_factory=dict)
    setup_summary: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def latencies(self) -> list[float]:
        """Request latencies (seconds) of the traced passes."""
        return [value for result in self.results for value in result.latencies]

    @property
    def update_latencies(self) -> list[float]:
        return [value for result in self.results for value in result.update_latencies]


def counters(workload) -> dict:
    """Public counters of the workload's engine and async tier, for deltas."""
    snapshot: dict = {"updates": getattr(workload, "updates", 0)}
    engine = getattr(workload, "engine", None)
    if engine is not None:
        stats = engine.stats().values()
        snapshot.update(
            queries=sum(s.queries for s in stats),
            hits=sum(s.cache_hits for s in stats),
            misses=sum(s.cache_misses for s in stats),
            invalidations=sum(s.invalidations for s in stats),
            cache_size=engine.cache_info()["size"],
        )
    if hasattr(workload, "tier"):
        snapshot["coalesced"] = workload.tier.stats().coalesced
    return snapshot


def _engine_metrics(workload, delta: dict) -> dict[str, float]:
    """Cache behaviour over the traced passes, from the counter deltas."""
    # Every miss stores one entry; what neither stayed nor was invalidated
    # was evicted by the LRU bound (nothing is stored with caching disabled).
    evictions = 0
    if workload.engine.cache_info()["capacity"]:
        evictions = delta["misses"] - delta["invalidations"] - delta["cache_size"]
    return {
        "serving.engine.cache_hit_ratio": _ratio(delta["hits"], delta["queries"]),
        "serving.engine.cache_evictions": max(0, evictions),
        "serving.engine.invalidated_per_update": _ratio(
            delta["invalidations"], delta["updates"]
        ),
    }


def collect(workload, run: TracedRun) -> dict[str, float]:
    """Every per-layer metric of one traced run (0 where not exercised)."""
    after = counters(workload)
    delta = {key: after[key] - run.before[key] for key in after}
    run.summary = run.recorder.summary(run.recorder.spans)
    run.setup_summary = run.recorder.summary(run.setup_spans)
    latencies = run.latencies
    traced_qps = statistics.median(len(r.latencies) / r.elapsed for r in run.results)
    run.layers = span_metrics(
        run.recorder.counts,
        run.summary,
        run.setup_summary,
        run.setups,
        sum(latencies) + sum(run.update_latencies),
    )
    run.layers["core.soa.flatten_ms"] = workload.flatten_s * 1e3
    run.layers["bench.trace_overhead_pct"] = 100.0 * (run.untraced_qps / traced_qps - 1.0)
    run.layers["bench.latency_samples"] = len(latencies)
    if "queries" in delta:
        run.layers.update(_engine_metrics(workload, delta))
    extras = EXTRAS.get(workload.name)
    if extras:
        run.layers.update(extras(workload, run, delta))
    return run.layers


def _median_seconds(call: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ----------------------------------------------------------------------
# Direct measurements, per workload
# ----------------------------------------------------------------------
def dashboard_extras(workload, run: TracedRun, delta: dict) -> dict[str, float]:
    """Catalog persistence and the cost of enabled observability."""
    directory = run.out_dir / "catalog_tmp"
    try:
        save_s = _median_seconds(lambda: save_catalog(workload.catalog, directory), 3)
        load_s = _median_seconds(lambda: load_catalog(directory), 3)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    # The timed region again, on an engine with an enabled Observability.
    plain_engine = workload.engine
    workload.engine = ServingEngine(workload.catalog, obs=Observability())
    try:
        workload.warmup()
        result, _ = workload.run_pass(run.next_index, run.pass_seconds)
    finally:
        workload.engine.close()
        workload.engine = plain_engine
    observed_qps = len(result.latencies) / result.elapsed
    return {
        "serving.persistence.save_ms": save_s * 1e3,
        "serving.persistence.load_ms": load_s * 1e3,
        "obs.enabled_overhead_pct": 100.0 * (run.untraced_qps / observed_qps - 1.0),
    }


def async_extras(workload, run: TracedRun, delta: dict) -> dict[str, float]:
    """Coalescer and scheduler counters, queue wait, async-tier self time."""
    scheduler = workload.tier.stats().scheduler
    requests = len(run.latencies)
    waits = run.recorder.samples["queue_wait_s"]
    batch_seconds = run.summary.get("ServingEngine.execute_batch", {"total_s": 0.0})["total_s"]
    traced_seconds = sum(result.elapsed for result in run.results)
    return {
        "serving.coalesce.joined_ratio": _ratio(delta["coalesced"], requests),
        "serving.scheduler.batch_size_mean": scheduler.mean_batch_size,
        "serving.scheduler.queue_wait_us_p50": 1e6 * statistics.median(waits) if waits else 0.0,
        "serving.scheduler.rejected": scheduler.rejected,
        # Wall time of the traced passes not spent inside the engine's batch
        # execution, per request: loop, coalescer, scheduler, executor hop.
        "serving.async_engine.self_us_per_query": 1e6
        * _ratio(traced_seconds - batch_seconds, requests),
    }


def http_extras(workload, run: TracedRun, delta: dict) -> dict[str, float]:
    """Codec, IPC and shared-memory costs around the pool, timed directly."""
    queries = workload.requests[:256]
    table = workload.table.name
    flat = workload.synopsis.flat
    results = [flat.query(query) for query in queries]
    bodies = [json.dumps(server.query_to_payload(query, table)) for query in queries]

    def per_item_us(call: Callable[[], object]) -> float:
        return 1e6 * _median_seconds(call, 5) / len(queries)

    decode_us = per_item_us(
        lambda: [server.query_from_payload(json.loads(body)) for body in bodies]
    )
    encode_us = per_item_us(
        lambda: [json.dumps({"result": server.result_to_payload(r)}) for r in results]
    )
    pickle_us = per_item_us(
        lambda: [
            pickle.loads(pickle.dumps(([(query, table)], [result])))
            for query, result in zip(queries, results)
        ]
    )
    flat_us = per_item_us(lambda: [flat.query(query) for query in queries])
    batch_us = per_item_us(lambda: workload.pool.execute_batch(queries, table))
    quiet_pool_us = 1e6 * statistics.median(
        _median_seconds(lambda query=query: workload.pool.execute(query, table), 1)
        for query in queries
    )

    register = EpochRegister.attach(workload.publisher.register_name)
    try:
        epoch_read_us = 1e6 * _median_seconds(register.read, 200)
        _, manifest = register.read()
    finally:
        register.close()
    segment = manifest["entries"][0]["segment"]
    attach_times, segment_bytes = [], 0
    for _ in range(5):
        start = time.perf_counter()
        attached_flat, attachment = shm.attach_flat_synopsis(segment)
        attach_times.append(time.perf_counter() - start)
        segment_bytes = sum(array.nbytes for array in attachment.arrays.values())
        del attached_flat
        attachment.close()

    counters = workload.obs.metrics.snapshot() if workload.obs else {}

    def counter(name: str) -> float:
        samples = counters.get(name, {}).get("samples", [])
        return sum(sample["value"] or 0.0 for sample in samples)

    # pool.execute as the handler threads saw it under HTTP load (spans);
    # the client's codec mirrors the server's decode / encode.
    pool_us = run.layers["serving.server.pool_execute_us"]
    codec_us = 2.0 * (decode_us + encode_us)
    return {
        "serving.server.json_decode_us": decode_us,
        "serving.server.json_encode_us": encode_us,
        "serving.server.pickle_roundtrip_us": pickle_us,
        "serving.server.pool_overhead_us": quiet_pool_us - flat_us,
        "serving.server.pool_batch_us_per_query": batch_us,
        "serving.server.http_overhead_us": 1e6 * statistics.mean(run.latencies)
        - pool_us
        - codec_us,
        "serving.server.http_rejected_429": workload.rejected_429,
        "serving.shm.attach_ms": 1e3 * statistics.median(attach_times),
        "serving.shm.epoch_read_us": epoch_read_us,
        "serving.shm.segment_bytes": segment_bytes,
        "serving.shm.reattaches": counter("repro_mp_reattach_total"),
    }


def stream_extras(workload, run: TracedRun, delta: dict) -> dict[str, float]:
    """Update latency percentiles and the drift the updates left behind."""
    updates = np.asarray(run.update_latencies) * 1e6
    return {
        "serving.engine.update_p50_us": float(np.percentile(updates, 50)),
        "serving.engine.update_p99_us": float(np.percentile(updates, 99)),
        "core.updates.staleness": workload.dynamic.staleness,
        "core.updates.sketch_staleness": workload.dynamic.sketch_staleness,
    }


def groupby_extras(workload, run: TracedRun, delta: dict) -> dict[str, float]:
    """``grouped_query`` and scatter-gather timed directly; pruning ratios."""
    sample = workload.requests[: 2 * len(workload.cycle)]
    plans = {"classic": [], "percentiles": []}
    for (_, groupby), (_, kind) in zip(sample, workload.cycle * 2):
        plans[kind].append(groupby.compile())
    single, sharded = workload.single, workload.sharded

    def grouped_ms(kind: str, execute: Callable) -> float:
        return 1e3 * statistics.median(
            _median_seconds(lambda plan=plan: execute(plan), 1) for plan in plans[kind]
        )

    planner = GroupByPlanner(workload.catalogs["single"])
    cells = pruned = pairs = surviving = 0
    for plan in plans["classic"] + plans["percentiles"]:
        live = plan.live_cells()
        cells += len(live)
        pruned += len(planner.prune_empty_cells(plan))
        for _, cell in live:
            pairs += sharded.n_shards
            surviving += len(
                sharded.surviving_shards(plan.cell_query(cell, plan.aggregates[0]))
            )
    return {
        "core.batching.grouped_classic_ms": grouped_ms(
            "classic", lambda plan: grouped_query(single, plan)
        ),
        "core.batching.grouped_sketch_ms": grouped_ms(
            "percentiles", lambda plan: grouped_query(single, plan)
        ),
        "distributed.sharded.grouped_ms": grouped_ms("classic", sharded.query_grouped),
        "distributed.sharded.pruned_pair_ratio": 1.0 - _ratio(surviving, pairs),
        "serving.planner.pruned_cell_ratio": _ratio(pruned, cells),
    }


#: Direct measurements run after the traced passes, by workload name.
EXTRAS: dict[str, Callable[[object, TracedRun, dict], dict[str, float]]] = {
    "dashboard_1d": dashboard_extras,
    "async_dup50": async_extras,
    "http_pool": http_extras,
    "stream_mixed": stream_extras,
    "groupby_sketch": groupby_extras,
}
