"""Experiment harness: build synopses, run workloads, collect comparable rows.

The harness factors out the boilerplate shared by every experiment: load a
dataset, generate a workload, compute ground truths once, build each
competing synopsis while timing the construction, evaluate the workload, and
return uniform :class:`SynopsisEvaluation` rows the reporting module can
render.

Sketch-aggregate workloads (QUANTILE / COUNT_DISTINCT, see
:mod:`repro.sketches`) evaluate through every path here unchanged: the
exact engine computes their NaN-aware ground truths (the QUANTILE parameter
travels on each query), and the relative-error / hard-bound metrics apply
as-is — only the CLT-interval metrics (``ci_ratio`` and friends) come back
NaN, because sketch answers carry certified bounds instead of variances.
Generate such workloads with
:func:`repro.query.workload.random_range_queries` (``agg="QUANTILE",
quantile=0.95`` or ``agg="COUNT_DISTINCT"``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Sequence

import numpy as np

from repro.data.loaders import DatasetSpec, load_dataset
from repro.evaluation.metrics import QueryRecord, WorkloadMetrics, evaluate_workload
from repro.query.groupby import GroupByPlan, GroupByQuery
from repro.query.query import AggregateQuery, ExactEngine
from repro.query.workload import WorkloadSpec

__all__ = [
    "SynopsisEvaluation",
    "ComparisonRun",
    "run_comparison",
    "ground_truths",
    "evaluate_served_workload",
    "evaluate_grouped_workload",
    "AsyncWorkloadReport",
    "arrival_offsets",
    "evaluate_async_workload",
]


@dataclass(frozen=True)
class SynopsisEvaluation:
    """One synopsis' build cost, footprint, and workload metrics."""

    name: str
    build_seconds: float
    storage_bytes: int
    metrics: WorkloadMetrics

    @property
    def storage_mb(self) -> float:
        """Synopsis footprint in megabytes."""
        return self.storage_bytes / (1024.0 * 1024.0)


@dataclass(frozen=True)
class ComparisonRun:
    """Every synopsis' evaluation on one (dataset, workload) pair."""

    dataset: str
    workload: WorkloadSpec
    evaluations: tuple[SynopsisEvaluation, ...]

    def evaluation(self, name: str) -> SynopsisEvaluation:
        """Look up one synopsis' evaluation by name."""
        for evaluation in self.evaluations:
            if evaluation.name == name:
                return evaluation
        known = ", ".join(e.name for e in self.evaluations)
        raise KeyError(f"no evaluation named {name!r}; available: {known}")


def ground_truths(
    engine: ExactEngine, queries: Iterable[AggregateQuery]
) -> list[float]:
    """Exact answers for a workload (computed once, shared across synopses)."""
    return [engine.execute(query) for query in queries]


def evaluate_served_workload(
    serving_engine,
    queries: Iterable[AggregateQuery],
    engine: ExactEngine,
    ground_truth: Sequence[float] | None = None,
    table: str | None = None,
    batch: bool = False,
) -> WorkloadMetrics:
    """Evaluate a workload through a serving engine (served-mode path).

    The synopsis-direct path (:func:`~repro.evaluation.metrics.evaluate_workload`)
    measures a synopsis in isolation; this path measures what a client of the
    serving layer observes — routing, result caching, and (optionally) batch
    execution included.  Cache hits therefore show up as near-zero latencies
    on repeated queries.

    Parameters
    ----------
    serving_engine:
        A :class:`repro.serving.engine.ServingEngine`.
    queries / engine / ground_truth:
        As in :func:`~repro.evaluation.metrics.evaluate_workload`.
    table:
        Optional table name forwarded to the serving engine's router.
    batch:
        Execute the whole workload through ``execute_batch`` (per-query
        latency is then the batch average) instead of query by query.
    """
    queries = list(queries)
    if ground_truth is None:
        ground_truth = ground_truths(engine, queries)
    if len(ground_truth) != len(queries):
        raise ValueError("ground_truth length must match the number of queries")
    if batch:
        start = time.perf_counter()
        results = serving_engine.execute_batch(queries, table=table)
        per_query = (time.perf_counter() - start) / max(1, len(queries))
        latencies = [per_query] * len(queries)
    else:
        results = []
        latencies = []
        for query in queries:
            start = time.perf_counter()
            results.append(serving_engine.execute(query, table=table))
            latencies.append(time.perf_counter() - start)
    records = [
        QueryRecord(query=query, truth=truth, result=result, latency_seconds=latency)
        for query, truth, result, latency in zip(
            queries, ground_truth, results, latencies
        )
    ]
    return WorkloadMetrics.from_records(records)


def evaluate_grouped_workload(
    executor,
    groupby: "GroupByQuery | GroupByPlan",
    engine: ExactEngine,
    ground_truth: Sequence[float] | None = None,
    table: str | None = None,
) -> WorkloadMetrics:
    """Evaluate a group-by query through a grouped executor (grouped mode).

    The group-by query compiles into its cell-major batch (distinct values
    resolve from the exact engine's table), ground truths are computed per
    compiled (cell, aggregate) query, and the whole grouped result is
    produced in one executor call — so per-query latency is the grouped
    batch average, the number the grouped serving path is sized by.

    Parameters
    ----------
    executor:
        A :class:`~repro.serving.engine.ServingEngine` (routed + cached
        grouped serving) or :class:`~repro.serving.server.MPServingPool`
        (the same result from the worker pool), a
        :class:`~repro.distributed.sharded.ShardedSynopsis` (grouping over
        the stitched tree), or a :class:`~repro.core.pass_synopsis.PASSSynopsis`
        (single-synopsis shared-mask grouping).
    groupby:
        The group-by query, or an already compiled plan.
    engine / ground_truth:
        As in :func:`~repro.evaluation.metrics.evaluate_workload`; truths
        align with the plan's cell-major ``queries()`` order.
    table:
        Optional table name forwarded to serving-engine routing.
    """
    plan = (
        groupby.compile(distinct_source=engine.table)
        if isinstance(groupby, GroupByQuery)
        else groupby
    )
    flat = plan.queries()
    if ground_truth is None:
        ground_truth = ground_truths(engine, flat)
    if len(ground_truth) != len(flat):
        raise ValueError("ground_truth length must match the compiled batch")

    start = time.perf_counter()
    if hasattr(executor, "execute_grouped"):
        grouped = executor.execute_grouped(plan, table=table)
    elif hasattr(executor, "query_grouped"):
        grouped = executor.query_grouped(plan)
    else:
        from repro.core.batching import grouped_query

        grouped = grouped_query(executor, plan)
    per_query = (time.perf_counter() - start) / max(1, len(flat))

    records = []
    position = 0
    for index, _ in plan.live_cells():
        for agg_index in range(len(plan.aggregates)):
            records.append(
                QueryRecord(
                    query=flat[position],
                    truth=ground_truth[position],
                    result=grouped.cells[index][agg_index],
                    latency_seconds=per_query,
                )
            )
            position += 1
    return WorkloadMetrics.from_records(records)


@dataclass(frozen=True)
class AsyncWorkloadReport:
    """What an open-loop client population observed from the async tier.

    Attributes
    ----------
    n_requests / completed / rejected:
        Offered requests, requests answered, and requests shed by admission
        control (:class:`~repro.serving.scheduler.Overloaded`).
    coalesced:
        Completed requests that shared another request's in-flight
        execution.
    duration_seconds:
        Wall clock from the first scheduled arrival to the last completion.
    offered_qps / achieved_qps:
        The configured arrival rate and ``completed / duration``.
    p50_latency_ms / p99_latency_ms:
        Percentiles of per-request latency measured from the *scheduled*
        arrival time (open-loop convention: queueing delay caused by an
        overloaded server counts against it), NaN when nothing completed.
    """

    n_requests: int
    completed: int
    rejected: int
    coalesced: int
    duration_seconds: float
    offered_qps: float
    achieved_qps: float
    p50_latency_ms: float
    p99_latency_ms: float


#: Supported open-loop arrival processes.
ARRIVAL_PROCESSES = ("poisson", "bursty", "adversarial")


def arrival_offsets(
    process: str,
    n_requests: int,
    rate: float,
    rng: np.random.Generator,
    burst_size: int = 16,
) -> np.ndarray:
    """Arrival-time offsets (seconds from epoch start) for an open-loop run.

    ``poisson`` draws exponential inter-arrival gaps (memoryless traffic at
    the given mean rate); ``bursty`` releases ``burst_size`` requests
    back-to-back with exponential gaps between bursts (same mean rate, but
    the instantaneous load spikes stress the batch window); ``adversarial``
    is the bursty timeline — the adversarial part is what the requests
    *are*: :func:`evaluate_async_workload` makes every request inside a
    burst the same canonical query, the duplicate-stampede worst case for
    an uncoalesced server.
    """
    if process not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {process!r}; expected one of "
            f"{ARRIVAL_PROCESSES}"
        )
    if rate <= 0:
        raise ValueError("rate must be positive")
    if process == "poisson":
        return np.cumsum(rng.exponential(1.0 / rate, size=n_requests))
    if burst_size <= 0:
        raise ValueError("burst_size must be positive")
    n_bursts = -(-n_requests // burst_size)
    burst_starts = np.cumsum(rng.exponential(burst_size / rate, size=n_bursts))
    offsets = np.repeat(burst_starts, burst_size)[:n_requests]
    return offsets


def evaluate_async_workload(
    async_engine,
    queries: Sequence[AggregateQuery],
    rate: float,
    n_requests: int | None = None,
    arrival: str = "poisson",
    duplicate_ratio: float = 0.0,
    burst_size: int = 16,
    seed: int = 0,
    table: str | None = None,
) -> AsyncWorkloadReport:
    """Drive an async serving tier with an open-loop arrival process.

    Open-loop means arrivals are scheduled ahead of time at the offered
    rate and do **not** wait for earlier requests to finish — exactly the
    regime where admission control and micro-batching matter.  The driver
    owns the event loop (``asyncio.run``), so it composes with the rest of
    the synchronous evaluation harness.

    Parameters
    ----------
    async_engine:
        A **not yet started** :class:`~repro.serving.async_engine.
        AsyncServingEngine`; the driver starts and stops it around the run.
    queries:
        The pool of distinct canonical queries the workload draws from.
    rate:
        Offered arrival rate, requests/second.
    n_requests:
        Total requests to offer (defaults to ``len(queries)``).
    arrival:
        ``"poisson"``, ``"bursty"``, or ``"adversarial"`` (see
        :func:`arrival_offsets`).  Adversarial runs make every request in a
        burst the same query, so they measure the coalescing path
        regardless of ``duplicate_ratio``.
    duplicate_ratio:
        For poisson / bursty arrivals: probability that a request repeats
        the previous request's query instead of advancing through the pool.
    burst_size:
        Burst length for the bursty / adversarial processes.
    seed / table:
        Workload RNG seed, and the routing table forwarded per request.
    """
    from repro.serving.scheduler import Overloaded

    queries = list(queries)
    if not queries:
        raise ValueError("need at least one query")
    if not 0.0 <= duplicate_ratio <= 1.0:
        raise ValueError("duplicate_ratio must be in [0, 1]")
    total = len(queries) if n_requests is None else n_requests
    rng = np.random.default_rng(seed)
    offsets = arrival_offsets(arrival, total, rate, rng, burst_size=burst_size)

    issued: list[AggregateQuery] = []
    if arrival == "adversarial":
        # Every request of a burst duplicates the burst's canonical query.
        for position in range(total):
            issued.append(queries[(position // burst_size) % len(queries)])
    else:
        cursor = 0
        for position in range(total):
            if position > 0 and rng.random() < duplicate_ratio:
                issued.append(issued[-1])
            else:
                issued.append(queries[cursor % len(queries)])
                cursor += 1

    latencies: list[float] = []
    rejected = 0

    async def drive() -> float:
        nonlocal rejected
        async with async_engine:
            start = time.perf_counter()

            async def one(offset: float, query: AggregateQuery) -> None:
                nonlocal rejected
                delay = start + offset - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                try:
                    await async_engine.execute(query, table=table)
                except Overloaded:
                    rejected += 1
                    return
                latencies.append(time.perf_counter() - (start + offset))

            await asyncio.gather(
                *(one(float(offset), query) for offset, query in zip(offsets, issued))
            )
            return time.perf_counter() - start

    duration = asyncio.run(drive())
    completed = len(latencies)
    if latencies:
        p50, p99 = np.percentile(np.array(latencies), [50.0, 99.0])
        p50_ms, p99_ms = float(p50) * 1e3, float(p99) * 1e3
    else:
        p50_ms = p99_ms = float("nan")
    return AsyncWorkloadReport(
        n_requests=total,
        completed=completed,
        rejected=rejected,
        coalesced=async_engine.stats().coalesced,
        duration_seconds=duration,
        offered_qps=rate,
        achieved_qps=completed / duration if duration > 0 else float("nan"),
        p50_latency_ms=p50_ms,
        p99_latency_ms=p99_ms,
    )


def run_comparison(
    dataset: DatasetSpec | str,
    workload: WorkloadSpec,
    synopsis_factories: Dict[str, Callable[[DatasetSpec], object]],
    n_rows: int | None = None,
    truths: Sequence[float] | None = None,
) -> ComparisonRun:
    """Build and evaluate several synopses on the same dataset and workload.

    Parameters
    ----------
    dataset:
        A loaded :class:`~repro.data.loaders.DatasetSpec` or a dataset name
        (loaded with ``n_rows``).
    workload:
        The query workload to evaluate.
    synopsis_factories:
        Mapping from display name to a factory ``DatasetSpec -> synopsis``.
        The factory's wall-clock time is recorded as the build cost (falling
        back to a synopsis-reported ``build_seconds`` when present and larger,
        e.g. when the factory reuses a cached structure).
    n_rows:
        Row count when ``dataset`` is given by name.
    truths:
        Optional precomputed ground truths for the workload.
    """
    spec = (
        dataset if isinstance(dataset, DatasetSpec) else load_dataset(dataset, n_rows)
    )
    engine = ExactEngine(spec.table)
    queries = list(workload.queries)
    if truths is None:
        truths = ground_truths(engine, queries)

    evaluations = []
    for name, factory in synopsis_factories.items():
        start = time.perf_counter()
        synopsis = factory(spec)
        build_seconds = time.perf_counter() - start
        reported = getattr(synopsis, "build_seconds", 0.0)
        build_seconds = max(build_seconds, reported)
        storage = int(getattr(synopsis, "storage_bytes", lambda: 0)())
        metrics = evaluate_workload(synopsis, queries, engine, ground_truth=truths)
        evaluations.append(
            SynopsisEvaluation(
                name=name,
                build_seconds=build_seconds,
                storage_bytes=storage,
                metrics=metrics,
            )
        )
    return ComparisonRun(
        dataset=spec.table.name, workload=workload, evaluations=tuple(evaluations)
    )
