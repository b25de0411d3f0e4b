"""The asyncio serving front end: coalescing, micro-batching, backpressure.

:class:`AsyncServingEngine` turns a synchronous
:class:`~repro.serving.engine.ServingEngine` into an asyncio service shaped
for duplicate-heavy concurrent traffic:

* **Request coalescing** — concurrent canonically-identical queries share
  one execution future (:mod:`repro.serving.coalesce`), so a dashboard
  stampede costs one synopsis pass instead of N.
* **Micro-batch scheduling** — distinct requests accumulate under a
  configurable time/size window (:mod:`repro.serving.scheduler`) and
  dispatch through the engine's ``execute_batch`` path: one lock
  acquisition per window and one frontier per distinct predicate.
  Because every PASS aggregate is a commutative/associative reduction over
  partition statistics and stratified samples, batching changes *where* the
  work happens, never the answers.
* **Backpressure** — past ``max_pending`` outstanding requests, new work is
  rejected with a typed :class:`~repro.serving.scheduler.Overloaded` error
  rather than queued unboundedly.
* **Serialized writes** — :meth:`insert` / :meth:`delete` run through the
  same scheduler queue, so every write has a definite position among the
  read batches, and the moment a write is applied it atomically detaches
  in-flight coalesced futures whose predicate region overlaps the updated
  partition (the PR-1 box-overlap invalidation, lifted to futures).
  Waiters that joined before the write keep their pre-write answer — they
  are linearized before it — while any request admitted after the write
  re-executes against the updated synopsis.

The engine is event-loop-local: all coroutine methods must be awaited on
the loop that started it.  The blocking synopsis work itself runs on an
executor thread, so the loop stays responsive while a batch executes.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from repro.obs import Observability
from repro.query.predicate import Box
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.serving.coalesce import CoalescedRequest, RequestCoalescer
from repro.serving.engine import _NO_STAGES, ServingEngine
from repro.serving.scheduler import MicroBatchScheduler, Overloaded, SchedulerStats

__all__ = ["AsyncServingEngine", "AsyncServingStats"]


@dataclass(frozen=True)
class AsyncServingStats:
    """Telemetry snapshot of the async tier (engine stats live one level down).

    Attributes
    ----------
    scheduler:
        Queue/batch counters from the micro-batch scheduler.
    coalesced:
        Requests that attached to an already-in-flight identical query.
    invalidated_futures:
        In-flight coalesced futures detached by writer box-overlap
        invalidation.
    inflight:
        Coalesced executions currently outstanding.
    """

    scheduler: SchedulerStats
    coalesced: int
    invalidated_futures: int
    inflight: int

    def as_dict(self) -> dict[str, object]:
        """Field-name-keyed dict view; nested snapshots nest as dicts
        (the serving stack's uniform ``as_dict()`` contract — see
        :meth:`repro.serving.stats.StatsSnapshot.as_dict`)."""
        return asdict(self)


class AsyncServingEngine:
    """Asyncio front end over a :class:`ServingEngine`.

    Parameters
    ----------
    engine:
        The synchronous serving engine to front.  Configure result caching
        there.
    max_batch / batch_window / max_pending:
        Micro-batch window and admission bounds, passed to
        :class:`~repro.serving.scheduler.MicroBatchScheduler`.
    executor:
        Executor for the blocking synopsis work (None uses the loop's
        default thread pool).
    obs:
        The shared :class:`~repro.obs.Observability` context; defaults to
        the wrapped engine's, so wiring the engine instruments the whole
        stack.  When enabled, every head-sampled request gets a
        ``serve.request`` root span whose stages and children cover the
        cache probe, coalesce/submit path, queue wait, and the engine's
        batch execution — the span handle is carried on the
        :class:`CoalescedRequest` across the scheduler / executor boundary,
        where contextvars would be lost.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`::

        async with AsyncServingEngine(engine) as tier:
            result = await tier.execute(query)
    """

    def __init__(
        self,
        engine: ServingEngine,
        max_batch: int = 64,
        batch_window: float = 0.002,
        max_pending: int = 4096,
        executor: Executor | None = None,
        obs: Observability | None = None,
    ) -> None:
        self._engine = engine
        self._executor = executor
        self._obs = obs if obs is not None else engine.obs
        self._coalescer = RequestCoalescer()
        self._scheduler = MicroBatchScheduler(
            self._dispatch,
            max_batch=max_batch,
            batch_window=batch_window,
            max_pending=max_pending,
            obs=self._obs,
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._invalidated_futures = 0
        # Head-sampling state of ``execute`` (see there).
        self._trace_tick = 0
        self._trace_every = self._obs.tracer.sample_every
        # Each event is tallied once (the coalescer's join count, the int
        # above); the registry reads the tallies at scrape time.  No-ops on
        # a disabled context.
        registry = self._obs.metrics
        registry.counter(
            "repro_async_coalesced_total",
            "Requests that attached to an in-flight identical query.",
        ).set_function(lambda: self._coalescer.joined)
        registry.counter(
            "repro_async_invalidated_futures_total",
            "In-flight coalesced futures detached by writer invalidation.",
        ).set_function(lambda: self._invalidated_futures)
        registry.gauge(
            "repro_async_inflight",
            "Coalesced executions currently outstanding.",
        ).set_function(lambda: len(self._coalescer))

    @property
    def obs(self) -> Observability:
        """The observability context (the disabled singleton when unwired)."""
        return self._obs

    @property
    def engine(self) -> ServingEngine:
        """The wrapped synchronous serving engine."""
        return self._engine

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncServingEngine":
        """Bind to the running event loop and start the drain task."""
        loop = asyncio.get_running_loop()
        if self._loop is not None and self._loop is not loop:
            raise RuntimeError(
                "AsyncServingEngine is bound to another event loop; "
                "create one engine per loop"
            )
        self._loop = loop
        self._scheduler.start()
        return self

    async def stop(self) -> None:
        """Drain queued work and stop the scheduler."""
        await self._scheduler.stop()

    async def __aenter__(self) -> "AsyncServingEngine":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    async def execute(
        self, query: AggregateQuery, table: str | None = None
    ) -> AQPResult:
        """Answer one query through cache, coalescing, and micro-batching.

        Raises :class:`~repro.serving.scheduler.Overloaded` when admission
        control rejects the request, and propagates execution errors (e.g.
        ``LookupError`` for unroutable queries) to every coalesced waiter.

        One request body for every observability mode: probe, coalesce,
        submit, await.  With obs enabled (``logged``) the two outcomes that
        end on the loop thread — cache hits and rejections — are written to
        the query log here; miss leaders are logged by the engine's batch
        execution and joiners are summarized on their leader's record (see
        ``_dispatch``).  A head-sampled request (one in
        ``trace_sample_rate``) also carries the ``serve.request`` span
        ``root``, its fixed stages stamped via :meth:`Span.add_stage`; only
        the batch execution below the scheduler opens real child spans.
        With obs disabled no span is allocated and no clock is read.
        """
        loop = self._require_started()
        logged = self._obs.enabled
        root = None
        start = joined = 0.0
        if logged:
            start = time.perf_counter()
            # Head sampling inline (an increment and a modulo, not a call
            # into the tracer per unsampled request).
            tick = self._trace_tick
            self._trace_tick = tick + 1
            if tick % self._trace_every == 0:
                root = self._obs.tracer.start(
                    "serve.request", parent=None, start_s=start
                )
        served_by, ended = "", ""  # ended: "cache_hit" / "rejected", logged below
        result: AQPResult | None = None
        try:
            cached = self._engine.peek_entry(query, table)
            if root is not None:
                root.add_stage("cache.probe", time.perf_counter() - start)
            if cached is not None:
                served_by, result = cached
                ended = "cache_hit"
                return result
            request, is_leader = self._coalescer.admit(query, table, loop)
            if is_leader:
                if logged:
                    request.span = root
                    request.enqueued_s = time.perf_counter()
                try:
                    self._scheduler.submit(request)
                except Overloaded:
                    # Nobody can have joined between admit and submit (both
                    # run synchronously on the loop), so the future dies
                    # unobserved.
                    self._coalescer.detach(request)
                    request.future.cancel()
                    ended = "rejected"
                    raise
                if root is not None:
                    root.set_attribute("outcome", "executed")
                    root.add_stage(
                        "scheduler.submit", time.perf_counter() - request.enqueued_s
                    )
            elif root is not None:
                root.set_attribute("outcome", "coalesced")
                if request.span is not None:
                    root.set_attribute("coalesced_with", request.span.trace_id)
                joined = time.perf_counter()
            return await asyncio.shield(request.future)  # type: ignore[return-value]
        finally:
            if root is not None:
                if joined:
                    root.add_stage("coalesce.join", time.perf_counter() - joined)
                if ended:
                    root.set_attribute("outcome", ended)
                self._obs.tracer.end(root)
            if logged and ended:
                self._obs.query_log.append_raw(
                    self._engine._make_payload(
                        query,
                        table,
                        served_by,
                        ended,
                        (time.perf_counter() - start) * 1e3,
                        root.stage_durations_ms() if root is not None else _NO_STAGES,
                        result,
                        root.trace_id if root is not None else 0,
                    )
                )

    async def execute_many(
        self, queries: Sequence[AggregateQuery], table: str | None = None
    ) -> list[AQPResult]:
        """Answer several queries concurrently; results align with the input.

        All requests are admitted together, so duplicates inside ``queries``
        coalesce and the distinct remainder lands in the same micro-batch
        window when it fits.
        """
        return list(
            await asyncio.gather(*(self.execute(query, table) for query in queries))
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    async def insert(self, name: str, row: Mapping[str, float]) -> Box:
        """Insert a tuple through the scheduler's serialized write path.

        Resolves once the update is applied *and* overlapping in-flight
        coalesced futures are detached; a request issued after this returns
        observes the update.  Returns the updated leaf partition's box.
        """
        return await self._apply_update(name, row, "insert")

    async def delete(self, name: str, row: Mapping[str, float]) -> Box:
        """Delete a tuple through the scheduler's serialized write path.

        See :meth:`insert` for the ordering guarantee.
        """
        return await self._apply_update(name, row, "delete")

    async def _apply_update(
        self, name: str, row: Mapping[str, float], kind: str
    ) -> Box:
        loop = self._require_started()
        engine_apply = self._engine.insert if kind == "insert" else self._engine.delete

        async def apply() -> Box:
            return await loop.run_in_executor(self._executor, engine_apply, name, row)

        def on_applied(box: Box) -> None:
            self._invalidated_futures += self._coalescer.invalidate_overlapping(box)

        future = self._scheduler.submit_write(apply, on_applied)
        return await asyncio.shield(future)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> AsyncServingStats:
        """A snapshot of the async tier's coalescing and queue telemetry."""
        return AsyncServingStats(
            scheduler=self._scheduler.snapshot(),
            coalesced=self._coalescer.joined,
            invalidated_futures=self._invalidated_futures,
            inflight=len(self._coalescer),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_started(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None or not self._scheduler.running:
            raise RuntimeError(
                "AsyncServingEngine is not started; use 'async with' or await start()"
            )
        if loop is not self._loop:
            raise RuntimeError(
                "AsyncServingEngine methods must run on the loop that started it"
            )
        return loop

    async def _dispatch(self, requests: list[CoalescedRequest]) -> None:
        """Execute one sealed micro-batch on the executor and resolve futures."""
        assert self._loop is not None
        tracer = self._obs.tracer
        groups: dict[str | None, list[CoalescedRequest]] = {}
        for request in requests:
            groups.setdefault(request.table, []).append(request)

        # Stamp each request's queue wait (admission -> dispatch) before the
        # batch leaves the loop thread.
        if self._obs.enabled:
            now = time.perf_counter()
            for request in requests:
                if request.span is not None:
                    request.span.add_stage("queue.wait", now - request.enqueued_s)

        def run() -> list[tuple[CoalescedRequest, AQPResult | None, Exception | None]]:
            outcomes: list[
                tuple[CoalescedRequest, AQPResult | None, Exception | None]
            ] = []
            for table, group in groups.items():
                # The engine's batch spans nest under the first request's
                # root: contextvars do not cross run_in_executor, so the
                # carried span handle is re-activated here.  Other requests
                # in the group link to that trace by attribute.  When the
                # first request was not head-sampled, span creation below
                # the scheduler is suppressed outright — otherwise every
                # unsampled batch would open orphan root spans.
                leader_span = group[0].span
                for request in group[1:]:
                    if request.span is not None and leader_span is not None:
                        request.span.set_attribute(
                            "batched_under", leader_span.trace_id
                        )
                ctx = (
                    tracer.activate(leader_span)
                    if leader_span is not None
                    else tracer.suppress()
                )
                with ctx:
                    try:
                        results = self._engine.execute_batch(
                            [request.query for request in group], table=table
                        )
                    except Exception as exc:  # noqa: BLE001 - forwarded to waiters
                        outcomes.extend((request, None, exc) for request in group)
                    else:
                        outcomes.extend(
                            (request, result, None)
                            for request, result in zip(group, results)
                        )
            return outcomes

        try:
            outcomes = await self._loop.run_in_executor(self._executor, run)
        except Exception as exc:
            # The executor itself failed (e.g. a custom executor was shut
            # down).  Detach every request so the dead futures cannot
            # collect further joiners, then fail the waiters.
            for request in requests:
                self._coalescer.detach(request)
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        auditor = self._engine.auditor
        if outcomes and (self._obs.enabled or auditor is not None):
            # One ``coalesced`` summary record per leader that collected
            # joiners, instead of one record per joiner: the record's
            # ``coalesced_waiters`` preserves the traffic weight while the
            # joiners themselves do no log writes.  ``waiters`` is stable
            # here — joins happen on the loop thread and nothing awaits
            # between this snapshot and the detach loop below.  The same
            # pass offers each leader's answer to the accuracy auditor with
            # the joiners' weight, so audit sampling tracks true traffic —
            # the leader itself was already offered inside execute_batch.
            now_s = time.perf_counter()
            summaries = []
            for request, result, exc in outcomes:
                if request.waiters <= 1 or exc is not None:
                    continue
                # Resolving the serving synopsis costs a routing pass per
                # leader, so it only happens when an auditor wants the
                # offer; without one the summary keeps the empty name and
                # the obs-only path stays as cheap as before.
                name = ""
                if auditor is not None and result is not None:
                    entry = self._engine.catalog.route(
                        request.query, request.table, record=False
                    )
                    if entry is not None:
                        name = entry.name
                        # Response-time offer: outside the engine's
                        # read-lock scope, so bound coverage is not
                        # certified (an update may have slipped between
                        # compute and offer).
                        auditor.offer(
                            request.query,
                            request.table,
                            name,
                            result,
                            weight=request.waiters - 1,
                            certified=False,
                        )
                if self._obs.enabled:
                    summaries.append(
                        self._engine._make_payload(
                            request.query,
                            request.table,
                            name,
                            "coalesced",
                            (now_s - request.enqueued_s) * 1e3,
                            _NO_STAGES,
                            result,
                            request.span.trace_id
                            if request.span is not None
                            else 0,
                            request.waiters - 1,
                        )
                    )
            if summaries:
                self._obs.query_log.extend_raw(summaries)
        for request, result, exc in outcomes:
            # Detach before resolving: a resolved future must not collect
            # further joiners (they would skip the result cache's staleness
            # guarantees); post-resolution arrivals probe the cache instead.
            self._coalescer.detach(request)
            if request.future.done():
                continue
            if exc is not None:
                request.future.set_exception(exc)
            else:
                request.future.set_result(result)
