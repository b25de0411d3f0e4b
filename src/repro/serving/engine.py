"""The query-serving engine: concurrent reads, result caching, batch execution.

:class:`ServingEngine` turns a :class:`~repro.serving.catalog.SynopsisCatalog`
into something that can serve query traffic:

* **Concurrency** — queries run under the shared side of a reader-writer
  lock, so any number of threads answer queries together; dynamic updates
  take the exclusive side (PASS updates mutate tree statistics and leaf
  samples in place, which is unsafe to interleave with reads).
* **Result caching** — answers are memoized in an LRU cache keyed on the
  canonical query form (:meth:`AggregateQuery.cache_key`), so repeated
  queries — the common case in dashboard traffic — skip the synopsis
  entirely.  The canonical key carries the quantile parameter, so a p50 /
  p95 / p99 dashboard caches each percentile separately while identical
  percentile queries still collapse onto one entry.  Updates invalidate
  exactly the cached results whose predicate region overlaps the updated
  partition, with one broadcast comparison against the cached predicates'
  bounds (:class:`_CachedRegions`) rather than a scan of the cache.

Sketch aggregates (QUANTILE / COUNT_DISTINCT) serve through the same three
mechanisms unchanged: the catalog routes them only to synopses carrying
per-leaf sketches (:attr:`CatalogEntry.supports_sketches`) and otherwise
falls back to the exact engine, and batches reduce them along shared
frontiers — a sharded entry's too: it is one stitched tree.
* **Batch execution** — :meth:`execute_batch` deduplicates the batch,
  groups cache misses by routed synopsis, computes one MCF frontier per
  distinct predicate, and answers every miss with the same flat kernel
  :meth:`execute` runs, so batched results are identical to sequential
  ones by construction.

Cached results are invalidated at estimate granularity: after an update, a
cached result for a region the update did not touch keeps its original
``tuples_skipped`` telemetry even though the population grew.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core import batching
from repro.obs import Observability
from repro.query.groupby import GroupByPlan, GroupByQuery, GroupedResult, execute_plan
from repro.query.predicate import Box, RectPredicate
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.serving.catalog import CatalogEntry, SynopsisCatalog
from repro.serving.locks import ReadWriteLock
from repro.serving.planner import GroupByPlanner, plan_population, route_plan
from repro.serving.stats import ServingStats, StatsSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.audit import AccuracyAuditor
    from repro.obs.quality import QualityThresholds

__all__ = ["ServingEngine"]

#: Stats key used for queries answered by the exact-scan fallback.
EXACT_FALLBACK = "__exact__"

#: Shared empty stages mapping for records with no stage breakdown
#: (read-only by convention; avoids one dict allocation per record).
_NO_STAGES: dict[str, float] = {}

#: The ``(cache key, query, cached entry)`` of a pair the cache never saw.
_UNPROBED = (None, None, None)


class _CachedRegions:
    """The predicates of one synopsis' cached results as ``lo`` / ``hi`` rows.

    Row ``i`` bounds the predicate of cache key ``keys[i]``: its interval on
    each column of ``columns``, unbounded where it leaves the column free.
    The rows stay packed in ``[0, len(keys))`` (a removal moves the last row
    into the hole), so :meth:`overlapping` is one broadcast comparison.
    """

    __slots__ = ("columns", "keys", "row_of", "lo", "hi")

    def __init__(self) -> None:
        self.columns: dict[str, int] = {}
        self.keys: list[tuple] = []
        self.row_of: dict[tuple, int] = {}
        self.lo = np.full((16, 0), -np.inf)
        self.hi = np.full((16, 0), np.inf)

    def add(self, key: tuple, predicate: RectPredicate) -> None:
        """Track ``key``'s predicate (a no-op for a tracked key)."""
        if key in self.row_of:
            return
        bounds = predicate.canonical_key()
        new = [column for column, _, _ in bounds if column not in self.columns]
        if new:
            for column in new:
                self.columns[column] = len(self.columns)
            rows = self.lo.shape[0]
            self.lo = np.hstack([self.lo, np.full((rows, len(new)), -np.inf)])
            self.hi = np.hstack([self.hi, np.full((rows, len(new)), np.inf)])
        row = len(self.keys)
        if row == self.lo.shape[0]:
            self.lo = np.vstack([self.lo, np.full_like(self.lo, -np.inf)])
            self.hi = np.vstack([self.hi, np.full_like(self.hi, np.inf)])
        self.lo[row] = -np.inf
        self.hi[row] = np.inf
        for column, low, high in bounds:
            c = self.columns[column]
            self.lo[row, c] = low
            self.hi[row, c] = high
        self.keys.append(key)
        self.row_of[key] = row

    def discard(self, key: tuple) -> None:
        """Stop tracking ``key`` (a no-op for an untracked one)."""
        row = self.row_of.pop(key, None)
        if row is None:
            return
        last = self.keys.pop()
        if last != key:
            self.keys[row] = last
            self.row_of[last] = row
            self.lo[row] = self.lo[len(self.keys)]
            self.hi[row] = self.hi[len(self.keys)]

    def overlapping(self, box: Box) -> list[tuple]:
        """The tracked keys whose predicate shares a point with ``box``.

        ``RectPredicate.overlaps_box`` for every row at once: a column free
        on either side is unbounded there.
        """
        n = len(self.keys)
        if not n or not self.columns:
            return list(self.keys)
        intervals = [box.interval(column) for column in self.columns]
        box_lo = np.array([interval.low for interval in intervals])
        box_hi = np.array([interval.high for interval in intervals])
        hit = self.lo[:n] <= box_hi
        hit &= self.hi[:n] >= box_lo
        return [self.keys[row] for row in np.flatnonzero(hit.all(axis=1)).tolist()]


class ServingEngine:
    """Thread-safe serving front end over a synopsis catalog.

    Parameters
    ----------
    catalog:
        The synopsis catalog to serve from.  The engine takes ownership of
        synchronization: while it is serving, apply updates through
        :meth:`insert` / :meth:`delete`, not directly on the synopses.
    cache_size:
        Maximum number of memoized query results (0 disables caching).
    vectorized_batches:
        Accepted and ignored: every batch runs the one flat kernel.
    obs:
        The shared :class:`~repro.obs.Observability` context.  When given
        (and enabled), per-synopsis serving stats become registry-backed
        metrics, queries emit trace spans and structured query-log records,
        and the catalog is bound to the same context.
        Defaults to the shared disabled singleton (no-op instruments).
    """

    def __init__(
        self,
        catalog: SynopsisCatalog,
        cache_size: int = 4096,
        # perfbench/workloads.py passes this and perfbench/ is frozen by
        # BENCHMARK.json; it selects nothing and nothing else may pass it.
        # A later `benchmark` PR removes it together with the harness use.
        vectorized_batches: bool = False,
        obs: Observability | None = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self._catalog = catalog
        self._lock = ReadWriteLock()
        self._cache_size = cache_size
        # key -> (synopsis name or EXACT_FALLBACK, query, result)
        self._cache: OrderedDict[tuple, tuple[str, AggregateQuery, AQPResult]] = (
            OrderedDict()
        )
        self._cache_lock = threading.Lock()
        #: Synopsis name -> the bounds of its cached predicates, built on the
        #: first update to that synopsis and kept in step with the cache.
        self._regions: dict[str, _CachedRegions] = {}
        self._stats: dict[str, ServingStats] = {}
        self._stats_lock = threading.Lock()
        self._auditor: "AccuracyAuditor | None" = None
        self._obs = obs if obs is not None else Observability.disabled()
        if self._obs.enabled:
            registry = self._obs.metrics
            registry.gauge(
                "repro_serving_cache_entries",
                "Result-cache entries currently held.",
            ).set_function(lambda: float(len(self._cache)))
            registry.gauge(
                "repro_serving_cache_capacity",
                "Result-cache capacity (0 = caching disabled).",
            ).set(float(cache_size))
            catalog.bind_obs(self._obs)

    @property
    def catalog(self) -> SynopsisCatalog:
        """The catalog being served."""
        return self._catalog

    @property
    def obs(self) -> Observability:
        """The observability context (the disabled singleton when unwired)."""
        return self._obs

    @property
    def auditor(self) -> "AccuracyAuditor | None":
        """The attached accuracy auditor, if any."""
        return self._auditor

    def attach_auditor(self, auditor: "AccuracyAuditor") -> None:
        """Attach an accuracy auditor: every synopsis-served miss is offered
        to its sampler and every applied update is mirrored into its truth
        oracles.  One auditor at a time; attaching replaces the previous one.
        """
        self._auditor = auditor

    def detach_auditor(self) -> None:
        """Detach the current auditor (offers and update notes stop)."""
        self._auditor = None

    def close(self, timeout: float = 5.0) -> None:
        """Tear the engine down: stop and detach the attached auditor.

        The auditor runs a daemon worker thread that periodically takes the
        engine's read lock; leaving it behind keeps that thread recomputing
        against a catalog nobody serves anymore and makes test processes and
        servers exit uncleanly.  ``close`` stops it (warning if the join
        times out — see :meth:`AccuracyAuditor.stop`), detaches it, and is
        idempotent.  The engine itself holds no other background resources;
        the async tier's scheduler stops in ``AsyncServingEngine.stop``, and
        the multi-process server closes its engine through this method.
        """
        auditor = self._auditor
        if auditor is not None:
            # stop() detaches via detach_auditor when still attached.
            auditor.stop(timeout)
            self._auditor = None

    def __enter__(self) -> "ServingEngine":
        """Context-manager support: ``with ServingEngine(...) as engine:``."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the engine (auditor shutdown) on context exit."""
        self.close()

    def read_locked(self):
        """The engine's shared read-lock context manager.

        Exposed for audit workers that must recompute answers against a
        stable synopsis + truth state: holding the reader side serializes
        them with updates exactly like any serving query.
        """
        return self._lock.read_locked()

    def write_locked(self):
        """The engine's exclusive write-lock context manager.

        For writers outside the engine that update a served synopsis in
        place, e.g. :meth:`StreamingShardRouter.set_write_lock
        <repro.distributed.router.StreamingShardRouter.set_write_lock>`:
        holding it serializes them with every query, as :meth:`insert`
        does.  Not reentrant: run no engine call while holding it.
        """
        return self._lock.write_locked()

    def health(self, thresholds: "QualityThresholds | None" = None) -> dict:
        """The catalog-level quality health rollup (see ``SynopsisCatalog.health``)."""
        return self._catalog.health(thresholds)

    def peek_entry(
        self, query: AggregateQuery, table: str | None = None
    ) -> tuple[str, AQPResult] | None:
        """The cached ``(serving synopsis name, result)`` of a query, or None.

        A hit is recorded in the serving telemetry exactly like a hit inside
        :meth:`execute`.  The async serving tier probes this before
        scheduling, so cached queries never pay a batch-window wait.
        """
        if not self._cache_size:
            return None
        cached = self._cache_get(self._cache_key(query, table))
        if cached is None:
            return None
        served_by, _, result = cached
        self._stats_for(served_by).record_hits()
        return served_by, result

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(self, query: AggregateQuery, table: str | None = None) -> AQPResult:
        """Answer one query: cache, then best synopsis, then exact fallback.

        Raises ``LookupError`` when no synopsis matches and no fallback table
        is registered.
        """
        tracer = self._obs.tracer
        with tracer.span("serving.execute") as span:
            start = time.perf_counter()
            key = self._cache_key(query, table)
            cached = self._cache_get(key)
            if cached is not None:
                served_by, _, result = cached
                self._stats_for(served_by).record_hits()
                if self._obs.enabled:
                    span.set_attribute("outcome", "cache_hit")
                    self._obs.query_log.append_raw(
                        self._make_payload(
                            query,
                            table,
                            served_by,
                            "cache_hit",
                            total_ms=(time.perf_counter() - start) * 1e3,
                            stages_ms=_NO_STAGES,
                            result=result,
                            trace_id=span.trace_id,
                        )
                    )
                return result
            with self._lock.read_locked():
                served_by, result = self._execute_uncached(query, table)
                latency = time.perf_counter() - start
                # Cache while still holding the read lock: a concurrent update
                # waits for the write lock until we are done, so its
                # invalidation is guaranteed to see (and drop) this entry —
                # caching after release could race the invalidation and pin a
                # stale result.
                with tracer.span("cache.store"):
                    self._cache_put(key, (served_by, query, result))
                # Offer under the read lock: the auditor stamps the truth
                # oracle's epoch, and no update can slip between computing
                # the result and stamping it while we hold the reader side.
                auditor = self._auditor
                if auditor is not None and served_by != EXACT_FALLBACK:
                    auditor.offer(query, table, served_by, result)
            self._stats_for(served_by).record_misses(1, latency)
            if self._obs.enabled:
                span.set_attribute("outcome", "miss")
                span.set_attribute("synopsis", served_by)
                self._obs.query_log.append_raw(
                    self._make_payload(
                        query,
                        table,
                        served_by,
                        "miss",
                        total_ms=latency * 1e3,
                        stages_ms=span.stage_durations_ms(),
                        result=result,
                        trace_id=span.trace_id,
                    )
                )
            return result

    def execute_batch(
        self, queries: Sequence[AggregateQuery], table: str | None = None
    ) -> list[AQPResult]:
        """Answer a batch of queries; results align with the input order.

        Duplicate queries (by canonical key) are answered once, cache misses
        are grouped per routed synopsis, and each group shares one MCF
        frontier per distinct predicate.  Batched results are identical to
        :meth:`execute` run per query.
        """
        return self._execute_batch_impl(queries, table, already_locked=False)

    def _execute_batch_impl(
        self,
        queries: Sequence[AggregateQuery],
        table: str | None,
        already_locked: bool,
    ) -> list[AQPResult]:
        """Batch execution core; ``already_locked`` callers hold the read lock."""
        queries = list(queries)
        results: list[AQPResult | None] = [None] * len(queries)
        with self._obs.tracer.span("serving.execute_batch") as batch_span:
            batch_span.set_attribute("batch_size", len(queries))
            batch_start = time.perf_counter()

            # Resolve duplicates and cache hits first.
            unique: dict[tuple, list[int]] = {}
            for position, query in enumerate(queries):
                unique.setdefault(self._cache_key(query, table), []).append(position)
            misses: list[tuple[tuple, AggregateQuery]] = []
            hits: list[tuple[AggregateQuery, str, AQPResult]] = []
            for key, positions in unique.items():
                cached = self._cache_get(key)
                if cached is not None:
                    served_by, _, result = cached
                    for position in positions:
                        results[position] = result
                    self._stats_for(served_by).record_hits(len(positions))
                    hits.append((queries[positions[0]], served_by, result))
                else:
                    misses.append((key, queries[positions[0]]))
            batch_span.set_attribute("unique", len(unique))
            batch_span.set_attribute("cache_hits", len(hits))
            probe_ms = (time.perf_counter() - batch_start) * 1e3

            answers: list[tuple[str, AQPResult]] = []
            elapsed = 0.0
            locked = already_locked or not misses
            with nullcontext() if locked else self._lock.read_locked():
                if misses:
                    start = time.perf_counter()
                    answers = self._execute_misses(misses, table)
                    elapsed = time.perf_counter() - start
                # A duplicated query advances the audit sampler by its
                # position count, so audit frequency tracks traffic.
                weights = [len(unique[key]) for key, _ in misses]
                self._settle(
                    table, batch_span, probe_ms, hits, misses, answers, elapsed, weights
                )
            for (key, _), (_, result) in zip(misses, answers):
                for position in unique[key]:
                    results[position] = result
        return results  # type: ignore[return-value]

    def execute_grouped(
        self, groupby: GroupByQuery | GroupByPlan, table: str | None = None
    ) -> GroupedResult:
        """Answer a group-by / multi-aggregate query through the serving stack.

        The query is compiled by a :class:`~repro.serving.planner.GroupByPlanner`
        (distinct values resolve from the registered fallback table).  A plan
        whose compiled queries all route to one entry
        (:func:`~repro.serving.planner.route_plan`) is one
        :func:`~repro.core.batching.grouped_query` call on it: one frontier
        broadcast, which also answers the cells the tree proves empty, one
        moment pass and one sketch union per (cell, sketch kind).  Each
        (cell, aggregate) pair keeps its own cache key: a cell cached whole
        is served from the cache and skipped by the kernel, a cell with any
        miss is recomputed and only its misses are cached.  Any other plan
        runs its cell-major batch through :meth:`execute_batch`.

        Routing, cache probe, answering and caching run under one read-lock
        scope, so a concurrent update is ordered entirely before or after.
        """
        plan = (
            GroupByPlanner(self._catalog).compile(groupby, table)
            if isinstance(groupby, GroupByQuery)
            else groupby
        )
        with self._lock.read_locked():
            entry = route_plan(
                plan, lambda query: self._catalog.route(query, table, record=False)
            )
            if entry is not None:
                return self._execute_routed_plan(plan, entry, table)
            return execute_plan(
                plan,
                lambda queries: self._execute_batch_impl(
                    queries, table, already_locked=True
                ),
                population=plan_population(
                    plan,
                    lambda query: self._catalog.route(query, table, record=False),
                    lambda entry: entry.synopsis.population_size,
                ),
            )

    def _execute_routed_plan(
        self, plan: GroupByPlan, entry: CatalogEntry, table: str | None
    ) -> GroupedResult:
        """Answer a plan routed whole to ``entry`` (caller holds the read lock)."""
        with self._obs.tracer.span("serving.execute_grouped") as span:
            start = time.perf_counter()
            live = plan.live_cells()
            # (cell index, position) -> (cache key, query, cached entry or None)
            probed: dict[tuple[int, int], tuple] = {}
            hits: list[tuple[AggregateQuery, str, AQPResult]] = []
            whole: set[int] = set()  # cells whose every aggregate is cached
            for index, cell in live if self._cache_size else ():
                for position, spec in enumerate(plan.aggregates):
                    query = plan.cell_query(cell, spec)
                    key = self._cache_key(query, table)
                    cached = self._cache_get(key)
                    probed[index, position] = (key, query, cached)
                    if cached is not None:
                        served_by, _, result = cached
                        self._stats_for(served_by).record_hits()
                        hits.append((query, served_by, result))
                if all(probed[index, p][2] for p in range(len(plan.aggregates))):
                    whole.add(index)
            probe_ms = (time.perf_counter() - start) * 1e3
            start = time.perf_counter()
            grouped = batching.grouped_query(entry.synopsis, plan, skip=whole)
            elapsed = time.perf_counter() - start
            # A hit answers from the cache; a miss in a cell the kernel
            # answered (not pruned) is computed.  Queries are built only
            # for a reader: the cache, the auditor or the query log.
            keep = self._cache_size or self._auditor is not None or self._obs.enabled
            misses: list[tuple[tuple | None, AggregateQuery]] = []
            answers: list[tuple[str, AQPResult]] = []
            cells = list(grouped.cells)
            for index, cell in live:
                row = list(cells[index])
                for position, spec in enumerate(plan.aggregates):
                    key, query, cached = probed.get((index, position), _UNPROBED)
                    if cached is not None:
                        row[position] = cached[2]
                    elif index not in grouped.pruned:
                        answers.append((entry.name, row[position]))
                        if keep:
                            if query is None:
                                query = plan.cell_query(cell, spec)
                            misses.append((key, query))
                cells[index] = tuple(row)
            self._settle(table, span, probe_ms, hits, misses, answers, elapsed)
        return dataclasses.replace(grouped, cells=tuple(cells))

    def _settle(
        self,
        table: str | None,
        span,
        probe_ms: float,
        hits: Sequence[tuple[AggregateQuery, str, AQPResult]],
        misses: Sequence[tuple[tuple | None, AggregateQuery]],
        answers: Sequence[tuple[str, AQPResult]],
        elapsed: float,
        weights: Sequence[int] | None = None,
    ) -> None:
        """Book a request's answers: cache, audit offers, stats, routes, log.

        ``answers[i]`` (serving synopsis, result) answers ``misses[i]``
        (cache key, query), which stands for ``weights[i]`` requests (1 when
        None) in the audit sampler; ``misses`` may be empty when nothing
        reads it (no cache, auditor or query log).  ``hits`` are the
        already counted (query, serving synopsis, result) cache hits.  Call
        it in the read-lock scope the answers were computed in, so an
        update's invalidation cannot slip between computing and caching and
        the auditor's truth epoch matches the answer (see :meth:`execute`).
        """
        obs = self._obs
        if misses:
            with obs.tracer.span("cache.store"):
                for (key, query), (served_by, result) in zip(misses, answers):
                    self._cache_put(key, (served_by, query, result))
            auditor = self._auditor
            if auditor is not None:
                for i, ((_, query), (served_by, result)) in enumerate(
                    zip(misses, answers)
                ):
                    if served_by != EXACT_FALLBACK:
                        weight = 1 if weights is None else weights[i]
                        auditor.offer(query, table, served_by, result, weight=weight)
        miss_counts: dict[str, int] = {}
        for served_by, _ in answers:
            miss_counts[served_by] = miss_counts.get(served_by, 0) + 1
        per_query = elapsed / len(answers) if answers else 0.0
        for served_by, count in miss_counts.items():
            self._stats_for(served_by).record_misses(count, per_query)
        if not obs.enabled:
            return
        self._catalog.count_routes(miss_counts)
        # Payloads are packed inline (not via ``_make_payload``): the request
        # shares one wall-clock read and one staleness probe per synopsis,
        # leaving a bare tuple pack per query.
        stages_ms, trace_id, ts = span.stage_durations_ms(), span.trace_id, time.time()
        stale = {
            name: self._catalog.staleness_of(name)
            for name in {sb for _, sb, _ in hits} | set(miss_counts)
        }
        payloads = [
            (ts, table, sb, query, "cache_hit",
             probe_ms, _NO_STAGES, result, stale[sb], trace_id, 0)
            for query, sb, result in hits
        ]
        payloads.extend(
            (ts, table, sb, query, "miss",
             per_query * 1e3, stages_ms, result, stale[sb], trace_id, 0)
            for (_, query), (sb, result) in zip(misses, answers)
        )
        if payloads:
            obs.query_log.extend_raw(payloads)

    def _execute_uncached(
        self, query: AggregateQuery, table: str | None
    ) -> tuple[str, AQPResult]:
        """Route and answer one query (caller holds the read lock)."""
        tracer = self._obs.tracer
        with tracer.span("catalog.route"):
            entry = self._catalog.route(query, table)
        if entry is not None:
            with tracer.span("synopsis.query") as span:
                span.set_attribute("synopsis", entry.name)
                result = entry.synopsis.query(query)
            return entry.name, result
        with tracer.span("exact.scan"):
            return EXACT_FALLBACK, self._exact_result(query, table)

    def _execute_misses(
        self, misses: Sequence[tuple[tuple, AggregateQuery]], table: str | None
    ) -> list[tuple[str, AQPResult]]:
        """Answer the deduplicated cache misses, batching per synopsis."""
        answers: list[tuple[str, AQPResult] | None] = [None] * len(misses)
        by_entry: dict[str, list[int]] = {}
        entries: dict[str, CatalogEntry] = {}
        for index, (_, query) in enumerate(misses):
            entry = self._catalog.route(query, table, record=False)
            if entry is None:
                answers[index] = (EXACT_FALLBACK, self._exact_result(query, table))
            else:
                by_entry.setdefault(entry.name, []).append(index)
                entries[entry.name] = entry
        for name, indices in by_entry.items():
            entry = entries[name]
            batch = [misses[index][1] for index in indices]
            batch_results = batching.batch_query(entry.synopsis, batch, obs=self._obs)
            for index, result in zip(indices, batch_results):
                answers[index] = (name, result)
        return answers  # type: ignore[return-value]

    def _exact_result(self, query: AggregateQuery, table: str | None) -> AQPResult:
        engine = self._catalog.exact_engine(table)
        if engine is None:
            raise LookupError(
                f"no synopsis matches {query!r} and no fallback table is registered"
            )
        value = engine.execute(query)
        return AQPResult(
            estimate=value,
            ci_half_width=0.0,
            variance=0.0,
            hard_lower=value,
            hard_upper=value,
            tuples_processed=engine.table.n_rows,
            tuples_skipped=0,
            exact=True,
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, name: str, row: Mapping[str, float]) -> Box:
        """Insert a tuple into a dynamic synopsis and invalidate its region.

        Returns the box of the leaf partition the update landed in — the
        region whose cached results were invalidated — so layered caches
        (e.g. the async tier's in-flight coalesced futures) can apply the
        same box-overlap invalidation.
        """
        return self._apply_update(name, row, "insert")

    def delete(self, name: str, row: Mapping[str, float]) -> Box:
        """Delete a tuple from a dynamic synopsis and invalidate its region.

        Returns the updated leaf partition's box (see :meth:`insert`).
        """
        return self._apply_update(name, row, "delete")

    def _apply_update(self, name: str, row: Mapping[str, float], kind: str) -> Box:
        entry = self._catalog.get(name)
        if not entry.is_dynamic:
            raise TypeError(
                f"synopsis {name!r} is static; register a DynamicPASS to accept updates"
            )
        if self._obs.enabled:
            self._obs.metrics.counter(
                "repro_serving_updates_total",
                "Dynamic updates applied through the serving engine.",
                {"synopsis": name, "kind": kind},
            ).inc()
        with self._lock.write_locked():
            box = getattr(entry.synopsis, kind)(row)
            # Mirror the update into the auditor's truth oracle while still
            # holding the write lock, so oracle epochs order strictly with
            # the read-locked offers above.
            auditor = self._auditor
            if auditor is not None:
                auditor.note_update(entry.table_name, row, kind)
            dropped = self._invalidate_overlapping(name, box)
        self._stats_for(name).record_invalidations(dropped)
        return box

    def _invalidate_overlapping(self, name: str, box: Box) -> int:
        """Drop cached results of ``name`` whose region overlaps ``box``."""
        with self._cache_lock:
            regions = self._regions.get(name)
            if regions is None:
                regions = self._regions[name] = _CachedRegions()
                for key, (served_by, query, _) in self._cache.items():
                    if served_by == name:
                        regions.add(key, query.predicate)
            doomed = regions.overlapping(box)
            for key in doomed:
                del self._cache[key]
                regions.discard(key)
        return len(doomed)

    def invalidate(self, name: str | None = None) -> int:
        """Drop cached results (of one synopsis, or all); returns the count."""
        with self._cache_lock:
            if name is None:
                dropped = len(self._cache)
                self._cache.clear()
                self._regions.clear()
                return dropped
            doomed = [
                key
                for key, (served_by, _, _) in self._cache.items()
                if served_by == name
            ]
            for key in doomed:
                del self._cache[key]
            self._regions.pop(name, None)
            return len(doomed)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, StatsSnapshot]:
        """Per-synopsis serving telemetry snapshots."""
        with self._stats_lock:
            stats = dict(self._stats)
        # staleness_of is 0.0 for names not in the catalog (the exact fallback).
        return {
            name: entry.snapshot(staleness=self._catalog.staleness_of(name))
            for name, entry in stats.items()
        }

    def cache_info(self) -> dict[str, int]:
        """Current cache occupancy and capacity."""
        with self._cache_lock:
            return {"size": len(self._cache), "capacity": self._cache_size}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _cache_key(query: AggregateQuery, table: str | None) -> tuple:
        return (table, query.cache_key())

    def _cache_get(self, key: tuple):
        if not self._cache_size:
            return None
        with self._cache_lock:
            value = self._cache.get(key)
            if value is not None:
                self._cache.move_to_end(key)
            return value

    def _cache_put(self, key: tuple, value: tuple) -> None:
        if not self._cache_size:
            return
        with self._cache_lock:
            replaced = self._cache.get(key)
            if replaced is not None and replaced[0] != value[0]:
                self._forget_region(replaced[0], key)
            self._cache[key] = value
            self._cache.move_to_end(key)
            regions = self._regions.get(value[0])
            if regions is not None:
                regions.add(key, value[1].predicate)
            while len(self._cache) > self._cache_size:
                evicted, (served_by, _, _) = self._cache.popitem(last=False)
                self._forget_region(served_by, evicted)

    def _forget_region(self, name: str, key: tuple) -> None:
        """Untrack ``key`` in ``name``'s region bounds (caller holds the lock)."""
        regions = self._regions.get(name)
        if regions is not None:
            regions.discard(key)

    def _stats_for(self, name: str) -> ServingStats:
        with self._stats_lock:
            stats = self._stats.get(name)
            if stats is None:
                registry = self._obs.metrics if self._obs.enabled else None
                stats = ServingStats(registry=registry, synopsis=name)
                self._stats[name] = stats
            return stats

    def _make_payload(
        self,
        query: AggregateQuery,
        table: str | None,
        served_by: str,
        outcome: str,
        total_ms: float,
        stages_ms: Mapping[str, float],
        result: AQPResult | None,
        trace_id: int,
        coalesced_waiters: int = 0,
    ) -> tuple:
        """Build one raw query-log payload (see ``QueryLog.append_raw``;
        enabled contexts only).

        Hot path: everything derivable from the query and (immutable) result
        objects — canonical key, predicate box, aggregate label, bound
        widths, exactness — is deferred to log-read time by carrying the
        objects themselves; only answer-time state that would drift if read
        later — wall clock, the serving synopsis' staleness — is captured
        eagerly.
        """
        return (
            time.time(),
            table,
            served_by,
            query,
            outcome,
            total_ms,
            stages_ms,
            result,
            self._catalog.staleness_of(served_by),  # 0.0 off-catalog ("", exact)
            trace_id,
            coalesced_waiters,
        )
