"""Online accuracy auditing: exact recomputation of sampled served answers.

The serving tier certifies every approximate answer with hard bounds, but
nothing in production *verifies* them — a bug in frontier classification,
a stale extremum after deletes, or a drifted sketch would ship silently
inside confident-looking intervals.  The :class:`AccuracyAuditor` closes
that loop:

* **Head sampling** — every miss answered by a synopsis is *offered*; a
  deterministic 1-in-N tick (the tracer's sampling discipline, PR 6)
  selects audits.  Offers carry a traffic weight, so coalesced stampedes
  advance the sampler by their full ``coalesced_waiters`` count.
* **Off the hot path** — selected audits land in a bounded queue consumed
  by one daemon thread.  Admission control (``put_nowait`` + drop counter)
  and a rate limit guarantee audits never starve serving; the worker takes
  the engine's *read* lock while recomputing, so it shares the reader side
  with queries and merely queues behind writers like any reader.
* **Update-aware ground truth** — a per-table :class:`TruthOracle` mirrors
  streaming inserts / deletes noted by the engine's write path (the
  catalog's fallback ``Table`` is immutable, so the registered table alone
  goes stale).  Every offer captures the oracle's epoch; if the table moved
  before the audit ran, the realized error is still recorded (that *is* the
  staleness-induced error signal) but bound coverage is not judged — the
  served bounds certified a different table state.

Results land on the per-synopsis
:class:`~repro.obs.quality.QualityScorecard`: empirical relative error,
certified-bound coverage (a violation on an exact-guarantee path is a
correctness alarm), bound tightness, and sketch-path rank error
(QUANTILE realized rank distance; COUNT_DISTINCT relative error) vs. the
sketch's self-certified bounds.
"""

from __future__ import annotations

import logging
import math
import queue
import threading
import time
import warnings
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.query.aggregates import SKETCH_AGGREGATES, AggregateType, exact_aggregate

if TYPE_CHECKING:  # pragma: no cover - typing-only imports (cycle guard)
    from repro.data.table import Table
    from repro.query.query import AggregateQuery
    from repro.result import AQPResult
    from repro.serving.engine import ServingEngine

__all__ = ["AccuracyAuditor", "TruthOracle"]

logger = logging.getLogger(__name__)

#: Serving-engine name for the exact fallback path (never audited: the
#: answer *is* the exact scan).  Mirrors ``serving.engine.EXACT_FALLBACK``
#: without importing it (the serving package imports this one).
_EXACT_FALLBACK = "__exact__"

_STOP = object()

#: One queued audit: (query, synopsis, table_name, result, epoch, certified).
_AuditItem = tuple["AggregateQuery", str, str, "AQPResult", int, bool]


class TruthOracle:
    """Exact ground truth for one table under streaming updates.

    Keeps the immutable base table plus the insert / delete deltas the
    serving engine applied, and materializes current column arrays on
    demand (mirroring the shard router's replay: base rows plus inserts,
    minus first-match deletes).  ``version`` increments on every noted
    update — the auditor's epoch token for detecting truth that moved
    between serving and auditing.
    """

    def __init__(self, table: "Table") -> None:
        self._table = table
        self._columns = list(table.column_names)
        self._lock = threading.Lock()
        self._inserts: list[dict[str, float]] = []
        self._deletes: list[dict[str, float]] = []
        self._version = 0
        self._dirty = False
        self._arrays: dict[str, np.ndarray] | None = None
        self._lost_sync = False

    @property
    def version(self) -> int:
        """Epoch counter: increments on every noted update."""
        with self._lock:
            return self._version

    @property
    def lost_sync(self) -> bool:
        """True when the oracle can no longer reproduce the table exactly."""
        with self._lock:
            return self._lost_sync

    def note(self, row: Mapping[str, float], kind: str) -> None:
        """Record one applied update (called under the engine's write lock)."""
        with self._lock:
            self._version += 1
            self._dirty = True
            if self._lost_sync:
                return
            try:
                full_row = {col: float(row[col]) for col in self._columns}
            except (KeyError, TypeError, ValueError):
                # A partial row updates the synopsis fine (PASS only needs
                # the partitioning + value columns) but leaves the exact
                # replay ambiguous; stop certifying rather than guess.
                self._lost_sync = True
                self._arrays = None
                return
            if kind == "insert":
                self._inserts.append(full_row)
            else:
                self._deletes.append(full_row)

    def arrays(self) -> dict[str, np.ndarray] | None:
        """Current column arrays (base plus deltas), or None when unsyncable.

        Materialization is cached until the next noted update; only the
        audit worker calls this, so the rebuild cost never lands on the
        serving path.
        """
        with self._lock:
            if self._lost_sync:
                return None
            if not self._dirty and self._arrays is not None:
                return self._arrays
            if not self._inserts and not self._deletes:
                arrays = self._table.columns(self._columns)
            else:
                arrays = self._materialize()
                if arrays is None:
                    self._lost_sync = True
                    self._arrays = None
                    return None
            self._arrays = arrays
            self._dirty = False
            return arrays

    def _materialize(self) -> dict[str, np.ndarray] | None:
        """Replay deltas over the base table (caller holds the lock)."""
        arrays = {
            col: np.concatenate(
                [
                    self._table.column(col),
                    np.array([row[col] for row in self._inserts], dtype=float),
                ]
            )
            if self._inserts
            else np.asarray(self._table.column(col), dtype=float)
            for col in self._columns
        }
        if not self._deletes:
            return arrays
        n = next(iter(arrays.values())).shape[0] if arrays else 0
        keep = np.ones(n, dtype=bool)
        for row in self._deletes:
            match = keep.copy()
            for col in self._columns:
                match &= arrays[col] == row[col]
            indices = np.nonzero(match)[0]
            if indices.shape[0] == 0:
                # The engine deleted a row we cannot find: replay diverged.
                return None
            keep[indices[0]] = False
        return {col: values[keep] for col, values in arrays.items()}


class AccuracyAuditor:
    """Background sampler that recomputes exact answers for served queries.

    Attach to a :class:`~repro.serving.engine.ServingEngine` (the
    constructor does it); the engine then offers every synopsis-served
    miss and notes every applied update.  Use as a context manager or call
    :meth:`stop` to detach and join the worker.

    Parameters
    ----------
    engine:
        The serving engine to audit.
    sample_every:
        Deterministic head-sampling period: one audit per ``sample_every``
        units of offered traffic weight.
    max_queue:
        Admission-control bound on queued audits; offers beyond it are
        dropped (and counted) rather than ever blocking the hot path.
    max_rate:
        Upper bound on audits per second (None = unthrottled).  Audits take
        the engine's read lock, so the rate limit is what guarantees the
        auditor can never monopolize the reader side.
    """

    def __init__(
        self,
        engine: "ServingEngine",
        *,
        sample_every: int = 16,
        max_queue: int = 256,
        max_rate: float | None = 50.0,
    ) -> None:
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        if max_queue <= 0:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        if max_rate is not None and max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {max_rate}")
        self._engine = engine
        self._every = sample_every
        self._interval = 0.0 if max_rate is None else 1.0 / max_rate
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=max_queue)
        self._tick = 0
        self._tick_lock = threading.Lock()
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._oracles: dict[str, TruthOracle] = {}
        self._oracle_lock = threading.Lock()
        self._stop_event = threading.Event()

        registry = engine.obs.metrics
        self._sampled = registry.counter(
            "repro_audit_sampled_total", "Served answers selected for audit."
        )
        self._dropped = registry.counter(
            "repro_audit_dropped_total",
            "Audits dropped by admission control (queue full).",
        )
        self._skipped = registry.counter(
            "repro_audit_skipped_total",
            "Selected audits abandoned (no ground truth available).",
        )
        self._seconds = registry.histogram(
            "repro_audit_seconds", "Wall time of one exact recomputation."
        )
        registry.gauge(
            "repro_audit_queue_depth", "Audits waiting for the worker."
        ).set_function(lambda: float(self._queue.qsize()))

        self._worker = threading.Thread(
            target=self._run, name="accuracy-auditor", daemon=True
        )
        self._worker.start()
        engine.attach_auditor(self)

    # -- hot-path API ------------------------------------------------------

    def offer(
        self,
        query: "AggregateQuery",
        table: str | None,
        synopsis: str,
        result: "AQPResult",
        weight: int = 1,
        certified: bool = True,
    ) -> bool:
        """Offer one served answer; returns True when it was enqueued.

        Called on the serving path for every synopsis miss, so the common
        case is one lock plus integer arithmetic.  ``weight`` advances the
        deterministic sampler by that much traffic (coalesced leaders pass
        their waiter count); a sample fires whenever the tick crosses a
        period boundary.  ``certified=False`` marks offers made outside the
        engine's read-lock scope (the async tier's response-time coalesced
        offers): their error is audited but bound coverage is not judged,
        because an update may have slipped between compute and offer.
        """
        if weight <= 0 or not synopsis or synopsis == _EXACT_FALLBACK:
            return False
        with self._tick_lock:
            before = self._tick
            self._tick = before + weight
            fire = before == 0 or (before - 1) // self._every != (
                self._tick - 1
            ) // self._every
        if not fire:
            return False
        self._sampled.inc()
        try:
            entry = self._engine.catalog.get(synopsis)
        except KeyError:
            self._skipped.inc()
            return False
        oracle = self._oracle(entry.table_name)
        epoch = 0 if oracle is None else oracle.version
        item: _AuditItem = (query, synopsis, entry.table_name, result, epoch, certified)
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self._dropped.inc()
            return False
        with self._pending_lock:
            self._pending += 1
        return True

    def note_update(self, table_name: str, row: Mapping[str, float], kind: str) -> None:
        """Mirror one applied update into the table's truth oracle.

        Called by the engine under its write lock; cost is one dict probe
        plus a list append.
        """
        oracle = self._oracle(table_name)
        if oracle is not None:
            oracle.note(row, kind)

    # -- lifecycle ---------------------------------------------------------

    def flush(self, timeout: float = 10.0) -> bool:
        """Wait until every enqueued audit completed; True on success."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._pending_lock:
                if self._pending == 0:
                    return True
            time.sleep(0.002)
        with self._pending_lock:
            return self._pending == 0

    def stop(self, timeout: float = 5.0) -> None:
        """Detach from the engine and join the worker thread.

        Audits still queued are dropped, not run: the worker checks the
        stop event before every rate-limit wait and every audit, so it
        stops within one audit however deep the backlog is.

        A join that times out is *reported* (``RuntimeWarning``), not
        swallowed: the worker is a daemon thread, so a silently missed join
        leaves it recomputing exact answers — and holding the engine's read
        lock — while teardown proceeds, which surfaces as flaky shutdown
        hangs far from the cause.
        """
        if self._engine.auditor is self:
            self._engine.detach_auditor()
        if not self._stop_event.is_set():
            self._stop_event.set()
            try:
                self._queue.put_nowait(_STOP)  # wakes a worker idle in get()
            except queue.Full:
                pass  # a worker with a backlog is not idle; it reads the event
        self._worker.join(timeout)
        if self._worker.is_alive():
            warnings.warn(
                f"accuracy-auditor worker did not stop within {timeout}s; "
                "it is a daemon thread and may still hold the engine's read "
                "lock (an in-flight exact recomputation is likely stuck)",
                RuntimeWarning,
                stacklevel=2,
            )

    def __enter__(self) -> "AccuracyAuditor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- internals ---------------------------------------------------------

    def _oracle(self, table_name: str) -> TruthOracle | None:
        with self._oracle_lock:
            oracle = self._oracles.get(table_name)
            if oracle is None:
                exact = self._engine.catalog.exact_engine(table_name)
                if exact is None:
                    return None
                oracle = TruthOracle(exact.table)
                self._oracles[table_name] = oracle
            return oracle

    def _run(self) -> None:
        last_start = 0.0
        while True:
            item = self._queue.get()
            if item is not _STOP and self._interval > 0.0:
                wait = last_start + self._interval - time.monotonic()
                if wait > 0.0:
                    self._stop_event.wait(wait)
            if item is _STOP or self._stop_event.is_set():
                break
            last_start = time.monotonic()
            try:
                self._audit(item)  # type: ignore[arg-type]
            except Exception:  # pragma: no cover - defensive
                logger.exception("accuracy audit failed")
                self._skipped.inc()
            finally:
                with self._pending_lock:
                    self._pending -= 1
        # Stopping: the item in hand and the backlog are dropped unaudited.
        dropped = int(item is not _STOP)
        try:
            while True:
                dropped += self._queue.get_nowait() is not _STOP
        except queue.Empty:
            pass
        with self._pending_lock:
            self._pending -= dropped

    def _audit(self, item: _AuditItem) -> None:
        query, synopsis, table_name, result, epoch, certified = item
        start = time.perf_counter()
        oracle = self._oracle(table_name)
        if oracle is None:
            self._skipped.inc()
            return
        with self._engine.read_locked():
            arrays = oracle.arrays()
            current_epoch = oracle.version
        if arrays is None:
            self._skipped.inc()
            return
        stale = current_epoch != epoch
        value_column = arrays.get(query.value_column)
        if value_column is None:
            self._skipped.inc()
            return
        needed = {col for col, _, _ in query.predicate.canonical_key()}
        if needed:
            try:
                mask = query.predicate.mask({col: arrays[col] for col in needed})
            except KeyError:
                self._skipped.inc()
                return
            values = value_column[mask]
        else:
            values = value_column
        truth = exact_aggregate(query.agg, values, quantile=query.quantile)
        if math.isnan(truth) and not math.isnan(result.estimate):
            # Empty-selection AVG / MIN / MAX: the exact answer is
            # undefined while the served estimate legitimately derives
            # from overlapping partitions.  Nothing to audit.
            self._skipped.inc()
            return
        self._record(query, synopsis, result, truth, values, certified, stale)
        self._seconds.observe(time.perf_counter() - start)

    def _record(
        self,
        query: "AggregateQuery",
        synopsis: str,
        result: "AQPResult",
        truth: float,
        values: np.ndarray,
        certified: bool,
        stale: bool,
    ) -> None:
        sketch = query.agg in SKETCH_AGGREGATES
        tolerance = 1e-9 * max(1.0, abs(truth)) if math.isfinite(truth) else 0.0
        if math.isnan(truth) and math.isnan(result.estimate):
            covered, rel_error, abs_error = True, 0.0, 0.0
        elif math.isnan(result.estimate):
            # The sample missed every matching row but the truth exists:
            # the estimate is unusable (infinite error), yet coverage is
            # still judged against the hard bounds, which derive from
            # partition statistics and may well contain the truth.
            covered = (
                result.hard_lower - tolerance
                <= truth
                <= result.hard_upper + tolerance
            )
            rel_error, abs_error = float("inf"), float("inf")
        else:
            covered = (
                result.hard_lower - tolerance
                <= truth
                <= result.hard_upper + tolerance
            )
            abs_error = abs(result.estimate - truth)
            rel_error = result.relative_error(truth)
        if sketch and query.agg == AggregateType.QUANTILE and values.shape[0] > 0:
            # Realized rank error: distance from the target rank to the
            # estimate's empirical rank interval among the matched values.
            rel_error = _rank_error(values, result.estimate, query.quantile or 0.5)
        width = result.hard_upper - result.hard_lower
        if math.isfinite(width) and math.isfinite(abs_error):
            floor = 1e-12 * max(1.0, abs(truth) if math.isfinite(truth) else 1.0)
            tightness = width / max(abs_error, floor)
        else:
            tightness = float("inf")
        card = self._engine.catalog.scorecard(synopsis)
        card.record_audit(
            rel_error=rel_error,
            covered=covered,
            tightness=tightness,
            certified=certified and not sketch,
            sketch=sketch,
            stale=stale,
        )


def _rank_error(values: np.ndarray, estimate: float, q: float) -> float:
    """Distance from rank ``q`` to the estimate's empirical rank interval."""
    if math.isnan(estimate):
        return float("inf")
    clean = values[~np.isnan(values)] if np.isnan(values).any() else values
    n = clean.shape[0]
    if n == 0:
        return 0.0
    ordered = np.sort(clean)
    rank_low = float(np.searchsorted(ordered, estimate, side="left")) / n
    rank_high = float(np.searchsorted(ordered, estimate, side="right")) / n
    if rank_low <= q <= rank_high:
        return 0.0
    return min(abs(q - rank_low), abs(q - rank_high))
