"""Micro-batch scheduling with bounded-queue admission control.

The :class:`MicroBatchScheduler` sits between request arrival and execution
in the async serving tier.  Incoming coalesced requests accumulate in a
*batch window* — bounded by a time budget (``batch_window`` seconds) and a
size budget (``max_batch`` requests) — and each sealed window dispatches as
one batch through the engine's batch path, so a window's worth of queries
costs one lock acquisition, and one index lookup per distinct predicate,
instead of one per query.

Two further serving-tier concerns live here:

* **Backpressure** — every admitted-but-unresolved request holds a slot of
  an :class:`AdmissionGate`; past ``max_pending`` the gate rejects new work
  with a typed :class:`Overloaded` error instead of queueing unboundedly
  (the HTTP front end admits through the same class and renders the error
  as a 429).  Open-loop arrival processes (the workloads
  :func:`~repro.evaluation.harness.evaluate_async_workload` generates) can
  exceed service capacity indefinitely; shedding load early keeps tail
  latency of admitted requests bounded.
* **Write serialization** — streaming updates submit through
  :meth:`submit_write`.  A write seals the currently-open batch window
  first (requests that arrived before the write stay ordered before it) and
  then runs as its own queue item, so the single drain loop gives every
  reader batch and every write a definite serialization order.

The scheduler is event-loop-local: all methods must be called from the
owning loop's thread, so its own tallies need no locks (the gate, shared
with the multi-threaded HTTP tier, carries one).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import asdict, dataclass
from typing import Awaitable, Callable, TypeVar

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.serving.coalesce import CoalescedRequest

__all__ = ["Overloaded", "AdmissionGate", "SchedulerStats", "MicroBatchScheduler"]

T = TypeVar("T")


class Overloaded(RuntimeError):
    """Typed admission-control rejection: the serving queue is full.

    Attributes
    ----------
    pending:
        Outstanding (admitted but unresolved) items at rejection time.
    capacity:
        The gate's ``max_pending`` bound.
    """

    def __init__(self, pending: int, capacity: int) -> None:
        super().__init__(
            f"serving tier overloaded: {pending} pending requests at "
            f"capacity {capacity}; retry with backoff"
        )
        self.pending = pending
        self.capacity = capacity


class AdmissionGate:
    """THE admission policy: a bounded count of admitted, unresolved items.

    The only place ``pending`` meets a capacity and the only raiser of
    :class:`Overloaded`.  :class:`MicroBatchScheduler` admits every request
    and write through one; :class:`~repro.serving.server.MPHTTPServer`
    admits every POST through another and renders the error as HTTP 429.
    Thread-safe (HTTP handlers run one thread per connection); the owning
    tier exports the plain-int tallies (``Counter.set_function``).
    """

    def __init__(self, max_pending: int) -> None:
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.capacity = max_pending
        self.pending = 0
        self.peak_pending = 0
        self.rejected = 0
        self._lock = threading.Lock()

    def admit(self) -> None:
        """Take one slot, or raise :class:`Overloaded` when none is free."""
        with self._lock:
            if self.pending >= self.capacity:
                self.rejected += 1
                raise Overloaded(self.pending, self.capacity)
            self.pending += 1
            if self.pending > self.peak_pending:
                self.peak_pending = self.pending

    def release(self, n: int = 1) -> None:
        """Give ``n`` slots back (their items resolved, failed or not)."""
        with self._lock:
            self.pending -= n


@dataclass(frozen=True)
class SchedulerStats:
    """An immutable snapshot of one scheduler's queue telemetry.

    Attributes
    ----------
    submitted:
        Requests admitted into batch windows (coalesced joiners never reach
        the scheduler).
    rejected:
        Requests (and writes) refused with :class:`Overloaded`.
    batches / dispatched:
        Sealed windows, and the total requests they carried.
    writes:
        Updates serialized through the queue.
    pending:
        Currently outstanding items (buffered, queued, or executing).
    peak_pending:
        High-water mark of ``pending``.
    max_batch_size / mean_batch_size:
        Size of the largest sealed window, and the mean over all windows
        (0.0 before any batch).
    """

    submitted: int
    rejected: int
    batches: int
    dispatched: int
    writes: int
    pending: int
    peak_pending: int
    max_batch_size: int
    mean_batch_size: float

    def as_dict(self) -> dict[str, float | int]:
        """Field-name-keyed dict view (the serving stack's uniform
        ``as_dict()`` contract — see
        :meth:`repro.serving.stats.StatsSnapshot.as_dict`)."""
        return asdict(self)


#: Internal queue items: a sealed batch of requests, or one serialized write.
_BatchItem = tuple[str, object]


class MicroBatchScheduler:
    """Accumulates requests into micro-batches and serializes writes.

    Parameters
    ----------
    dispatch:
        Async callable executing one sealed batch; it owns resolving (or
        failing) each request's future.  Called from the drain loop, one
        batch at a time.
    max_batch:
        Seal the open window as soon as it holds this many requests.
    batch_window:
        Seconds an open window waits for more requests before sealing
        (0 seals on the next event-loop tick, which still batches requests
        submitted in the same tick).
    max_pending:
        Bound on outstanding items; beyond it :meth:`submit` and
        :meth:`submit_write` raise :class:`Overloaded`.
    obs:
        The shared :class:`~repro.obs.Observability` context.  When enabled,
        the registry's ``repro_scheduler_*`` counters and the
        ``repro_scheduler_pending`` gauge read the tallies below at scrape
        time and the batch-size histogram lives in the registry; each event
        is tallied once either way, so the snapshot API is unchanged.
    """

    def __init__(
        self,
        dispatch: Callable[[list[CoalescedRequest]], Awaitable[None]],
        max_batch: int = 64,
        batch_window: float = 0.002,
        max_pending: int = 4096,
        obs: Observability | None = None,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        self._dispatch = dispatch
        self._max_batch = max_batch
        self._batch_window = batch_window
        self._gate = AdmissionGate(max_pending)
        self._submitted = 0
        self._writes = 0
        self._max_batch_size = 0
        # Each event is tallied once — the ints above, the gate, the
        # batch-size histogram — and the registry reads them at scrape time
        # (a private, unexported registry without enabled obs).
        registry = obs.metrics if obs is not None and obs.enabled else MetricsRegistry()
        #: Sealed windows; its count and sum are ``batches`` / ``dispatched``.
        self._batch_sizes = registry.histogram(
            "repro_scheduler_batch_size",
            "Requests per sealed batch window.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        )
        registry.counter(
            "repro_scheduler_submitted_total",
            "Leader requests admitted into batch windows.",
        ).set_function(lambda: self._submitted)
        registry.counter(
            "repro_scheduler_rejected_total",
            "Submissions refused by admission control (Overloaded).",
        ).set_function(lambda: self._gate.rejected)
        registry.counter(
            "repro_scheduler_batches_total", "Batch windows sealed for dispatch."
        ).set_function(lambda: self._batch_sizes.count)
        registry.counter(
            "repro_scheduler_writes_total", "Writes serialized through the queue."
        ).set_function(lambda: self._writes)
        registry.gauge(
            "repro_scheduler_pending",
            "Admitted-but-unresolved items (buffered, queued, executing).",
        ).set_function(lambda: self._gate.pending)

        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue[_BatchItem] = asyncio.Queue()
        self._buffer: list[CoalescedRequest] = []
        self._timer: asyncio.TimerHandle | None = None
        self._drain_task: asyncio.Task[None] | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the drain loop on the running event loop (idempotent)."""
        if self._drain_task is not None and not self._drain_task.done():
            return
        self._loop = asyncio.get_running_loop()
        self._drain_task = self._loop.create_task(self._drain())

    async def stop(self) -> None:
        """Seal the open window, drain every queued item, stop the loop."""
        if self._drain_task is None:
            return
        self._seal()
        await self._queue.join()
        self._drain_task.cancel()
        try:
            await self._drain_task
        except asyncio.CancelledError:
            pass
        self._drain_task = None

    @property
    def running(self) -> bool:
        """True while the drain loop is active."""
        return self._drain_task is not None and not self._drain_task.done()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, request: CoalescedRequest) -> None:
        """Admit a leader request into the open batch window.

        Raises :class:`Overloaded` when the pending bound is hit; the caller
        is responsible for detaching the request from its coalescer.
        """
        self._gate.admit()
        self._submitted += 1
        self._buffer.append(request)
        if len(self._buffer) >= self._max_batch:
            self._seal()
        elif self._timer is None:
            assert self._loop is not None, "scheduler not started"
            self._timer = self._loop.call_later(self._batch_window, self._seal)

    def submit_write(
        self,
        apply: Callable[[], Awaitable[T]],
        on_applied: Callable[[T], None] | None = None,
    ) -> "asyncio.Future[T]":
        """Serialize a write through the queue, behind the open window.

        ``apply`` is awaited by the drain loop; ``on_applied`` then runs —
        still inside the drain loop, before any later batch or write — so
        writers can atomically invalidate in-flight coalesced futures the
        moment the update is visible.  Returns a future resolving to
        ``apply``'s result.
        """
        self._gate.admit()
        assert self._loop is not None, "scheduler not started"
        self._seal()
        self._writes += 1
        future: asyncio.Future[T] = self._loop.create_future()
        self._queue.put_nowait(("write", (apply, on_applied, future)))
        return future

    # ------------------------------------------------------------------
    # Window / drain machinery
    # ------------------------------------------------------------------
    def _seal(self) -> None:
        """Close the open batch window and queue it for dispatch."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._buffer:
            batch = self._buffer
            self._buffer = []
            self._max_batch_size = max(self._max_batch_size, len(batch))
            self._batch_sizes.observe(float(len(batch)))
            self._queue.put_nowait(("batch", batch))

    async def _drain(self) -> None:
        while True:
            kind, payload = await self._queue.get()
            try:
                if kind == "batch":
                    requests = payload
                    assert isinstance(requests, list)
                    try:
                        await self._dispatch(requests)
                    except Exception as exc:
                        for request in requests:
                            if not request.future.done():
                                request.future.set_exception(exc)
                    finally:
                        self._gate.release(len(requests))
                else:
                    apply, on_applied, future = payload  # type: ignore
                    try:
                        result = await apply()
                        if on_applied is not None:
                            on_applied(result)
                    except Exception as exc:
                        if not future.done():
                            future.set_exception(exc)
                    else:
                        if not future.done():
                            future.set_result(result)
                    finally:
                        self._gate.release()
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def snapshot(self) -> SchedulerStats:
        """An immutable snapshot of the queue counters."""
        batches = self._batch_sizes.count
        dispatched = int(self._batch_sizes.sum)
        return SchedulerStats(
            submitted=self._submitted,
            rejected=self._gate.rejected,
            batches=batches,
            dispatched=dispatched,
            writes=self._writes,
            pending=self._gate.pending,
            peak_pending=self._gate.peak_pending,
            max_batch_size=self._max_batch_size,
            mean_batch_size=dispatched / batches if batches else 0.0,
        )
