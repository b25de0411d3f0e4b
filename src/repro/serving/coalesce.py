"""In-flight request coalescing for the async serving tier.

Dashboard traffic is duplicate-heavy: when hundreds of clients refresh the
same panel, the serving tier receives many *concurrent* copies of one
canonical query.  A result cache only helps once an answer exists; while the
first copy is still executing, every further copy would redundantly execute
too.  The :class:`RequestCoalescer` closes that gap: requests deduplicate by
canonical cache key (:meth:`AggregateQuery.cache_key` plus the routing
table), so N concurrent identical queries share one
:class:`asyncio.Future` and the synopsis does the work once.

Writers interact with coalescing the same way they interact with the result
cache (PR-1 box-overlap invalidation): after an update lands, any in-flight
future whose predicate region overlaps the updated partition is *detached*
from the registry.  Waiters already attached keep their future — they
arrived before the write, so serving them the pre-write answer is
linearizable — while requests arriving after the write start a fresh
execution that observes the post-write synopsis.

The coalescer is an event-loop-local object: every method must be called
from the owning loop's thread (the async engine guarantees this), which is
why no locks appear here.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs.tracing import Span
    from repro.query.predicate import Box
    from repro.query.query import AggregateQuery

__all__ = ["CoalescedRequest", "RequestCoalescer"]

#: A coalescing key: (routing table name, canonical query key).
CoalesceKey = tuple


class CoalescedRequest:
    """One canonical in-flight execution and the future its waiters share.

    Attributes
    ----------
    key:
        The canonical coalescing key ``(table, query.cache_key())``.
    query / table:
        The representative query (all joiners are canonically equal).
    future:
        The shared :class:`asyncio.Future` resolved with the
        :class:`~repro.result.AQPResult` (or failed with the execution
        error) exactly once.
    waiters:
        Number of requests attached to the future (1 for the leader).
    span:
        The leader's root trace span, carried explicitly across the
        scheduler boundary — ``loop.run_in_executor`` does not copy the
        client coroutine's contextvars, so the dispatch path re-activates
        this handle instead (None when tracing is disabled).
    enqueued_s:
        ``time.perf_counter()`` at scheduler admission; dispatch backdates
        the request's queue-wait span from it (0.0 when untraced).
    """

    __slots__ = ("key", "query", "table", "future", "waiters", "span", "enqueued_s")

    def __init__(
        self,
        key: CoalesceKey,
        query: "AggregateQuery",
        table: str | None,
        future: "asyncio.Future[object]",
    ) -> None:
        self.key = key
        self.query = query
        self.table = table
        self.future = future
        self.waiters = 1
        self.span: "Span | None" = None
        self.enqueued_s = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.future.done() else "pending"
        return f"CoalescedRequest({self.key!r}, waiters={self.waiters}, {state})"


class RequestCoalescer:
    """Deduplicates concurrent canonically-equal queries onto shared futures."""

    def __init__(self) -> None:
        self._inflight: dict[CoalesceKey, CoalescedRequest] = {}
        self._joined = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def __iter__(self) -> Iterator[CoalescedRequest]:
        return iter(self._inflight.values())

    @property
    def joined(self) -> int:
        """Total requests that attached to an existing in-flight future."""
        return self._joined

    def admit(
        self,
        query: "AggregateQuery",
        table: str | None,
        loop: asyncio.AbstractEventLoop,
    ) -> tuple[CoalescedRequest, bool]:
        """Join the in-flight execution for a query, or lead a new one.

        Returns ``(request, is_leader)``: the leader is responsible for
        scheduling the execution and resolving the shared future; followers
        just await it.
        """
        key = (table, query.cache_key())
        existing = self._inflight.get(key)
        if existing is not None and not existing.future.done():
            existing.waiters += 1
            self._joined += 1
            return existing, False
        request = CoalescedRequest(key, query, table, loop.create_future())
        self._inflight[key] = request
        return request, True

    def detach(self, request: CoalescedRequest) -> None:
        """Stop offering a request for coalescing (resolution still pending).

        A no-op when the registry has already moved on (e.g. the request was
        detached by a writer and a fresh execution now owns the key).
        """
        if self._inflight.get(request.key) is request:
            del self._inflight[request.key]

    def invalidate_overlapping(self, box: "Box") -> int:
        """Detach every in-flight future whose region overlaps ``box``.

        Mirrors the result cache's box-overlap invalidation: predicates with
        no constraints cover everything and always overlap.  Detached
        executions still resolve for the waiters that already joined (they
        arrived before the write); post-write arrivals re-execute.  Returns
        the number of futures detached.
        """
        doomed = []
        for request in self._inflight.values():
            predicate = request.query.predicate
            if len(predicate) == 0 or predicate.overlaps_box(box):
                doomed.append(request)
        for request in doomed:
            del self._inflight[request.key]
        return len(doomed)
