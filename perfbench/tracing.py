"""The harness's own span recorder, wrapped around public entry points.

The traced run (``--trace 1``) attributes request time to layers **from
outside**: :class:`SpanRecorder` replaces a public function or method with a
wrapper that records one span per call — name, start, end, the span that
caused it and the request it belongs to — and restores the original on
:meth:`SpanRecorder.uninstall`.  Nothing under ``src/`` is edited.

The current span lives in a :class:`contextvars.ContextVar`, so nesting is
tracked per thread *and* per asyncio task (64 interleaved coroutine clients
each keep their own parent chain).  Work that hops to another thread without
copying the context — ``loop.run_in_executor`` in the async tier, the HTTP
server's handler threads — starts a fresh root there; those spans carry no
request id and are attributed by name only.

A span's **self time** is its duration minus the time covered by its direct
children.  Children of one span run sequentially inside one context, so the
covered time is the sum of their durations.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

__all__ = ["Span", "SpanRecorder", "REQUEST"]

#: Name of the root span the harness opens around every generated request.
REQUEST = "request"

#: Spans written to ``trace_<workload>.json`` (the per-name summary always
#: covers every span; the cap only bounds the file size).
MAX_SPANS_WRITTEN = 20_000

#: The active span of this thread / task as ``(span id, request id)``.
_CURRENT: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
    "perfbench_current_span", default=None
)

#: Parent / request id of a span that has none.
NONE = -1


class Span(NamedTuple):
    """One recorded call: name, interval, causing span, owning request.

    Spans hold only numbers and an interned name — no object references — so
    the garbage collector stops tracking them after one look and a long
    traced pass does not slow down as the span list grows.
    """

    id: int
    name: str
    start: float
    end: float
    parent: int
    request: int


def _in_microseconds(summary: dict) -> dict:
    return {
        name: {
            "calls": row["calls"],
            "total_us": row["total_s"] * 1e6,
            "self_us": row["self_s"] * 1e6,
        }
        for name, row in sorted(summary.items())
    }


class SpanRecorder:
    """Records spans around wrapped callables and sums counts beside them.

    ``counts`` holds work counters read from public results at the same
    boundaries the spans are taken at (``nodes_visited``, partial leaves,
    sample rows, batch slots...), so ratios are measured where the work
    happens; ``samples`` holds per-event values (queue waits).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._targets: list[tuple[object, str, str, Callable | None]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def target(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Callable[[str, float, tuple, object], None] | None = None,
    ) -> None:
        """Register ``owner.attr`` (a class or a module) for wrapping as ``name``.

        ``on_result(name, start, args, result)`` runs after a successful call
        and is where counts are read from the public arguments and result.
        """
        self._targets.append((owner, attr, name, on_result))

    def install(self) -> None:
        """Replace every registered target with its recording wrapper.

        A module-level function is replaced in every loaded module that
        imported it by name, so ``from repro.core.builder import build_pass``
        call sites are traced too.
        """
        if self._patched:
            return
        for owner, attr, name, on_result in self._targets:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                holders = [owner]
            else:
                original = getattr(owner, attr)
                holders = [
                    module
                    for module in list(sys.modules.values())
                    if getattr(module, "__dict__", {}).get(attr) is original
                ]
            wrapper = self._wrap(original, name, on_result, root=False)
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original callable."""
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def request(self, call: Callable) -> Callable:
        """Wrap a workload's request function in a fresh ``request`` root span."""
        return self._wrap(call, REQUEST, None, root=True)

    def _wrap(self, original, name: str, on_result, root: bool):
        spans = self.spans
        current = _CURRENT
        clock = time.perf_counter
        ids = self._ids

        def open_span():
            span_id = next(ids)
            if root:
                parent, request = NONE, span_id
            else:
                parent, request = current.get() or (NONE, NONE)
            return span_id, parent, request, current.set((span_id, request))

        if asyncio.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                span_id, parent, request, token = open_span()
                start = clock()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    spans.append(Span(span_id, name, start, clock(), parent, request))
                    current.reset(token)
                if on_result is not None:
                    on_result(name, start, args, result)
                return result

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id, parent, request, token = open_span()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans.append(Span(span_id, name, start, clock(), parent, request))
                current.reset(token)
            if on_result is not None:
                on_result(name, start, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start afresh (counts too).

        Called between set-up and the traced passes, so that warm-up calls do
        not dilute the per-call figures of the timed requests.
        """
        taken, self.spans = self.spans, []
        self.counts.clear()
        self.samples.clear()
        return taken

    @staticmethod
    def summary(spans: list[Span]) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        covered: defaultdict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent != NONE:
                covered[span.parent] += span.end - span.start
        table: dict[str, dict[str, float]] = {}
        for span in spans:
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[span.id]
        return table

    def write(self, path, workload: str, summary: dict, setup_summary: dict) -> None:
        """Write the summaries, the counts and the first request spans as JSON."""
        # Ids are handed out at call time, so id order is start order and a
        # written span's parent is always written too.
        ordered = sorted(self.spans)[:MAX_SPANS_WRITTEN]
        origin = ordered[0].start if ordered else 0.0
        rows = [
            {
                "id": span.id,
                "name": span.name,
                "start_us": (span.start - origin) * 1e6,
                "end_us": (span.end - origin) * 1e6,
                "parent": None if span.parent == NONE else span.parent,
                "request": None if span.request == NONE else span.request,
            }
            for span in ordered
        ]
        document = {
            "workload": workload,
            "span_count": len(self.spans),
            "spans_written": len(rows),
            "summary": _in_microseconds(summary),
            "setup_summary": _in_microseconds(setup_summary),
            "counts": dict(sorted(self.counts.items())),
            "spans": rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document) + "\n")
