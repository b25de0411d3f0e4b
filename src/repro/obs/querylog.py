"""The structured query log: one bounded record per served *execution*.

This is the workload-introspection substrate the self-tuning roadmap item
mines: every cache probe, execution, and rejection that traverses the
serving stack leaves one :class:`QueryLogRecord` carrying *what* was asked
(canonical key, predicate box, aggregate), *who* answered it (synopsis id,
cache / coalesce outcome), *how long* each stage took, and *how good* the
answer was (error-bound width, exactness, staleness at answer time).
Concurrent duplicates that coalesced onto one in-flight execution are
summarized on a single ``coalesced`` record whose ``coalesced_waiters``
carries their count — the traffic weight is preserved without paying one
record per duplicate on the hot path.  A background optimizer can replay
:meth:`QueryLog.boxes` against a candidate partitioning without ever having
seen the live traffic.

The log is a thread-safe ring buffer: appends are O(1), memory is bounded by
``capacity``, and ``total`` keeps counting after old records are evicted so
hit-rate style ratios stay correct over the full process lifetime.  Hot
paths append *raw payload tuples* (:meth:`QueryLog.append_raw`) holding the
query object itself; the canonical key, predicate box, and aggregate label
are derived lazily when the log is read, so the serving thread never pays
for fields only an offline miner looks at.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.query.query import AggregateQuery

__all__ = ["QueryLogRecord", "QueryLog", "NullQueryLog", "agg_label"]

#: Cache / coalesce outcomes a record can carry.
OUTCOMES = ("cache_hit", "miss", "coalesced", "rejected", "error")


def agg_label(query: "AggregateQuery") -> str:
    """The aggregate's display name for telemetry (``QUANTILE(0.95)`` etc.)."""
    if query.quantile is not None:
        return f"{query.agg.value}({query.quantile:g})"
    return query.agg.value


@dataclass(slots=True)
class QueryLogRecord:
    """One served request, fully described.

    Records are written once per request on the serving hot path, so the
    class trades ``frozen=True``'s enforcement for ``slots=True``'s ~6x
    cheaper construction; treat instances as immutable by convention.

    Attributes
    ----------
    timestamp:
        Unix time the record was written.
    table / synopsis:
        Routing table name and the synopsis that answered (``__exact__`` for
        the fallback scan; empty for rejected / coalesced requests).
    agg:
        Aggregate name (``SUM``, ``P95``, ...).
    cache_key:
        The query's canonical key — join against result-cache telemetry.
    predicate_box:
        Canonical ``(column, low, high)`` triples of the predicate — the
        query box a workload-adaptive repartitioner optimizes for.
    outcome:
        One of ``cache_hit`` / ``miss`` / ``coalesced`` / ``rejected`` /
        ``error``.
    total_ms:
        End-to-end latency observed by the recording layer.
    stages_ms:
        Per-stage durations (span taxonomy names); batch-shared stages carry
        the batch's duration.
    error_bound_half_width:
        The answer's CLT half-width (NaN when unavailable or rejected).
    hard_bound_width:
        ``hard_upper - hard_lower`` of the answer (inf when unbounded).
    staleness:
        The serving synopsis' update drift at answer time.
    exact:
        True when the answer was exact.
    trace_id:
        The trace carrying the request's span tree (0 when untraced — the
        request fell outside the tracer's head-sampling period).
    coalesced_waiters:
        Concurrent duplicate requests that shared this record's execution
        (0 for ordinary records) — the traffic weight of the query box
        beyond the record itself.
    """

    timestamp: float
    table: str | None
    synopsis: str
    agg: str
    cache_key: tuple
    predicate_box: tuple[tuple[str, float, float], ...]
    outcome: str
    total_ms: float
    stages_ms: Mapping[str, float] = field(default_factory=dict)
    error_bound_half_width: float = float("nan")
    hard_bound_width: float = float("inf")
    staleness: float = 0.0
    exact: bool = False
    trace_id: int = 0
    coalesced_waiters: int = 0

    def as_dict(self) -> dict[str, object]:
        """A JSON-ready dict view of the record."""
        return {
            "timestamp": self.timestamp,
            "table": self.table,
            "synopsis": self.synopsis,
            "agg": self.agg,
            "cache_key": repr(self.cache_key),
            "predicate_box": [list(interval) for interval in self.predicate_box],
            "outcome": self.outcome,
            "total_ms": self.total_ms,
            "stages_ms": dict(self.stages_ms),
            "error_bound_half_width": self.error_bound_half_width,
            "hard_bound_width": self.hard_bound_width,
            "staleness": self.staleness,
            "exact": self.exact,
            "trace_id": self.trace_id,
            "coalesced_waiters": self.coalesced_waiters,
        }


#: Index of the outcome field in a raw payload tuple (see ``append_raw``).
_RAW_OUTCOME = 4
#: Index of the coalesced-waiters field in a raw payload tuple.
_RAW_WAITERS = 10


def _materialize(entry: "QueryLogRecord | tuple") -> QueryLogRecord:
    """Expand a raw payload tuple into a full record (reads only).

    A payload is ``(timestamp, table, synopsis, query, outcome, total_ms,
    stages_ms, result, staleness, trace_id, coalesced_waiters)``: the query
    object stands in for the three fields derived from it, and the
    (immutable) result object — None for rejections — stands in for the
    bound widths and exactness.
    """
    if type(entry) is QueryLogRecord:
        return entry
    (ts, table, synopsis, query, outcome, total_ms, stages_ms,
     result, staleness, trace_id, waiters) = entry
    if result is not None:
        half_width = result.ci_half_width
        hard_width = result.hard_upper - result.hard_lower
        exact = result.exact
    else:
        half_width = float("nan")
        hard_width = float("inf")
        exact = False
    return QueryLogRecord(
        ts,
        table,
        synopsis,
        agg_label(query),
        query.cache_key(),
        query.predicate.canonical_key(),
        outcome,
        total_ms,
        stages_ms,
        half_width,
        hard_width,
        staleness,
        exact,
        trace_id,
        waiters,
    )


class QueryLog:
    """Bounded, thread-safe ring buffer of :class:`QueryLogRecord`.

    Writers may append full records or raw payload tuples
    (:meth:`append_raw` / :meth:`extend_raw`); payloads are materialized
    into records lazily on the read paths, keeping the serving hot path to
    one tuple pack and one deque append.
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._records: deque["QueryLogRecord | tuple"] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._total = 0
        self._capacity = capacity

    @property
    def capacity(self) -> int:
        """Maximum retained records."""
        return self._capacity

    @property
    def total(self) -> int:
        """Records ever appended (keeps counting past eviction)."""
        return self._total

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def append(self, record: QueryLogRecord) -> None:
        """Append one record (evicting the oldest at capacity)."""
        if record.outcome not in OUTCOMES:
            raise ValueError(
                f"unknown outcome {record.outcome!r}; expected one of {OUTCOMES}"
            )
        with self._lock:
            self._records.append(record)
            self._total += 1

    def extend(self, records: Iterable[QueryLogRecord]) -> None:
        """Append many records under one lock acquisition.

        The batch execution path logs one record per miss from the executor
        thread while the event loop logs coalesce records concurrently;
        amortizing the lock over the whole batch keeps the two threads from
        serializing on per-record acquisitions.
        """
        records = list(records)
        for record in records:
            if record.outcome not in OUTCOMES:
                raise ValueError(
                    f"unknown outcome {record.outcome!r}; expected one of {OUTCOMES}"
                )
        with self._lock:
            self._records.extend(records)
            self._total += len(records)

    def append_raw(self, payload: tuple) -> None:
        """Append one raw payload tuple (see :func:`_materialize`).

        The serving hot path's write primitive: the payload carries the
        query object, and the canonical key / predicate box / aggregate
        label are derived only when the log is read.
        """
        if payload[_RAW_OUTCOME] not in OUTCOMES:
            raise ValueError(
                f"unknown outcome {payload[_RAW_OUTCOME]!r}; "
                f"expected one of {OUTCOMES}"
            )
        with self._lock:
            self._records.append(payload)
            self._total += 1

    def extend_raw(self, payloads: Iterable[tuple]) -> None:
        """Append many raw payloads under one lock acquisition.

        The batch execution path logs one payload per miss from the executor
        thread while the event loop appends concurrently; amortizing the
        lock over the whole batch keeps the two threads from serializing on
        per-record acquisitions.
        """
        payloads = list(payloads)
        for payload in payloads:
            if payload[_RAW_OUTCOME] not in OUTCOMES:
                raise ValueError(
                    f"unknown outcome {payload[_RAW_OUTCOME]!r}; "
                    f"expected one of {OUTCOMES}"
                )
        with self._lock:
            self._records.extend(payloads)
            self._total += len(payloads)

    def records(self) -> list[QueryLogRecord]:
        """Every retained record, oldest first."""
        with self._lock:
            entries = list(self._records)
        return [_materialize(entry) for entry in entries]

    def tail(self, n: int) -> list[QueryLogRecord]:
        """The most recent ``n`` records, oldest first."""
        with self._lock:
            entries = list(self._records)[-n:] if n > 0 else []
        return [_materialize(entry) for entry in entries]

    def boxes(self) -> list[tuple[tuple[str, float, float], ...]]:
        """The retained query boxes — the repartitioner's training set.

        Boxes are expanded by their traffic weight: a ``coalesced`` summary
        record carrying ``coalesced_waiters == k`` contributes ``k`` extra
        copies of its box, so consumers that train on ``boxes()`` see the
        stampede's true demand instead of one record per sealed execution.
        """
        result: list[tuple[tuple[str, float, float], ...]] = []
        for box, weight in self.weighted_boxes():
            result.extend([box] * weight)
        return result

    def weighted_boxes(
        self,
    ) -> list[tuple[tuple[tuple[str, float, float], ...], int]]:
        """``(box, weight)`` pairs where weight is ``1 + coalesced_waiters``.

        The memory-proportional form of :meth:`boxes` for miners (drift
        detection, repartitioning) that can consume weights directly.
        """
        with self._lock:
            entries = list(self._records)
        pairs: list[tuple[tuple[tuple[str, float, float], ...], int]] = []
        for entry in entries:
            if type(entry) is QueryLogRecord:
                pairs.append((entry.predicate_box, 1 + entry.coalesced_waiters))
            else:
                box = entry[3].predicate.canonical_key()
                pairs.append((box, 1 + entry[_RAW_WAITERS]))
        return pairs

    def weighted_records(self) -> list[tuple[QueryLogRecord, int]]:
        """``(record, weight)`` pairs with weight ``1 + coalesced_waiters``."""
        return [
            (record, 1 + record.coalesced_waiters) for record in self.records()
        ]

    def outcome_counts(self) -> dict[str, int]:
        """Retained records grouped by outcome."""
        counts: dict[str, int] = {}
        with self._lock:
            for entry in self._records:
                outcome = (
                    entry.outcome
                    if type(entry) is QueryLogRecord
                    else entry[_RAW_OUTCOME]
                )
                counts[outcome] = counts.get(outcome, 0) + 1
        return counts

    def clear(self) -> None:
        """Drop every retained record (``total`` keeps its value)."""
        with self._lock:
            self._records.clear()


class NullQueryLog:
    """Query-log stand-in for the disabled fast path."""

    capacity = 0
    total = 0

    def __len__(self) -> int:
        return 0

    def append(self, record: QueryLogRecord) -> None:
        """Discard the record."""

    def extend(self, records: Iterable[QueryLogRecord]) -> None:
        """Discard the records."""

    def append_raw(self, payload: tuple) -> None:
        """Discard the payload."""

    def extend_raw(self, payloads: Iterable[tuple]) -> None:
        """Discard the payloads."""

    def records(self) -> list[QueryLogRecord]:
        """Always empty."""
        return []

    def tail(self, n: int) -> list[QueryLogRecord]:
        """Always empty."""
        return []

    def boxes(self) -> list[tuple[tuple[str, float, float], ...]]:
        """Always empty."""
        return []

    def weighted_boxes(
        self,
    ) -> list[tuple[tuple[tuple[str, float, float], ...], int]]:
        """Always empty."""
        return []

    def weighted_records(self) -> list[tuple[QueryLogRecord, int]]:
        """Always empty."""
        return []

    def outcome_counts(self) -> dict[str, int]:
        """Always empty."""
        return {}

    def clear(self) -> None:
        """Nothing to drop."""
