"""Per-synopsis serving telemetry, registry-backed.

The serving engine records, for every registered synopsis (and for the exact
fallback), how many queries it answered, how often the result cache hit, and
the observed latency distribution.  Every number has one store: the
registry instruments (``repro_serving_*``) the Prometheus / JSON exporters
scrape.  ``record_*`` write straight into them and :meth:`snapshot` reads
them back; without an :class:`~repro.obs.Observability` registry the same
instruments live in a private one, so the snapshot API behaves identically
either way.  In particular a snapshot's latency percentiles are
:meth:`Histogram.percentiles` of the latency histogram — bucket-interpolated
over all time, not exact over a recent window.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.obs.metrics import MetricsRegistry

__all__ = ["ServingStats", "StatsSnapshot"]


@dataclass(frozen=True)
class StatsSnapshot:
    """An immutable snapshot of one synopsis' serving counters.

    Attributes
    ----------
    queries:
        Total queries routed to the synopsis (hits + misses).
    cache_hits / cache_misses:
        Result-cache outcomes.
    hit_rate:
        ``cache_hits / queries`` (0.0 before any traffic).
    p50_latency_ms / p95_latency_ms / p99_latency_ms:
        Latency percentiles in milliseconds, interpolated inside the
        latency histogram's buckets over every miss since start; NaN before
        any miss was measured (cache hits are not timed).
    invalidations:
        Cached results dropped because a dynamic update touched their region.
    staleness:
        The synopsis' update-drift ratio at snapshot time (0.0 for static
        synopses; see :attr:`repro.core.updates.DynamicPASS.staleness`).
    """

    queries: int
    cache_hits: int
    cache_misses: int
    hit_rate: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    invalidations: int
    staleness: float

    def as_dict(self) -> dict[str, float | int]:
        """Field-name-keyed dict view; the exporters' uniform interface.

        Every snapshot type in the serving stack (:class:`StatsSnapshot`,
        :class:`~repro.serving.scheduler.SchedulerStats`,
        :class:`~repro.serving.async_engine.AsyncServingStats`,
        :class:`~repro.distributed.router.ShardUpdateStats`) exposes the
        same ``as_dict()`` contract: plain snake_case keys, units suffixed
        (``*_ms``), scalar values only.
        """
        return asdict(self)


class ServingStats:
    """Thread-safe serving counters for one synopsis.

    Parameters
    ----------
    registry:
        The metrics registry the counters and the latency histogram live in,
        under ``repro_serving_*`` with a ``synopsis`` label.  None uses a
        private (unexported) registry: the same instruments, standalone.
    synopsis:
        The ``synopsis`` label value.
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, synopsis: str = ""
    ) -> None:
        if registry is None:
            registry = MetricsRegistry()
        labels = {"synopsis": synopsis}
        self._hits = registry.counter(
            "repro_serving_cache_hits_total",
            "Queries answered from the result cache.",
            labels,
        )
        self._misses = registry.counter(
            "repro_serving_cache_misses_total",
            "Queries executed against the synopsis.",
            labels,
        )
        self._invalidations = registry.counter(
            "repro_serving_invalidations_total",
            "Cached results dropped by dynamic-update box overlap.",
            labels,
        )
        self._latency = registry.histogram(
            "repro_serving_query_latency_seconds",
            "Latency of queries that executed against the synopsis.",
            labels,
        )

    def record_hits(self, n: int = 1) -> None:
        """Count ``n`` queries answered from the result cache."""
        self._hits.inc(n)

    def record_misses(self, n: int, latency_seconds: float) -> None:
        """Count ``n`` queries that executed against the synopsis.

        A batch divides its execution time evenly across its misses, so all
        ``n`` observations carry the same latency: one counter update and
        one histogram update, whatever ``n``.
        """
        self._misses.inc(n)
        self._latency.observe_n(latency_seconds, n)

    def record_invalidations(self, count: int) -> None:
        """Count cached results dropped by a dynamic update."""
        self._invalidations.inc(count)

    def snapshot(self, staleness: float = 0.0) -> StatsSnapshot:
        """An immutable snapshot of the counters (plus the given staleness)."""
        p50, p95, p99 = self._latency.percentiles()
        hits = int(self._hits.value)
        misses = int(self._misses.value)
        queries = hits + misses
        return StatsSnapshot(
            queries=queries,
            cache_hits=hits,
            cache_misses=misses,
            hit_rate=hits / queries if queries else 0.0,
            p50_latency_ms=p50 * 1e3,
            p95_latency_ms=p95 * 1e3,
            p99_latency_ms=p99 * 1e3,
            invalidations=int(self._invalidations.value),
            staleness=staleness,
        )
