"""Per-synopsis serving telemetry, registry-backed.

The serving engine records, for every registered synopsis (and for the exact
fallback), how many queries it answered, how often the result cache hit, and
the observed latency distribution.  Since the unified observability layer
(:mod:`repro.obs`) landed, these counters are **the same objects** that the
Prometheus / JSON exporters scrape: when an
:class:`~repro.obs.Observability` registry is attached, ``record_hit`` /
``record_miss`` / ``record_invalidations`` write straight into registry
counters and histograms (``repro_serving_*``), and :meth:`snapshot` reads
them back — one write path, no per-exporter adapters.  Without a registry
the same counter classes are used standalone, so the snapshot API behaves
identically either way.

Latencies are additionally kept in a fixed-size ring buffer so snapshots can
report *exact* recent-window percentiles (the registry histogram reports
bucket-interpolated ones over all time).  Percentiles are computed over the
filled prefix of the ring buffer only — a partially-filled window must never
dilute the distribution with its zero initializer (regression-tested in
``tests/test_obs_integration.py``).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

import numpy as np

from repro.obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = ["ServingStats", "StatsSnapshot"]

#: Default number of latency observations retained per synopsis.
DEFAULT_LATENCY_WINDOW = 8192


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
        Exact latency percentiles over the retained window, in milliseconds;
        NaN before any miss was measured (cache hits are not timed).
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
    latency_window:
        Number of most-recent latency observations retained for the exact
        percentile estimates.
    registry:
        When given, counters and the latency histogram live in this metrics
        registry under ``repro_serving_*`` with a ``synopsis`` label; when
        None, standalone (unexported) instances of the same classes are
        used.
    synopsis:
        The ``synopsis`` label value used with a registry.
    """

    def __init__(
        self,
        latency_window: int = DEFAULT_LATENCY_WINDOW,
        registry: MetricsRegistry | None = None,
        synopsis: str = "",
    ) -> None:
        if latency_window <= 0:
            raise ValueError("latency_window must be positive")
        self._lock = threading.Lock()
        self._latencies = np.zeros(latency_window, dtype=float)
        self._latency_count = 0
        if registry is not None:
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
            self._latency_histogram: Histogram | None = registry.histogram(
                "repro_serving_query_latency_seconds",
                "Latency of queries that executed against the synopsis.",
                labels,
            )
        else:
            self._hits = Counter("repro_serving_cache_hits_total")
            self._misses = Counter("repro_serving_cache_misses_total")
            self._invalidations = Counter("repro_serving_invalidations_total")
            self._latency_histogram = None

    def record_hit(self) -> None:
        """Count a query answered from the result cache."""
        self._hits.inc()

    def record_hits(self, n: int) -> None:
        """Count ``n`` cache hits in one counter update (batch hot path)."""
        if n > 0:
            self._hits.inc(float(n))

    def record_miss(self, latency_seconds: float) -> None:
        """Count a query that executed against the synopsis."""
        self._misses.inc()
        if self._latency_histogram is not None:
            self._latency_histogram.observe(latency_seconds)
        with self._lock:
            slot = self._latency_count % self._latencies.shape[0]
            self._latencies[slot] = latency_seconds
            self._latency_count += 1

    def record_misses(self, n: int, latency_seconds: float) -> None:
        """Count ``n`` misses sharing one amortized latency (batch hot path).

        The batch path divides a window's execution time evenly
        across its misses, so all ``n`` observations carry the same value —
        one counter update, one histogram update, and one ring-buffer fill
        replace ``n`` of each.
        """
        if n <= 0:
            return
        self._misses.inc(float(n))
        if self._latency_histogram is not None:
            self._latency_histogram.observe_n(latency_seconds, n)
        with self._lock:
            window = self._latencies.shape[0]
            count = self._latency_count
            for _ in range(min(n, window)):
                self._latencies[count % window] = latency_seconds
                count += 1
            self._latency_count = count + max(n - window, 0)

    def record_invalidations(self, count: int) -> None:
        """Count cached results dropped by a dynamic update."""
        self._invalidations.inc(count)

    def snapshot(self, staleness: float = 0.0) -> StatsSnapshot:
        """An immutable snapshot of the counters (plus the given staleness).

        Percentiles are computed over the *filled prefix* of the latency
        ring buffer: before the window wraps, only ``latency_count``
        observations exist and the zero-initialized remainder must not be
        fed to ``np.percentile``.
        """
        with self._lock:
            window = min(self._latency_count, self._latencies.shape[0])
            if window:
                p50, p95, p99 = np.percentile(
                    self._latencies[:window], [50.0, 95.0, 99.0]
                )
                p50_ms, p95_ms, p99_ms = (
                    float(p50) * 1e3,
                    float(p95) * 1e3,
                    float(p99) * 1e3,
                )
            else:
                p50_ms = p95_ms = p99_ms = float("nan")
        hits = int(self._hits.value)
        misses = int(self._misses.value)
        queries = hits + misses
        return StatsSnapshot(
            queries=queries,
            cache_hits=hits,
            cache_misses=misses,
            hit_rate=hits / queries if queries else 0.0,
            p50_latency_ms=p50_ms,
            p95_latency_ms=p95_ms,
            p99_latency_ms=p99_ms,
            invalidations=int(self._invalidations.value),
            staleness=staleness,
        )
