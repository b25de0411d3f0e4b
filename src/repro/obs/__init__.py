"""Unified observability for the serving stack: metrics, traces, query log.

One :class:`Observability` object is shared by every layer of a serving
deployment — the synchronous :class:`~repro.serving.engine.ServingEngine`,
the asyncio tier, the micro-batch scheduler, the catalog's router, the
distributed shard router, and the vectorized execution core all record into
the same three instruments:

* a **metrics registry** (:mod:`repro.obs.metrics`) of counters, gauges, and
  fixed-bucket latency histograms, exported as Prometheus text or JSON;
* a **tracer** (:mod:`repro.obs.tracing`) whose spans decompose one query
  into per-stage durations (coalesce → enqueue → batch window → plan
  compile → frontier descent → per-query execute → cache store) and
  carry tree statistics such as ``nodes_visited`` and frontier sizes;
* a **structured query log** (:mod:`repro.obs.querylog`) with one bounded
  record per request — the substrate workload-adaptive repartitioning mines.

Wiring is explicit and optional::

    obs = Observability()
    engine = ServingEngine(catalog, obs=obs)
    async with AsyncServingEngine(engine) as tier:   # inherits engine's obs
        await tier.execute(query)
    print(obs.prometheus_text())
    for span in obs.tracer.slowest(5):
        print(span.render())

Passing no ``obs`` leaves a layer on the shared disabled singleton
(:meth:`Observability.disabled`), where every instrument call is a no-op on
a preallocated null object — the instrumentation overhead of a disabled
stack is a handful of attribute accesses per query, measured and gated by
``bench_async_serving.py``'s ``obs_overhead_pct`` metric.
"""

from __future__ import annotations

from repro.obs.export import (
    ExpositionError,
    json_snapshot,
    prometheus_text,
    validate_exposition,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.quality import (
    QualityScorecard,
    QualityStore,
    QualityThresholds,
)
from repro.obs.querylog import NullQueryLog, QueryLog, QueryLogRecord
from repro.obs.tracing import NullSpan, NullTracer, Span, Tracer

__all__ = [
    "Observability",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "Tracer",
    "NullTracer",
    "Span",
    "NullSpan",
    "QueryLog",
    "NullQueryLog",
    "QueryLogRecord",
    "QualityScorecard",
    "QualityStore",
    "QualityThresholds",
    "prometheus_text",
    "validate_exposition",
    "json_snapshot",
    "ExpositionError",
]


class Observability:
    """The shared observability context of one serving deployment.

    Parameters
    ----------
    enabled:
        False builds the object on the no-op instruments (prefer the shared
        :meth:`disabled` singleton on hot paths).
    max_traces:
        Finished root spans retained by the tracer.
    query_log_capacity:
        Records retained by the structured query log.
    trace_sample_rate:
        Fraction of serving requests that get a per-request span tree
        (head sampling, rounded to a deterministic 1-in-N period).  Metrics
        and the query log always cover every request; only the span tree —
        the expensive instrument — is sampled.  The default traces one
        request in 64 (a deliberately serving-scale default — span trees
        are for drill-down, not accounting — and what keeps measured
        instrumentation overhead inside the benchmark's 5% gate); pass
        ``1.0`` for full-fidelity tracing in tests and debugging sessions.
    """

    __slots__ = ("_enabled", "_metrics", "_tracer", "_query_log", "_quality")

    _disabled_singleton: "Observability | None" = None

    def __init__(
        self,
        enabled: bool = True,
        max_traces: int = 512,
        query_log_capacity: int = 2048,
        trace_sample_rate: float = 1.0 / 64.0,
    ) -> None:
        if not 0.0 < trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be in (0, 1]")
        self._enabled = enabled
        if enabled:
            self._metrics: MetricsRegistry | NullRegistry = MetricsRegistry()
            self._tracer: Tracer | NullTracer = Tracer(
                max_traces=max_traces,
                sample_every=max(1, round(1.0 / trace_sample_rate)),
            )
            self._query_log: QueryLog | NullQueryLog = QueryLog(
                capacity=query_log_capacity
            )
            self._quality = QualityStore(self._metrics)
        else:
            self._metrics = NullRegistry()
            self._tracer = NullTracer()
            self._query_log = NullQueryLog()
            self._quality = QualityStore(None)

    @classmethod
    def disabled(cls) -> "Observability":
        """The shared no-op instance layers default to when no obs is wired."""
        if cls._disabled_singleton is None:
            cls._disabled_singleton = cls(enabled=False)
        return cls._disabled_singleton

    @property
    def enabled(self) -> bool:
        """True when real instruments back this object."""
        return self._enabled

    @property
    def metrics(self) -> MetricsRegistry | NullRegistry:
        """The metrics registry."""
        return self._metrics

    @property
    def tracer(self) -> Tracer | NullTracer:
        """The span tracer."""
        return self._tracer

    @property
    def query_log(self) -> QueryLog | NullQueryLog:
        """The structured query log."""
        return self._query_log

    @property
    def quality(self) -> QualityStore:
        """The per-synopsis quality scorecard store."""
        return self._quality

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def prometheus_text(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        return prometheus_text(self._metrics)

    def json_snapshot(self, slowest: int = 5, tail: int = 50) -> dict:
        """Metrics + slowest traces + query-log tail as a JSON-ready dict."""
        return json_snapshot(self, slowest=slowest, tail=tail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self._enabled else "disabled"
        return f"Observability({state})"
