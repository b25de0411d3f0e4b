"""Lock-cheap metrics primitives and the process-wide metrics registry.

Three Prometheus-shaped instrument types cover everything the serving stack
counts:

* :class:`Counter` — a monotone total (queries served, cache hits, rejected
  requests).  Incrementing takes one small lock, so concurrent readers and
  executor threads never lose counts.
* :class:`Gauge` — a value that goes up and down (queue depth, in-flight
  coalesced executions) or is computed at scrape time via
  :meth:`Gauge.set_function` (cache occupancy, shard staleness).
* :class:`Histogram` — a fixed-bucket latency distribution with exact
  ``sum`` / ``count`` and p50 / p95 / p99 estimated by linear interpolation
  inside the owning bucket, so a long-running server's latency telemetry
  costs O(buckets) memory yet still yields usable tail percentiles.

The :class:`MetricsRegistry` owns metric *families* (one HELP / TYPE pair
per name) and hands out label-addressed children.  Hot paths are expected to
look a child up once and keep the handle — after that, recording an
observation is one lock plus one arithmetic op, and the disabled fast path
(:class:`NullRegistry`, used by ``Observability.disabled()``) reduces every
call to an attribute access on a shared no-op singleton.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Callable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "validate_metric_name",
    "validate_label_name",
]

#: Exponential latency buckets (seconds) from 10 microseconds to 10 seconds,
#: wide enough for both a cache hit and a cold grouped request.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.00001,
    0.000025,
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")
_LABEL_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def validate_metric_name(name: str) -> str:
    """Validate a Prometheus metric name; returns it unchanged."""
    if not name or name[0].isdigit() or not set(name) <= _NAME_CHARS:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def validate_label_name(name: str) -> str:
    """Validate a Prometheus label name; returns it unchanged."""
    if (
        not name
        or name[0].isdigit()
        or name.startswith("__")
        or not set(name) <= _LABEL_CHARS
    ):
        raise ValueError(f"invalid label name {name!r}")
    return name


def _frozen_labels(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(
        (validate_label_name(key), str(value)) for key, value in sorted(labels.items())
    )


class Counter:
    """A monotone counter; ``inc`` is thread-safe and rejects negative deltas."""

    __slots__ = ("name", "labels", "_value", "_function", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None) -> None:
        self.name = validate_metric_name(name)
        self.labels = _frozen_labels(labels)
        self._value = 0.0
        self._function: Callable[[], float] | None = None
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add a non-negative amount to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    def set_function(self, function: Callable[[], float] | None) -> None:
        """Read the total from a callback at scrape time.

        The hot-path alternative to per-event ``inc``: when a layer already
        maintains its own monotone tally (e.g. the coalescer's join count),
        mirroring it lazily costs the hot path nothing.  The callback must be
        monotone non-decreasing to keep Prometheus counter semantics.
        """
        self._function = function

    @property
    def value(self) -> float:
        """The current total (evaluating the callback when one is set)."""
        function = self._function
        if function is not None:
            return float(function())
        return self._value


class Gauge:
    """A settable value, optionally computed at read time by a callback."""

    __slots__ = ("name", "labels", "_value", "_function", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None) -> None:
        self.name = validate_metric_name(name)
        self.labels = _frozen_labels(labels)
        self._value = 0.0
        self._function: Callable[[], float] | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    def set_function(self, function: Callable[[], float] | None) -> None:
        """Compute the gauge at read time (scrape-time cache sizes etc.)."""
        self._function = function

    @property
    def value(self) -> float:
        """The current value (evaluating the callback when one is set)."""
        function = self._function
        if function is not None:
            return float(function())
        return self._value


class Histogram:
    """A fixed-bucket histogram with interpolated percentiles.

    ``buckets`` are the finite upper bounds (ascending); an implicit +Inf
    bucket catches the overflow.  ``observe`` locates the bucket by binary
    search, so recording costs O(log buckets) with one small lock.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        buckets: Sequence[float] | None = None,
    ) -> None:
        self.name = validate_metric_name(name)
        self.labels = _frozen_labels(labels)
        bounds = tuple(float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS))
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and strictly ascending")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_n(self, value: float, n: int) -> None:
        """Record ``n`` identical observations in one lock acquisition.

        The batch execution path attributes one amortized per-query latency
        to every miss in a sealed window; folding the whole window into one
        bucket update keeps histogram cost per *batch* instead of per query.
        """
        if n <= 0:
            return
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += n
            self._sum += value * n
            self._count += n

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts; the last entry is +Inf."""
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimated by linear bucket interpolation.

        The rank is located in the cumulative bucket counts and the answer
        interpolated linearly inside the owning bucket ``(lower, upper]``;
        observations in the +Inf bucket clamp to the largest finite bound.
        NaN before any observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            if total == 0:
                return float("nan")
            counts = list(self._counts)
        rank = q * total
        cumulative = 0.0
        for index, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index else 0.0
                upper = self.buckets[index]
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.buckets[-1]

    def percentiles(self) -> tuple[float, float, float]:
        """The (p50, p95, p99) triple from bucket interpolation."""
        return self.quantile(0.50), self.quantile(0.95), self.quantile(0.99)


class NullCounter:
    """No-op counter for the disabled fast path."""

    __slots__ = ()
    name = "null"
    labels: tuple[tuple[str, str], ...] = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def set_function(self, function: Callable[[], float] | None) -> None:
        """Discard the callback."""


class NullGauge:
    """No-op gauge for the disabled fast path."""

    __slots__ = ()
    name = "null"
    labels: tuple[tuple[str, str], ...] = ()
    value = 0.0

    def set(self, value: float) -> None:
        """Discard the value."""

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def dec(self, amount: float = 1.0) -> None:
        """Discard the decrement."""

    def set_function(self, function: Callable[[], float] | None) -> None:
        """Discard the callback."""


class NullHistogram:
    """No-op histogram for the disabled fast path."""

    __slots__ = ()
    name = "null"
    labels: tuple[tuple[str, str], ...] = ()
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def observe_n(self, value: float, n: int) -> None:
        """Discard the observations."""

    def bucket_counts(self) -> list[int]:
        """An all-zero bucket vector."""
        return [0] * (len(self.buckets) + 1)

    def quantile(self, q: float) -> float:
        """NaN: nothing was recorded."""
        return float("nan")

    def percentiles(self) -> tuple[float, float, float]:
        """NaN triple: nothing was recorded."""
        nan = float("nan")
        return nan, nan, nan


_TYPE_COUNTER = "counter"
_TYPE_GAUGE = "gauge"
_TYPE_HISTOGRAM = "histogram"


class MetricFamily:
    """One named metric family: HELP text, type, and label-addressed children."""

    __slots__ = ("name", "help", "type", "buckets", "children")

    def __init__(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.type = metric_type
        self.buckets = buckets
        self.children: dict[tuple[tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """The process-wide home of every metric family.

    Families are created on first use (``counter`` / ``gauge`` /
    ``histogram``); asking again with the same name returns the existing
    child for the label set, and asking with a conflicting type raises, so a
    metric name can never be exported with two meanings.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def counter(
        self, name: str, help_text: str = "", labels: Mapping[str, str] | None = None
    ) -> Counter:
        """The counter child for ``(name, labels)``, creating it on first use."""
        return self._child(name, help_text, _TYPE_COUNTER, labels, None)  # type: ignore[return-value]

    def gauge(
        self, name: str, help_text: str = "", labels: Mapping[str, str] | None = None
    ) -> Gauge:
        """The gauge child for ``(name, labels)``, creating it on first use."""
        return self._child(name, help_text, _TYPE_GAUGE, labels, None)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        """The histogram child for ``(name, labels)``, creating it on first use."""
        bounds = tuple(float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS))
        return self._child(name, help_text, _TYPE_HISTOGRAM, labels, bounds)  # type: ignore[return-value]

    def _child(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        labels: Mapping[str, str] | None,
        buckets: tuple[float, ...] | None,
    ) -> object:
        validate_metric_name(name)
        key = _frozen_labels(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, help_text, metric_type, buckets)
                self._families[name] = family
            elif family.type != metric_type:
                raise ValueError(
                    f"metric {name!r} is a {family.type}, requested {metric_type}"
                )
            elif buckets is not None and family.buckets != buckets:
                raise ValueError(f"histogram {name!r} re-requested with other buckets")
            child = family.children.get(key)
            if child is None:
                if metric_type == _TYPE_COUNTER:
                    child = Counter(name, dict(key))
                elif metric_type == _TYPE_GAUGE:
                    child = Gauge(name, dict(key))
                else:
                    child = Histogram(name, dict(key), buckets)
                family.children[key] = child
            return child

    def families(self) -> list[MetricFamily]:
        """Every registered family, sorted by name (the exposition order)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        """The family registered under ``name``, or None."""
        with self._lock:
            return self._families.get(name)

    def snapshot(self) -> dict[str, dict]:
        """A JSON-ready view of every family (histograms with percentiles)."""
        result: dict[str, dict] = {}
        for family in self.families():
            samples = []
            for labels, child in sorted(family.children.items()):
                entry: dict[str, object] = {"labels": dict(labels)}
                if family.type == _TYPE_HISTOGRAM:
                    histogram = child
                    assert isinstance(histogram, Histogram)
                    p50, p95, p99 = histogram.percentiles()
                    entry.update(
                        count=histogram.count,
                        sum=histogram.sum,
                        p50=_json_float(p50),
                        p95=_json_float(p95),
                        p99=_json_float(p99),
                    )
                else:
                    assert isinstance(child, (Counter, Gauge))
                    entry["value"] = _json_float(child.value)
                samples.append(entry)
            result[family.name] = {
                "type": family.type,
                "help": family.help,
                "samples": samples,
            }
        return result


class NullRegistry:
    """Registry stand-in for the disabled fast path: shared no-op children."""

    _counter = NullCounter()
    _gauge = NullGauge()
    _histogram = NullHistogram()

    def counter(
        self, name: str, help_text: str = "", labels: Mapping[str, str] | None = None
    ) -> NullCounter:
        """The shared no-op counter."""
        return self._counter

    def gauge(
        self, name: str, help_text: str = "", labels: Mapping[str, str] | None = None
    ) -> NullGauge:
        """The shared no-op gauge."""
        return self._gauge

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Mapping[str, str] | None = None,
        buckets: Sequence[float] | None = None,
    ) -> NullHistogram:
        """The shared no-op histogram."""
        return self._histogram

    def families(self) -> list[MetricFamily]:
        """Always empty."""
        return []

    def get(self, name: str) -> MetricFamily | None:
        """Always None."""
        return None

    def snapshot(self) -> dict[str, dict]:
        """Always empty."""
        return {}


def _json_float(value: float) -> float | None:
    """NaN / inf become None so snapshots stay strict-JSON serializable."""
    if math.isnan(value) or math.isinf(value):
        return None
    return value
