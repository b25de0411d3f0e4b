"""A mergeable distinct-count sketch (KMV — k minimum values).

Every value is hashed to 64 bits with the SplitMix64 finalizer (the same
mixing the distributed layer uses for shard routing, applied to the float's
bit pattern, so numerically equal values always collide on purpose); the
sketch keeps the ``k`` smallest *distinct* hashes it has ever seen:

* while fewer than ``k`` distinct hashes have been observed the sketch holds
  all of them and the distinct count is **exact** (64-bit hash collisions
  are negligible at any realistic cardinality);
* once saturated, the classic KMV estimator applies: if the ``k``-th
  smallest of ``D`` uniform hashes sits at normalized position ``u``, then
  ``D ≈ (k - 1) / u``, with relative standard error ``1 / sqrt(k - 2)``.

Merging two sketches keeps the ``k`` smallest distinct hashes of the union —
an operation that is **exactly associative and commutative** (the result
depends only on the union of the observed hash sets), the property the
hypothesis test layer asserts bit for bit.  NaN values are ignored (SQL NULL
semantics), and ``to_arrays`` / ``from_arrays`` round-trip exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.hashing import splitmix64, splitmix64_scalar

__all__ = ["DistinctSketch"]

#: Default capacity: ~3.1% relative standard error once saturated, exact below.
DEFAULT_DISTINCT_K = 1024

_NO_HASHES = np.zeros(0, dtype=np.uint64)


class DistinctSketch:
    """Mergeable distinct-count summary of a multiset of float values.

    Parameters
    ----------
    k:
        Number of minimum hash values retained.  Distinct counts up to ``k``
        are exact; beyond, the estimate carries a relative standard error of
        ``1 / sqrt(k - 2)``.
    """

    __slots__ = ("_k", "_hashes", "_saturated")

    def __init__(self, k: int = DEFAULT_DISTINCT_K) -> None:
        if k < 16:
            raise ValueError("k must be at least 16")
        self._k = int(k)
        self._hashes = _NO_HASHES
        self._saturated = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Retained-minimum capacity."""
        return self._k

    @property
    def is_exact(self) -> bool:
        """True while the sketch has seen at most ``k`` distinct values."""
        return not self._saturated

    def error_fraction(self, z: float = 3.0) -> float:
        """Documented relative error margin of :meth:`estimate`.

        ``z`` standard errors of the KMV estimator (``z / sqrt(k - 2)``), or
        exactly ``0.0`` while the sketch is unsaturated.  The default
        ``z = 3`` makes ``estimate * (1 ± margin)`` a high-probability bound
        pair (>99.7% per query under the uniform-hashing model).
        """
        if not self._saturated:
            return 0.0
        return float(z) / math.sqrt(self._k - 2)

    def storage_bytes(self) -> int:
        """Approximate footprint of the retained hashes."""
        return int(self._hashes.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistinctSketch(k={self._k}, retained={self._hashes.size}, "
            f"saturated={self._saturated})"
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, value: float) -> None:
        """Observe one value (NaN is ignored).

        Bit for bit :meth:`update_array` of ``[value]``: one scalar hash and
        one ``searchsorted`` insert, under the same saturation rule.
        """
        value = float(value)
        if math.isnan(value):
            return
        hashed = np.uint64(splitmix64_scalar(value))
        hashes = self._hashes
        position = int(hashes.searchsorted(hashed))
        if position < hashes.shape[0] and hashes[position] == hashed:
            return
        if hashes.shape[0] == self._k:
            # A (k + 1)-th distinct hash: the largest one leaves for good.
            self._saturated = True
            if position == self._k:
                return
            hashes = hashes[:-1]
        self._hashes = np.insert(hashes, position, hashed)

    def update_array(self, values: np.ndarray) -> None:
        """Observe an array of values (NaN entries ignored)."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size and np.isnan(values).any():
            values = values[~np.isnan(values)]
        if values.size == 0:
            return
        self._absorb(np.unique(splitmix64(values)))

    @classmethod
    def from_segments(
        cls, values: np.ndarray, offsets: np.ndarray, k: int = DEFAULT_DISTINCT_K
    ) -> list["DistinctSketch"]:
        """One sketch per segment ``values[offsets[i]:offsets[i + 1]]``.

        Bit for bit what :meth:`update_array` builds from each segment on
        its own: NaNs are dropped and every value hashed in one pass, each
        segment's hashes are sorted in place (the segments already lie in
        order, so this is the (segment, hash) order without a ``lexsort``),
        and one pass over the sorted hashes keeps each segment's first
        ``k`` distinct ones; a segment with more is saturated.  The builder
        makes every leaf's sketch this way.
        """
        values = np.asarray(values, dtype=float)
        offsets = np.asarray(offsets, dtype=np.int64)
        # Positions, not masks or running counts, mark the dropped entries:
        # both lists are usually short, and a full-length cumsum per pass
        # costs megabytes of resident memory on a large build.
        missing = np.flatnonzero(np.isnan(values))
        bounds = offsets - np.searchsorted(missing, offsets)
        hashes = splitmix64(np.delete(values, missing) if missing.size else values)
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            hashes[start:stop].sort()
        repeat = hashes[1:] == hashes[:-1]
        inner = bounds[1:-1]
        repeat[inner[(inner > 0) & (inner < hashes.shape[0])] - 1] = False
        repeated = np.flatnonzero(repeat) + 1
        distinct = np.delete(hashes, repeated) if repeated.size else hashes
        starts = (bounds - np.searchsorted(repeated, bounds)).tolist()
        sketches = []
        for start, stop in zip(starts[:-1], starts[1:]):
            sketch = cls(k)
            sketch._hashes = distinct[start : min(stop, start + sketch._k)]
            sketch._saturated = stop - start > sketch._k
            sketches.append(sketch)
        return sketches

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "DistinctSketch") -> "DistinctSketch":
        """A new sketch summarizing the union of both inputs (inputs untouched).

        Keeps the ``k`` smallest distinct hashes of the union — exactly
        associative and commutative, so any merge order over any grouping of
        the same data yields bit-identical estimates.
        """
        if not isinstance(other, DistinctSketch):
            raise TypeError(f"cannot merge DistinctSketch with {type(other)!r}")
        if other._k != self._k:
            raise ValueError(
                f"cannot merge sketches with different k ({self._k} vs {other._k})"
            )
        out = DistinctSketch(self._k)
        out._hashes = self._hashes
        out._saturated = self._saturated or other._saturated
        out._absorb(other._hashes)
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self) -> float:
        """Estimated number of distinct (non-NaN) values observed.

        Exact while unsaturated; the KMV estimator ``(k - 1) / u_k``
        afterwards, where ``u_k`` is the normalized ``k``-th smallest hash.
        """
        if not self._saturated:
            return float(self._hashes.size)
        kth = (float(self._hashes[-1]) + 1.0) / 2.0**64
        return (self._k - 1) / kth

    # ------------------------------------------------------------------
    # Persistence (array export / import)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Export the sketch as flat numpy arrays (exact round trip)."""
        return {
            "hashes": self._hashes.copy(),
            "state": np.array([self._k, int(self._saturated)], dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "DistinctSketch":
        """Rebuild a sketch exported with :meth:`to_arrays`."""
        state = np.asarray(arrays["state"], dtype=np.int64)
        sketch = cls(int(state[0]))
        sketch._hashes = np.asarray(arrays["hashes"], dtype=np.uint64).copy()
        sketch._saturated = bool(state[1])
        return sketch

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _absorb(self, hashes: np.ndarray) -> None:
        """Fold sorted-unique hashes in, keeping the k smallest distinct."""
        if hashes.size == 0:
            return
        merged = np.union1d(self._hashes, hashes)
        if merged.size > self._k:
            # Anything trimmed now could never re-enter the k minima later,
            # so the retained set stays exactly "the k smallest ever seen".
            self._saturated = True
            merged = merged[: self._k]
        self._hashes = merged
