"""A mergeable quantile sketch with a certified rank-error bound.

The structure is the classic compactor hierarchy of the mergeable-summaries
line of work (Manku-Rajagopalan-Lindsay / Agarwal et al. / KLL): level ``h``
holds items of weight ``2^h``; when a level outgrows its capacity ``k`` it is
*compacted* — sorted, and every other item promoted to level ``h + 1`` at
twice the weight.  Compacting a sorted buffer of items of weight ``w``
changes the rank of any query point by at most ``w``, so the sketch can
maintain a *certified* additive rank-error bound by simply accumulating
``2^h`` per compaction (:meth:`QuantileSketch.rank_error_bound`).  A sketch
that never compacted holds the exact input multiset and answers exactly.

Two deliberate departures from textbook KLL keep the behaviour reproducible
for the property-test layer:

* compaction keeps the even- or odd-indexed items *deterministically*,
  alternating by a per-level compaction counter instead of a coin flip —
  merging is therefore exactly commutative (``a.merge(b)`` and
  ``b.merge(a)`` answer identically) and associative up to the certified
  bound, with no RNG state to persist;
* every level has the same capacity ``k`` (no geometric decay), giving the
  simple worst-case bound ``rank error <= L * n / k`` over ``L`` levels —
  loose against tuned KLL but certified, and the sketch reports the much
  tighter bound it actually accumulated.

Weighted insertion (:meth:`QuantileSketch.update_weighted`) places items
directly at the levels of the binary decomposition of their weight; the PASS
query path uses it to fold the matched sample of a partially overlapped leaf
into a frontier union at its estimated population weight.

NaN values are ignored on insertion (SQL NULL semantics).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["QuantileSketch"]

#: Default level capacity; ~0.5-1.5% certified rank error at 10^5-10^6 items.
DEFAULT_QUANTILE_K = 200

_EMPTY = np.zeros(0, dtype=float)


class QuantileSketch:
    """Mergeable rank/quantile summary of a multiset of float values.

    Parameters
    ----------
    k:
        Capacity of every compactor level.  Larger ``k`` means more storage
        (``O(k log(n / k))`` floats) and a smaller rank error
        (``O(log(n / k) * n / k)`` worst case, certified per instance by
        :meth:`rank_error_bound`).
    """

    __slots__ = ("_k", "_levels", "_compactions", "_n", "_rank_error", "_min", "_max")

    def __init__(self, k: int = DEFAULT_QUANTILE_K) -> None:
        if k < 8:
            raise ValueError("k must be at least 8")
        self._k = int(k)
        self._levels: list[np.ndarray] = [_EMPTY]
        self._compactions: list[int] = [0]
        self._n = 0
        self._rank_error = 0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Per-level capacity."""
        return self._k

    @property
    def n(self) -> int:
        """Total weight (number of represented items, NaN excluded)."""
        return self._n

    @property
    def is_exact(self) -> bool:
        """True while the sketch still holds the exact input multiset."""
        return self._rank_error == 0

    def rank_error_bound(self) -> int:
        """Certified additive rank-error bound (in items).

        For any value ``v``, the estimated rank :meth:`rank` differs from the
        true rank of ``v`` in the inserted multiset by at most this many
        items.  The bound is deterministic: it accumulates the exact
        worst-case error (``2^h``) of every compaction performed.
        """
        return self._rank_error

    def storage_bytes(self) -> int:
        """Approximate footprint of the retained items."""
        return sum(level.nbytes for level in self._levels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(k={self._k}, n={self._n}, "
            f"items={sum(level.size for level in self._levels)}, "
            f"rank_error<={self._rank_error})"
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, value: float) -> None:
        """Insert one value (NaN is ignored)."""
        self.update_array([value])

    def update_array(self, values: np.ndarray) -> None:
        """Insert an array of values at weight 1 each (NaN entries ignored)."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size and np.isnan(values).any():
            values = values[~np.isnan(values)]
        if values.size == 0:
            return
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        self._n += int(values.size)
        self._levels[0] = np.concatenate([self._levels[0], values])
        self._compress()

    def update_weighted(self, values: np.ndarray, total_weight: int) -> None:
        """Insert ``values`` carrying ``total_weight`` items of mass in total.

        The weight splits as evenly as possible across the values (the first
        ``total_weight mod len(values)`` of the *sorted* values carry one
        extra unit, a deterministic rule), and each value is placed at the
        levels of its weight's binary decomposition — so total represented
        weight is preserved exactly and no rank error is introduced beyond
        later compactions.  With ``total_weight < len(values)`` only the
        first ``total_weight`` sorted values are kept (weight 1 each).

        Only two weights occur — ``base + 1`` on the first ``extra`` sorted
        values, ``base`` on the rest — so the items a level receives are a
        prefix, a suffix or all of the sorted values, read off the two
        weights' bits without a per-value weight array.
        """
        values = np.asarray(values, dtype=float).ravel()
        if values.size and np.isnan(values).any():
            values = values[~np.isnan(values)]
        total_weight = int(total_weight)
        if values.size == 0 or total_weight <= 0:
            return
        values = np.sort(values)
        base, extra = divmod(total_weight, values.size)
        self._min = min(self._min, float(values[0]))
        self._max = max(self._max, float(values[-1]))
        self._n += total_weight
        for level in range((base + 1).bit_length()):
            # The (possibly empty) prefix joins on its weight's bit, the
            # suffix on its own: both, either or neither.
            start = 0 if ((base + 1) >> level) & 1 else extra
            stop = values.size if (base >> level) & 1 else extra
            if stop > start:
                self._ensure_level(level)
                self._levels[level] = np.concatenate(
                    [self._levels[level], values[start:stop]]
                )
        self._compress()

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """A new sketch summarizing the union of both inputs (inputs untouched).

        Level buffers concatenate, compaction counters / weights / certified
        errors add, and over-capacity levels compact.  The operation is
        exactly commutative; different merge orders may compact at different
        moments, so associativity holds up to the certified
        :meth:`rank_error_bound` of the results (the property the test layer
        asserts).
        """
        if not isinstance(other, QuantileSketch):
            raise TypeError(f"cannot merge QuantileSketch with {type(other)!r}")
        if other._k != self._k:
            raise ValueError(
                f"cannot merge sketches with different k ({self._k} vs {other._k})"
            )
        out = QuantileSketch(self._k)
        n_levels = max(len(self._levels), len(other._levels))
        out._levels = []
        out._compactions = []
        for level in range(n_levels):
            mine = self._levels[level] if level < len(self._levels) else _EMPTY
            theirs = other._levels[level] if level < len(other._levels) else _EMPTY
            out._levels.append(np.concatenate([mine, theirs]))
            out._compactions.append(
                (self._compactions[level] if level < len(self._compactions) else 0)
                + (other._compactions[level] if level < len(other._compactions) else 0)
            )
        out._n = self._n + other._n
        out._rank_error = self._rank_error + other._rank_error
        out._min = min(self._min, other._min)
        out._max = max(self._max, other._max)
        out._compress()
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rank(self, value: float) -> int:
        """Estimated number of inserted items ``<= value``.

        Within :meth:`rank_error_bound` of the true rank.
        """
        values, cumulative = self._sorted_weighted()
        if values.size == 0:
            return 0
        index = int(np.searchsorted(values, value, side="right"))
        return 0 if index == 0 else int(cumulative[index - 1])

    def values_at_ranks(self, ranks: Sequence[float]) -> list[float]:
        """:meth:`value_at_rank` of every rank, from one sorted view.

        Sorting the retained items is the whole cost of a rank lookup, so
        callers that need several ranks of one sketch (a result's estimate
        and its two certified bounds; a cell's p50 / p95 / p99) ask for them
        together.  Each rank is clipped into ``[1, n]``; every value is NaN
        for an empty sketch.
        """
        values, cumulative = self._sorted_weighted()
        if values.size == 0:
            return [float("nan")] * len(ranks)
        clipped = np.clip(np.asarray(ranks, dtype=float), 1.0, float(cumulative[-1]))
        index = np.searchsorted(cumulative, clipped, side="left")
        return values[np.minimum(index, values.size - 1)].tolist()

    def value_at_rank(self, rank: float) -> float:
        """Smallest retained value whose cumulative weight reaches ``rank``.

        ``rank`` is clipped into ``[1, n]``; NaN for an empty sketch.
        """
        return self.values_at_ranks([rank])[0]

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` (rank ``ceil(q * n)``, clipped to >= 1).

        The estimate is always one of the inserted values; its true rank in
        the inserted multiset is within :meth:`rank_error_bound` of the
        target.  NaN for an empty sketch.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return self.value_at_rank(max(1, min(math.ceil(q * self._n), self._n)))

    @property
    def min(self) -> float:
        """Exact smallest inserted value (NaN when empty).

        Tracked outside the compactors, so it stays exact even after
        compactions drop the extreme items.
        """
        return float(self._min) if self._n else float("nan")

    @property
    def max(self) -> float:
        """Exact largest inserted value (NaN when empty)."""
        return float(self._max) if self._n else float("nan")

    # ------------------------------------------------------------------
    # Persistence (array export / import)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Export the sketch as flat numpy arrays (exact round trip)."""
        sizes = [level.size for level in self._levels]
        return {
            "items": (
                np.concatenate(self._levels) if any(sizes) else _EMPTY.copy()
            ),
            "offsets": np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
            "compactions": np.asarray(self._compactions, dtype=np.int64),
            "state": np.array([self._k, self._n, self._rank_error], dtype=np.int64),
            "extrema": np.array([self._min, self._max], dtype=float),
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "QuantileSketch":
        """Rebuild a sketch exported with :meth:`to_arrays`."""
        state = np.asarray(arrays["state"], dtype=np.int64)
        sketch = cls(int(state[0]))
        items = np.asarray(arrays["items"], dtype=float)
        offsets = np.asarray(arrays["offsets"], dtype=np.int64)
        sketch._levels = [
            items[int(offsets[i]) : int(offsets[i + 1])].copy()
            for i in range(offsets.size - 1)
        ]
        sketch._compactions = [
            int(c) for c in np.asarray(arrays["compactions"], dtype=np.int64)
        ]
        if not sketch._levels:
            sketch._levels = [_EMPTY]
            sketch._compactions = [0]
        sketch._n = int(state[1])
        sketch._rank_error = int(state[2])
        extrema = np.asarray(arrays["extrema"], dtype=float)
        sketch._min = float(extrema[0])
        sketch._max = float(extrema[1])
        return sketch

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_level(self, level: int) -> None:
        while len(self._levels) <= level:
            self._levels.append(_EMPTY)
            self._compactions.append(0)

    def _sorted_weighted(self) -> tuple[np.ndarray, np.ndarray]:
        """Retained values sorted ascending, with cumulative weights."""
        sizes = [level.size for level in self._levels]
        if not any(sizes):
            return _EMPTY, np.zeros(0, dtype=np.int64)
        values = np.concatenate(self._levels)
        weights = np.concatenate(
            [
                np.full(level.size, np.int64(1) << h, dtype=np.int64)
                for h, level in enumerate(self._levels)
            ]
        )
        order = np.argsort(values, kind="stable")
        return values[order], np.cumsum(weights[order])

    def _compress(self) -> None:
        """Compact every over-capacity level, cascading upward."""
        level = 0
        while level < len(self._levels):
            buffer = self._levels[level]
            if buffer.size <= self._k:
                level += 1
                continue
            ordered = np.sort(buffer, kind="stable")
            parity = self._compactions[level] & 1
            if ordered.size & 1:
                # Hold one item back (alternating ends) so the compaction
                # input has even length and weight is conserved exactly.
                if parity:
                    held, ordered = ordered[:1], ordered[1:]
                else:
                    held, ordered = ordered[-1:], ordered[:-1]
            else:
                held = _EMPTY
            promoted = ordered[parity::2]
            self._ensure_level(level + 1)
            self._levels[level] = held.copy()
            self._levels[level + 1] = np.concatenate(
                [self._levels[level + 1], promoted]
            )
            self._compactions[level] += 1
            # Compacting items of weight 2^level shifts any rank by <= 2^level.
            self._rank_error += 1 << level
            level += 1
