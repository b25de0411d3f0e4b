"""Approximating the maximum-variance query inside a partition (Appendix A).

The dynamic programs of Section 4.3 need, for a candidate partition (a
contiguous rank range of the sorted optimization sample), the variance of the
worst query fully contained in it.  Enumerating all O(m^2) sub-intervals is
too slow, so the paper proposes constant-factor approximations:

* **SUM / COUNT** (Appendix A.3): split the partition at its median item into
  two equal halves and return the larger of the two halves' variances — a
  4-approximation of the true maximum.
* **AVG** (Appendix A.4): the worst query contains fewer than ``2*delta*m``
  samples, so it suffices to scan fixed-length windows of ``delta*m`` samples
  and take the one with the largest sum of squared values — again a
  4-approximation.  A sparse table over the pre-computed window scores makes
  each lookup O(1) after O(m log m) preprocessing.

:class:`MaxVarianceOracle` packages these approximations (plus an exact
brute-force fallback used by tests) behind a single ``max_variance(start,
end)`` interface over rank ranges of the sorted sample.  ``start`` and
``end`` may be int arrays of lanes, so a partitioner scores a whole DP level
in one call; every lane evaluates the same IEEE operations in the same order
as a scalar call, so batching never changes a bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.aggregation.prefix import PrefixSums, check_ranges, float_if_scalar
from repro.query.aggregates import AggregateType

__all__ = ["SparseTable", "MaxVarianceOracle", "brute_force_max_variance"]


def _positive_part(values):
    """Python's ``max(0.0, x)`` per lane: NaN and ``-0.0`` give ``0.0``."""
    return np.where(values > 0.0, values, 0.0)


class SparseTable:
    """Static range-maximum queries in O(1) after O(n log n) preprocessing.

    Row ``level`` of the zero-padded ``(levels, n)`` table holds the maxima
    of the windows of ``2**level`` values, so a batch of lookups is one
    fancy index.
    """

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("SparseTable expects a one-dimensional array")
        n = values.shape[0]
        self._n = n
        table = np.zeros((max(1, n.bit_length()), n))
        table[0] = values
        for level in range(1, table.shape[0]):
            half = 1 << (level - 1)
            size = n - 2 * half + 1
            prev = table[level - 1]
            table[level, :size] = np.maximum(prev[:size], prev[half : half + size])
        self._table = table

    def query(self, start, end):
        """Maximum of the values in the closed index range ``[start, end]``.

        Ints give a ``float``; int arrays of lanes give an array.
        """
        check_ranges(start, end, self._n)
        level = np.frexp(end - start + 1)[1] - 1  # floor(log2(length)), exactly
        left = self._table[level, start]
        right = self._table[level, end - (1 << level) + 1]
        return float_if_scalar(np.where(right > left, right, left))

    def argmax(self, start: int, end: int) -> int:
        """Index of (one of) the maxima in ``[start, end]``.

        Uses the sparse table to find the maximum value, then a linear scan of
        the (typically short) range to locate it; adequate for the window
        searches this module performs.
        """
        target = self.query(start, end)
        base = self._table[0]
        for index in range(start, end + 1):
            if base[index] == target:
                return index
        raise RuntimeError("sparse table is inconsistent")  # pragma: no cover


class MaxVarianceOracle:
    """Approximate maximum-variance query lookups over a sorted sample.

    Parameters
    ----------
    values:
        Aggregate values of the optimization sample, ordered by the predicate
        column (rank order).
    agg:
        Query type the partitioning is optimized for (SUM, COUNT, or AVG).
    delta:
        The meaningful-query fraction ``delta`` of Section 4.2; AVG windows
        contain ``max(1, round(delta * m))`` samples.
    exact:
        When True, fall back to the exact O(range^2) enumeration; only
        sensible for small inputs (tests, the naive DP).
    """

    def __init__(
        self,
        values: np.ndarray,
        agg: AggregateType | str = AggregateType.SUM,
        delta: float = 0.01,
        exact: bool = False,
    ) -> None:
        self._values = np.asarray(values, dtype=float)
        self._agg = AggregateType.parse(agg)
        if self._agg not in (AggregateType.SUM, AggregateType.COUNT, AggregateType.AVG):
            raise ValueError("partitioning supports SUM, COUNT and AVG query templates")
        if not 0.0 < delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        self._delta = delta
        self._exact = exact
        self._prefix = PrefixSums.from_values(self._values)
        m = len(self._prefix)
        self._window = max(1, int(round(delta * m)))
        self._window_scores: SparseTable | None = None
        if self._agg == AggregateType.AVG and not exact and m >= self._window:
            # W[s] = sum of squared values of the window starting at rank s.
            sums_sq = np.concatenate([[0.0], np.cumsum(self._values**2)])
            starts = np.arange(0, m - self._window + 1)
            scores = sums_sq[starts + self._window] - sums_sq[starts]
            self._window_scores = SparseTable(scores)

    @property
    def n_samples(self) -> int:
        """Number of samples the oracle indexes."""
        return len(self._prefix)

    @property
    def window(self) -> int:
        """AVG candidate-window length ``delta * m`` in samples."""
        return self._window

    # ------------------------------------------------------------------
    # Public lookup
    # ------------------------------------------------------------------
    def max_variance(self, start, end):
        """Approximate max variance of a query inside rank range ``[start, end]``.

        Ints give a ``float``; broadcastable int arrays of lanes give an array
        of their shape.  ``start > end`` lanes are ``0.0``; any other lane the
        approximation reads out of range raises ``IndexError``.
        """
        start, end = np.broadcast_arrays(start, end)
        lanes = start <= end
        out = np.zeros(lanes.shape)
        if np.any(lanes):
            start, end = start[lanes], end[lanes]
            if self._exact:
                out[lanes] = self._exact_max(start, end)
            elif self._agg == AggregateType.COUNT:
                out[lanes] = self._count_max(start, end)
            elif self._agg == AggregateType.SUM:
                out[lanes] = self._median_split_max(start, end)
            else:
                out[lanes] = self._avg_window_max(start, end)
        return float_if_scalar(out)

    def max_variance_query(self, start: int, end: int) -> Tuple[int, int]:
        """The (approximate) worst query's rank range inside ``[start, end]``.

        Used by the experiment harness to generate "challenging" workloads
        around the identified worst region (Section 5.3).
        """
        if start > end:
            return (start, end)
        if self._agg == AggregateType.AVG and self._window_scores is not None:
            length = end - start + 1
            if length >= self._window:
                last_start = end - self._window + 1
                best = self._window_scores.argmax(start, last_start)
                return (best, best + self._window - 1)
            return (start, end)
        mid = (start + end) // 2
        n_partition = end - start + 1
        left = self._partition_variance(start, mid, n_partition)
        right = (
            self._partition_variance(mid + 1, end, n_partition) if mid < end else -1.0
        )
        return (start, mid) if left >= right else (mid + 1, end)

    # ------------------------------------------------------------------
    # Per-aggregate approximations, over int arrays of non-empty lanes
    # ------------------------------------------------------------------
    def _count_max(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        n_partition = end - start + 1
        n_query = n_partition / 2.0
        core = n_partition * n_query - n_query * n_query
        return _positive_part(core) / n_partition

    def _median_split_max(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        n_partition = end - start + 1
        mid = (start + end) // 2
        left = self._partition_variance(start, mid, n_partition)
        # A one-item lane has no right half; it reads [end, end] and keeps left.
        right = self._partition_variance(np.minimum(mid + 1, end), end, n_partition)
        return np.where((start < end) & (right > left), right, left)

    def _avg_window_max(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        n_partition = end - start + 1
        window = self._window
        out = np.zeros(n_partition.shape)
        # Appendix A.4: partitions with fewer than 2*delta*m samples are
        # treated as having zero meaningful-query variance.
        wide = n_partition >= 2 * window
        if self._window_scores is None or not np.any(wide):
            return out
        # The worst AVG window maximizes its sum of squares (Appendix A.4);
        # a range-max over the precomputed window scores finds it in O(1).
        # Lemma A.2 bounds the core term by (n_i - |q|) * sum(t^2) from below
        # and n_i * sum(t^2) from above, so scoring with the lower bound keeps
        # the constant-factor guarantee while avoiding a per-call argmax scan.
        n_wide = n_partition[wide]
        best_score = self._window_scores.query(start[wide], end[wide] - window + 1)
        core_lower = (n_wide - window) * best_score
        out[wide] = core_lower / (n_wide * window * window)
        return out

    def _partition_variance(self, q_start, q_end, n_partition):
        """Variance of the query ``[q_start, q_end]`` inside a partition.

        ``n_partition`` is the partition's size in ranks; every argument may
        be an int array of lanes.
        """
        q_sum = self._prefix.range_sum(q_start, q_end)
        q_sum_sq = self._prefix.range_sum_sq(q_start, q_end)
        n_query = q_end - q_start + 1
        if self._agg == AggregateType.COUNT:
            core = n_partition * n_query - n_query * n_query
            return _positive_part(core) / n_partition
        core = _positive_part(n_partition * q_sum_sq - q_sum * q_sum)
        if self._agg == AggregateType.SUM:
            return core / n_partition
        return core / (n_partition * n_query * n_query)

    # ------------------------------------------------------------------
    # Exact enumeration (tests / naive DP)
    # ------------------------------------------------------------------
    def _exact_max(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Each lane's max over its whole sub-interval triangle, in one expression."""
        min_len = self._window if self._agg == AggregateType.AVG else 1
        out = np.zeros(start.shape)
        for lane, (p_start, p_end) in enumerate(zip(start.tolist(), end.tolist())):
            n_partition = p_end - p_start + 1
            q_start, q_end = np.triu_indices(n_partition, min_len - 1)
            variance = self._partition_variance(
                p_start + q_start, p_start + q_end, n_partition
            )
            # Each variance is already >= +0.0 and never NaN (the core term is
            # clamped), so a max from 0.0 is the scalar running max(best, v).
            out[lane] = variance.max(initial=0.0)
        return out


def brute_force_max_variance(
    values: np.ndarray,
    agg: AggregateType | str,
    delta: float = 0.01,
) -> float:
    """Exact maximum query variance over a whole (small) partition.

    A convenience wrapper around the oracle's exact mode, used by tests to
    verify the approximation factors of the fast lookups.
    """
    oracle = MaxVarianceOracle(values, agg=agg, delta=delta, exact=True)
    return oracle.max_variance(0, oracle.n_samples - 1)
