"""Prefix-sum index over a sorted column.

The partitioning optimizers (Section 4.3 and Appendix A) repeatedly need the
sum, sum of squares, and count of the aggregation column over contiguous rank
ranges ``[i, j]`` of the table sorted by the predicate column.  Precomputing
prefix sums makes each such range query O(1), which is what turns the naive
O(k N^4) dynamic program into the practical variants.  Every range method
takes ints (and returns a ``float``) or int arrays of lanes (and returns an
array), so a whole DP level is one gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PrefixSums", "check_ranges", "float_if_scalar"]


def check_ranges(start, end, length: int) -> None:
    """Raise ``IndexError`` unless every ``[start, end]`` lane is a valid range.

    A valid lane is a closed index range of an array of ``length`` items;
    ``start`` and ``end`` are ints or broadcastable int arrays, and one bad
    lane fails the whole call, naming the first such lane.
    """
    bad = (np.asarray(start) < 0) | (np.asarray(end) >= length) | (start > end)
    if np.any(bad):
        starts, ends = np.broadcast_arrays(start, end)
        lane = np.flatnonzero(bad)[0]
        raise IndexError(
            f"invalid range [{starts.ravel()[lane]}, {ends.ravel()[lane]}] "
            f"for array of length {length}"
        )


def float_if_scalar(values):
    """``values`` as a ``float`` when it is a scalar (0-d), unchanged otherwise."""
    return float(values) if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class PrefixSums:
    """O(1) range sums of a value array and its squares.

    The array is indexed by *rank* (position in the sorted order the caller
    established); ranges are half-open-free: :meth:`range_sum(i, j)` covers the
    closed index range ``[i, j]``.  ``i`` and ``j`` may be int arrays of lanes.
    """

    values: np.ndarray
    _prefix: np.ndarray
    _prefix_sq: np.ndarray

    @classmethod
    def from_values(cls, values: np.ndarray) -> "PrefixSums":
        """Build prefix sums from a 1-D array of values."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("PrefixSums expects a one-dimensional array")
        prefix = np.concatenate([[0.0], np.cumsum(values)])
        prefix_sq = np.concatenate([[0.0], np.cumsum(values**2)])
        return cls(values=values, _prefix=prefix, _prefix_sq=prefix_sq)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def range_count(self, start, end):
        """Number of items in the closed index range ``[start, end]``."""
        check_ranges(start, end, len(self))
        return end - start + 1

    def range_sum(self, start, end):
        """Sum of the values in the closed index range ``[start, end]``."""
        check_ranges(start, end, len(self))
        return float_if_scalar(self._prefix[end + 1] - self._prefix[start])

    def range_sum_sq(self, start, end):
        """Sum of squared values in the closed index range ``[start, end]``."""
        check_ranges(start, end, len(self))
        return float_if_scalar(self._prefix_sq[end + 1] - self._prefix_sq[start])

    def range_mean(self, start, end):
        """Mean of the values in the closed index range ``[start, end]``."""
        return self.range_sum(start, end) / self.range_count(start, end)

    def range_variance(self, start, end):
        """Population variance of the values in ``[start, end]`` (clamped at 0)."""
        count = self.range_count(start, end)
        mean = self.range_sum(start, end) / count
        variance = self.range_sum_sq(start, end) / count - mean * mean
        return float_if_scalar(np.where(variance > 0.0, variance, 0.0))
