"""Stratified aggregation: precomputed partition aggregates with hard bounds.

Section 2.3 of the paper describes the pure-aggregation synopsis: partition
the dataset into ``B`` mutually exclusive partitions and store SUM / COUNT /
MIN / MAX for each.  Any query then splits the partitions into covered,
partial, and disjoint sets, from which deterministic upper and lower bounds
on the true answer follow.  The midpoint of the bounds is used as the point
estimate.

The :func:`hard_bounds` helper implements the bound formulas and is reused by
the PASS synopsis, which reports the same deterministic bounds alongside its
sampled estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


from repro.aggregation.partition import PartitionStats
from repro.data.table import Table
from repro.query.aggregates import AggregateType
from repro.query.predicate import Box, Relation
from repro.query.query import AggregateQuery
from repro.result import AQPResult

__all__ = ["HardBounds", "hard_bounds", "StratifiedAggregationSynopsis"]


@dataclass(frozen=True)
class HardBounds:
    """Deterministic lower / upper bounds on a query answer."""

    lower: float
    upper: float

    @property
    def width(self) -> float:
        """The estimation error ``ub - lb`` of Section 2.3."""
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        """Midpoint of the bounds, used as a point estimate."""
        if math.isinf(self.lower) or math.isinf(self.upper):
            return float("nan")
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the bounds."""
        return self.lower <= value <= self.upper


def hard_bounds(
    agg: AggregateType,
    covered: Sequence[PartitionStats],
    partial: Sequence[PartitionStats],
) -> HardBounds:
    """Deterministic bounds on a query from covered and partial partitions.

    Parameters
    ----------
    agg:
        The aggregate being bounded.
    covered:
        Statistics of the partitions fully covered by the query predicate.
    partial:
        Statistics of the partitions the predicate partially overlaps; the
        number of matching tuples inside them is unknown, which is the sole
        source of the bound width.

    Notes
    -----
    SUM / COUNT assume non-negative aggregate values (the paper's technical
    assumption; shift the data if needed): the lower bound excludes partial
    partitions entirely and the upper bound includes them entirely.
    """
    agg = AggregateType.parse(agg)
    covered = [stats for stats in covered if not stats.is_empty]
    partial = [stats for stats in partial if not stats.is_empty]

    if agg in (AggregateType.SUM, AggregateType.COUNT):
        def key(stats: PartitionStats) -> float:
            return stats.sum if agg == AggregateType.SUM else float(stats.count)

        # Started at 0.0: over no non-empty partition a bound is still a float.
        covered_total = sum((key(stats) for stats in covered), 0.0)
        partial_total = sum((key(stats) for stats in partial), 0.0)
        return HardBounds(lower=covered_total, upper=covered_total + partial_total)

    if agg == AggregateType.AVG:
        covered_sum = sum(stats.sum for stats in covered)
        covered_count = sum(stats.count for stats in covered)
        covered_avg = covered_sum / covered_count if covered_count else float("nan")
        partial_max = max((stats.max for stats in partial), default=-math.inf)
        partial_min = min((stats.min for stats in partial), default=math.inf)
        if covered_count and partial:
            return HardBounds(
                lower=min(covered_avg, partial_min), upper=max(covered_avg, partial_max)
            )
        if covered_count:
            return HardBounds(lower=covered_avg, upper=covered_avg)
        if partial:
            return HardBounds(lower=partial_min, upper=partial_max)
        return HardBounds(lower=math.nan, upper=math.nan)

    if agg == AggregateType.MAX:
        covered_max = max((stats.max for stats in covered), default=-math.inf)
        partial_max = max((stats.max for stats in partial), default=-math.inf)
        if not covered and not partial:
            return HardBounds(lower=math.nan, upper=math.nan)
        # The true max is at least the covered max and at most the overall max.
        lower = covered_max if covered else -math.inf
        return HardBounds(lower=lower, upper=max(covered_max, partial_max))

    if agg == AggregateType.MIN:
        covered_min = min((stats.min for stats in covered), default=math.inf)
        partial_min = min((stats.min for stats in partial), default=math.inf)
        if not covered and not partial:
            return HardBounds(lower=math.nan, upper=math.nan)
        upper = covered_min if covered else math.inf
        return HardBounds(lower=min(covered_min, partial_min), upper=upper)

    raise ValueError(f"unsupported aggregate: {agg!r}")


class StratifiedAggregationSynopsis:
    """Flat partitioned-aggregate synopsis (no samples, Section 2.3).

    Stores one :class:`PartitionStats` per partition box.  Queries are
    answered with deterministic bounds only; the point estimate is the bound
    midpoint.  This structure answers aligned queries exactly but is very
    pessimistic under partial overlap — which is exactly the weakness PASS
    fixes by attaching stratified samples to the leaves.
    """

    def __init__(
        self,
        table: Table,
        value_column: str,
        boxes: Sequence[Box],
    ) -> None:
        if not boxes:
            raise ValueError("at least one partition box is required")
        self._value_column = value_column
        self._boxes = list(boxes)
        values = table.column(value_column).astype(float)
        self._stats: list[PartitionStats] = []
        self._sizes: list[int] = []
        for box in self._boxes:
            mask = box.mask(table.columns(box.columns))
            self._stats.append(PartitionStats.from_values(values[mask]))
            self._sizes.append(int(mask.sum()))
        self._population_size = table.n_rows

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_partitions(self) -> int:
        """Number of partitions in the synopsis."""
        return len(self._boxes)

    @property
    def boxes(self) -> list[Box]:
        """The partition boxes."""
        return list(self._boxes)

    @property
    def stats(self) -> list[PartitionStats]:
        """The per-partition aggregate statistics."""
        return list(self._stats)

    def storage_bytes(self) -> int:
        """Approximate storage: four floats + a size per partition."""
        return self.n_partitions * 5 * 8

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def classify(self, query: AggregateQuery) -> tuple[list[int], list[int]]:
        """Indices of (covered, partial) partitions for the query predicate."""
        covered: list[int] = []
        partial: list[int] = []
        for index, box in enumerate(self._boxes):
            relation = query.predicate.relation_to_box(box)
            if relation == Relation.COVER:
                covered.append(index)
            elif relation == Relation.PARTIAL:
                partial.append(index)
        return covered, partial

    def query(self, query: AggregateQuery) -> AQPResult:
        """Answer a query with deterministic bounds (midpoint point estimate)."""
        if query.value_column != self._value_column:
            raise ValueError(
                f"synopsis was built for column {self._value_column!r}, "
                f"query aggregates {query.value_column!r}"
            )
        covered_idx, partial_idx = self.classify(query)
        bounds = hard_bounds(
            query.agg,
            [self._stats[i] for i in covered_idx],
            [self._stats[i] for i in partial_idx],
        )
        exact = not partial_idx
        estimate = bounds.lower if exact else bounds.midpoint
        skipped = sum(self._sizes[i] for i in covered_idx) + (
            self._population_size
            - sum(self._sizes[i] for i in covered_idx + partial_idx)
        )
        return AQPResult(
            estimate=estimate,
            ci_half_width=0.0 if exact else bounds.width / 2.0,
            variance=0.0 if exact else float("nan"),
            hard_lower=bounds.lower,
            hard_upper=bounds.upper,
            tuples_processed=0,
            tuples_skipped=skipped,
            exact=exact,
        )
