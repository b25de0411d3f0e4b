"""Aggregate function definitions.

PASS supports SUM, COUNT, AVG, MIN and MAX aggregates with predicates
(Section 3.1).  On top of those five *classic* aggregates — whose partition
statistics merge exactly — the reproduction answers two *sketch* aggregates
from mergeable per-leaf summaries (:mod:`repro.sketches`):

* ``QUANTILE`` — the value at a quantile ``q`` of the aggregation column
  (``q`` travels on the query, see
  :attr:`repro.query.query.AggregateQuery.quantile`; ``MEDIAN`` parses to
  ``QUANTILE`` at ``q = 0.5``);
* ``COUNT_DISTINCT`` — the number of distinct non-NaN values.

This module defines the :class:`AggregateType` enum shared by the exact
engine, the sampling estimators, and the synopses, plus small helpers for
computing an aggregate exactly over a numpy array.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.result import AQPResult

__all__ = [
    "AggregateType",
    "empty_group_result",
    "exact_aggregate",
    "normalize_quantile",
    "SAMPLING_SUPPORTED",
    "ALL_AGGREGATES",
    "CLASSIC_AGGREGATES",
    "SKETCH_AGGREGATES",
]


class AggregateType(str, enum.Enum):
    """The aggregate functions supported by the synopsis structures."""

    SUM = "SUM"
    COUNT = "COUNT"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"
    QUANTILE = "QUANTILE"
    COUNT_DISTINCT = "COUNT_DISTINCT"

    @classmethod
    def parse(cls, value: "str | AggregateType") -> "AggregateType":
        """Parse an aggregate from a (case-insensitive) string or enum value.

        ``"MEDIAN"`` parses to :attr:`QUANTILE` (queries default the quantile
        parameter to 0.5), and ``"COUNT DISTINCT"`` to
        :attr:`COUNT_DISTINCT`.
        """
        if isinstance(value, AggregateType):
            return value
        try:
            normalized = value.upper().replace(" ", "_")
        except AttributeError:
            normalized = value
        if normalized == "MEDIAN":
            return cls.QUANTILE
        try:
            return cls(normalized)
        except ValueError:
            known = ", ".join(member.value for member in cls)
            raise ValueError(
                f"unknown aggregate {value!r}; expected one of: {known}, MEDIAN"
            ) from None


#: Aggregates whose results sampling-based synopses can estimate with CLT
#: confidence intervals.  MIN and MAX are only answered with the deterministic
#: hard bounds of stratified aggregation.
SAMPLING_SUPPORTED = (AggregateType.SUM, AggregateType.COUNT, AggregateType.AVG)

#: The five classic aggregates with exactly mergeable partition statistics.
CLASSIC_AGGREGATES = (
    AggregateType.SUM,
    AggregateType.COUNT,
    AggregateType.AVG,
    AggregateType.MIN,
    AggregateType.MAX,
)

#: Aggregates answered from mergeable per-leaf sketches (:mod:`repro.sketches`).
SKETCH_AGGREGATES = (AggregateType.QUANTILE, AggregateType.COUNT_DISTINCT)

#: All aggregates, in a canonical order.
ALL_AGGREGATES = tuple(AggregateType)


def normalize_quantile(agg: AggregateType, quantile: float | None) -> float | None:
    """The validated quantile parameter of a query or spec.

    QUANTILE defaults to 0.5 (the median) and requires ``0 <= q <= 1``;
    every other aggregate must leave the parameter unset.  Shared by
    :class:`~repro.query.query.AggregateQuery` and
    :class:`~repro.query.groupby.AggregateSpec` so the two canonical forms
    can never diverge.
    """
    if agg == AggregateType.QUANTILE:
        quantile = 0.5 if quantile is None else float(quantile)
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        return quantile
    if quantile is not None:
        raise ValueError(
            f"quantile applies only to QUANTILE queries, not {agg.value}"
        )
    return None


def exact_aggregate(
    agg: AggregateType, values: np.ndarray, quantile: float | None = None
) -> float:
    """Compute the exact aggregate of ``values``, treating NaN as SQL NULL.

    NaN entries are ignored by SUM / AVG / MIN / MAX / QUANTILE /
    COUNT_DISTINCT, matching SQL's NULL semantics (``SUM(col)`` skips NULL
    rows, ``COUNT(DISTINCT col)`` counts distinct non-NULL values); COUNT
    keeps ``COUNT(*)`` semantics and counts every row.  Empty and all-NaN
    inputs follow SQL: COUNT and COUNT_DISTINCT are 0 (COUNT is the row
    count for all-NaN), SUM is 0, and AVG / MIN / MAX / QUANTILE are NaN
    (SQL NULL).

    ``quantile`` is the QUANTILE parameter in ``[0, 1]`` (default 0.5, the
    median); QUANTILE interpolates linearly between order statistics like
    ``numpy.quantile``.

    Note that only this exact path is NaN-aware: synopsis estimates and
    partition statistics propagate NaN, so aggregation columns containing
    NaN should be cleaned (or filtered) before building a synopsis.
    """
    values = np.asarray(values, dtype=float)
    if agg == AggregateType.COUNT:
        return float(values.shape[0])
    valid = values[~np.isnan(values)] if np.isnan(values).any() else values
    if agg == AggregateType.COUNT_DISTINCT:
        return float(np.unique(valid).shape[0])
    if valid.shape[0] == 0:
        return 0.0 if agg == AggregateType.SUM else float("nan")
    if agg == AggregateType.SUM:
        return float(valid.sum())
    if agg == AggregateType.AVG:
        return float(valid.mean())
    if agg == AggregateType.MIN:
        return float(valid.min())
    if agg == AggregateType.MAX:
        return float(valid.max())
    if agg == AggregateType.QUANTILE:
        quantile = 0.5 if quantile is None else float(quantile)
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        return float(np.quantile(valid, quantile))
    raise ValueError(f"unsupported aggregate: {agg!r}")


def empty_group_result(agg: AggregateType, population: int = 0) -> AQPResult:
    """The exact answer of an aggregate over a group that holds no tuple.

    :func:`exact_aggregate`'s empty-input rule as a synopsis answer: COUNT /
    COUNT_DISTINCT / SUM are 0, AVG / MIN / MAX / QUANTILE are NaN (NULL),
    with zero width.  ``population`` feeds ``tuples_skipped``.  The flat
    kernel answers every frontier holding no tuple with it, and the group-by
    executors every cell they prove empty.
    """
    agg = AggregateType.parse(agg)
    zero_valued = (
        AggregateType.SUM,
        AggregateType.COUNT,
        AggregateType.COUNT_DISTINCT,
    )
    value = 0.0 if agg in zero_valued else float("nan")
    return AQPResult(
        estimate=value,
        ci_half_width=0.0,
        variance=0.0,
        hard_lower=value,
        hard_upper=value,
        tuples_processed=0,
        tuples_skipped=population,
        exact=True,
    )
