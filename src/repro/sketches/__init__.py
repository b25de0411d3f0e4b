"""Mergeable sketch summaries for quantile and distinct-count aggregates.

The classic PASS aggregates (SUM / COUNT / AVG / MIN / MAX) merge exactly
across partitions and shards because their sufficient statistics are linear.
Percentiles and distinct counts are not linear, but they admit *mergeable
sketches* — compact summaries ``S(A)`` with a ``merge`` operation satisfying
``estimate(merge(S(A), S(B)))`` within the same error bound as
``estimate(S(A ∪ B)))`` — so a frontier's covered leaves answer through
their merged sketches:

* :class:`~repro.sketches.quantile.QuantileSketch` — a KLL/MRL-style
  compactor hierarchy answering rank / quantile queries with a *certified*
  additive rank-error bound the sketch maintains itself;
* :class:`~repro.sketches.distinct.DistinctSketch` — a KMV (k-minimum-values)
  summary answering distinct-count queries, exact until it has seen more
  than ``k`` distinct values and within a documented relative error after;
* :class:`~repro.sketches.union.LeafSketches` — the pair of sketches a PASS
  build attaches to every leaf partition;
* :class:`~repro.sketches.union.QuantileSketchUnion` /
  :class:`~repro.sketches.union.DistinctSketchUnion` — the frontier-union
  form a synopsis reduces a query to
  (:func:`~repro.sketches.union.frontier_union`, the one pair of merge
  loops): mergeable across shards, convertible to an
  :class:`~repro.result.AQPResult` by
  :func:`~repro.sketches.union.sketch_union_result`.

Both sketches persist through ``to_arrays`` / ``from_arrays`` exactly (the
round trip is bit-identical), ignore NaN inputs (SQL NULL semantics), and
are deterministic: merging is exactly commutative, and associative up to the
certified error bound (bit-exact for :class:`DistinctSketch`).
"""

from repro.sketches.distinct import DistinctSketch
from repro.sketches.quantile import QuantileSketch
from repro.sketches.union import (
    DistinctSketchUnion,
    LeafSketches,
    QuantileSketchUnion,
)

__all__ = [
    "QuantileSketch",
    "DistinctSketch",
    "LeafSketches",
    "QuantileSketchUnion",
    "DistinctSketchUnion",
]
