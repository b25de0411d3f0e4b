"""Per-leaf sketch attachment and mergeable frontier unions.

:class:`LeafSketches` is what the builder attaches to every leaf partition:
one quantile sketch and one distinct-count sketch over the leaf's aggregation
values.  A query then reduces, along its MCF frontier, to a *union* object:

* fully covered nodes contribute the merged sketches of their leaves
  (an exact summary of the region's rows, up to sketch error);
* partially overlapped leaves contribute through their stratified sample
  (quantiles: the matched sample values re-weighted to the leaf's estimated
  matching population; distinct counts: a lower sketch from the matched
  samples and an upper sketch from the whole leaf) plus a *boundary weight*
  — the total population of partial leaves — that widens the certified
  bounds to cover any misattribution at the predicate boundary.

That reduction is :func:`frontier_union` (:func:`quantile_union` /
:func:`distinct_union`): the merge loops exist once, over plain leaf indices
and matched-value arrays, and do not care who found the frontier — the flat engine
(:meth:`repro.core.soa.FlatSynopsis.sketch_union`, the runtime path) or the
object oracle of ``tests/oracle.py``.

Union objects are mergeable with the same discipline as the sketches
themselves (two reduced queries over disjoint data merge into the reduced
query over their union), and :func:`sketch_union_result` turns any union
into an :class:`~repro.result.AQPResult`.

:func:`pack_leaf_sketches` / :func:`unpack_leaf_sketches` carry a synopsis'
whole sketch list as a handful of ragged-packed arrays (the form the
shared-memory segments hold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.query.aggregates import AggregateType
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.sketches.distinct import DEFAULT_DISTINCT_K, DistinctSketch
from repro.sketches.quantile import DEFAULT_QUANTILE_K, QuantileSketch

__all__ = [
    "LeafSketches",
    "PartialLeaf",
    "QuantileSketchUnion",
    "DistinctSketchUnion",
    "SketchUnion",
    "frontier_union",
    "quantile_union",
    "distinct_union",
    "sketch_union_result",
    "sketch_union_results",
    "shared_union_results",
    "pack_leaf_sketches",
    "unpack_leaf_sketches",
]

#: One non-empty partially overlapped leaf as the merge loops read it:
#: ``(leaf index, population, node min, node max, sample size, matched
#: sample values)``.  The matched array is empty for an unsampled leaf.
PartialLeaf = tuple[int, int, float, float, int, np.ndarray]


@dataclass
class LeafSketches:
    """The mergeable sketches attached to one leaf partition."""

    quantile: QuantileSketch
    distinct: DistinctSketch

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        quantile_k: int = DEFAULT_QUANTILE_K,
        distinct_k: int = DEFAULT_DISTINCT_K,
    ) -> "LeafSketches":
        """Build both sketches over a leaf's aggregation values (NaN ignored)."""
        quantile = QuantileSketch(quantile_k)
        quantile.update_array(values)
        distinct = DistinctSketch(distinct_k)
        distinct.update_array(values)
        return cls(quantile=quantile, distinct=distinct)

    def storage_bytes(self) -> int:
        """Approximate combined footprint of both sketches."""
        return self.quantile.storage_bytes() + self.distinct.storage_bytes()

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Export both sketches as namespaced flat arrays (exact round trip)."""
        arrays: dict[str, np.ndarray] = {}
        for key, value in self.quantile.to_arrays().items():
            arrays[f"quantile/{key}"] = value
        for key, value in self.distinct.to_arrays().items():
            arrays[f"distinct/{key}"] = value
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "LeafSketches":
        """Rebuild an attachment exported with :meth:`to_arrays`."""
        quantile = {
            key[len("quantile/") :]: value
            for key, value in arrays.items()
            if key.startswith("quantile/")
        }
        distinct = {
            key[len("distinct/") :]: value
            for key, value in arrays.items()
            if key.startswith("distinct/")
        }
        return cls(
            quantile=QuantileSketch.from_arrays(quantile),
            distinct=DistinctSketch.from_arrays(distinct),
        )


@dataclass
class QuantileSketchUnion:
    """A QUANTILE query reduced to one mergeable sketch plus boundary slack.

    Attributes
    ----------
    sketch:
        Merged quantile summary: exact leaf sketches of the covered region
        plus the re-weighted matched samples of partially overlapped leaves.
    boundary_weight:
        Total population of the partially overlapped leaves.  Any rank can be
        misattributed by at most this much mass (wrong sample-weight
        estimate, wrong values at the boundary) plus as much again for the
        shifted rank target, so certified bounds widen by
        ``2 * boundary_weight``.
    value_floor / value_ceil:
        Extrema of the partial leaves' node statistics (``+inf`` / ``-inf``
        when there are none): deterministic envelopes for boundary mass the
        sketch never saw.
    processed:
        Sample tuples touched while reducing the query.
    """

    sketch: QuantileSketch
    boundary_weight: int = 0
    value_floor: float = math.inf
    value_ceil: float = -math.inf
    processed: int = 0

    def rank_error_bound(self) -> int:
        """Certified additive rank-error bound of the reduced query."""
        return self.sketch.rank_error_bound() + 2 * self.boundary_weight

    @property
    def is_exact(self) -> bool:
        """True when the union provably holds the exact matching multiset."""
        return self.boundary_weight == 0 and self.sketch.is_exact

    def merge(self, other: "QuantileSketchUnion") -> "QuantileSketchUnion":
        """Union of two reduced queries over disjoint data."""
        return QuantileSketchUnion(
            sketch=self.sketch.merge(other.sketch),
            boundary_weight=self.boundary_weight + other.boundary_weight,
            value_floor=min(self.value_floor, other.value_floor),
            value_ceil=max(self.value_ceil, other.value_ceil),
            processed=self.processed + other.processed,
        )


@dataclass
class DistinctSketchUnion:
    """A COUNT_DISTINCT query reduced to a lower / upper sketch envelope.

    Attributes
    ----------
    lower:
        Covered-region leaf sketches merged with the *matched sample values*
        of partial leaves — a subset of the matching rows, so its estimate
        lower-bounds the true distinct count (within sketch error).
    upper:
        Covered-region leaf sketches merged with the *entire* sketches of
        partial leaves — a superset of the matching rows, so its estimate
        upper-bounds the true distinct count (within sketch error).  With no
        partial leaves both sketches coincide and the answer is a plain
        mergeable estimate.
    boundary_weight / processed:
        As in :class:`QuantileSketchUnion`.
    """

    lower: DistinctSketch
    upper: DistinctSketch
    boundary_weight: int = 0
    processed: int = 0

    @property
    def is_exact(self) -> bool:
        """True when the envelope collapses to an exact distinct count."""
        return self.boundary_weight == 0 and self.upper.is_exact

    def merge(self, other: "DistinctSketchUnion") -> "DistinctSketchUnion":
        """Union of two reduced queries over disjoint data."""
        return DistinctSketchUnion(
            lower=self.lower.merge(other.lower),
            upper=self.upper.merge(other.upper),
            boundary_weight=self.boundary_weight + other.boundary_weight,
            processed=self.processed + other.processed,
        )


#: What a sketch aggregate's frontier reduces to, whichever the kind.
SketchUnion = QuantileSketchUnion | DistinctSketchUnion


def pack_leaf_sketches(
    sketches: Sequence[LeafSketches],
) -> tuple[list[str], dict[str, np.ndarray]]:
    """Ragged-pack a synopsis' per-leaf sketches into a handful of arrays.

    Every leaf's :meth:`LeafSketches.to_arrays` export shares one key set;
    per key the leaves' arrays are concatenated (leaf-index order) into
    ``arrays["sketch/<key>"]``, and ``arrays["sketch/lengths"]`` (int64,
    ``n_leaves x n_keys``) records each leaf's element count per key,
    columns in the order of the returned key list.
    :func:`unpack_leaf_sketches` is the exact inverse.
    """
    exported = [leaf.to_arrays() for leaf in sketches]
    keys = list(exported[0])
    arrays = {
        "sketch/lengths": np.array(
            [[leaf[key].shape[0] for key in keys] for leaf in exported],
            dtype=np.int64,
        )
    }
    for key in keys:
        arrays[f"sketch/{key}"] = np.concatenate([leaf[key] for leaf in exported])
    return keys, arrays


def unpack_leaf_sketches(
    keys: Sequence[str], arrays: Mapping[str, np.ndarray]
) -> list[LeafSketches]:
    """Rebuild the sketch list packed by :func:`pack_leaf_sketches`.

    ``arrays`` may hold other buffers besides.  The rebuilt sketches own
    their memory (``from_arrays`` copies), so the packed arrays may be
    views over a mapping that is closed later.
    """
    lengths = arrays["sketch/lengths"]
    ends = np.cumsum(lengths, axis=0)
    starts = (ends - lengths).tolist()
    stops = ends.tolist()
    return [
        LeafSketches.from_arrays(
            {
                key: arrays[f"sketch/{key}"][
                    starts[leaf][column] : stops[leaf][column]
                ]
                for column, key in enumerate(keys)
            }
        )
        for leaf in range(lengths.shape[0])
    ]


def frontier_union(
    agg: AggregateType,
    sketches: Sequence[LeafSketches] | None,
    covered_leaves: Iterable[int],
    partial_leaves: Iterable[PartialLeaf],
) -> SketchUnion:
    """Reduce a sketch aggregate's frontier to its mergeable union.

    ``sketches`` is the synopsis' per-leaf list (None when it was built
    without); the other two arguments are those of :func:`quantile_union` /
    :func:`distinct_union`, which this dispatches to.
    """
    if agg not in (AggregateType.QUANTILE, AggregateType.COUNT_DISTINCT):
        raise ValueError(f"{agg.value} is not a sketch aggregate; use query()")
    if sketches is None:
        raise ValueError(
            "synopsis was built without sketches and cannot answer "
            f"{agg.value} queries; rebuild with PASSConfig(with_sketches=True)"
        )
    if agg == AggregateType.QUANTILE:
        return quantile_union(sketches, covered_leaves, partial_leaves)
    return distinct_union(sketches, covered_leaves, partial_leaves)


def quantile_union(
    sketches: Sequence[LeafSketches],
    covered_leaves: Iterable[int],
    partial_leaves: Iterable[PartialLeaf],
) -> QuantileSketchUnion:
    """Reduce a QUANTILE query's frontier to its mergeable union.

    ``covered_leaves`` are the leaf indices under the fully covered frontier
    nodes, in merge order; their pre-built sketches summarize the region
    exactly (up to sketch error).  Each of ``partial_leaves`` contributes
    its matched sample values re-weighted to the leaf's estimated matching
    population, plus its population as boundary weight and its node extrema
    as the envelope of mass the sketch never saw.
    """
    merged = QuantileSketch(sketches[0].quantile.k)
    for leaf in covered_leaves:
        merged = merged.merge(sketches[leaf].quantile)
    boundary = 0
    floor, ceil = math.inf, -math.inf
    processed = 0
    for _, size, low, high, sample_size, matched in partial_leaves:
        boundary += size
        floor = min(floor, low)
        ceil = max(ceil, high)
        processed += sample_size
        if matched.shape[0] == 0:
            continue
        weight = int(round(size * matched.shape[0] / sample_size))
        if weight > 0:
            merged.update_weighted(matched, weight)
    return QuantileSketchUnion(
        sketch=merged,
        boundary_weight=boundary,
        value_floor=floor,
        value_ceil=ceil,
        processed=processed,
    )


def distinct_union(
    sketches: Sequence[LeafSketches],
    covered_leaves: Iterable[int],
    partial_leaves: Iterable[PartialLeaf],
) -> DistinctSketchUnion:
    """Reduce a COUNT_DISTINCT query's frontier to its lower / upper envelope.

    Covered leaves feed both ends; each of ``partial_leaves`` adds its whole
    sketch to the upper end and a sketch of its matched sample values to
    the lower end (see :class:`DistinctSketchUnion`).
    """
    covered = DistinctSketch(sketches[0].distinct.k)
    for leaf in covered_leaves:
        covered = covered.merge(sketches[leaf].distinct)
    lower = covered
    upper = covered
    boundary = 0
    processed = 0
    for leaf, size, _, _, sample_size, matched in partial_leaves:
        boundary += size
        upper = upper.merge(sketches[leaf].distinct)
        processed += sample_size
        if matched.shape[0]:
            sample_sketch = DistinctSketch(lower.k)
            sample_sketch.update_array(matched)
            lower = lower.merge(sample_sketch)
    return DistinctSketchUnion(
        lower=lower,
        upper=upper,
        boundary_weight=boundary,
        processed=processed,
    )


def sketch_union_result(
    query: AggregateQuery, union: SketchUnion, population: int
) -> AQPResult:
    """Turn a (possibly merged) sketch union into an :class:`AQPResult`.

    :func:`sketch_union_results` for a single query.
    """
    return sketch_union_results([query], union, population)[0]


def sketch_union_results(
    queries: Sequence[AggregateQuery], union: SketchUnion, population: int
) -> list[AQPResult]:
    """Answer every query of one predicate and sketch kind from its union.

    A union depends only on the predicate and the sketch kind, never on the
    quantile asked for, so a cell's p50 / p95 / p99 are three assemblies of
    one union — and all their rank lookups read one sorted view of the
    merged sketch (:meth:`QuantileSketch.values_at_ranks`).  The same
    assembly serves every path, a sharded synopsis' (one stitched tree)
    included.

    * **QUANTILE** — the estimate is the merged sketch's value at rank
      ``ceil(q * n)`` (the nearest-rank / ``percentile_disc`` convention).
      The hard bounds are *certified*: the true quantile's rank differs
      from the target by at most the sketch's accumulated compaction error
      plus twice the boundary weight (misattributed boundary mass plus the
      shifted rank target), plus one rank of slack so the bounds also
      contain linearly *interpolated* quantiles (``percentile_cont`` /
      ``numpy.quantile``, which lie between the order statistics at
      ``target - 1`` and ``target + 1``).  The values at that widened rank
      window — stretched to the partial leaves' known extrema when it
      reaches past the represented range — therefore always contain the
      true answer under either convention.
    * **COUNT_DISTINCT** — the estimate is the midpoint of the lower
      (covered + matched samples) and upper (covered + whole partial leaves)
      sketch estimates; the hard bounds stretch each envelope end by the
      KMV error margin (exactly 0 while the sketches are unsaturated, a
      >99.7%-probability margin otherwise).

    No CLT interval exists for sketch aggregates: ``ci_half_width`` and
    ``variance`` are 0 for exact answers and NaN otherwise.
    """
    skipped = population - union.boundary_weight
    exact = union.is_exact
    if isinstance(union, QuantileSketchUnion):
        sketch = union.sketch
        n = sketch.n
        if n == 0:
            # Nothing represented: either a provably empty region (exact
            # NULL) or only unsampled boundary mass (bounded by partial
            # extrema when they exist).
            empty = union.boundary_weight == 0
            result = AQPResult(
                estimate=float("nan"),
                ci_half_width=0.0 if empty else float("nan"),
                variance=0.0 if empty else float("nan"),
                hard_lower=float("nan") if empty else union.value_floor,
                hard_upper=float("nan") if empty else union.value_ceil,
                tuples_processed=union.processed,
                tuples_skipped=skipped,
                exact=empty,
            )
            return [result] * len(queries)
        # +1 rank of slack: an interpolated (percentile_cont-style) true
        # quantile lies between the order statistics adjacent to the
        # nearest-rank target, so the certified window must straddle them.
        bound = union.rank_error_bound() + 1
        quantiles = [0.5 if query.quantile is None else query.quantile for query in queries]
        targets = [max(1, min(math.ceil(q * n), n)) for q in quantiles]
        values = iter(
            sketch.values_at_ranks(
                [r for t in targets for r in (t, t - bound, t + bound)]
            )
        )
        results = []
        for target, estimate, low, high in zip(targets, values, values, values):
            if target - bound < 1:
                low = min(sketch.min, union.value_floor)
            if target + bound > n:
                high = max(sketch.max, union.value_ceil)
            results.append(
                AQPResult(
                    estimate=estimate,
                    ci_half_width=0.0 if exact else float("nan"),
                    variance=0.0 if exact else float("nan"),
                    hard_lower=low,
                    hard_upper=high,
                    tuples_processed=union.processed,
                    tuples_skipped=skipped,
                    exact=exact,
                )
            )
        return results

    lower_estimate = union.lower.estimate()
    upper_estimate = union.upper.estimate()
    estimate = upper_estimate if exact else 0.5 * (lower_estimate + upper_estimate)
    hard_lower = max(0.0, lower_estimate * (1.0 - union.lower.error_fraction()))
    hard_upper = upper_estimate * (1.0 + union.upper.error_fraction())
    result = AQPResult(
        estimate=estimate,
        ci_half_width=0.0 if exact else float("nan"),
        variance=0.0 if exact else float("nan"),
        hard_lower=hard_lower,
        hard_upper=hard_upper,
        tuples_processed=union.processed,
        tuples_skipped=skipped,
        exact=exact,
    )
    return [result] * len(queries)


def shared_union_results(
    pending: Iterable[tuple[Hashable, Hashable, AggregateQuery]],
    reduce: Callable[[Hashable, AggregateQuery], SketchUnion],
    population: int,
) -> list[tuple[Hashable, AQPResult]]:
    """Answer sketch queries with one reduction per (predicate, sketch kind).

    ``pending`` holds ``(target, key, query)`` triples: ``key`` names the
    (predicate, sketch kind) pair the query reduces along, ``target`` is the
    caller's handle for the answer.  ``reduce(target, query)`` builds the
    union and is called once per distinct key, for the first triple carrying
    it; every query of the key is assembled from that union
    (:func:`sketch_union_results`), so the ``(target, result)`` pairs
    returned carry the bits of per-query execution — only the repeated
    identical reductions and sorts are gone.  The batch executor and the
    grouped executor share unions through this function, and nothing it
    builds outlives the call: an update between two calls is always seen.
    """
    groups: dict[Hashable, list[tuple[Hashable, Hashable, AggregateQuery]]] = {}
    for item in pending:
        groups.setdefault(item[1], []).append(item)
    answered = []
    for members in groups.values():
        union = reduce(members[0][0], members[0][2])
        results = sketch_union_results([m[2] for m in members], union, population)
        answered.extend(zip((m[0] for m in members), results))
    return answered
