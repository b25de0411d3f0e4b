"""The object-path oracle: Section 3.3 over node and stratum objects.

``src/`` answers every query from flat arrays (``repro.core.soa``).  This
module is the independent reference those kernels are held to, bit for bit:
the sequential MCF stack descent of Algorithm 1 over ``PartitionNode``
objects, and per-leaf estimation over one ``Stratum`` at a time through the
estimator functions the ST and AQP++ baselines run on
(``repro.sampling.estimators``, ``Stratum.match_mask``,
``repro.aggregation.strat_agg.hard_bounds``).  Nothing under ``src/`` imports
it (``tests/test_layering.py``).

The objects come from one of two places:

* :func:`objects_of` decodes them from a synopsis' ``export_buffers()`` —
  whatever state the arrays are in (after updates, after a load);
* :func:`built_with_objects` hands back the builder's *own* tree, strata and
  sketches of a fresh build, before they were flattened, so the oracle is
  not only ever fed the arrays' reading of themselves.

Every function taking ``source`` accepts a :class:`SynopsisObjects` or
anything with ``export_buffers()`` (decoded on the spot; hold on to
:func:`objects_of`'s result to query a fixed state many times).
"""

from __future__ import annotations

import contextlib
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.aggregation.partition import PartitionStats
from repro.aggregation.strat_agg import hard_bounds
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.tree import PartitionNode, PartitionTree
from repro.query.aggregates import SKETCH_AGGREGATES, AggregateType
from repro.query.predicate import Box, Interval, RectPredicate, Relation
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.sampling.estimators import (
    EstimateWithVariance,
    ratio_estimate,
    stratum_count_contribution,
    stratum_sum_contribution,
)
from repro.sampling.stratified import Stratum
from repro.sketches.union import (
    DistinctSketchUnion,
    LeafSketches,
    PartialLeaf,
    QuantileSketchUnion,
    frontier_union,
    sketch_union_result,
    unpack_leaf_sketches,
)


@dataclass
class SynopsisObjects:
    """A synopsis as the objects the builder assembles (and ``src/`` drops)."""

    tree: PartitionTree
    leaf_samples: list[Stratum]
    leaf_sketches: list[LeafSketches] | None
    value_column: str
    lam: float
    zero_variance_rule: bool
    with_fpc: bool

    @property
    def population_size(self) -> int:
        """Number of tuples summarized (the root's COUNT)."""
        return self.tree.root.stats.count

    def synopsis(self) -> PASSSynopsis:
        """Flatten these objects (as they are now) into a fresh synopsis."""
        return PASSSynopsis(
            self.tree,
            self.leaf_samples,
            self.value_column,
            lam=self.lam,
            zero_variance_rule=self.zero_variance_rule,
            with_fpc=self.with_fpc,
            leaf_sketches=self.leaf_sketches,
        )


# ----------------------------------------------------------------------
# Where the objects come from
# ----------------------------------------------------------------------
def objects_of(source) -> SynopsisObjects:
    """The objects ``source.export_buffers()`` decodes to (``source`` itself
    when it already is a :class:`SynopsisObjects`)."""
    if isinstance(source, SynopsisObjects):
        return source
    header, arrays = source.export_buffers()
    columns = list(header["columns"])
    lows, highs = arrays["col_lows"].T.tolist(), arrays["col_highs"].T.tolist()
    stats = zip(
        *(arrays[f"node_{name}"].tolist() for name in ("sum", "count", "min", "max"))
    )
    nodes = [
        PartitionNode(
            box=Box(
                {column: Interval(lo, hi) for column, lo, hi in zip(columns, low, high)}
            ),
            stats=PartitionStats(*node_stats),
            leaf_index=None if leaf < 0 else leaf,
        )
        for low, high, node_stats, leaf in zip(
            lows, highs, stats, arrays["leaf_of_row"].tolist()
        )
    ]
    # Geometry order lists siblings right to left (the descent's pop order).
    for row, parent in enumerate(arrays["parent"].tolist()):
        if row:
            nodes[parent].children.insert(0, nodes[row])
    leaves = sorted(
        (node for node in nodes if node.leaf_index is not None),
        key=lambda node: node.leaf_index,
    )
    offsets = arrays["sample_offsets"].tolist()
    strata = [
        Stratum(
            box=leaf.box,
            size=leaf.stats.count,
            sample_columns={
                column: arrays[f"sample/{column}"][start:stop]
                for column in header["sample_columns"]
            },
        )
        for leaf, start, stop in zip(leaves, offsets, offsets[1:])
    ]
    keys = list(header["sketch_keys"])
    return SynopsisObjects(
        tree=PartitionTree(nodes[0], leaves),
        leaf_samples=strata,
        leaf_sketches=unpack_leaf_sketches(keys, arrays) if keys else None,
        value_column=header["value_column"],
        lam=header["lam"],
        zero_variance_rule=header["zero_variance_rule"],
        with_fpc=header["with_fpc"],
    )


@contextlib.contextmanager
def recording_builds() -> Iterator[list[SynopsisObjects]]:
    """Collect the objects every ``PASSSynopsis(tree, strata, ...)`` is given.

    Inside the block the constructor is wrapped; the yielded list receives
    one :class:`SynopsisObjects` per synopsis built from objects, holding the
    builder's own tree, strata and sketches (not copies).
    """
    builds: list[SynopsisObjects] = []
    original = PASSSynopsis.__init__
    signature = inspect.signature(original)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        given = bound.arguments
        builds.append(
            SynopsisObjects(
                tree=given["tree"],
                leaf_samples=list(given["leaf_samples"]),
                leaf_sketches=(
                    None
                    if given["leaf_sketches"] is None
                    else list(given["leaf_sketches"])
                ),
                value_column=given["value_column"],
                lam=given["lam"],
                zero_variance_rule=given["zero_variance_rule"],
                with_fpc=given["with_fpc"],
            )
        )
        original(*args, **kwargs)

    PASSSynopsis.__init__ = recording
    try:
        yield builds
    finally:
        PASSSynopsis.__init__ = original


def built_with_objects(build: Callable, *args, **kwargs):
    """``(build(*args, **kwargs), the objects of the one synopsis it built)``."""
    with recording_builds() as builds:
        built = build(*args, **kwargs)
    (objects,) = builds
    return built, objects


# ----------------------------------------------------------------------
# Algorithm 1: the Minimal Coverage Frontier, as a stack descent
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MCFResult:
    """Outcome of an MCF traversal for one query predicate.

    Attributes
    ----------
    covered:
        Nodes fully covered by the predicate (answered exactly).
    partial:
        Leaf nodes partially overlapped by the predicate (answered from
        samples).
    nodes_visited:
        Number of tree nodes examined; the paper's O(gamma log B) cost.
    """

    covered: tuple[PartitionNode, ...]
    partial: tuple[PartitionNode, ...]
    nodes_visited: int

    @property
    def is_exact(self) -> bool:
        """True when no partial overlaps remain (the query aligns with the tree)."""
        return not self.partial


def minimal_coverage_frontier(
    tree: PartitionTree,
    predicate: RectPredicate,
    zero_variance_rule: bool = False,
) -> MCFResult:
    """Run Algorithm 1 for a query predicate.

    With ``zero_variance_rule``, any partially-overlapped node whose values
    all coincide (min == max) is treated as covered — valid for AVG queries
    only (Section 3.4).
    """
    covered: list[PartitionNode] = []
    partial: list[PartitionNode] = []
    visited = 0

    stack = [tree.root]
    while stack:
        node = stack.pop()
        visited += 1
        relation = predicate.relation_to_box(node.box)
        if relation == Relation.DISJOINT:
            continue
        if relation == Relation.COVER:
            covered.append(node)
            continue
        if zero_variance_rule and node.stats.has_zero_variance:
            covered.append(node)
            continue
        if node.is_leaf:
            partial.append(node)
            continue
        stack.extend(node.children)
    return MCFResult(
        covered=tuple(covered), partial=tuple(partial), nodes_visited=visited
    )


def lookup(source, query: AggregateQuery) -> MCFResult:
    """The MCF index lookup a query is answered from (AVG alone descends
    under the zero-variance rule)."""
    objects = objects_of(source)
    return minimal_coverage_frontier(
        objects.tree,
        query.predicate,
        zero_variance_rule=objects.zero_variance_rule
        and query.agg == AggregateType.AVG,
    )


# ----------------------------------------------------------------------
# Section 3.3 over the objects
# ----------------------------------------------------------------------
def query_object(source, query: AggregateQuery, lam: float | None = None) -> AQPResult:
    """Answer a query by traversing the Python object graph.

    Same semantics as ``PASSSynopsis.query``; the flat kernels are
    property-tested bit-identical against this implementation.
    """
    objects = objects_of(source)
    if query.value_column != objects.value_column:
        raise ValueError(
            f"synopsis was built for column {objects.value_column!r}, "
            f"query aggregates {query.value_column!r}"
        )
    lam = objects.lam if lam is None else lam
    if query.agg in SKETCH_AGGREGATES:
        return sketch_union_result(
            query, sketch_union_object(objects, query), objects.population_size
        )
    frontier = lookup(objects, query)
    covered_stats = [node.stats for node in frontier.covered]
    partial_nodes = list(frontier.partial)
    partial_stats = [node.stats for node in partial_nodes]
    bounds = hard_bounds(query.agg, covered_stats, partial_stats)

    processed = sum(
        objects.leaf_samples[node.leaf_index].sample_size for node in partial_nodes
    )
    partial_population = sum(node.size for node in partial_nodes)
    skipped = objects.population_size - partial_population

    agg = query.agg
    if agg in (AggregateType.MIN, AggregateType.MAX):
        return _extremum_answer(
            objects, agg, query, frontier, bounds, processed, skipped
        )
    if agg == AggregateType.AVG:
        estimate = _avg_estimate(objects, query, frontier)
    else:
        estimate = _sum_count_estimate(objects, agg, query, frontier)

    exact = frontier.is_exact
    if exact:
        half_width = 0.0
        variance = 0.0
    elif math.isnan(estimate.variance):
        half_width = float("nan")
        variance = float("nan")
    else:
        variance = estimate.variance
        half_width = lam * math.sqrt(max(variance, 0.0))
    return AQPResult(
        estimate=estimate.estimate,
        ci_half_width=half_width,
        variance=variance,
        hard_lower=bounds.lower,
        hard_upper=bounds.upper,
        tuples_processed=processed,
        tuples_skipped=skipped,
        exact=exact,
    )


def sketch_union_object(
    source, query: AggregateQuery
) -> QuantileSketchUnion | DistinctSketchUnion:
    """``PASSSynopsis.sketch_union`` over the object frontier.

    Walks node objects and strata to produce what the flat engine reads off
    its arrays — covered leaf indices and per-partial-leaf matched sample
    values — and hands them to the same merge loops.
    """
    objects = objects_of(source)
    frontier = lookup(objects, query)
    covered_leaves = [
        node.leaf_index
        for covered in frontier.covered
        for node in covered.iter_subtree()
        if node.is_leaf
    ]

    def partial_leaves() -> Iterator[PartialLeaf]:
        for node in frontier.partial:
            if node.size == 0:
                continue
            stratum = objects.leaf_samples[node.leaf_index]
            matched = np.zeros(0, dtype=float)
            if stratum.sample_size:
                matched = stratum.sample_values(objects.value_column)[
                    stratum.match_mask(query)
                ]
            yield (
                node.leaf_index,
                node.size,
                node.stats.min,
                node.stats.max,
                stratum.sample_size,
                matched,
            )

    return frontier_union(
        query.agg, objects.leaf_sketches, covered_leaves, partial_leaves()
    )


def _covered_sum_count(agg: AggregateType, covered: Sequence[PartitionNode]) -> float:
    if agg == AggregateType.SUM:
        return sum(node.stats.sum for node in covered)
    return float(sum(node.stats.count for node in covered))


def _partial_contribution(
    objects: SynopsisObjects,
    agg: AggregateType,
    query: AggregateQuery,
    node: PartitionNode,
) -> EstimateWithVariance:
    if node.size == 0:
        # An empty partition (possible for k-d leaves over sparse regions)
        # contributes exactly nothing.
        return EstimateWithVariance(0.0, 0.0)
    stratum = objects.leaf_samples[node.leaf_index]
    match_mask = stratum.match_mask(query)
    if agg == AggregateType.SUM:
        return stratum_sum_contribution(
            stratum.sample_values(objects.value_column),
            match_mask,
            node.size,
            with_fpc=objects.with_fpc,
        )
    return stratum_count_contribution(match_mask, node.size, with_fpc=objects.with_fpc)


def _sum_count_estimate(
    objects: SynopsisObjects,
    agg: AggregateType,
    query: AggregateQuery,
    frontier: MCFResult,
) -> EstimateWithVariance:
    exact_part = _covered_sum_count(agg, frontier.covered)
    total = EstimateWithVariance(exact_part, 0.0)
    for node in frontier.partial:
        contribution = _partial_contribution(objects, agg, query, node)
        if math.isnan(contribution.variance):
            # A partial leaf without samples: its contribution is unknown;
            # fall back to half of its hard-bound width as a conservative
            # point estimate with unknown variance.
            stats = node.stats
            midpoint = 0.5 * (stats.sum if agg == AggregateType.SUM else stats.count)
            total = EstimateWithVariance(total.estimate + midpoint, float("nan"))
            continue
        total = total + contribution
    return total


def _avg_estimate(
    objects: SynopsisObjects, query: AggregateQuery, frontier: MCFResult
) -> EstimateWithVariance:
    """AVG as the ratio of the SUM and COUNT estimates (delta method)."""
    numerator = _sum_count_estimate(objects, AggregateType.SUM, query, frontier)
    denominator = _sum_count_estimate(objects, AggregateType.COUNT, query, frontier)
    if denominator.estimate == 0:
        return EstimateWithVariance(float("nan"), float("nan"))
    if frontier.is_exact:
        return EstimateWithVariance(numerator.estimate / denominator.estimate, 0.0)
    return ratio_estimate(numerator, denominator)


def _extremum_answer(
    objects: SynopsisObjects,
    agg: AggregateType,
    query: AggregateQuery,
    frontier: MCFResult,
    bounds,
    processed: int,
    skipped: int,
) -> AQPResult:
    """MIN / MAX: exact over covered nodes, sample-refined over partial leaves."""
    candidates: list[float] = []
    for node in frontier.covered:
        value = node.stats.max if agg == AggregateType.MAX else node.stats.min
        if not math.isinf(value):
            candidates.append(value)
    for node in frontier.partial:
        stratum = objects.leaf_samples[node.leaf_index]
        matched = stratum.sample_values(objects.value_column)[stratum.match_mask(query)]
        if matched.shape[0]:
            candidates.append(
                float(matched.max() if agg == AggregateType.MAX else matched.min())
            )
    if candidates:
        estimate = max(candidates) if agg == AggregateType.MAX else min(candidates)
    else:
        estimate = float("nan")
    exact = frontier.is_exact
    return AQPResult(
        estimate=estimate,
        ci_half_width=0.0 if exact else float("nan"),
        variance=0.0 if exact else float("nan"),
        hard_lower=bounds.lower,
        hard_upper=bounds.upper,
        tuples_processed=processed,
        tuples_skipped=skipped,
        exact=exact,
    )
