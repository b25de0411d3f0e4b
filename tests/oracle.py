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

The module is also the reference of the 1-D partitioners (Section 4.3,
Appendix A): :class:`ScalarMaxVarianceOracle` scores one rank range per call
in Python floats, :func:`scalar_run_dp` solves the DP one row and one binary
search at a time, and :func:`scalar_partitioners` swaps both into
``repro.partitioning`` so its public partitioners can be run against their
lockstep, batched selves.
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
from repro.partitioning import dp, hill_climbing
from repro.partitioning.variance import (
    avg_query_variance,
    count_query_variance,
    sum_query_variance,
)
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


# ----------------------------------------------------------------------
# The 1-D partitioners, one rank range and one DP row at a time
# ----------------------------------------------------------------------
class ScalarMaxVarianceOracle:
    """``MaxVarianceOracle`` over ints only: one rank range per Python call.

    Same constructor and the same approximations (median split for SUM,
    closed form for COUNT, sparse-table window max for AVG, the O(range^2)
    enumeration when ``exact``), evaluated in Python floats over list prefix
    sums and a list-of-levels sparse table.
    """

    def __init__(self, values, agg=AggregateType.SUM, delta=0.01, exact=False):
        values = np.asarray(values, dtype=float)
        self._agg = AggregateType.parse(agg)
        if self._agg not in (AggregateType.SUM, AggregateType.COUNT, AggregateType.AVG):
            raise ValueError("partitioning supports SUM, COUNT and AVG query templates")
        if not 0.0 < delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        self._exact = exact
        self._m = int(values.shape[0])
        sums_sq = np.concatenate([[0.0], np.cumsum(values**2)])
        self._prefix = np.concatenate([[0.0], np.cumsum(values)]).tolist()
        self._prefix_sq = sums_sq.tolist()
        self._window = max(1, int(round(delta * self._m)))
        self._levels: list[list[float]] | None = None
        if self._agg == AggregateType.AVG and not exact and self._m >= self._window:
            starts = np.arange(0, self._m - self._window + 1)
            scores = sums_sq[starts + self._window] - sums_sq[starts]
            levels = [scores]
            while 2 << (len(levels) - 1) <= scores.shape[0]:
                half = 1 << (len(levels) - 1)
                prev = levels[-1]
                size = scores.shape[0] - 2 * half + 1
                levels.append(np.maximum(prev[:size], prev[half : half + size]))
            self._levels = [level.tolist() for level in levels]

    @property
    def n_samples(self) -> int:
        """Number of samples the oracle indexes."""
        return self._m

    def max_variance(self, start: int, end: int) -> float:
        """Approximate max variance of a query inside rank range ``[start, end]``."""
        if start > end:
            return 0.0
        if self._exact:
            return self._exact_max(start, end)
        if self._agg == AggregateType.COUNT:
            n_partition = end - start + 1
            return count_query_variance(n_partition, n_partition / 2.0)
        if self._agg == AggregateType.SUM:
            return self._median_split_max(start, end)
        return self._avg_window_max(start, end)

    def _range_sums(self, start: int, end: int) -> tuple[float, float]:
        if start < 0 or end >= self._m or start > end:
            raise IndexError(f"invalid range [{start}, {end}] for length {self._m}")
        return (
            self._prefix[end + 1] - self._prefix[start],
            self._prefix_sq[end + 1] - self._prefix_sq[start],
        )

    def _median_split_max(self, start: int, end: int) -> float:
        if start == end:
            return sum_query_variance(1.0, *self._range_sums(start, end))
        mid = (start + end) // 2
        left = self._partition_variance(start, mid, start, end)
        right = self._partition_variance(mid + 1, end, start, end)
        return max(left, right)

    def _avg_window_max(self, start: int, end: int) -> float:
        n_partition = end - start + 1
        window = self._window
        if n_partition < 2 * window or self._levels is None:
            return 0.0
        last_start = end - window + 1
        if start < 0 or last_start >= len(self._levels[0]):
            raise IndexError(f"invalid range [{start}, {last_start}]")
        level = int(math.floor(math.log2(last_start - start + 1)))
        left = self._levels[level][start]
        right = self._levels[level][last_start - (1 << level) + 1]
        best_score = max(left, right)
        return (n_partition - window) * best_score / (n_partition * window * window)

    def _partition_variance(
        self, q_start: int, q_end: int, p_start: int, p_end: int
    ) -> float:
        n_partition = p_end - p_start + 1
        q_sum, q_sum_sq = self._range_sums(q_start, q_end)
        n_query = q_end - q_start + 1
        if self._agg == AggregateType.SUM:
            return sum_query_variance(n_partition, q_sum, q_sum_sq)
        if self._agg == AggregateType.COUNT:
            return count_query_variance(n_partition, n_query)
        return avg_query_variance(n_partition, n_query, q_sum, q_sum_sq)

    def _exact_max(self, start: int, end: int) -> float:
        best = 0.0
        min_len = self._window if self._agg == AggregateType.AVG else 1
        for q_start in range(start, end + 1):
            for q_end in range(q_start + min_len - 1, end + 1):
                best = max(best, self._partition_variance(q_start, q_end, start, end))
        return best


def scalar_run_dp(
    oracle, n_partitions: int, use_binary_search: bool
) -> tuple[list[int], float]:
    """The min-max DP one row ``i`` and one candidate split at a time."""
    m = oracle.n_samples
    if m == 0:
        raise ValueError("cannot partition an empty sample")
    k = max(1, min(n_partitions, m))
    best = np.full((m + 1, k), np.inf)
    parent = np.full((m + 1, k), -1, dtype=int)
    best[0, :] = 0.0
    for i in range(1, m + 1):
        best[i, 0] = oracle.max_variance(0, i - 1)
        parent[i, 0] = 0
    for j in range(1, k):
        for i in range(1, m + 1):
            if use_binary_search:
                h = _binary_search_split(oracle, best, i, j)
                candidates = [c for c in (h - 1, h, h + 1) if 0 <= c <= i - 1]
            else:
                candidates = list(range(0, i))
            best_value = np.inf
            best_h = 0
            for candidate in candidates:
                value = max(
                    best[candidate, j - 1], oracle.max_variance(candidate, i - 1)
                )
                if value < best_value:
                    best_value = value
                    best_h = candidate
            best[i, j] = best_value
            parent[i, j] = best_h
    breaks: list[int] = []
    i = m
    for j in range(k - 1, 0, -1):
        h = int(parent[i, j])
        if 0 < h < m:
            breaks.append(h - 1)
        i = h
        if i <= 0:
            break
    breaks.sort()
    return breaks, float(best[m, k - 1])


def _binary_search_split(oracle, best: np.ndarray, i: int, j: int) -> int:
    """Where ``best[h, j-1]`` (non-decreasing) crosses the bucket ``[h, i-1]``."""
    lo, hi = 0, i - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if best[mid, j - 1] < oracle.max_variance(mid, i - 1):
            lo = mid + 1
        else:
            hi = mid
    return lo


def scalar_objective(oracle, breaks: list[int]) -> float:
    """Hill climbing's max single-partition variance, one partition per call."""
    m = oracle.n_samples
    edges = [-1] + sorted(breaks) + [m - 1]
    worst = 0.0
    for start_edge, end_edge in zip(edges[:-1], edges[1:]):
        start = start_edge + 1
        if start > end_edge:
            continue
        worst = max(worst, oracle.max_variance(start, end_edge))
    return worst


@contextlib.contextmanager
def scalar_partitioners() -> Iterator[None]:
    """Run ``repro.partitioning``'s 1-D partitioners on the scalar reference.

    Inside the block ADP, the naive DP and hill climbing build a
    :class:`ScalarMaxVarianceOracle` and solve with :func:`scalar_run_dp` /
    :func:`scalar_objective`; everything around them (sampling, sorting,
    cut values) is the library's own code.
    """
    patches = [
        (dp, "MaxVarianceOracle", ScalarMaxVarianceOracle),
        (dp, "_run_dp", scalar_run_dp),
        (hill_climbing, "MaxVarianceOracle", ScalarMaxVarianceOracle),
        (hill_climbing, "_objective", scalar_objective),
    ]
    originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, replacement in patches:
        setattr(module, name, replacement)
    try:
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
