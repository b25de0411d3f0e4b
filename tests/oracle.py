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
* :func:`reference_build` builds them from the table the way the builder did
  before it emitted arrays directly: one ``Box.mask`` scan per leaf for the
  statistics and another for the samples, a ``PartitionTree`` grouped
  bottom-up from ``PartitionNode`` objects, one ``Stratum`` per leaf, laid
  out by :func:`flatten`.  :func:`built_with_objects` runs ``build_pass``
  and the reference build side by side, asserts their arrays are byte for
  byte the same, and hands back the reference's objects, so the oracle is
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
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.aggregation.partition import PartitionStats
from repro.aggregation.strat_agg import hard_bounds
from repro.core import builder
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.data.table import Table
from repro.partitioning import dp, hill_climbing
from repro.partitioning.variance import (
    avg_query_variance,
    count_query_variance,
    sum_query_variance,
)
from repro.query.aggregates import (
    SKETCH_AGGREGATES,
    AggregateType,
    empty_group_result,
)
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
    pack_leaf_sketches,
    sketch_union_result,
    unpack_leaf_sketches,
)


# ----------------------------------------------------------------------
# The partition tree as node objects (Definition 3.1)
# ----------------------------------------------------------------------
@dataclass
class PartitionNode:
    """One node of a partition tree.

    Attributes
    ----------
    box:
        The node's partitioning condition ``psi``.
    stats:
        Precomputed aggregates of the node's tuples (mutable so dynamic
        updates can maintain them in place).
    children:
        Child nodes; empty for leaves.
    leaf_index:
        Position of the node in the tree's leaf list when it is a leaf,
        ``None`` otherwise.  The PASS synopsis uses it to find the stratified
        sample attached to the leaf.
    """

    box: Box
    stats: PartitionStats
    children: list["PartitionNode"] = field(default_factory=list)
    leaf_index: int | None = None

    @property
    def is_leaf(self) -> bool:
        """True when the node has no children."""
        return not self.children

    @property
    def size(self) -> int:
        """Number of dataset tuples in the node's partition."""
        return self.stats.count

    def iter_subtree(self) -> Iterator["PartitionNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()


@dataclass(frozen=True)
class _TreeGeometry:
    """Flat, immutable geometry of a partition tree for array MCF lookups.

    Attributes
    ----------
    nodes:
        Every tree node in the exact visit order of the sequential MCF
        descent (reverse-child DFS preorder), so emitting frontier members
        in index order reproduces the sequential node order bit for bit.
    parent:
        Index of each node's parent in ``nodes`` (-1 for the root).
    depth:
        Each node's distance from the root.
    column_index:
        Column name -> column position of the bound arrays.
    lows / highs:
        Per-node box bounds, shape ``(n_nodes, n_columns)`` (±inf for
        unconstrained columns).
    is_leaf:
        Per-node leaf flag.
    """

    nodes: tuple[PartitionNode, ...]
    parent: np.ndarray
    depth: np.ndarray
    column_index: dict[str, int]
    lows: np.ndarray
    highs: np.ndarray
    is_leaf: np.ndarray
    leaf_index: np.ndarray

    @classmethod
    def build(cls, root: PartitionNode) -> "_TreeGeometry":
        nodes: list[PartitionNode] = []
        parents: list[int] = []
        depths: list[int] = []
        stack: list[tuple[PartitionNode, int, int]] = [(root, -1, 0)]
        while stack:
            node, parent_index, depth = stack.pop()
            index = len(nodes)
            nodes.append(node)
            parents.append(parent_index)
            depths.append(depth)
            stack.extend((child, index, depth + 1) for child in node.children)

        columns: dict[str, None] = {}
        for node in nodes:
            for column in node.box.columns:
                columns.setdefault(column, None)
        column_index = {column: c for c, column in enumerate(columns)}
        lows = np.full((len(nodes), len(column_index)), -np.inf)
        highs = np.full((len(nodes), len(column_index)), np.inf)
        for i, node in enumerate(nodes):
            for column, c in column_index.items():
                interval = node.box.interval(column)
                lows[i, c] = interval.low
                highs[i, c] = interval.high
        return cls(
            nodes=tuple(nodes),
            parent=np.asarray(parents, dtype=np.int64),
            depth=np.asarray(depths, dtype=np.int64),
            column_index=column_index,
            lows=lows,
            highs=highs,
            is_leaf=np.fromiter(
                (node.is_leaf for node in nodes), dtype=bool, count=len(nodes)
            ),
            leaf_index=np.fromiter(
                (
                    node.leaf_index if node.leaf_index is not None else -1
                    for node in nodes
                ),
                dtype=np.int64,
                count=len(nodes),
            ),
        )


class PartitionTree:
    """A partition tree built bottom-up from a flat leaf partitioning.

    Parameters
    ----------
    root:
        Root node covering the whole dataset.
    leaves:
        The leaf nodes in leaf-index order.
    """

    def __init__(self, root: PartitionNode, leaves: Sequence[PartitionNode]) -> None:
        self._root = root
        self._leaves = list(leaves)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build_from_leaves(
        cls,
        leaf_boxes: Sequence[Box],
        leaf_stats: Sequence[PartitionStats],
        fanout: int = 2,
    ) -> "PartitionTree":
        """Build a balanced tree bottom-up by grouping consecutive leaves.

        Leaves are first ordered spatially (lexicographically by the lower
        bounds of their box intervals) so that siblings are geometrically
        adjacent and parent bounding boxes stay tight, then grouped ``fanout``
        at a time level by level until a single root remains.  Parent
        statistics are the merge of their children's statistics; parent boxes
        are the bounding box of their children (tight for contiguous 1-D
        partitions, conservative for k-d leaf sets — either way every tuple of
        a descendant is inside its ancestors' boxes, which is what the MCF
        pruning relies on).
        """
        if len(leaf_boxes) != len(leaf_stats):
            raise ValueError("leaf_boxes and leaf_stats must have the same length")
        if not leaf_boxes:
            raise ValueError("cannot build a tree without leaves")
        if fanout < 2:
            raise ValueError("fanout must be at least 2")

        order = sorted(
            range(len(leaf_boxes)),
            key=lambda i: tuple(
                (column, leaf_boxes[i].interval(column).low)
                for column in sorted(leaf_boxes[i].columns)
            ),
        )
        leaves = [
            PartitionNode(box=leaf_boxes[i], stats=leaf_stats[i], leaf_index=i)
            for i in order
        ]
        # Restore leaf_index to the caller's ordering (the sample list order).
        level: list[PartitionNode] = leaves
        while len(level) > 1:
            next_level: list[PartitionNode] = []
            for start in range(0, len(level), fanout):
                group = level[start : start + fanout]
                if len(group) == 1:
                    next_level.append(group[0])
                    continue
                stats = PartitionStats.empty()
                for node in group:
                    stats = stats.merge(node.stats)
                next_level.append(
                    PartitionNode(
                        box=_bounding_box([node.box for node in group]),
                        stats=stats,
                        children=list(group),
                    )
                )
            level = next_level
        root = level[0]
        ordered_leaves: list[PartitionNode] = [None] * len(
            leaf_boxes
        )  # type: ignore[list-item]
        for node in leaves:
            ordered_leaves[node.leaf_index] = node
        return cls(root=root, leaves=ordered_leaves)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> PartitionNode:
        """The root node (the whole dataset)."""
        return self._root

    @property
    def leaves(self) -> list[PartitionNode]:
        """Leaf nodes in leaf-index order."""
        return list(self._leaves)

    @property
    def n_leaves(self) -> int:
        """Number of leaf partitions."""
        return len(self._leaves)

    @property
    def n_nodes(self) -> int:
        """Total number of nodes in the tree."""
        return sum(1 for _ in self._root.iter_subtree())

    @property
    def height(self) -> int:
        """Length of the longest root-to-leaf path (root alone = 0)."""

        def depth(node: PartitionNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(depth(child) for child in node.children)

        return depth(self._root)

    def validate(self) -> None:
        """Check the partition-tree invariants of Definition 3.1.

        Raises ``ValueError`` when a parent's statistics are not the merge of
        its children's or when a child's tuple count exceeds its parent's.
        """
        for node in self._root.iter_subtree():
            if node.is_leaf:
                continue
            merged = PartitionStats.empty()
            for child in node.children:
                merged = merged.merge(child.stats)
                if child.stats.count > node.stats.count:
                    raise ValueError("child partition larger than its parent")
            if merged.count != node.stats.count or not np.isclose(
                merged.sum, node.stats.sum
            ):
                raise ValueError("parent statistics are not the merge of the children")

    def storage_bytes(self) -> int:
        """Approximate bytes of the aggregate statistics stored in the tree."""
        # sum, count, min, max per node, 8 bytes each, plus box bounds.
        per_node = 4 * 8
        per_box = sum(2 * 8 for _ in self._root.box.columns)
        return self.n_nodes * (per_node + per_box)

    # ------------------------------------------------------------------
    # Flat geometry
    # ------------------------------------------------------------------
    def geometry(self) -> "_TreeGeometry":
        """The flat node-geometry table :func:`flatten` lays out.

        Rows are ordered by the visit order of the sequential MCF descent
        (root first, children pushed left to right and popped in reverse),
        which :mod:`repro.core.soa` relies on for order-preserving frontier
        extraction.
        """
        return _TreeGeometry.build(self._root)


def _bounding_box(boxes: Sequence[Box]) -> Box:
    """The smallest box containing every box in ``boxes``."""
    columns = sorted({column for box in boxes for column in box.columns})
    intervals = {}
    for column in columns:
        lows = [box.interval(column).low for box in boxes]
        highs = [box.interval(column).high for box in boxes]
        intervals[column] = Interval(min(lows), max(highs))
    return Box(intervals)


def flatten(
    tree: PartitionTree,
    leaf_samples: Sequence[Stratum],
    leaf_sketches: Sequence[LeafSketches] | None,
    value_column: str,
    lam: float,
    zero_variance_rule: bool,
    with_fpc: bool,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Lay synopsis objects out as the ``(header, arrays)`` of a synopsis.

    Node statistics, topology and bounds in geometry order, the strata as
    compact CSR sample columns, the per-leaf sketches ragged-packed.  The
    sample column set is the first stratum's, in insertion order, restricted
    to columns every stratum carries (builders always produce a uniform set;
    hand-assembled synopses may not).  Nothing in the result aliases the
    objects.
    """
    geometry = tree.geometry()
    nodes = geometry.nodes
    n = len(nodes)
    parent0 = geometry.parent.copy()
    parent0[0] = 0  # root "reaches" itself in the closed-form extraction
    sizes = np.fromiter(
        (stratum.sample_size for stratum in leaf_samples),
        dtype=np.int64,
        count=len(leaf_samples),
    )
    offsets = np.zeros(len(leaf_samples) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    sample_columns = [
        column
        for column in (leaf_samples[0].sample_columns if leaf_samples else ())
        if all(column in stratum.sample_columns for stratum in leaf_samples)
    ]
    header = {
        "value_column": value_column,
        "lam": float(lam),
        "zero_variance_rule": bool(zero_variance_rule),
        "with_fpc": bool(with_fpc),
        "columns": list(geometry.column_index),
        "sample_columns": sample_columns,
        "sketch_keys": [],
    }
    arrays: dict[str, np.ndarray] = {
        "node_sum": np.fromiter((node.stats.sum for node in nodes), float, n),
        "node_count": np.fromiter((node.stats.count for node in nodes), np.int64, n),
        "node_min": np.fromiter((node.stats.min for node in nodes), float, n),
        "node_max": np.fromiter((node.stats.max for node in nodes), float, n),
        "parent": geometry.parent,
        "parent0": parent0,
        "is_leaf": geometry.is_leaf,
        "leaf_of_row": geometry.leaf_index,
        "depth": geometry.depth,
        "col_lows": np.ascontiguousarray(geometry.lows.T),
        "col_highs": np.ascontiguousarray(geometry.highs.T),
        "sample_offsets": offsets,
    }
    for column in sample_columns:
        arrays[f"sample/{column}"] = (
            np.concatenate(
                [
                    np.asarray(stratum.sample_columns[column], dtype=float)
                    for stratum in leaf_samples
                ]
            )
            if int(offsets[-1])
            else np.zeros(0, dtype=float)
        )
    if leaf_sketches is not None:
        header["sketch_keys"], packed = pack_leaf_sketches(leaf_sketches)
        arrays.update(packed)
    return header, arrays




@dataclass
class SynopsisObjects:
    """A synopsis as node and stratum objects (``src/`` keeps only arrays)."""

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
        return PASSSynopsis.from_buffers(
            *flatten(
                self.tree,
                self.leaf_samples,
                self.leaf_sketches,
                value_column=self.value_column,
                lam=self.lam,
                zero_variance_rule=self.zero_variance_rule,
                with_fpc=self.with_fpc,
            )
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


def reference_leaf_samples(
    table: Table,
    value_column: str,
    predicate_columns: Sequence[str],
    leaf_boxes: Sequence[Box],
    config: PASSConfig,
    extra_columns: Sequence[str] | None = None,
) -> list[Stratum]:
    """``build_leaf_samples`` as one ``Stratum`` per leaf, rows found by mask."""
    rng = np.random.default_rng(config.seed + 1)
    keep_columns = [value_column] + [
        column for column in predicate_columns if column != value_column
    ]
    for column in extra_columns or ():
        if column not in keep_columns:
            keep_columns.append(column)
    box_columns = sorted({col for box in leaf_boxes for col in box.columns})
    for column in box_columns:
        if column not in keep_columns:
            keep_columns.append(column)
    data = table.columns(keep_columns)

    leaf_rows = [
        np.flatnonzero(box.mask({col: data[col] for col in box.columns}))
        for box in leaf_boxes
    ]
    sizes = [int(indices.shape[0]) for indices in leaf_rows]
    n_dimensions = max(1, len({col for box in leaf_boxes for col in box.columns}))
    budgets = builder._leaf_budgets(table.n_rows, sizes, config, n_dimensions)

    samples: list[Stratum] = []
    for box, indices, size, budget in zip(leaf_boxes, leaf_rows, sizes, budgets):
        n_draw = min(budget, size)
        if n_draw > 0:
            chosen = rng.choice(indices, size=n_draw, replace=False)
        else:
            chosen = np.array([], dtype=int)
        sample_columns = {
            column: data[column][chosen].astype(float) for column in keep_columns
        }
        samples.append(Stratum(box=box, size=size, sample_columns=sample_columns))
    return samples


def reference_build(
    table: Table,
    value_column: str,
    predicate_columns: Sequence[str],
    config: PASSConfig | None = None,
    leaf_boxes: Sequence[Box] | None = None,
    extra_sample_columns: Sequence[str] | None = None,
) -> SynopsisObjects:
    """``build_pass``'s objects, built the object way (same arguments)."""
    config = config or PASSConfig()
    predicate_columns = list(predicate_columns)
    if leaf_boxes is None:
        leaf_boxes = builder.build_leaf_boxes(
            table, value_column, predicate_columns, config
        )
    leaf_boxes = list(leaf_boxes)

    values = table.column(value_column).astype(float)
    stats: list[PartitionStats] = []
    leaf_sketches: list[LeafSketches] | None = [] if config.with_sketches else None
    for box in leaf_boxes:
        mask = box.mask(table.columns(box.columns))
        leaf_values = values[mask]
        stats.append(PartitionStats.from_values(leaf_values))
        if leaf_sketches is not None:
            leaf_sketches.append(
                LeafSketches.from_values(
                    leaf_values,
                    quantile_k=config.sketch_quantile_k,
                    distinct_k=config.sketch_distinct_k,
                )
            )

    fanout = config.fanout
    if fanout is None:
        fanout = (
            2 if len(predicate_columns) == 1 else min(8, 2 ** len(predicate_columns))
        )
    return SynopsisObjects(
        tree=PartitionTree.build_from_leaves(leaf_boxes, stats, fanout=fanout),
        leaf_samples=reference_leaf_samples(
            table,
            value_column,
            predicate_columns,
            leaf_boxes,
            config,
            extra_columns=extra_sample_columns,
        ),
        leaf_sketches=leaf_sketches,
        value_column=value_column,
        lam=config.lam,
        zero_variance_rule=config.zero_variance_rule,
        with_fpc=config.with_fpc,
    )


def _canonical_nan(array: np.ndarray) -> np.ndarray:
    if array.dtype.kind != "f":
        return np.ascontiguousarray(array)
    return np.where(np.isnan(array), np.nan, array)


def assert_same_buffers(got, want) -> None:
    """Two synopses' ``export_buffers()`` agree byte for byte.

    The header is compared without the two build facts (a wall-clock
    reading and the partitioner's name), which only ``build_pass`` records.
    A NaN compares by value, not by sign and payload: which operand's NaN an
    addition of two NaNs returns is the compiled add's choice, and it is not
    even one choice in CPython (its specialised float-add bytecode and
    ``float.__add__`` disagree), so the object build's NaN bits depend on
    how warm the interpreter is.  Every other bit, ``-0.0`` included, counts.
    """
    (got_header, got_arrays), (want_header, want_arrays) = (
        got.export_buffers(),
        want.export_buffers(),
    )
    for header in (got_header, want_header):
        header.pop("build_seconds")
        header.pop("effective_partitioner")
    assert got_header == want_header
    assert sorted(got_arrays) == sorted(want_arrays)
    for key, array in got_arrays.items():
        expected = want_arrays[key]
        assert (array.dtype, array.shape) == (expected.dtype, expected.shape), key
        got_bytes = _canonical_nan(array).tobytes()
        assert got_bytes == _canonical_nan(expected).tobytes(), key


def built_with_objects(build: Callable, *args, **kwargs):
    """``(build(*args, **kwargs), the reference build's objects)``.

    ``build`` is ``build_pass`` (or a wrapper taking its arguments); the
    synopsis it returns must be byte-identical to the reference build's.
    """
    built = build(*args, **kwargs)
    objects = reference_build(*args, **kwargs)
    assert_same_buffers(built, objects.synopsis())
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
    if not any(node.size for node in (*frontier.covered, *frontier.partial)):
        # A frontier holding no tuple is an exact empty group.
        return empty_group_result(query.agg, objects.population_size)
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
    if not any(node.size for node in (*frontier.covered, *frontier.partial)):
        # No tuple under the frontier: the union of no leaves (the covered
        # leaves' sketches may still hold deleted values).
        return frontier_union(query.agg, objects.leaf_sketches, (), ())
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
        if node.size and not objects.leaf_samples[node.leaf_index].sample_size:
            # A partial leaf without samples: its contribution is unknown;
            # fall back to half of its hard-bound width as a conservative
            # point estimate with unknown variance.  A sampled leaf adds its
            # contribution whatever it holds: N/n * sum(matched) in plain
            # IEEE arithmetic, so a sampled +-inf or NaN reaches the total.
            stats = node.stats
            midpoint = 0.5 * (stats.sum if agg == AggregateType.SUM else stats.count)
            total = EstimateWithVariance(total.estimate + midpoint, float("nan"))
            continue
        total = total + _partial_contribution(objects, agg, query, node)
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
