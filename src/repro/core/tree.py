"""The partition tree and the Minimal Coverage Frontier (MCF) algorithm.

A partition tree (Definition 3.1) is a hierarchy of partitions in which every
child is contained in its parent, siblings are disjoint, and siblings jointly
cover their parent.  Every node carries the precomputed SUM / COUNT / MIN /
MAX of its tuples.  The leaves carry (elsewhere, in the PASS synopsis) the
stratified samples.

The MCF algorithm (Algorithm 1) walks the tree for a query predicate and
returns the minimal set of nodes that covers the query: internal or leaf
nodes fully covered by the predicate (answered exactly from their aggregates)
and leaf nodes partially overlapped (answered from their samples).  Nodes
disjoint from the predicate are pruned, which is the source of PASS's data
skipping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.aggregation.partition import PartitionStats
from repro.query.predicate import Box, Interval, RectPredicate, Relation

__all__ = [
    "PartitionNode",
    "PartitionTree",
    "MCFResult",
    "boxes_to_arrays",
    "boxes_from_arrays",
]


def boxes_to_arrays(boxes: Sequence[Box]) -> dict[str, np.ndarray]:
    """Encode a list of boxes as flat numpy arrays (for npz persistence).

    The encoding records which columns each box constrains (boxes are named
    interval mappings, and membership is part of a box's identity), so the
    round trip through
    :func:`boxes_from_arrays` reproduces each box exactly.
    """
    columns = sorted({column for box in boxes for column in box.columns})
    n = len(boxes)
    low = np.zeros((n, len(columns)), dtype=float)
    high = np.zeros((n, len(columns)), dtype=float)
    present = np.zeros((n, len(columns)), dtype=bool)
    for i, box in enumerate(boxes):
        for j, column in enumerate(columns):
            if column in box:
                interval = box.interval(column)
                present[i, j] = True
                low[i, j] = interval.low
                high[i, j] = interval.high
    return {
        "columns": np.array(columns, dtype=str),
        "low": low,
        "high": high,
        "present": present,
    }


def boxes_from_arrays(arrays: dict[str, np.ndarray]) -> list[Box]:
    """Inverse of :func:`boxes_to_arrays`."""
    columns = [str(column) for column in arrays["columns"]]
    low = np.asarray(arrays["low"], dtype=float)
    high = np.asarray(arrays["high"], dtype=float)
    present = np.asarray(arrays["present"], dtype=bool)
    boxes: list[Box] = []
    for i in range(low.shape[0]):
        intervals = {
            column: Interval(float(low[i, j]), float(high[i, j]))
            for j, column in enumerate(columns)
            if present[i, j]
        }
        boxes.append(Box(intervals))
    return boxes


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
    levels:
        Node indices grouped by depth, shallowest first.
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
    levels: tuple[np.ndarray, ...]
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
        depth_array = np.asarray(depths)
        levels = tuple(
            np.flatnonzero(depth_array == depth)
            for depth in range(int(depth_array.max()) + 1)
        )
        return cls(
            nodes=tuple(nodes),
            parent=np.asarray(parents),
            levels=levels,
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
        self._geometry_cache: _TreeGeometry | None = None

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
    # Persistence (array export / import)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Export the full tree structure as flat numpy arrays.

        Nodes are laid out in pre-order; each node records its child count,
        its leaf index (-1 for internal nodes), its four aggregate statistics,
        and its box.  The encoding is exact — statistics round-trip bit for
        bit — so a reloaded synopsis answers queries identically.
        """
        nodes = list(self._root.iter_subtree())
        arrays = {
            "n_children": np.array(
                [len(node.children) for node in nodes], dtype=np.int64
            ),
            "leaf_index": np.array(
                [-1 if node.leaf_index is None else node.leaf_index for node in nodes],
                dtype=np.int64,
            ),
            "sum": np.array([node.stats.sum for node in nodes], dtype=float),
            "count": np.array([node.stats.count for node in nodes], dtype=np.int64),
            "min": np.array([node.stats.min for node in nodes], dtype=float),
            "max": np.array([node.stats.max for node in nodes], dtype=float),
        }
        for key, value in boxes_to_arrays([node.box for node in nodes]).items():
            arrays[f"box_{key}"] = value
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "PartitionTree":
        """Rebuild a tree previously exported with :meth:`to_arrays`."""
        n_children = np.asarray(arrays["n_children"], dtype=np.int64)
        leaf_index = np.asarray(arrays["leaf_index"], dtype=np.int64)
        sums = np.asarray(arrays["sum"], dtype=float)
        counts = np.asarray(arrays["count"], dtype=np.int64)
        mins = np.asarray(arrays["min"], dtype=float)
        maxs = np.asarray(arrays["max"], dtype=float)
        boxes = boxes_from_arrays(
            {
                key[len("box_") :]: value
                for key, value in arrays.items()
                if key.startswith("box_")
            }
        )
        if not len(n_children):
            raise ValueError("cannot rebuild a tree from empty arrays")

        cursor = 0

        def build() -> PartitionNode:
            nonlocal cursor
            index = cursor
            cursor += 1
            node = PartitionNode(
                box=boxes[index],
                stats=PartitionStats(
                    sum=float(sums[index]),
                    count=int(counts[index]),
                    min=float(mins[index]),
                    max=float(maxs[index]),
                ),
                leaf_index=None if leaf_index[index] < 0 else int(leaf_index[index]),
            )
            node.children = [build() for _ in range(int(n_children[index]))]
            return node

        root = build()
        if cursor != len(n_children):
            raise ValueError("tree arrays are inconsistent: trailing nodes")
        leaf_nodes = [
            node for node in root.iter_subtree() if node.leaf_index is not None
        ]
        leaves: list[PartitionNode] = [None] * len(
            leaf_nodes
        )  # type: ignore[list-item]
        for node in leaf_nodes:
            if (
                not 0 <= node.leaf_index < len(leaf_nodes)
                or leaves[node.leaf_index] is not None
            ):
                raise ValueError("tree arrays are inconsistent: bad leaf indices")
            leaves[node.leaf_index] = node
        return cls(root=root, leaves=leaves)

    # ------------------------------------------------------------------
    # MCF
    # ------------------------------------------------------------------
    def minimal_coverage_frontier(
        self,
        predicate: RectPredicate,
        zero_variance_rule: bool = False,
    ) -> MCFResult:
        """Run Algorithm 1 for a query predicate.

        Parameters
        ----------
        predicate:
            The query's rectangular predicate.
        zero_variance_rule:
            When True, any partially-overlapped node whose values all coincide
            (min == max) is treated as covered — valid for AVG queries only
            (Section 3.4).
        """
        covered: list[PartitionNode] = []
        partial: list[PartitionNode] = []
        visited = 0

        stack = [self._root]
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

    # ------------------------------------------------------------------
    # Flat geometry
    # ------------------------------------------------------------------
    def geometry(self) -> "_TreeGeometry":
        """The cached flat node-geometry table of the array-native core.

        Rows are ordered by the DFS visit order of
        :meth:`minimal_coverage_frontier`, which :mod:`repro.core.soa`
        relies on for order-preserving frontier extraction.  Only immutable
        structure is cached (boxes, parent links, leaf flags); node
        *statistics* mutate under dynamic updates and are never part of it.
        """
        geometry = self._geometry_cache
        if geometry is None:
            geometry = _TreeGeometry.build(self._root)
            self._geometry_cache = geometry
        return geometry


def _bounding_box(boxes: Sequence[Box]) -> Box:
    """The smallest box containing every box in ``boxes``."""
    columns = sorted({column for box in boxes for column in box.columns})
    intervals = {}
    for column in columns:
        lows = [box.interval(column).low for box in boxes]
        highs = [box.interval(column).high for box in boxes]
        intervals[column] = Interval(min(lows), max(highs))
    return Box(intervals)
