"""The partition tree as the builder assembles it — a build-time helper.

A partition tree (Definition 3.1) is a hierarchy of partitions in which every
child is contained in its parent, siblings are disjoint, and siblings jointly
cover their parent.  Every node carries the precomputed SUM / COUNT / MIN /
MAX of its tuples.

:func:`~repro.core.builder.build_pass` groups the leaf partitions into this
object tree bottom-up (:meth:`PartitionTree.build_from_leaves`) and
:func:`repro.core.soa.flatten` lays it out as arrays in *geometry order*
(:meth:`PartitionTree.geometry`); a built synopsis keeps the arrays and lets
these objects go.  The Minimal Coverage Frontier lookup (Algorithm 1) runs on
the arrays (:meth:`repro.core.soa.FlatSynopsis.frontier`); its reference
descent over node objects lives in ``tests/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.aggregation.partition import PartitionStats
from repro.query.predicate import Box, Interval

__all__ = ["PartitionNode", "PartitionTree"]


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
        """The flat node-geometry table :func:`repro.core.soa.flatten` lays out.

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
