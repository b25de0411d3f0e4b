"""Tests for the partition tree, its invariants, and the MCF algorithm.

Algorithm 1 is pinned on the reference stack descent of ``tests/oracle.py``
(the array kernels are held to it in ``tests/test_soa_equivalence.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.partition import PartitionStats
from repro.core.tree import PartitionTree
from repro.partitioning.boundaries import boxes_from_boundaries
from repro.query.predicate import Box, Interval, RectPredicate

from oracle import minimal_coverage_frontier


def build_1d_tree(values: np.ndarray, boundaries: list[float], fanout: int = 2):
    """Helper: build a tree over a 1-D dataset of (key=index, value) pairs."""
    keys = np.arange(len(values), dtype=float)
    boxes = boxes_from_boundaries("key", boundaries)
    stats = [
        PartitionStats.from_values(values[box.mask({"key": keys})]) for box in boxes
    ]
    return PartitionTree.build_from_leaves(boxes, stats, fanout=fanout), boxes, keys


class TestTreeConstruction:
    def test_root_aggregates_everything(self):
        values = np.arange(1.0, 101.0)
        tree, _, _ = build_1d_tree(values, [24.5, 49.5, 74.5])
        assert tree.root.stats.count == 100
        assert tree.root.stats.sum == pytest.approx(values.sum())
        assert tree.n_leaves == 4

    def test_invariants_hold(self):
        values = np.arange(1.0, 201.0)
        tree, _, _ = build_1d_tree(values, list(np.arange(9.5, 199.5, 10.0)))
        tree.validate()

    def test_fanout_controls_height(self):
        values = np.arange(1.0, 65.0)
        binary, _, _ = build_1d_tree(values, list(np.arange(3.5, 63.5, 4.0)), fanout=2)
        wide, _, _ = build_1d_tree(values, list(np.arange(3.5, 63.5, 4.0)), fanout=4)
        assert binary.height > wide.height
        assert binary.n_leaves == wide.n_leaves == 16

    def test_leaf_index_matches_input_order(self):
        values = np.arange(1.0, 41.0)
        tree, boxes, _ = build_1d_tree(values, [9.5, 19.5, 29.5])
        for index, leaf in enumerate(tree.leaves):
            assert leaf.leaf_index == index
            assert leaf.box == boxes[index]

    def test_empty_leaves_rejected(self):
        with pytest.raises(ValueError):
            PartitionTree.build_from_leaves([], [])

    def test_mismatched_lengths_rejected(self):
        box = Box({"key": Interval(0, 1)})
        with pytest.raises(ValueError):
            PartitionTree.build_from_leaves([box], [])

    def test_fanout_validation(self):
        box = Box({"key": Interval(0, 1)})
        stats = PartitionStats.empty()
        with pytest.raises(ValueError):
            PartitionTree.build_from_leaves([box], [stats], fanout=1)

    def test_storage_bytes_scales_with_nodes(self):
        values = np.arange(1.0, 101.0)
        small, _, _ = build_1d_tree(values, [49.5])
        large, _, _ = build_1d_tree(values, list(np.arange(9.5, 99.5, 10.0)))
        assert large.storage_bytes() > small.storage_bytes()


class TestMCF:
    def test_aligned_query_fully_covered(self):
        values = np.arange(1.0, 101.0)
        tree, boxes, keys = build_1d_tree(values, [24.5, 49.5, 74.5])
        # A query whose bounds coincide with partition boundaries (the paper's
        # "aligned" case) is answered exactly: no partial leaves remain.
        predicate = RectPredicate(
            {
                "key": Interval(
                    boxes[1].interval("key").low, boxes[2].interval("key").high
                )
            }
        )
        result = minimal_coverage_frontier(tree, predicate)
        assert result.is_exact
        covered_count = sum(node.stats.count for node in result.covered)
        assert covered_count == 50

    def test_partial_query_returns_leaf_partials(self):
        values = np.arange(1.0, 101.0)
        tree, _, _ = build_1d_tree(values, [24.5, 49.5, 74.5])
        predicate = RectPredicate.from_bounds(key=(10.0, 60.0))
        result = minimal_coverage_frontier(tree, predicate)
        assert not result.is_exact
        assert all(node.is_leaf for node in result.partial)
        assert len(result.partial) == 2  # the two boundary leaves

    def test_query_inside_one_leaf_prunes_the_rest(self):
        values = np.arange(1.0, 101.0)
        tree, _, _ = build_1d_tree(values, [24.5, 49.5, 74.5])
        predicate = RectPredicate.from_bounds(key=(30.0, 40.0))
        result = minimal_coverage_frontier(tree, predicate)
        assert not result.covered
        assert [node.leaf_index for node in result.partial] == [1]

    def test_unconstrained_query_covers_root_only(self):
        values = np.arange(1.0, 101.0)
        tree, _, _ = build_1d_tree(values, [24.5, 49.5, 74.5])
        result = minimal_coverage_frontier(tree, RectPredicate.everything())
        assert len(result.covered) == 1
        assert result.covered[0] is tree.root
        assert result.nodes_visited == 1

    def test_zero_variance_rule_short_circuits(self):
        values = np.concatenate([np.full(50, 3.0), np.arange(1.0, 51.0)])
        tree, _, _ = build_1d_tree(values, [24.5, 49.5, 74.5])
        predicate = RectPredicate.from_bounds(key=(10.0, 90.0))
        without = minimal_coverage_frontier(tree, predicate, zero_variance_rule=False)
        with_rule = minimal_coverage_frontier(tree, predicate, zero_variance_rule=True)
        assert len(with_rule.partial) < len(without.partial)

    def test_visit_count_grows_slower_than_leaves_for_selective_queries(self):
        """The paper's O(gamma log B) bound: selective queries touch few nodes."""
        values = np.arange(1.0, 1025.0)
        boundaries = list(np.arange(3.5, 1023.5, 4.0))
        tree, _, _ = build_1d_tree(values, boundaries)
        assert tree.n_leaves == 256
        predicate = RectPredicate.from_bounds(key=(100.0, 104.0))
        result = minimal_coverage_frontier(tree, predicate)
        assert result.nodes_visited < 3 * np.log2(tree.n_leaves) * 4

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mcf_classification_matches_flat_scan(self, data):
        """MCF's covered+partial leaves agree with a brute-force classification."""
        n_leaves = data.draw(st.integers(min_value=2, max_value=12))
        n_rows = 20 * n_leaves
        values = np.arange(1.0, n_rows + 1.0)
        boundaries = [20.0 * i - 0.5 for i in range(1, n_leaves)]
        tree, boxes, keys = build_1d_tree(values, boundaries)
        low = data.draw(st.floats(min_value=-10, max_value=n_rows + 10))
        high = data.draw(st.floats(min_value=low, max_value=n_rows + 20))
        predicate = RectPredicate.from_bounds(key=(low, high))
        result = minimal_coverage_frontier(tree, predicate)

        # Brute force: classify each leaf directly.
        expected_partial = set()
        expected_covered_rows = 0
        for index, box in enumerate(boxes):
            relation = predicate.relation_to_box(box)
            if relation == "partial":
                expected_partial.add(index)
            elif relation == "cover":
                expected_covered_rows += tree.leaves[index].stats.count
        assert {node.leaf_index for node in result.partial} == expected_partial
        covered_rows = sum(node.stats.count for node in result.covered)
        assert covered_rows == expected_covered_rows
