"""Tests for the PASS synopsis: query processing, CIs, hard bounds, skipping."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery, ExactEngine

import oracle


@pytest.fixture(scope="module")
def skewed_pass():
    """A PASS synopsis over a module-scoped skewed table (built once)."""
    from repro.data.table import Table

    rng = np.random.default_rng(77)
    n = 4000
    key = np.arange(n, dtype=float)
    value = np.concatenate(
        [
            np.full(int(n * 0.8), 5.0),
            np.abs(rng.normal(100.0, 20.0, size=n - int(n * 0.8))),
        ]
    )
    table = Table({"key": key, "value": value}, name="skewed_module")
    config = PASSConfig(n_partitions=16, sample_rate=0.05, partitioner="adp", seed=0)
    synopsis = build_pass(table, "value", ["key"], config)
    return table, synopsis


class TestQueryProcessing:
    def test_aligned_query_is_exact(self, skewed_pass):
        table, synopsis = skewed_pass
        box = synopsis.leaf_boxes[2]
        predicate = RectPredicate({"key": box.interval("key")})
        for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
            query = AggregateQuery(agg, "value", predicate)
            result = synopsis.query(query)
            truth = ExactEngine(table).execute(query)
            assert result.exact
            assert result.estimate == pytest.approx(truth)
            assert result.ci_half_width == 0.0
            assert result.tuples_processed == 0

    def test_partial_queries_are_close_and_covered_by_ci(self, skewed_pass):
        table, synopsis = skewed_pass
        engine = ExactEngine(table)
        rng = np.random.default_rng(5)
        inside_ci = 0
        n_queries = 40
        for _ in range(n_queries):
            low = float(rng.uniform(0, 3000))
            high = float(rng.uniform(low + 200, 4000))
            query = AggregateQuery.sum(
                "value", RectPredicate.from_bounds(key=(low, high))
            )
            result = synopsis.query(query)
            truth = engine.execute(query)
            assert result.relative_error(truth) < 0.5
            assert result.within_hard_bounds(truth)
            if result.exact or result.contains_truth(truth):
                inside_ci += 1
        # 99% nominal coverage; allow slack for the small query count.
        assert inside_ci >= 0.8 * n_queries

    def test_count_and_avg_partial_queries(self, skewed_pass):
        table, synopsis = skewed_pass
        engine = ExactEngine(table)
        predicate = RectPredicate.from_bounds(key=(100.5, 3702.5))
        for agg, tolerance in (("COUNT", 0.1), ("AVG", 0.25)):
            query = AggregateQuery(agg, "value", predicate)
            result = synopsis.query(query)
            truth = engine.execute(query)
            assert result.relative_error(truth) < tolerance
            assert result.within_hard_bounds(truth)

    def test_min_max_partial_queries_respect_bounds(self, skewed_pass):
        table, synopsis = skewed_pass
        engine = ExactEngine(table)
        predicate = RectPredicate.from_bounds(key=(1000.5, 3702.5))
        for agg in ("MIN", "MAX"):
            query = AggregateQuery(agg, "value", predicate)
            result = synopsis.query(query)
            truth = engine.execute(query)
            assert result.within_hard_bounds(truth)

    def test_empty_region_query(self, skewed_pass):
        _, synopsis = skewed_pass
        query = AggregateQuery.sum(
            "value", RectPredicate.from_bounds(key=(-500.0, -1.0))
        )
        result = synopsis.query(query)
        assert result.estimate == pytest.approx(0.0)

    def test_unconstrained_query_is_exact_from_root(self, skewed_pass):
        table, synopsis = skewed_pass
        query = AggregateQuery.sum("value", RectPredicate.everything())
        result = synopsis.query(query)
        assert result.exact
        assert result.estimate == pytest.approx(table.column("value").sum())

    def test_wrong_value_column_rejected(self, skewed_pass):
        _, synopsis = skewed_pass
        with pytest.raises(ValueError):
            synopsis.query(AggregateQuery.sum("key", RectPredicate.everything()))

    def test_skip_rate_increases_for_aligned_queries(self, skewed_pass):
        _, synopsis = skewed_pass
        narrow = AggregateQuery.sum(
            "value", RectPredicate.from_bounds(key=(10.0, 60.0))
        )
        box = synopsis.leaf_boxes[0]
        aligned = AggregateQuery.sum(
            "value", RectPredicate({"key": box.interval("key")})
        )
        assert synopsis.skip_rate(aligned) == pytest.approx(1.0)
        assert 0.0 <= synopsis.skip_rate(narrow) <= 1.0
        # Read off the flat frontier; equal to the object descent's value.
        for query in (aligned, narrow):
            partial = oracle.lookup(synopsis, query).partial
            assert synopsis.skip_rate(query) == (
                1.0 - sum(node.size for node in partial) / synopsis.population_size
            )

    def test_custom_lambda_scales_interval(self, skewed_pass):
        _, synopsis = skewed_pass
        query = AggregateQuery.sum(
            "value", RectPredicate.from_bounds(key=(100.5, 3702.5))
        )
        narrow = synopsis.query(query, lam=1.0)
        wide = synopsis.query(query, lam=3.0)
        assert wide.ci_half_width == pytest.approx(3.0 * narrow.ci_half_width)


class TestSynopsisIntrospection:
    def test_sizes_and_storage(self, skewed_pass):
        table, synopsis = skewed_pass
        assert synopsis.population_size == table.n_rows
        objects = oracle.objects_of(synopsis)
        assert synopsis.n_partitions == objects.tree.n_leaves
        assert synopsis.sample_size == sum(
            stratum.sample_size for stratum in objects.leaf_samples
        )
        # The footprint the object graph used to report, now read off arrays.
        assert synopsis.storage_bytes() == objects.tree.storage_bytes() + sum(
            stratum.storage_bytes() for stratum in objects.leaf_samples
        ) + sum(sketches.storage_bytes() for sketches in objects.leaf_sketches or ())
        assert synopsis.storage_bytes() > 0
        assert synopsis.value_column == "value"

    def test_leaf_sample_mismatch_rejected(self, skewed_pass):
        _, synopsis = skewed_pass
        from repro.core.pass_synopsis import PASSSynopsis

        for key in ("sample_offsets", "sketch/lengths"):
            header, arrays = synopsis.export_buffers()
            arrays[key] = arrays[key][:-1]
            with pytest.raises(ValueError, match="leaves but"):
                PASSSynopsis.from_buffers(header, arrays)

    def test_replace_leaf_sample_bounds_checked(self, skewed_pass):
        _, synopsis = skewed_pass
        with pytest.raises(IndexError):
            synopsis.flat.replace_leaf_sample(10_000, synopsis.flat.leaf_sample(0))


class TestHardBoundProperty:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_hard_bounds_always_contain_truth(self, skewed_pass, data):
        """Property: the deterministic bounds contain the exact answer for any
        range query and any of SUM / COUNT / AVG."""
        table, synopsis = skewed_pass
        engine = ExactEngine(table)
        low = data.draw(st.floats(min_value=0.0, max_value=3500.0))
        width = data.draw(st.floats(min_value=10.0, max_value=3999.0 - low))
        agg = data.draw(st.sampled_from(["SUM", "COUNT", "AVG"]))
        query = AggregateQuery(
            agg, "value", RectPredicate.from_bounds(key=(low, low + width))
        )
        result = synopsis.query(query)
        truth = engine.execute(query)
        if math.isnan(truth):
            return
        assert result.hard_lower - 1e-6 <= truth <= result.hard_upper + 1e-6
