"""Property tests: the SoA execution engine is bit-identical to the object path.

The contract documented in ``docs/ARCHITECTURE.md`` and ``repro.core.soa`` is
not "numerically close" but *bit-identical*: for every aggregate — the five
classic ones and the sketch-backed QUANTILE / COUNT_DISTINCT — the flat
engine must reproduce the object path's `AQPResult` field for field at the
level of IEEE-754 bit patterns — same covered/partial frontier order, same
floating-point summation order, same sketch merge order, same NaN
poisoning, same ``nodes_visited`` count.  These tests compare float bits
(``struct.pack``) rather than values so that ``-0.0 != 0.0`` and differing
NaN payloads would fail, across random trees, predicates, batches, the
zero-variance shortcut, post-insert/delete staleness states, a sharded
gather and a ``from_buffers`` round trip.  ``grouped_query`` alone shares
per-cell moments across its classic aggregates and is held to
summation-order equality for those (its sketch aggregates are bit-identical).
"""

from __future__ import annotations

import functools
import math
import struct
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from repro.core.batching import batch_query, compile_batch, grouped_query
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.soa import (
    FlatSynopsis,
    _count_contribution,
    _fast_mean,
    _fast_var,
    _sum_contribution,
)
from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.query.aggregates import AggregateType
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery
from repro.sampling.stratified import Stratum
from repro.sketches.union import sketch_union_result

N_ROWS = 1500
CLASSIC_AGGS = ("SUM", "COUNT", "AVG", "MIN", "MAX")
#: (aggregate, quantile) pairs; the quantile only applies to QUANTILE.
SKETCH_KINDS = (
    ("QUANTILE", 0.5),
    ("QUANTILE", 0.05),
    ("QUANTILE", 0.99),
    ("COUNT_DISTINCT", None),
)
ALL_KINDS = tuple((agg, None) for agg in CLASSIC_AGGS) + SKETCH_KINDS
RESULT_FLOAT_FIELDS = (
    "estimate",
    "ci_half_width",
    "variance",
    "hard_lower",
    "hard_upper",
)


def _bits(value: float) -> bytes:
    """The IEEE-754 bit pattern of a float — the equality the contract uses."""
    return struct.pack("<d", float(value))


def assert_results_identical(flat, obj, context: str = "") -> None:
    """Every AQPResult field matches bit for bit between the two paths."""
    for field in RESULT_FLOAT_FIELDS:
        left, right = getattr(flat, field), getattr(obj, field)
        assert _bits(left) == _bits(right), (
            f"{context}{field}: soa={left!r} object={right!r}"
        )
    assert flat.tuples_processed == obj.tuples_processed, context
    assert flat.tuples_skipped == obj.tuples_skipped, context
    assert flat.exact == obj.exact, context


@functools.lru_cache(maxsize=None)
def _table(n_columns: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    columns = {
        f"c{i}": rng.uniform(0.0, 100.0, size=N_ROWS) for i in range(n_columns)
    }
    columns["value"] = np.abs(rng.normal(50.0, 15.0, size=N_ROWS))
    return Table(columns, name="soa_equivalence")


@functools.lru_cache(maxsize=None)
def _synopsis(n_columns: int, n_partitions: int, seed: int, zero_variance: bool):
    table = _table(n_columns, seed)
    config = PASSConfig(
        n_partitions=n_partitions,
        sample_rate=0.05,
        partitioner="equal" if n_columns == 1 else "kd",
        opt_sample_size=200,
        zero_variance_rule=zero_variance,
        with_sketches=True,
        seed=seed,
    )
    return build_pass(table, "value", [f"c{i}" for i in range(n_columns)], config)


def _query(kind, predicate: RectPredicate) -> AggregateQuery:
    agg, quantile = kind
    return AggregateQuery(agg, "value", predicate, quantile=quantile)


def _predicate(n_columns: int, fractions) -> RectPredicate:
    """A rectangle from per-column (start, width) fractions of [0, 100].

    Widths above 1 spill past the data domain, producing covered-root and
    empty-intersection cases alongside ordinary partial frontiers.
    """
    intervals = {}
    for i in range(n_columns):
        start, width = fractions[i]
        low = 100.0 * start
        intervals[f"c{i}"] = Interval(low, low + 100.0 * width)
    return RectPredicate(intervals)


_fraction_pair = st.tuples(
    st.floats(min_value=-0.2, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.4),
)


class TestSingleQueryBitIdentity:
    @given(
        n_columns=st.integers(min_value=1, max_value=3),
        n_partitions=st.sampled_from([16, 64, 128]),
        seed=st.integers(min_value=0, max_value=3),
        fractions=st.lists(_fraction_pair, min_size=3, max_size=3),
        kind=st.sampled_from(ALL_KINDS),
    )
    def test_random_trees_and_predicates(
        self, n_columns, n_partitions, seed, fractions, kind
    ):
        synopsis = _synopsis(n_columns, n_partitions, seed, False)
        predicate = _predicate(n_columns, fractions)
        query = _query(kind, predicate)
        assert_results_identical(
            synopsis.query(query),
            synopsis.query_object(query),
            context=f"{kind} {predicate} ",
        )

    @given(kind=st.sampled_from(ALL_KINDS))
    def test_unconstrained_predicate_is_exact_on_both_paths(self, kind):
        synopsis = _synopsis(1, 64, 0, False)
        query = _query(kind, RectPredicate.everything())
        flat, obj = synopsis.query(query), synopsis.query_object(query)
        assert_results_identical(flat, obj)
        assert flat.tuples_processed == 0  # answered from the root alone
        # 1500 rows merged: the quantile sketch compacted, the KMV saturated.
        assert flat.exact or kind in SKETCH_KINDS

    @given(
        fractions=st.lists(_fraction_pair, min_size=3, max_size=3),
        agg=st.sampled_from(("SUM", "AVG", "COUNT")),
    )
    def test_zero_variance_rule_replay(self, fractions, agg):
        """The level-order zero-variance replay matches the object descent."""
        synopsis = _synopsis(2, 64, 1, True)
        predicate = _predicate(2, fractions)
        query = AggregateQuery(agg, "value", predicate)
        assert_results_identical(synopsis.query(query), synopsis.query_object(query))


class TestFrontierBitIdentity:
    @given(
        n_columns=st.integers(min_value=1, max_value=3),
        fractions=st.lists(_fraction_pair, min_size=3, max_size=3),
    )
    def test_frontier_order_and_visit_count(self, n_columns, fractions):
        """Covered/partial node order and nodes_visited match the descent."""
        synopsis = _synopsis(n_columns, 64, 2, False)
        predicate = _predicate(n_columns, fractions)
        flat = synopsis.flat.frontier(predicate)
        obj = synopsis.tree.minimal_coverage_frontier(predicate)
        # Flat rows index the tree's geometry-order node table.
        nodes = synopsis.tree.geometry().nodes
        assert [id(nodes[row]) for row in flat.covered.tolist()] == [
            id(node) for node in obj.covered
        ]
        assert [id(nodes[row]) for row in flat.partial.tolist()] == [
            id(node) for node in obj.partial
        ]
        assert flat.nodes_visited == obj.nodes_visited


class TestGroupedMatchesOracle:
    @given(
        n_bins=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2),
    )
    def test_grouped_plan_matches_per_cell_oracle(self, n_bins, seed):
        """Grouped cells equal per-cell ``query_object`` up to summation order.

        The grouped kernel shares one set of per-leaf moments across a
        cell's aggregates, so floats agree to rounding; everything read
        straight from partition statistics is exact.
        """
        synopsis = _synopsis(2, 64, seed, False)
        edges = [100.0 * i / n_bins for i in range(n_bins + 1)]
        plan = GroupByQuery(
            groupings=(
                GroupingColumn.bins("c0", edges),
                GroupingColumn.bins("c1", [0.0, 50.0, 100.0]),
            ),
            aggregates=tuple(
                AggregateSpec(agg, "value") for agg in CLASSIC_AGGS
            ),
        ).compile()
        grouped = grouped_query(synopsis, plan)
        for index, cell in plan.live_cells():
            for spec, got in zip(plan.aggregates, grouped.cells[index]):
                want = synopsis.query_object(plan.cell_query(cell, spec))
                context = f"{cell.labels} {spec.name} "
                for field in RESULT_FLOAT_FIELDS:
                    assert getattr(got, field) == pytest.approx(
                        getattr(want, field), rel=1e-9, nan_ok=True
                    ), context + field
                assert got.exact == want.exact, context
                assert got.tuples_processed == want.tuples_processed, context
                assert got.tuples_skipped == want.tuples_skipped, context
                if spec.agg in (AggregateType.SUM, AggregateType.COUNT):
                    assert _bits(got.hard_lower) == _bits(want.hard_lower), context
                    assert _bits(got.hard_upper) == _bits(want.hard_upper), context

    @given(
        n_bins=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2),
    )
    def test_grouped_sketch_aggregates_carry_the_oracle_bits(self, n_bins, seed):
        """A cell's percentiles share one union and still equal the oracle's.

        Unlike the classic aggregates, nothing is re-associated: the cell's
        union is the flat sketch kernel over the cell's frontier.
        """
        synopsis = _synopsis(2, 64, seed, False)
        edges = [100.0 * i / n_bins for i in range(n_bins + 1)]
        sketch_specs = tuple(
            AggregateSpec(agg, "value", quantile) for agg, quantile in SKETCH_KINDS
        )
        plan = GroupByQuery(
            groupings=(
                GroupingColumn.bins("c0", edges),
                GroupingColumn.bins("c1", [0.0, 50.0, 100.0]),
            ),
            aggregates=(AggregateSpec("SUM", "value"),) + sketch_specs,
        ).compile()
        grouped = grouped_query(synopsis, plan)
        for index, cell in plan.live_cells():
            for spec, got in zip(sketch_specs, grouped.cells[index][1:]):
                assert_results_identical(
                    got,
                    synopsis.query_object(plan.cell_query(cell, spec)),
                    context=f"{cell.labels} {spec.name} ",
                )


class TestDynamicStalenessBitIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=3),
        n_inserts=st.integers(min_value=0, max_value=25),
        n_deletes=st.integers(min_value=0, max_value=10),
        fractions=st.lists(_fraction_pair, min_size=1, max_size=1),
        kind=st.sampled_from(ALL_KINDS),
    )
    def test_post_update_queries_stay_identical(
        self, seed, n_inserts, n_deletes, fractions, kind
    ):
        """Insert/delete-synced flat arrays answer like the mutated objects."""
        table = _table(1, seed)
        config = PASSConfig(
            n_partitions=16,
            sample_rate=0.05,
            partitioner="equal",
            opt_sample_size=200,
            with_sketches=True,
            seed=seed,
        )
        dynamic = DynamicPASS(table, "value", ["c0"], config=config)
        synopsis = dynamic.synopsis
        # Warm the flat engine *before* mutating so the test exercises the
        # incremental sync hooks, not a post-mutation rebuild.
        synopsis.flat
        rng = np.random.default_rng(seed + 100)
        for _ in range(n_inserts):
            dynamic.insert(
                {"c0": float(rng.uniform(0, 100)), "value": float(rng.uniform(0, 90))}
            )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StaleExtremaWarning)
            for _ in range(n_deletes):
                row = int(rng.integers(0, N_ROWS))
                dynamic.delete(
                    {
                        "c0": float(table.column("c0")[row]),
                        "value": float(table.column("value")[row]),
                    }
                )
        query = _query(kind, _predicate(1, fractions))
        assert_results_identical(
            synopsis.query(query),
            synopsis.query_object(query),
            context=f"after {n_inserts} inserts / {n_deletes} deletes ",
        )


BATCH_AGGS = CLASSIC_AGGS + ("QUANTILE", "COUNT_DISTINCT")


@functools.lru_cache(maxsize=None)
def _constant_region_table(n_columns: int, seed: int) -> Table:
    """``_table`` with one constant-valued slab (``c0 < 30``).

    Partitions inside the slab have ``min == max``, so AVG descends
    differently from SUM / COUNT under the zero-variance rule.
    """
    base = _table(n_columns, seed)
    columns = {name: base.column(name).copy() for name in base.column_names}
    columns["value"][columns["c0"] < 30.0] = 42.0
    return Table(columns, name="soa_equivalence_constant_region")


def _batch_config(n_columns: int, n_partitions: int, seed: int) -> PASSConfig:
    return PASSConfig(
        n_partitions=n_partitions,
        sample_rate=0.05,
        partitioner="equal" if n_columns == 1 else "kd",
        opt_sample_size=200,
        zero_variance_rule=True,
        with_sketches=True,
        seed=seed,
    )


@functools.lru_cache(maxsize=None)
def _batch_synopsis(n_columns: int, n_partitions: int, seed: int):
    return build_pass(
        _constant_region_table(n_columns, seed),
        "value",
        [f"c{i}" for i in range(n_columns)],
        _batch_config(n_columns, n_partitions, seed),
    )


def _batch(n_columns: int, pool, picks) -> list[AggregateQuery]:
    """Queries over a small predicate pool, so predicates repeat.

    Always ends with SUM / COUNT / AVG over the first predicate: the AVG
    must take its own (zero-variance) frontier inside the same batch.
    """
    predicates = [_predicate(n_columns, fractions) for fractions in pool]
    queries = [
        AggregateQuery(agg, "value", predicates[index % len(predicates)])
        for index, agg in picks
    ]
    queries += [AggregateQuery(agg, "value", predicates[0]) for agg in CLASSIC_AGGS[:3]]
    return queries


def assert_batch_matches_oracle(synopsis, queries, context: str = "") -> None:
    answers = batch_query(synopsis, queries)
    assert len(answers) == len(queries)
    for query, answer in zip(queries, answers):
        assert_results_identical(
            answer,
            synopsis.query_object(query),
            context=f"{context}{query.agg.value} {query.predicate} ",
        )


_pool = st.lists(
    st.lists(_fraction_pair, min_size=3, max_size=3), min_size=1, max_size=3
)
_picks = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.sampled_from(BATCH_AGGS)),
    max_size=12,
)


class TestBatchBitIdentity:
    """``batch_query`` carries the bits of the per-query oracle."""

    @given(
        n_columns=st.integers(min_value=1, max_value=3),
        n_partitions=st.sampled_from([16, 64]),
        seed=st.integers(min_value=0, max_value=2),
        pool=_pool,
        picks=_picks,
    )
    def test_random_batches_match_query_object(
        self, n_columns, n_partitions, seed, pool, picks
    ):
        synopsis = _batch_synopsis(n_columns, n_partitions, seed)
        assert_batch_matches_oracle(synopsis, _batch(n_columns, pool, picks))

    def test_avg_takes_its_own_frontier_under_the_zero_variance_rule(self):
        """The fixture does exercise the AVG-only descent (not vacuous)."""
        synopsis = _batch_synopsis(1, 64, 0)
        predicate = RectPredicate({"c0": Interval(10.3, 70.7)})
        queries = [AggregateQuery(agg, "value", predicate) for agg in CLASSIC_AGGS[:3]]
        plan = compile_batch(synopsis, queries)
        assert plan.slots == [0, 0, 1]
        sum_frontier, avg_frontier = plan.slot_frontiers
        assert avg_frontier.partial.shape[0] < sum_frontier.partial.shape[0]
        assert_batch_matches_oracle(synopsis, queries)

    @given(
        seed=st.integers(min_value=0, max_value=2),
        n_inserts=st.integers(min_value=0, max_value=25),
        n_deletes=st.integers(min_value=0, max_value=10),
        pool=_pool,
        picks=_picks,
    )
    def test_batches_after_updates_and_a_stale_sample_rebuild(
        self, seed, n_inserts, n_deletes, pool, picks
    ):
        table = _constant_region_table(1, seed)
        dynamic = DynamicPASS(table, "value", ["c0"], config=_batch_config(1, 16, seed))
        synopsis = dynamic.synopsis
        flat = synopsis.flat  # warm: updates go through the sync hooks
        rng = np.random.default_rng(seed + 100)
        for _ in range(n_inserts):
            dynamic.insert(
                {"c0": float(rng.uniform(0, 100)), "value": float(rng.uniform(0, 90))}
            )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StaleExtremaWarning)
            for _ in range(n_deletes):
                row = int(rng.integers(0, N_ROWS))
                dynamic.delete(
                    {
                        "c0": float(table.column("c0")[row]),
                        "value": float(table.column("value")[row]),
                    }
                )
            # Deleting a *sampled* tuple shrinks that leaf's reservoir: a
            # length-changing swap, which marks the CSR samples stale.
            stratum = next(s for s in synopsis.leaf_samples if s.sample_size)
            dynamic.delete(
                {
                    "c0": float(stratum.sample_columns["c0"][0]),
                    "value": float(stratum.sample_columns["value"][0]),
                }
            )
        assert flat._samples_stale
        assert_batch_matches_oracle(
            synopsis,
            _batch(1, pool, picks),
            context=f"after {n_inserts} inserts / {n_deletes + 1} deletes ",
        )
        assert not flat._samples_stale


@functools.lru_cache(maxsize=None)
def _ragged_synopsis():
    """A 2-D k-d synopsis with every leaf state the sketch kernel must order.

    The k-d tree groups leaves so that an internal node's leaves are not a
    run of consecutive ``leaf_index`` values, one leaf of the build is empty,
    and three populated leaves are stripped of their samples here.
    """
    synopsis = build_pass(
        _constant_region_table(2, 0), "value", ["c0", "c1"], _batch_config(2, 64, 0)
    )
    strata = synopsis.leaf_samples
    populated = [i for i, stratum in enumerate(strata) if stratum.size][:30:10]
    for leaf in populated:
        synopsis.replace_leaf_sample(
            leaf,
            Stratum(
                box=strata[leaf].box,
                size=strata[leaf].size,
                sample_columns={
                    column: np.zeros(0) for column in strata[leaf].sample_columns
                },
            ),
        )
    return synopsis


@functools.lru_cache(maxsize=None)
def _ragged_attached() -> FlatSynopsis:
    """``_ragged_synopsis`` through ``export_buffers`` / ``from_buffers``."""
    return FlatSynopsis.from_buffers(*_ragged_synopsis().flat.export_buffers())


class TestSketchKernelOnRaggedTrees:
    def test_fixture_has_every_irregular_leaf_state(self):
        synopsis = _ragged_synopsis()
        leaves = synopsis.tree.leaves
        strata = synopsis.leaf_samples
        assert any(leaf.size == 0 for leaf in leaves)
        assert any(
            leaf.size > 0 and stratum.sample_size == 0
            for leaf, stratum in zip(leaves, strata)
        )

        def is_consecutive_run(node) -> bool:
            indices = [n.leaf_index for n in node.iter_subtree() if n.is_leaf]
            return indices == list(range(indices[0], indices[0] + len(indices)))

        assert not all(
            is_consecutive_run(node)
            for node in synopsis.tree.root.iter_subtree()
            if not node.is_leaf
        )

    @given(
        fractions=st.lists(_fraction_pair, min_size=2, max_size=2),
        kind=st.sampled_from(ALL_KINDS),
    )
    def test_flat_oracle_and_buffer_round_trip_agree(self, fractions, kind):
        synopsis = _ragged_synopsis()
        query = _query(kind, _predicate(2, fractions))
        want = synopsis.query_object(query)
        assert_results_identical(synopsis.query(query), want, context="flat ")
        assert_results_identical(
            _ragged_attached().query(query), want, context="from_buffers "
        )

    def test_buffer_backed_engine_unpacks_sketches_on_first_use(self):
        flat = FlatSynopsis.from_buffers(*_ragged_synopsis().flat.export_buffers())
        predicate = RectPredicate({"c0": Interval(20.0, 70.0)})
        flat.query(AggregateQuery("SUM", "value", predicate))
        assert flat._leaf_sketches is None
        flat.query(AggregateQuery("COUNT_DISTINCT", "value", predicate))
        assert len(flat._leaf_sketches) == _ragged_synopsis().n_partitions


@functools.lru_cache(maxsize=None)
def _sharded():
    return build_sharded_pass(
        _constant_region_table(1, 0),
        "value",
        "c0",
        n_shards=3,
        config=_batch_config(1, 16, 0),
        executor="serial",
    )


class TestShardedGatherBitIdentity:
    @given(
        fractions=st.lists(_fraction_pair, min_size=1, max_size=1),
        kind=st.sampled_from(SKETCH_KINDS),
    )
    def test_gather_equals_the_merged_oracle_unions(self, fractions, kind):
        """Each shard's flat union is its oracle union, so the merges agree."""
        sharded = _sharded()
        query = _query(kind, _predicate(1, fractions))
        survivors = sharded.surviving_shards(query)
        got = sharded.query(query)
        if not survivors:
            assert got.exact
            return
        union = functools.reduce(
            lambda merged, other: merged.merge(other),
            (sharded.shards[i].sketch_union_object(query) for i in survivors),
        )
        assert_results_identical(
            got, sketch_union_result(query, union, sharded.population_size)
        )


class TestUfuncReplicas:
    """The scalar numpy replicas used by the flat path are bitwise faithful."""

    @given(
        n=st.integers(min_value=1, max_value=4096),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        seed=st.integers(min_value=0, max_value=9),
    )
    def test_fast_mean_matches_numpy(self, n, scale, seed):
        values = np.random.default_rng(seed).normal(0.0, scale, size=n)
        assert _bits(_fast_mean(values)) == _bits(float(values.mean()))

    @given(
        n=st.integers(min_value=2, max_value=4096),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        seed=st.integers(min_value=0, max_value=9),
    )
    def test_fast_var_matches_numpy(self, n, scale, seed):
        values = np.random.default_rng(seed).normal(0.0, scale, size=n)
        assert _bits(_fast_var(values)) == _bits(float(np.var(values)))

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=60), min_size=3, max_size=8),
        seed=st.integers(min_value=0, max_value=9),
    )
    def test_batched_moments_match_scalar_contributions(self, sizes, seed):
        """`_segment_pairs` over gathered segments == the per-leaf replicas."""
        synopsis = _synopsis(1, 16, 0, False)
        flat = synopsis.flat
        rng = np.random.default_rng(seed)
        strata = synopsis.leaf_samples
        leaves = [
            int(leaf)
            for leaf in rng.choice(len(strata), size=len(sizes), replace=False)
            if strata[int(leaf)].sample_size > 0
        ]
        strata_sizes = [int(s) for s in sizes[: len(leaves)]]
        if not leaves:
            return
        low, high = 20.0, 80.0
        constraints = flat._mask_constraints(
            RectPredicate({"c0": Interval(low, high)})
        )
        sum_pairs, count_pairs = flat._batched_partial_moments(
            strata_sizes, leaves, constraints, need_sum=True, need_count=True
        )
        offsets = flat._samples.offsets
        values_column = flat._samples.columns["value"]
        for i, (size, leaf) in enumerate(zip(strata_sizes, leaves)):
            start, stop = int(offsets[leaf]), int(offsets[leaf + 1])
            mask = flat._leaf_mask(constraints, start, stop)
            expect_sum = _sum_contribution(
                values_column[start:stop], mask, size, flat._with_fpc
            )
            expect_count = _count_contribution(mask, size, flat._with_fpc)
            assert _bits(sum_pairs[i][0]) == _bits(expect_sum[0])
            assert _bits(sum_pairs[i][1]) == _bits(expect_sum[1])
            assert _bits(count_pairs[i][0]) == _bits(expect_count[0])
            assert _bits(count_pairs[i][1]) == _bits(expect_count[1])


def test_nan_bits_still_compare_equal():
    assert _bits(float("nan")) == _bits(float("nan"))
    assert _bits(-0.0) != _bits(0.0)
    assert math.isnan(float("nan"))
