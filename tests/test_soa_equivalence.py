"""Property tests: the SoA execution engine is bit-identical to the object path.

The object path is the test-side oracle (``tests/oracle.py``), run over the
reference (object) build's tree / strata / sketches for fresh builds and over
the objects the arrays decode to once a fixture has been updated or doctored.  The
contract documented in ``docs/ARCHITECTURE.md`` and ``repro.core.soa`` is
not "numerically close" but *bit-identical*: for every aggregate — the five
classic ones and the sketch-backed QUANTILE / COUNT_DISTINCT — the flat
engine must reproduce the object path's `AQPResult` field for field at the
level of IEEE-754 bit patterns — same covered/partial frontier order, same
floating-point summation order, same sketch merge order, same NaN
poisoning, same ``nodes_visited`` count.  These tests compare float bits
(``struct.pack``) rather than values so that ``-0.0 != 0.0`` and differing
NaN payloads would fail, across random trees, predicates, batches, the
zero-variance shortcut, post-insert/delete staleness states, a sharded
gather and an ``export_buffers`` round trip, and on both sides of the
partial-leaf kernels' frontier-size cutoff.  ``grouped_query`` alone shares
per-cell moments across its classic aggregates and is held to
summation-order equality for those (its sketch aggregates are bit-identical).
"""

from __future__ import annotations

import dataclasses
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
from repro.core.soa import FlatFrontier, FlatSynopsis, _fast_mean, _fast_var
from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.query.aggregates import AggregateType
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery
from repro.sampling.estimators import (
    stratum_count_contribution,
    stratum_sum_contribution,
)
from repro.sketches.union import sketch_union_result

import oracle

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
def _built(n_columns: int, n_partitions: int, seed: int, zero_variance: bool):
    """``(synopsis, the reference build's objects, byte-identical to it)``."""
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
    return oracle.built_with_objects(
        build_pass, table, "value", [f"c{i}" for i in range(n_columns)], config
    )


def _synopsis(*args):
    return _built(*args)[0]


def _objects(*args) -> oracle.SynopsisObjects:
    return _built(*args)[1]


@functools.lru_cache(maxsize=None)
def _reference(factory, *args) -> oracle.SynopsisObjects:
    """The objects a cached, never-again-updated fixture's arrays decode to."""
    return oracle.objects_of(factory(*args))


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
        synopsis, objects = _built(n_columns, n_partitions, seed, False)
        predicate = _predicate(n_columns, fractions)
        query = _query(kind, predicate)
        assert_results_identical(
            synopsis.query(query),
            oracle.query_object(objects, query),
            context=f"{kind} {predicate} ",
        )

    @given(kind=st.sampled_from(ALL_KINDS))
    def test_unconstrained_predicate_is_exact_on_both_paths(self, kind):
        synopsis, objects = _built(1, 64, 0, False)
        query = _query(kind, RectPredicate.everything())
        flat, obj = synopsis.query(query), oracle.query_object(objects, query)
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
        synopsis, objects = _built(2, 64, 1, True)
        predicate = _predicate(2, fractions)
        query = AggregateQuery(agg, "value", predicate)
        assert_results_identical(
            synopsis.query(query), oracle.query_object(objects, query)
        )


@functools.lru_cache(maxsize=None)
def _geometry_nodes(*args):
    return _objects(*args).tree.geometry().nodes


class TestFrontierBitIdentity:
    @given(
        n_columns=st.integers(min_value=1, max_value=3),
        fractions=st.lists(_fraction_pair, min_size=3, max_size=3),
    )
    def test_frontier_order_and_visit_count(self, n_columns, fractions):
        """Covered/partial node order and nodes_visited match the descent."""
        synopsis, objects = _built(n_columns, 64, 2, False)
        predicate = _predicate(n_columns, fractions)
        flat = synopsis.flat.frontier(predicate)
        obj = oracle.minimal_coverage_frontier(objects.tree, predicate)
        # Flat rows index the tree's geometry-order node table.
        nodes = _geometry_nodes(n_columns, 64, 2, False)
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
        synopsis, objects = _built(2, 64, seed, False)
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
                want = oracle.query_object(objects, plan.cell_query(cell, spec))
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
        synopsis, objects = _built(2, 64, seed, False)
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
                    oracle.query_object(objects, plan.cell_query(cell, spec)),
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
        """The updated arrays answer like the objects they decode to."""
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
            dynamic.query(query),
            oracle.query_object(dynamic, query),
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
def _batch_built(n_columns: int, n_partitions: int, seed: int):
    """``(synopsis, the reference build's objects)`` over the constant-region
    table."""
    return oracle.built_with_objects(
        build_pass,
        _constant_region_table(n_columns, seed),
        "value",
        [f"c{i}" for i in range(n_columns)],
        _batch_config(n_columns, n_partitions, seed),
    )


def _batch_synopsis(*args):
    return _batch_built(*args)[0]


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


def assert_batch_matches_oracle(
    synopsis, queries, context: str = "", reference=None
) -> None:
    """``reference``: the oracle's objects (default: decoded from ``synopsis``)."""
    answers = batch_query(synopsis, queries)
    assert len(answers) == len(queries)
    reference = oracle.objects_of(synopsis if reference is None else reference)
    for query, answer in zip(queries, answers):
        assert_results_identical(
            answer,
            oracle.query_object(reference, query),
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
        synopsis, objects = _batch_built(n_columns, n_partitions, seed)
        assert_batch_matches_oracle(
            synopsis, _batch(n_columns, pool, picks), reference=objects
        )

    def test_avg_takes_its_own_frontier_under_the_zero_variance_rule(self):
        """The fixture does exercise the AVG-only descent (not vacuous)."""
        synopsis, objects = _batch_built(1, 64, 0)
        predicate = RectPredicate({"c0": Interval(10.3, 70.7)})
        queries = [AggregateQuery(agg, "value", predicate) for agg in CLASSIC_AGGS[:3]]
        plan = compile_batch(synopsis, queries)
        assert plan.slots == [0, 0, 1]
        sum_frontier, avg_frontier = plan.slot_frontiers
        assert avg_frontier.partial.shape[0] < sum_frontier.partial.shape[0]
        assert_batch_matches_oracle(synopsis, queries, reference=objects)

    @given(
        n_columns=st.sampled_from([1, 2]),
        seed=st.integers(min_value=0, max_value=2),
        n_inserts=st.integers(min_value=0, max_value=25),
        n_deletes=st.integers(min_value=0, max_value=10),
        pool=_pool,
        picks=_picks,
    )
    def test_batches_after_updates_and_a_length_changing_sample_update(
        self, n_columns, seed, n_inserts, n_deletes, pool, picks
    ):
        """1-D frontiers stay on the scalar kernels, 2-D ones gather."""
        table = _constant_region_table(n_columns, seed)
        columns = [f"c{i}" for i in range(n_columns)]
        dynamic = DynamicPASS(
            table, "value", columns, config=_batch_config(n_columns, 16, seed)
        )
        synopsis = dynamic.synopsis
        rng = np.random.default_rng(seed + 100)

        for _ in range(n_inserts):
            row = {column: float(rng.uniform(0, 100)) for column in columns}
            dynamic.insert({**row, "value": float(rng.uniform(0, 90))})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StaleExtremaWarning)
            for _ in range(n_deletes):
                index = int(rng.integers(0, N_ROWS))
                row = {
                    column: float(table.column(column)[index])
                    for column in columns + ["value"]
                }
                dynamic.delete(row)
            # Deleting a *sampled* tuple shrinks that leaf's reservoir: a
            # length-changing replacement, which splices the CSR columns.
            flat = synopsis.flat
            sample = flat.leaf_sample(int(np.flatnonzero(flat.sample_counts)[0]))
            dynamic.delete(
                {column: float(sample[column][0]) for column in columns + ["value"]}
            )
        assert_batch_matches_oracle(
            synopsis,
            _batch(n_columns, pool, picks),
            context=f"after {n_inserts} inserts / {n_deletes + 1} deletes ",
        )


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
    populated = np.flatnonzero(synopsis.flat.leaf_populations())[:30:10]
    for leaf in populated.tolist():
        _edit_sample(synopsis, leaf, lambda column, values: values[:0])
    return synopsis


@functools.lru_cache(maxsize=None)
def _ragged_attached() -> FlatSynopsis:
    """``_ragged_synopsis`` through ``export_buffers`` and the constructor."""
    return FlatSynopsis(*_ragged_synopsis().flat.export_buffers())


class TestSketchKernelOnRaggedTrees:
    def test_fixture_has_every_irregular_leaf_state(self):
        objects = _reference(_ragged_synopsis)
        leaves = objects.tree.leaves
        strata = objects.leaf_samples
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
            for node in objects.tree.root.iter_subtree()
            if not node.is_leaf
        )

    @given(
        fractions=st.lists(_fraction_pair, min_size=2, max_size=2),
        kind=st.sampled_from(ALL_KINDS),
    )
    def test_flat_oracle_and_buffer_round_trip_agree(self, fractions, kind):
        synopsis = _ragged_synopsis()
        query = _query(kind, _predicate(2, fractions))
        want = oracle.query_object(_reference(_ragged_synopsis), query)
        assert_results_identical(synopsis.query(query), want, context="flat ")
        assert_results_identical(
            _ragged_attached().query(query), want, context="export_buffers "
        )

    def test_buffer_backed_engine_unpacks_sketches_on_first_use(self):
        flat = FlatSynopsis(*_ragged_synopsis().flat.export_buffers())
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


@functools.lru_cache(maxsize=None)
def _shard_references(factory) -> list[oracle.SynopsisObjects]:
    return [oracle.objects_of(shard) for shard in factory().shards]


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
            (
                oracle.sketch_union_object(_shard_references(_sharded)[i], query)
                for i in survivors
            ),
        )
        assert_results_identical(
            got, sketch_union_result(query, union, sharded.population_size)
        )


@functools.lru_cache(maxsize=None)
def _sharded_2d():
    """Three shards, each a 16-leaf k-d tree: per-shard frontiers gather."""
    return build_sharded_pass(
        _constant_region_table(2, 0),
        "value",
        "c0",
        n_shards=3,
        predicate_columns=["c0", "c1"],
        config=_batch_config(2, 16, 0),
        executor="serial",
    )


class TestShardedClassicGatherBitIdentity:
    @given(
        fractions=st.lists(_fraction_pair, min_size=2, max_size=2),
        agg=st.sampled_from(CLASSIC_AGGS),
    )
    def test_gather_equals_the_gathered_oracle_answers(self, fractions, agg):
        """Each shard's flat answer is its oracle answer, so the merges agree."""
        sharded = _sharded_2d()
        query = AggregateQuery(agg, "value", _predicate(2, fractions))
        survivors = sharded.surviving_shards(query)
        pruned = sharded.population_size - sum(
            sharded.shards[i].population_size for i in survivors
        )
        want = sharded._gather(
            query,
            survivors,
            lambda i, subquery: oracle.query_object(
                _shard_references(_sharded_2d)[i], subquery
            ),
            sharded._lam,
            pruned,
        )
        assert_results_identical(sharded.query(query), want)


KERNEL_COLUMNS = ("c0", "c1")
#: A rectangle just inside the data domain: every outer leaf is partial.
KERNEL_FRAME = RectPredicate({column: Interval(1.0, 99.0) for column in KERNEL_COLUMNS})


@functools.lru_cache(maxsize=None)
def _kernel_table() -> Table:
    """4000 rows in 2-D: 16 k-d leaves of 250 rows, 150 of them sampled.

    A leaf's sample is longer than numpy's 128-element pairwise-sum block, so
    a segment sum that is not ``np.add.reduce`` over the leaf's own slice
    would show in the last bits.
    """
    rng = np.random.default_rng(21)
    columns = {column: rng.uniform(0.0, 100.0, size=4000) for column in KERNEL_COLUMNS}
    columns["value"] = rng.normal(50.0, 15.0, size=4000)
    return Table(columns, name="soa_kernels")


def _edit_sample(synopsis, leaf: int, edit) -> None:
    """Replace one leaf's sample by ``edit(column name, values)`` per column."""
    flat = synopsis.flat
    flat.replace_leaf_sample(
        leaf,
        {
            column: edit(column, values)
            for column, values in flat.leaf_sample(leaf).items()
        },
    )


def _kernel_build(with_fpc: bool):
    """An undoctored 16-leaf k-d build — the reference build's objects — and
    the leaves ``KERNEL_FRAME`` cuts."""
    synopsis, objects = oracle.built_with_objects(
        build_pass,
        _kernel_table(),
        "value",
        list(KERNEL_COLUMNS),
        PASSConfig(
            n_partitions=16,
            sample_rate=0.6,
            partitioner="kd",
            zero_variance_rule=False,
            with_fpc=with_fpc,
            seed=4,
        ),
    )
    # A throwaway synopsis: the callers flatten ``objects`` again after they
    # have doctored node statistics on the object tree.
    flat = synopsis.flat
    boundary = flat._leaf_of_row[flat.frontier(KERNEL_FRAME).partial].tolist()
    return objects, boundary


@functools.lru_cache(maxsize=None)
def _kernel_synopsis(with_fpc: bool):
    """A k-d synopsis with every leaf state the moment kernels branch on.

    Seven boundary leaves are doctored: an empty sample, a one-row sample
    (``k <= 1``: variance 0), a fully sampled leaf (correction 0.0), a leaf
    of size 1 (correction 1.0), a leaf smaller than its sample (correction
    clamped at 0.0), an empty leaf, and a leaf whose sampled rows match no
    predicate.
    """
    objects, boundary = _kernel_build(with_fpc)
    leaves = objects.tree.leaves
    empty, single, full, size_one, oversampled, no_rows, unmatched = boundary[:7]
    full_size = leaves[full].size
    for leaf, size in ((size_one, 1), (oversampled, 5), (no_rows, 0)):
        leaves[leaf].stats = dataclasses.replace(leaves[leaf].stats, count=size)
    synopsis = objects.synopsis()
    _edit_sample(synopsis, empty, lambda column, values: values[:0])
    _edit_sample(synopsis, single, lambda column, values: values[:1])
    _edit_sample(synopsis, full, lambda column, values: np.resize(values, full_size))
    _edit_sample(
        synopsis,
        unmatched,
        lambda column, values: values + 1e6 if column != "value" else values,
    )
    return synopsis


@functools.lru_cache(maxsize=None)
def _nonfinite_synopsis():
    """The kernel build with ``inf`` / ``-inf`` / ``NaN`` sample values.

    One leaf each carries a single ``+inf``, a single ``-inf`` and a single
    ``NaN`` among finite values; a fourth holds nothing but ``-inf`` (its MAX
    candidate is infinite yet still a candidate, unlike an infinite covered
    statistic).  Only MIN / MAX are meaningful here.
    """
    objects, boundary = _kernel_build(False)
    synopsis = objects.synopsis()
    for leaf, (position, poison) in zip(
        boundary, ((3, math.inf), (140, -math.inf), (77, math.nan), (None, -math.inf))
    ):

        def edit(column, values, position=position, poison=poison):
            if column != "value":
                return values
            values = values.copy()
            values[slice(None) if position is None else position] = poison
            return values

        _edit_sample(synopsis, leaf, edit)
    return synopsis


@functools.lru_cache(maxsize=None)
def _attached(synopsis_factory, *args) -> FlatSynopsis:
    """A kernel fixture through ``export_buffers`` and the constructor."""
    return FlatSynopsis(*synopsis_factory(*args).flat.export_buffers())


def _rectangles_by_partial_count(synopsis) -> dict[int, RectPredicate]:
    """One rectangle per partial-leaf count reachable on ``synopsis``."""
    rng = np.random.default_rng(9)
    found: dict[int, RectPredicate] = {
        0: RectPredicate({column: Interval(-1.0, 101.0) for column in KERNEL_COLUMNS})
    }
    for _ in range(600):
        intervals = {}
        for column in KERNEL_COLUMNS:
            width = 100.0 * 10.0 ** rng.uniform(-3.0, 0.0)
            low = rng.uniform(0.0, 100.0 - width)
            intervals[column] = Interval(low, low + width)
        predicate = RectPredicate(intervals)
        count = synopsis.flat.frontier(predicate).partial.shape[0]
        found.setdefault(count, predicate)
    return found


def assert_every_path_matches_oracle(factory, args, query, context="") -> None:
    """``query``, ``batch_query`` and a buffer-backed engine carry the oracle's bits.

    ``factory(*args)`` is a cached fixture; the oracle runs over the objects
    its (doctored) arrays decode to.
    """
    synopsis, attached = factory(*args), _attached(factory, *args)
    want = oracle.query_object(_reference(factory, *args), query)
    assert_results_identical(synopsis.query(query), want, context=context + "flat ")
    assert_results_identical(
        batch_query(synopsis, [query])[0], want, context=context + "batch "
    )
    assert_results_identical(
        attached.query(query), want, context=context + "export_buffers "
    )


class TestPartialLeafKernels:
    """The frontier-wide kernels and the scalar ones carry the oracle's bits."""

    def test_fixture_has_every_leaf_state(self):
        objects = _reference(_kernel_synopsis, True)
        states = {
            (min(leaf.size, 6), min(stratum.sample_size, leaf.size + 1, 3))
            for leaf, stratum in zip(objects.tree.leaves, objects.leaf_samples)
        }
        # (size capped at 6, sample size capped at 3 and at size + 1)
        assert {(6, 0), (6, 1), (1, 2), (5, 3), (0, 1), (6, 3)} <= states
        assert any(
            leaf.size == stratum.sample_size > 128
            for leaf, stratum in zip(objects.tree.leaves, objects.leaf_samples)
        )

    @pytest.mark.parametrize("with_fpc", [False, True])
    @pytest.mark.parametrize("agg", CLASSIC_AGGS)
    def test_frontiers_on_both_sides_of_the_cutoff(self, agg, with_fpc):
        synopsis = _kernel_synopsis(with_fpc)
        rectangles = _rectangles_by_partial_count(synopsis)
        assert {0, 1, 2, 3, 4} <= set(rectangles) and max(rectangles) >= 10
        cases = [rectangles[count] for count in (0, 1, 2, 3, 4, max(rectangles))]
        for predicate in cases + [KERNEL_FRAME]:  # the frame cuts every doctored leaf
            assert_every_path_matches_oracle(
                _kernel_synopsis,
                (with_fpc,),
                AggregateQuery(agg, "value", predicate),
                context=f"{predicate} ",
            )

    @given(
        fractions=st.lists(_fraction_pair, min_size=1, max_size=2),
        agg=st.sampled_from(CLASSIC_AGGS),
        with_fpc=st.booleans(),
    )
    def test_random_rectangles_over_the_doctored_leaves(self, fractions, agg, with_fpc):
        """One fraction pair leaves ``c1`` unconstrained: a one-column mask."""
        assert_every_path_matches_oracle(
            _kernel_synopsis,
            (with_fpc,),
            AggregateQuery(agg, "value", _predicate(len(fractions), fractions)),
        )

    @pytest.mark.parametrize("agg", CLASSIC_AGGS)
    def test_a_frontier_in_which_no_sampled_row_matches(self, agg):
        """No MIN / MAX candidate at all: the estimate is NaN on both paths."""
        synopsis = _kernel_synopsis(False)
        # A sliver around the point where the k-d tree's first cuts cross,
        # far thinner than the gap to the nearest sampled row.
        predicate = RectPredicate(
            {
                column: Interval(centre - 1e-3, centre + 1e-3)
                for column in KERNEL_COLUMNS
                for centre in [float(np.median(_kernel_table().column(column)))]
            }
        )
        frontier = synopsis.flat.frontier(predicate)
        assert frontier.partial.shape[0] > 2 and not frontier.covered.shape[0]
        count = synopsis.query(AggregateQuery("COUNT", "value", predicate))
        assert count.tuples_processed > 0 and count.estimate == 0.0
        query = AggregateQuery(agg, "value", predicate)
        assert_every_path_matches_oracle(_kernel_synopsis, (False,), query)
        if agg in ("MIN", "MAX"):
            assert math.isnan(synopsis.query(query).estimate)

    @given(
        fractions=st.lists(_fraction_pair, min_size=1, max_size=2),
        agg=st.sampled_from(("MIN", "MAX")),
    )
    def test_extrema_over_infinite_and_nan_sample_values(self, fractions, agg):
        assert_every_path_matches_oracle(
            _nonfinite_synopsis,
            (),
            AggregateQuery(agg, "value", _predicate(len(fractions), fractions)),
        )

    @pytest.mark.parametrize("agg", ("MIN", "MAX"))
    def test_nonfinite_values_reach_the_estimate(self, agg):
        """The fixture is not vacuous: the poisoned rows do match."""
        synopsis = _nonfinite_synopsis()
        query = AggregateQuery(agg, "value", KERNEL_FRAME)
        assert_every_path_matches_oracle(_nonfinite_synopsis, (), query)
        estimate = synopsis.query(query).estimate
        assert math.isnan(estimate) or math.isinf(estimate)

    @pytest.mark.parametrize("agg", CLASSIC_AGGS)
    def test_missing_sample_column_raises_like_the_oracle(self, agg):
        """A predicate column the samples lack is the oracle's ``KeyError``."""
        synopsis = _kernel_synopsis(False)
        query = AggregateQuery(
            agg,
            "value",
            RectPredicate({"c0": Interval(20.0, 70.0), "zz": Interval(0.0, 1.0)}),
        )
        for answer in (
            functools.partial(oracle.query_object, _reference(_kernel_synopsis, False)),
            synopsis.query,
            _attached(_kernel_synopsis, False).query,
            lambda query: batch_query(synopsis, [query]),
        ):
            with pytest.raises(KeyError, match="'zz' not provided"):
                answer(query)


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
        sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=3, max_size=8),
        seed=st.integers(min_value=0, max_value=9),
        with_fpc=st.booleans(),
        constrained=st.booleans(),
    )
    def test_batched_moments_match_scalar_contributions(
        self, sizes, seed, with_fpc, constrained
    ):
        """The frontier-wide variance / FPC assembly == the oracle's per leaf.

        Stratum sizes are drawn freely around the ~150-row samples, so the
        correction is clamped at 0.0 (size below the sample), exactly 0.0
        (size pinned to the first leaf's sample), inside (0, 1) and 1.0
        (size 1); the fixture's one-row sample exercises ``k <= 1``.  Without
        constraints the mask is all ones.
        """
        flat = _kernel_synopsis(with_fpc).flat
        sample_counts = flat._sample_counts
        rng = np.random.default_rng(seed)
        leaves = [
            int(leaf)
            for leaf in rng.choice(len(sample_counts), size=len(sizes), replace=False)
            if sample_counts[leaf] > 0
        ]
        strata_sizes = [int(sample_counts[leaves[0]])] + sizes[1 : len(leaves)]
        constraints = (
            flat._mask_constraints(RectPredicate({"c0": Interval(20.0, 80.0)}))
            if constrained
            else []
        )
        sum_pairs, count_pairs = flat._batched_partial_moments(
            (strata_sizes, leaves, None, sample_counts[leaves].tolist()),
            constraints,
            need_sum=True,
            need_count=True,
        )
        offsets = flat._samples.offsets
        values_column = flat._samples.columns["value"]
        for i, (size, leaf) in enumerate(zip(strata_sizes, leaves)):
            start, stop = int(offsets[leaf]), int(offsets[leaf + 1])
            mask = flat._leaf_mask(constraints, start, stop)
            expect_sum = stratum_sum_contribution(
                values_column[start:stop], mask, size, with_fpc
            )
            expect_count = stratum_count_contribution(mask, size, with_fpc)
            assert _bits(sum_pairs[i][0]) == _bits(expect_sum.estimate)
            assert _bits(sum_pairs[i][1]) == _bits(expect_sum.variance)
            assert _bits(count_pairs[i][0]) == _bits(expect_count.estimate)
            assert _bits(count_pairs[i][1]) == _bits(expect_count.variance)

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("agg", ("MIN", "MAX"))
    def test_gathered_extrema_match_per_leaf_reductions(self, agg, constrained):
        """One ``reduceat`` over the compacted gather == ``.max()`` per leaf."""
        flat = _nonfinite_synopsis().flat
        rows = np.flatnonzero(flat._is_leaf)
        leaves = flat._leaf_of_row[rows]
        constraints = (
            flat._mask_constraints(RectPredicate({"c0": Interval(20.0, 80.0)}))
            if constrained
            else []
        )
        frontier = FlatFrontier(covered=rows[:0], partial=rows, nodes_visited=0)
        got = flat._extremum_answer(
            AggregateType.parse(agg),
            frontier,
            leaves,
            constraints,
            flat.hard_bounds_rows(AggregateType.parse(agg), rows[:0], rows),
            0,
            0,
        )
        offsets = flat._samples.offsets
        values_column = flat._samples.columns["value"]
        candidates = []
        for leaf in leaves.tolist():
            start, stop = int(offsets[leaf]), int(offsets[leaf + 1])
            matched = values_column[start:stop][
                flat._leaf_mask(constraints, start, stop)
            ]
            if matched.shape[0]:
                candidates.append(float(matched.max() if agg == "MAX" else matched.min()))
        want = max(candidates) if agg == "MAX" else min(candidates)
        assert _bits(got.estimate) == _bits(want)


def test_nan_bits_still_compare_equal():
    assert _bits(float("nan")) == _bits(float("nan"))
    assert _bits(-0.0) != _bits(0.0)
    assert math.isnan(float("nan"))
