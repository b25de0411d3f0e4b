"""Correctness of :class:`ShardedSynopsis`, the shards stitched into one tree.

A shard is a subtree: each shard's slice of the stitched arrays is its own
build byte for byte (statistics, samples, sketches; only the bounds are
clipped to the key box and the topology rebased), so for SUM / COUNT the
stitched estimate, variance and hard bounds are the sums of the per-shard
slices' answers up to summation order, MIN / MAX are their extrema exactly,
and AVG (the single-synopsis estimator) stays inside the confidence
interval of an unsharded synopsis over the same data.  The certified-bound
properties over random shardings live in ``test_sharded_bounds.py``.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_from_plan, build_sharded_pass
from repro.distributed.planner import ShardPlanner
import repro.distributed.sharded as sharded_module
from repro.distributed.sharded import DynamicShardedSynopsis, ShardedSynopsis
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery, ExactEngine
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine
from repro.serving.persistence import (
    _atomic_write,
    _write_segment,
    load_synopsis,
    save_synopsis,
)

from test_soa_equivalence import assert_results_identical


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(42)
    n = 6000
    key = rng.uniform(0.0, 100.0, size=n)
    value = np.abs(rng.normal(50.0, 15.0, size=n) + 0.3 * key)
    return Table({"key": key, "value": value}, name="sharded_test")


@pytest.fixture(scope="module")
def config() -> PASSConfig:
    return PASSConfig(n_partitions=8, sample_rate=0.05, opt_sample_size=300, seed=9)


@pytest.fixture(scope="module")
def sharded(table, config) -> ShardedSynopsis:
    return build_sharded_pass(
        table, "value", "key", n_shards=4, config=config
    )


@pytest.fixture(scope="module")
def engine(table) -> ExactEngine:
    return ExactEngine(table)


PREDICATES = [
    RectPredicate.from_bounds(key=(10.0, 90.0)),
    RectPredicate.from_bounds(key=(33.0, 41.0)),
    RectPredicate.everything(),
]


def _unwrap(shard):
    return shard.synopsis if isinstance(shard, DynamicPASS) else shard


class TestAdditiveMerge:
    @pytest.mark.parametrize("agg", ["SUM", "COUNT"])
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_estimate_and_variance_merge_exactly(self, sharded, agg, predicate):
        """The stitched answer is the sum of its shards' slices' answers.

        The slices carry the clipped bounds, so they see the same frontier
        inside each shard; only the summation order differs.
        """
        query = AggregateQuery(agg, "value", predicate)
        merged = sharded.query(query)
        survivors = sharded.surviving_shards(query)
        shards = sharded.shards
        parts = [shards[i].query(query) for i in survivors]
        for field in ("estimate", "variance", "hard_lower", "hard_upper"):
            assert getattr(merged, field) == pytest.approx(
                sum(getattr(part, field) for part in parts), rel=1e-12, abs=1e-9
            )
        assert merged.exact == all(part.exact for part in parts)

    @pytest.mark.parametrize("agg", ["SUM", "COUNT"])
    def test_truth_inside_hard_bounds(self, sharded, engine, agg):
        for predicate in PREDICATES:
            query = AggregateQuery(agg, "value", predicate)
            result = sharded.query(query)
            truth = engine.execute(query)
            # eps absorbs summation-order float noise between the single-pass
            # ground truth and the per-shard partial sums.
            eps = 1e-9 * max(1.0, abs(truth))
            assert result.hard_lower - eps <= truth <= result.hard_upper + eps

    def test_everything_predicate_is_exact(self, sharded, engine):
        for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
            query = AggregateQuery(agg, "value", RectPredicate.everything())
            result = sharded.query(query)
            assert result.exact
            assert result.estimate == pytest.approx(engine.execute(query), rel=1e-9)
            assert result.ci_half_width == 0.0

    def test_empty_region_estimates_zero(self, sharded):
        # The outermost partition boxes extend to infinity (as in unsharded
        # PASS), so an out-of-domain predicate partially overlaps the last
        # leaf of the last shard: the answer is a sampled zero, with every
        # other shard pruned outright.
        query = AggregateQuery(
            "SUM", "value", RectPredicate.from_bounds(key=(2000.0, 3000.0))
        )
        result = sharded.query(query)
        assert result.estimate == 0.0
        assert result.hard_lower == 0.0
        assert len(sharded.surviving_shards(query)) == 1


class TestExtremumMerge:
    @pytest.mark.parametrize("agg", ["MIN", "MAX"])
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_extrema_merge_exactly(self, sharded, agg, predicate):
        query = AggregateQuery(agg, "value", predicate)
        merged = sharded.query(query)
        survivors = sharded.surviving_shards(query)
        parts = [_unwrap(sharded.shards[i]).query(query) for i in survivors]
        pick = max if agg == "MAX" else min
        estimates = [p.estimate for p in parts if not math.isnan(p.estimate)]
        assert merged.estimate == pick(estimates)
        assert merged.hard_lower == pick(
            p.hard_lower for p in parts if not math.isnan(p.hard_lower)
        )
        assert merged.hard_upper == pick(
            p.hard_upper for p in parts if not math.isnan(p.hard_upper)
        )

    @pytest.mark.parametrize("agg", ["MIN", "MAX"])
    def test_truth_inside_hard_bounds(self, sharded, engine, agg):
        query = AggregateQuery(agg, "value", PREDICATES[0])
        result = sharded.query(query)
        truth = engine.execute(query)
        assert result.hard_lower <= truth <= result.hard_upper


class TestAvgMerge:
    @pytest.mark.parametrize("predicate", PREDICATES[:2])
    def test_avg_within_combined_ci_of_unsharded_synopsis(
        self, sharded, table, config, engine, predicate
    ):
        query = AggregateQuery("AVG", "value", predicate)
        unsharded = build_pass(table, "value", ["key"], config)
        reference = unsharded.query(query)
        merged = sharded.query(query)
        truth = engine.execute(query)
        # Both estimators must place the truth inside their intervals, and
        # the sharded point estimate must fall inside the unsharded CI (the
        # acceptance criterion) with a small numerical cushion.
        assert merged.contains_truth(truth) or merged.relative_error(truth) < 0.02
        cushion = 0.01 * abs(truth)
        assert (
            reference.ci_lower - cushion
            <= merged.estimate
            <= reference.ci_upper + cushion
        )

    def test_avg_is_ratio_of_combined_sum_and_count(self, sharded):
        predicate = PREDICATES[1]
        avg = sharded.query(AggregateQuery("AVG", "value", predicate))
        total = sharded.query(AggregateQuery("SUM", "value", predicate))
        count = sharded.query(AggregateQuery("COUNT", "value", predicate))
        assert avg.estimate == pytest.approx(total.estimate / count.estimate, rel=1e-12)

    def test_avg_bounds_contain_truth(self, sharded, engine):
        for predicate in PREDICATES:
            query = AggregateQuery("AVG", "value", predicate)
            result = sharded.query(query)
            truth = engine.execute(query)
            # The single-synopsis AVG bound of an exact answer is the root's
            # SUM / COUNT: eps absorbs its summation order against the scan.
            eps = 1e-12 * abs(truth)
            assert result.hard_lower - eps <= truth <= result.hard_upper + eps


class TestPruning:
    def test_narrow_predicate_prunes_shards(self, sharded):
        query = AggregateQuery(
            "SUM", "value", RectPredicate.from_bounds(key=(33.0, 41.0))
        )
        survivors = sharded.surviving_shards(query)
        assert 0 < len(survivors) < sharded.n_shards

    def test_pruned_population_is_reported_skipped(self, sharded):
        query = AggregateQuery(
            "SUM", "value", RectPredicate.from_bounds(key=(33.0, 41.0))
        )
        survivors = set(sharded.surviving_shards(query))
        pruned_population = sum(
            _unwrap(shard).population_size
            for index, shard in enumerate(sharded.shards)
            if index not in survivors
        )
        result = sharded.query(query)
        assert result.tuples_skipped >= pruned_population

    def test_hash_sharding_answers_correctly_without_range_pruning(
        self, table, config, engine
    ):
        sharded = build_sharded_pass(
            table,
            "value",
            "key",
            n_shards=4,
            strategy="hash",
            config=config,
        )
        query = AggregateQuery("COUNT", "value", PREDICATES[0])
        assert len(sharded.surviving_shards(query)) == sharded.n_shards
        result = sharded.query(query)
        truth = engine.execute(query)
        assert result.hard_lower <= truth <= result.hard_upper
        assert result.relative_error(truth) < 0.25

    def test_shard_column_predicate_on_shards_partitioned_elsewhere(self, config):
        # Shards split on `key` but partitioned/sampled on `a`: a predicate
        # constraining the shard column must still be answerable — the shard
        # samples retain the shard column for exactly this case.
        rng = np.random.default_rng(8)
        n = 4000
        mixed = Table(
            {
                "key": rng.uniform(0.0, 100.0, size=n),
                "a": rng.uniform(0.0, 10.0, size=n),
                "value": np.abs(rng.normal(30.0, 8.0, size=n)),
            },
            name="mixed",
        )
        sharded = build_sharded_pass(
            mixed,
            "value",
            "key",
            n_shards=3,
            predicate_columns=["a"],
            config=config,
        )
        engine = ExactEngine(mixed)
        for predicate in (
            RectPredicate.from_bounds(key=(20.0, 70.0)),
            RectPredicate.from_bounds(key=(20.0, 70.0), a=(2.0, 8.0)),
        ):
            for agg in ("SUM", "COUNT", "AVG"):
                query = AggregateQuery(agg, "value", predicate)
                result = sharded.query(query)
                truth = engine.execute(query)
                assert math.isfinite(result.estimate)
                assert result.relative_error(truth) < 0.25
        # And the serving path, which routes on the advertised shard column.
        catalog = SynopsisCatalog()
        entry = catalog.register("mixed_value", sharded, table_name="mixed")
        assert "key" in entry.predicate_columns
        serving = ServingEngine(catalog)
        query = AggregateQuery(
            "COUNT", "value", RectPredicate.from_bounds(key=(20.0, 70.0))
        )
        assert catalog.route(query, "mixed") is entry
        served = serving.execute(query, table="mixed")
        assert math.isfinite(served.estimate)

    def test_hash_point_predicate_routes_to_one_shard(self, table, config):
        sharded = build_sharded_pass(
            table, "value", "key", n_shards=4, strategy="hash",
            config=config,
        )
        key = float(table.column("key")[0])
        query = AggregateQuery(
            "COUNT", "value", RectPredicate.from_bounds(key=(key, key))
        )
        assert sharded.surviving_shards(query) == [sharded.shard_for_value(key)]


class TestBatchPath:
    def test_batch_results_identical_to_sequential(self, sharded):
        rng = np.random.default_rng(0)
        queries = []
        for _ in range(20):
            low, high = sorted(rng.uniform(0.0, 100.0, size=2))
            predicate = RectPredicate.from_bounds(key=(float(low), float(high)))
            for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
                queries.append(AggregateQuery(agg, "value", predicate))
        batch = sharded.query_batch(queries)
        for query, batched in zip(queries, batch):
            single = sharded.query(query)
            if math.isnan(single.estimate):
                assert math.isnan(batched.estimate)
            else:
                assert batched.estimate == single.estimate
            if math.isnan(single.variance):
                assert math.isnan(batched.variance)
            else:
                assert batched.variance == single.variance


class TestUpdatesAndValidation:
    def test_static_shards_reject_updates(self, sharded):
        with pytest.raises(TypeError, match="static"):
            sharded.insert({"key": 1.0, "value": 2.0})

    def test_dynamic_updates_route_to_owning_shard(self, table, config):
        sharded = build_sharded_pass(
            table, "value", "key", n_shards=3, config=config,
            dynamic=True,
        )
        query = AggregateQuery("COUNT", "value", RectPredicate.everything())
        before = sharded.query(query).estimate
        owner = sharded.shard_for_value(50.0)
        populations = [sharded.shard_population(i) for i in range(3)]
        row = {"key": 50.0, "value": 10.0}
        box = sharded.insert(row)
        assert box == sharded.leaf_boxes[sharded.leaf_for_point(row)]
        assert box.interval("key").contains_value(50.0)
        assert [sharded.shard_population(i) for i in range(3)] == [
            population + (i == owner) for i, population in enumerate(populations)
        ]
        assert sharded.query(query).estimate == before + 1
        assert sharded.staleness > 0.0
        assert [s > 0.0 for s in sharded.per_shard_staleness()] == [
            index == owner for index in range(3)
        ]

    def test_hash_sharding_accepts_inserts_of_unseen_keys(self, config):
        # Keys whose hash bucket was empty at plan time route to the bucket's
        # assigned owner shard instead of raising.
        small = Table(
            {"key": np.arange(9.0), "value": np.arange(9.0) + 1.0}, name="small"
        )
        sharded = build_sharded_pass(
            small, "value", "key", n_shards=16, strategy="hash",
            config=PASSConfig(n_partitions=2, sample_rate=0.5, seed=0),
            dynamic=True,
        )
        before = sharded.population_size
        for key in (-3.0, 123.456, 9999.0):
            owner = sharded.shard_for_value(key)
            population = sharded.shard_population(owner)
            sharded.insert({"key": key, "value": 1.0})
            assert 0 <= owner < sharded.n_shards
            assert sharded.shard_population(owner) == population + 1
        assert sharded.population_size == before + 3

    def test_value_column_mismatch_raises(self, sharded):
        query = AggregateQuery("SUM", "other", RectPredicate.everything())
        with pytest.raises(ValueError, match="aggregates"):
            sharded.query(query)

    def test_replace_shard_validates_index_and_column(self, sharded, table, config):
        with pytest.raises(IndexError):
            sharded.replace_shard(99, sharded.shards[0])
        other = build_pass(
            Table({"key": np.arange(10.0), "other": np.arange(10.0)}),
            "other",
            ["key"],
            PASSConfig(n_partitions=2, sample_rate=0.5),
        )
        with pytest.raises(ValueError, match="value"):
            sharded.replace_shard(0, other)

    def test_replace_shard_adopts_the_fresh_stitch(self, table, config, monkeypatch):
        """A dynamic re-stitch keeps ``_stitch``'s arrays instead of copying them.

        Only the samples move once more, into the reservoirs' slotted layout;
        the saving shows as a lower ``tracemalloc`` peak than adopting a copy
        (what ``from_buffers`` does for buffers the synopsis does not own).
        """
        sharded = build_sharded_pass(
            table, "value", "key", n_shards=4, config=config, dynamic=True
        )
        replacement = sharded.shards[1]
        stitched = []
        stitch = sharded_module._stitch

        def recorded(*args):
            stitched.append(stitch(*args))
            return stitched[-1]

        monkeypatch.setattr(sharded_module, "_stitch", recorded)
        sharded.replace_shard(1, replacement)
        ((_, arrays),) = stitched
        assert isinstance(sharded, DynamicShardedSynopsis)
        assert sharded._node_sum is arrays["node_sum"]
        assert sharded._node_count is arrays["node_count"]
        assert sharded._parent is arrays["parent"]
        assert sharded._bounds[0] is arrays["col_lows"]
        assert sharded._seen is arrays["seen"]
        assert sharded._capacity is arrays["capacity"]
        monkeypatch.setattr(sharded_module, "_stitch", stitch)

        def peak() -> int:
            tracemalloc.start()
            try:
                sharded.replace_shard(1, replacement)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        adopted = peak()
        own = ShardedSynopsis._own_buffers.__func__

        def copying(cls, header, arrays, rng):
            copies = {key: np.array(value) for key, value in arrays.items()}
            return own(cls, header, copies, rng)

        monkeypatch.setattr(ShardedSynopsis, "_own_buffers", classmethod(copying))
        copied = peak()
        assert adopted < copied

    def test_mismatched_shards_and_boxes_raise(self, sharded):
        with pytest.raises(ValueError, match="key boxes"):
            ShardedSynopsis(
                shards=sharded.shards,
                key_boxes=sharded.key_boxes[:-1],
                shard_column="key",
            )


class TestServingIntegration:
    def test_engine_routes_and_answers_through_sharded_entry(
        self, sharded, table, engine
    ):
        catalog = SynopsisCatalog()
        entry = catalog.register("sharded_value", sharded, table_name=table.name)
        assert entry.synopsis is sharded and entry.predicate_columns == ("key",)
        assert entry.n_partitions == sharded.n_partitions
        serving = ServingEngine(catalog)
        query = AggregateQuery("SUM", "value", PREDICATES[0])
        assert catalog.route(query, table.name) is entry
        result = serving.execute(query, table=table.name)
        assert result.estimate == sharded.query(query).estimate
        # Second execution is a cache hit with the identical result.
        assert serving.execute(query, table=table.name) == result

    def test_engine_batch_matches_direct_scatter_gather(self, sharded, table):
        catalog = SynopsisCatalog()
        catalog.register("sharded_value", sharded, table_name=table.name)
        serving = ServingEngine(catalog, cache_size=0)
        queries = [
            AggregateQuery(agg, "value", predicate)
            for agg in ("SUM", "COUNT", "AVG")
            for predicate in PREDICATES
        ]
        batch = serving.execute_batch(queries, table=table.name)
        direct = sharded.query_batch(queries)
        for served, expected in zip(batch, direct):
            if math.isnan(expected.estimate):
                assert math.isnan(served.estimate)
            else:
                assert served.estimate == expected.estimate

    def test_engine_update_invalidates_sharded_cache(self, table, config):
        sharded = build_sharded_pass(
            table, "value", "key", n_shards=3, config=config,
            dynamic=True,
        )
        catalog = SynopsisCatalog()
        catalog.register("sharded_value", sharded, table_name=table.name)
        serving = ServingEngine(catalog)
        query = AggregateQuery("COUNT", "value", RectPredicate.everything())
        before = serving.execute(query, table=table.name).estimate
        serving.insert("sharded_value", {"key": 10.0, "value": 5.0})
        after = serving.execute(query, table=table.name).estimate
        assert after == before + 1


class TestPersistence:
    def test_static_round_trip_is_bit_identical(self, sharded, tmp_path):
        path = save_synopsis(sharded, tmp_path / "sharded")
        reloaded = load_synopsis(path)
        assert isinstance(reloaded, ShardedSynopsis)
        assert reloaded.n_shards == sharded.n_shards
        assert reloaded.strategy == sharded.strategy
        for predicate in PREDICATES:
            for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
                query = AggregateQuery(agg, "value", predicate)
                a, b = sharded.query(query), reloaded.query(query)
                assert a.estimate == b.estimate or (
                    math.isnan(a.estimate) and math.isnan(b.estimate)
                )

    def test_dynamic_round_trip_keeps_update_support(self, table, config, tmp_path):
        sharded = build_sharded_pass(
            table, "value", "key", n_shards=2, config=config,
            dynamic=True,
        )
        sharded.insert({"key": 25.0, "value": 12.0})
        path = save_synopsis(sharded, tmp_path / "dynamic_sharded")
        reloaded = load_synopsis(path)
        assert isinstance(reloaded, ShardedSynopsis)
        assert reloaded.supports_updates
        assert reloaded.population_size == sharded.population_size
        assert reloaded.per_shard_staleness() == sharded.per_shard_staleness()
        reloaded.insert({"key": 30.0, "value": 8.0})

    def test_hash_round_trip_preserves_routing(self, table, config, tmp_path):
        sharded = build_sharded_pass(
            table, "value", "key", n_shards=4, strategy="hash",
            config=config,
        )
        path = save_synopsis(sharded, tmp_path / "hash_sharded")
        reloaded = load_synopsis(path)
        for value in table.column("key")[:20]:
            assert reloaded.shard_for_value(float(value)) == sharded.shard_for_value(
                float(value)
            )

    def test_a_file_of_the_per_shard_layout_is_refused(self, sharded, tmp_path):
        """The earlier layout (``shard<i>/`` arrays) is not converted."""
        shard_header, shard_arrays = sharded.shards[0].export_buffers()
        header = {"kind": "sharded", "shard_headers": [shard_header]}
        arrays = {f"shard0/{key}": value for key, value in shard_arrays.items()}
        path = tmp_path / "per_shard.pass"
        _atomic_write(path, lambda handle: _write_segment(handle, header, arrays))
        with pytest.raises(ValueError, match="per_shard.pass.*per-shard layout"):
            load_synopsis(path)


def _slice_matches_its_build(piece, built) -> None:
    """Statistics, samples and sketches byte for byte; bounds clipped inside."""
    (piece_header, piece_arrays), (header, arrays) = piece, built
    for key in arrays:
        if key not in ("col_lows", "col_highs"):
            assert piece_arrays[key].dtype == arrays[key].dtype, key
            assert piece_arrays[key].tobytes() == arrays[key].tobytes(), key
    for c, column in enumerate(header["columns"]):
        p = piece_header["columns"].index(column)
        assert np.all(piece_arrays["col_lows"][p] >= arrays["col_lows"][c])
        assert np.all(piece_arrays["col_highs"][p] <= arrays["col_highs"][c])


class TestAShardIsASubtree:
    @pytest.mark.parametrize("strategy", ["range", "hash"])
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_each_shard_slice_is_its_own_build(self, table, config, strategy, dynamic):
        """The per-shard content the stitch must not move, pinned to fresh builds."""
        plan = ShardPlanner(4, strategy).plan(table, "key")
        sharded = build_sharded_from_plan(
            plan,
            "value",
            ["key"],
            config.with_overrides(with_sketches=True),
            dynamic=dynamic,
        )
        build = DynamicPASS if dynamic else build_pass
        for index, (piece, chunk) in enumerate(
            zip(sharded.shards, plan.tables)
        ):
            reference = build(
                chunk,
                "value",
                ["key"],
                config.with_overrides(with_sketches=True, seed=config.seed + index),
            )
            _slice_matches_its_build(piece.export_buffers(), reference.export_buffers())

    def test_the_shard_rows_are_contiguous_subtrees_under_one_root(self, sharded):
        header, arrays = sharded.export_buffers()
        rows = arrays["shard_rows"]
        assert rows.shape == (sharded.n_shards, 2)
        # Geometry order: the root, then the last shard's subtree first.
        assert rows[-1, 0] == 1 and rows[0, 1] == arrays["node_sum"].shape[0]
        assert np.all(rows[:-1, 0] == rows[1:, 1])
        parent = arrays["parent"]
        for start, stop in rows.tolist():
            assert parent[start] == 0
            inner = parent[start + 1 : stop]
            assert np.all((inner >= start) & (inner < stop))
        assert arrays["node_count"][0] == sharded.population_size

    def test_every_node_nests_in_its_parent(self, sharded):
        """The closed-form frontier's precondition, clipping included."""
        _, arrays = sharded.export_buffers()
        parent = arrays["parent"][1:]
        lows, highs = arrays["col_lows"], arrays["col_highs"]
        assert np.all(lows[:, 1:] >= lows[:, parent])
        assert np.all(highs[:, 1:] <= highs[:, parent])

    def test_a_mixed_stitch_takes_the_updates_its_dynamic_shards_own(
        self, table, config
    ):
        built = {
            dynamic: build_sharded_pass(
                table, "value", "key", n_shards=2, config=config, dynamic=dynamic
            )
            for dynamic in (False, True)
        }
        mixed = ShardedSynopsis(
            [built[True].shards[0], built[False].shards[1]],
            built[False].key_boxes,
            shard_column="key",
        )
        assert isinstance(mixed, DynamicShardedSynopsis)
        assert not mixed.supports_updates  # not every shard is dynamic
        assert [type(shard) for shard in mixed.shards] == [DynamicPASS, PASSSynopsis]
        query = AggregateQuery("SUM", "value", PREDICATES[0])
        assert_results_identical(mixed.query(query), built[False].query(query))
        keys = table.column("key")
        owned = [
            next(float(k) for k in keys if mixed.shard_for_value(float(k)) == i)
            for i in (0, 1)
        ]
        population = mixed.population_size
        with pytest.raises(TypeError, match="static"):
            mixed.insert({"key": owned[1], "value": 1.0})
        assert mixed.population_size == population
        mixed.insert({"key": owned[0], "value": 1.0})
        assert mixed.population_size == population + 1
        staleness = mixed.per_shard_staleness()
        assert staleness[0] > 0.0 and staleness[1] == 0.0
        # Its last dynamic shard replaced by a static one, the stitch is static;
        # a static stitch given a dynamic shard takes its updates.
        mixed.replace_shard(0, built[False].shards[0])
        assert type(mixed) is ShardedSynopsis and not isinstance(mixed, DynamicPASS)
        mixed.replace_shard(1, built[True].shards[1])
        assert isinstance(mixed, DynamicShardedSynopsis)
        mixed.insert({"key": owned[1], "value": 1.0})
        assert mixed.per_shard_staleness()[0] == 0.0
