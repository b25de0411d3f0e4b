"""Scatter-gather correctness of :class:`ShardedSynopsis`.

The acceptance property: for SUM / COUNT / MIN / MAX the merged point
estimate and variance equal the mathematically merged per-shard quantities
(exact equality — the deterministic tree components of PASS merge exactly),
and AVG answers stay inside the combined confidence interval of an unsharded
synopsis over the same data.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.distributed.sharded import ShardedSynopsis
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery, ExactEngine
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine
from repro.serving.persistence import load_synopsis, save_synopsis


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
        query = AggregateQuery(agg, "value", predicate)
        merged = sharded.query(query)
        survivors = sharded.surviving_shards(query)
        parts = [_unwrap(sharded.shards[i]).query(query) for i in survivors]
        assert merged.estimate == sum(part.estimate for part in parts)
        assert merged.variance == sum(part.variance for part in parts)
        assert merged.hard_lower == sum(part.hard_lower for part in parts)
        assert merged.hard_upper == sum(part.hard_upper for part in parts)

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
            assert result.hard_lower <= truth <= result.hard_upper


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
        index = sharded.insert({"key": 50.0, "value": 10.0})
        assert index == sharded.shard_for_value(50.0)
        assert sharded.query(query).estimate == before + 1
        assert sharded.staleness > 0.0

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
            index = sharded.insert({"key": key, "value": 1.0})
            assert 0 <= index < sharded.n_shards
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
        assert entry.is_sharded
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
