"""End-to-end tests: QUANTILE / COUNT_DISTINCT through all four query paths.

The acceptance shape of the sketch subsystem: ``QUANTILE(0.5/0.95/0.99)``
and ``COUNT_DISTINCT`` must be answerable through

1. a single synopsis (``PASSSynopsis.query``),
2. grouped execution (``grouped_query`` over a compiled plan),
3. sharded scatter-gather (``ShardedSynopsis.query`` / ``query_grouped``),
4. the cached serving engine (``execute`` / ``execute_grouped``),

on a 100k-row workload, with every path's certified hard bounds containing
the exact answer and the sharded estimates consistent with the
single-synopsis estimates.  Streaming-update maintenance and persistence
round trips are covered at the end.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.core.batching import batch_query, grouped_query
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_from_plan, build_sharded_pass
from repro.distributed.planner import ShardPlanner
from repro.distributed.router import StreamingShardRouter
from repro.evaluation.harness import evaluate_served_workload
from repro.query.aggregates import AggregateType
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery, ExactEngine
from repro.query.workload import random_range_queries
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine
from repro.serving.persistence import load_synopsis, save_synopsis

N_ROWS = 100_000
QUANTILES = (0.5, 0.95, 0.99)


@pytest.fixture(scope="module")
def workload_table() -> Table:
    rng = np.random.default_rng(42)
    key = rng.uniform(0.0, 1000.0, size=N_ROWS)
    value = np.round(np.abs(rng.normal(50.0, 15.0, size=N_ROWS) + 0.02 * key), 1)
    return Table({"key": key, "value": value}, name="events")


@pytest.fixture(scope="module")
def config() -> PASSConfig:
    return PASSConfig(
        n_partitions=32,
        sample_rate=0.01,
        partitioner="equal",
        sketch_distinct_k=8192,
    )


@pytest.fixture(scope="module")
def synopsis(workload_table, config):
    return build_pass(workload_table, "value", ["key"], config)


@pytest.fixture(scope="module")
def sharded(workload_table, config):
    return build_sharded_pass(
        workload_table, "value", "key", n_shards=4, config=config
    )


@pytest.fixture(scope="module")
def engine(workload_table):
    return ExactEngine(workload_table)


def rank_truth(engine: ExactEngine, query: AggregateQuery) -> float:
    """Ground truth under the sketch's rank definition (value at ceil(q*m))."""
    matching = np.sort(
        engine.table.column(query.value_column)[engine.predicate_mask(query)]
    )
    target = max(1, min(math.ceil(query.quantile * matching.size), matching.size))
    return float(matching[target - 1])


def box_query(agg: str, low: float, high: float, **kwargs) -> AggregateQuery:
    return AggregateQuery(
        agg, "value", RectPredicate({"key": Interval(low, high)}), **kwargs
    )


class TestSingleSynopsisPath:
    def test_quantiles_within_certified_bounds(self, synopsis, engine):
        for q in QUANTILES:
            query = box_query("QUANTILE", 100.0, 900.0, quantile=q)
            result = synopsis.query(query)
            truth = rank_truth(engine, query)
            assert result.hard_lower <= truth <= result.hard_upper
            # The point estimate is far tighter than the conservative
            # certified interval.
            assert abs(result.estimate - truth) <= 0.05 * abs(truth)
        # At the median the certified interval itself is usefully tight.
        median = synopsis.query(box_query("QUANTILE", 100.0, 900.0, quantile=0.5))
        assert median.hard_upper - median.hard_lower < 25.0

    def test_count_distinct_within_certified_bounds(self, synopsis, engine):
        query = box_query("COUNT_DISTINCT", 100.0, 900.0)
        result = synopsis.query(query)
        truth = engine.execute(query)
        assert result.hard_lower <= truth <= result.hard_upper
        assert result.estimate == pytest.approx(truth, rel=0.05)

    def test_batch_query_matches_sequential(self, synopsis):
        queries = [
            box_query("QUANTILE", 50.0, 500.0, quantile=0.95),
            box_query("COUNT_DISTINCT", 50.0, 500.0),
            box_query("SUM", 50.0, 500.0),
        ]
        batched = batch_query(synopsis, queries)
        for query, result in zip(queries, batched):
            assert result.estimate == synopsis.query(query).estimate

    def test_median_alias_and_skip_rate(self, synopsis):
        median = synopsis.query(box_query("MEDIAN", 0.0, 1000.0))
        p50 = synopsis.query(box_query("QUANTILE", 0.0, 1000.0, quantile=0.5))
        assert median.estimate == p50.estimate
        assert synopsis.skip_rate(box_query("QUANTILE", 100.0, 900.0)) > 0.9

    def test_small_synopsis_bounds_contain_interpolated_quantile(self):
        # Regression: with <= k values the sketch is exact under its
        # nearest-rank definition, but the certified bounds must still
        # contain the linearly interpolated (numpy.quantile-style) truth,
        # which lies between two order statistics.
        rng = np.random.default_rng(123)
        table = Table(
            {
                "key": np.arange(40, dtype=float),
                "value": np.round(rng.normal(100.0, 5.0, size=40), 5),
            },
            name="tiny",
        )
        synopsis = build_pass(
            table,
            "value",
            ["key"],
            PASSConfig(n_partitions=4, sample_rate=0.5, partitioner="equal"),
        )
        exact = ExactEngine(table)
        for q in (0.25, 0.5, 0.9):
            query = AggregateQuery(
                "QUANTILE", "value", RectPredicate.everything(), quantile=q
            )
            result = synopsis.query(query)
            truth = exact.execute(query)
            assert result.hard_lower <= truth <= result.hard_upper

    def test_sketchless_synopsis_refuses_with_clear_error(self, workload_table):
        bare = build_pass(
            workload_table,
            "value",
            ["key"],
            PASSConfig(
                n_partitions=8,
                sample_rate=0.01,
                partitioner="equal",
                with_sketches=False,
            ),
        )
        assert not bare.has_sketches
        with pytest.raises(ValueError, match="without sketches"):
            bare.query(box_query("QUANTILE", 0.0, 500.0))


class TestGroupedPath:
    @pytest.fixture(scope="class")
    def plan(self):
        return GroupByQuery(
            groupings=(GroupingColumn.bins("key", [0, 250, 500, 750, 1000]),),
            aggregates=(
                AggregateSpec("SUM", "value"),
                AggregateSpec("QUANTILE", "value", 0.5),
                AggregateSpec("QUANTILE", "value", 0.95),
                AggregateSpec("COUNT_DISTINCT", "value"),
            ),
        ).compile()

    def test_grouped_equals_sequential_per_cell(self, synopsis, plan):
        grouped = grouped_query(synopsis, plan)
        for index, cell in plan.live_cells():
            for position, spec in enumerate(plan.aggregates):
                direct = synopsis.query(plan.cell_query(cell, spec))
                answer = grouped.cells[index][position]
                assert answer.estimate == direct.estimate
                assert answer.hard_lower == direct.hard_lower
                assert answer.hard_upper == direct.hard_upper

    def test_grouped_truth_containment_per_cell(self, synopsis, engine, plan):
        grouped = grouped_query(synopsis, plan)
        for index, cell in plan.live_cells():
            for position, spec in enumerate(plan.aggregates):
                query = plan.cell_query(cell, spec)
                answer = grouped.cells[index][position]
                if spec.agg == AggregateType.QUANTILE:
                    truth = rank_truth(engine, query)
                elif spec.agg == AggregateType.COUNT_DISTINCT:
                    truth = engine.execute(query)
                else:
                    continue
                assert answer.hard_lower <= truth <= answer.hard_upper

    def test_sketch_only_plan_works(self, synopsis):
        plan = GroupByQuery(
            groupings=(GroupingColumn.bins("key", [0, 500, 1000]),),
            aggregates=(AggregateSpec("QUANTILE", "value", 0.99),),
        ).compile()
        grouped = grouped_query(synopsis, plan)
        assert len(grouped) == 2
        assert all(np.isfinite(row[0].estimate) for row in grouped.cells)

    def test_to_records_uses_percentile_names(self, synopsis, plan):
        records = grouped_query(synopsis, plan).to_records()
        assert "P95(value)" in records[0]
        assert "COUNT_DISTINCT(value)" in records[0]


class TestShardedPath:
    def test_sharded_consistent_with_single(self, synopsis, sharded, engine):
        for q in QUANTILES:
            query = box_query("QUANTILE", 123.0, 789.0, quantile=q)
            single = synopsis.query(query)
            merged = sharded.query(query)
            truth = rank_truth(engine, query)
            assert single.hard_lower <= truth <= single.hard_upper
            assert merged.hard_lower <= truth <= merged.hard_upper
            assert max(single.hard_lower, merged.hard_lower) <= min(
                single.hard_upper, merged.hard_upper
            )

    def test_sharded_count_distinct(self, sharded, engine):
        query = box_query("COUNT_DISTINCT", 123.0, 789.0)
        result = sharded.query(query)
        truth = engine.execute(query)
        assert result.hard_lower <= truth <= result.hard_upper

    def test_no_matching_data_answers_null(self, sharded):
        # The outermost shard / leaf boxes are unbounded, so a key range
        # beyond the data still routes somewhere — but no sample matches and
        # no covered mass exists, so the answer is NULL with finite
        # boundary-derived bounds.
        none_match = box_query("QUANTILE", 2000.0, 3000.0, quantile=0.5)
        result = sharded.query(none_match)
        assert math.isnan(result.estimate)
        assert np.isfinite(result.hard_lower) and np.isfinite(result.hard_upper)

    def test_mixed_batch_classic_and_sketch(self, sharded, synopsis):
        queries = [
            box_query("SUM", 100.0, 600.0),
            box_query("QUANTILE", 100.0, 600.0, quantile=0.95),
            box_query("AVG", 100.0, 600.0),
            box_query("COUNT_DISTINCT", 100.0, 600.0),
        ]
        results = sharded.query_batch(queries)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert result.estimate == sharded.query(query).estimate

    def test_sharded_grouped_with_sketch_aggregates(self, sharded, engine):
        groupby = GroupByQuery(
            groupings=(GroupingColumn.bins("key", [0, 500, 1000]),),
            aggregates=(
                AggregateSpec("QUANTILE", "value", 0.95),
                AggregateSpec("COUNT_DISTINCT", "value"),
            ),
        )
        grouped = sharded.query_grouped(groupby.compile())
        plan = groupby.compile()
        for index, cell in plan.live_cells():
            for position, spec in enumerate(plan.aggregates):
                query = plan.cell_query(cell, spec)
                answer = grouped.cells[index][position]
                truth = (
                    rank_truth(engine, query)
                    if spec.agg == AggregateType.QUANTILE
                    else engine.execute(query)
                )
                assert answer.hard_lower <= truth <= answer.hard_upper


class TestServingPath:
    @pytest.fixture()
    def serving(self, workload_table, synopsis, sharded):
        catalog = SynopsisCatalog()
        catalog.register("single", synopsis, table_name="events")
        catalog.register_table(workload_table, "events")
        return ServingEngine(catalog)

    def test_cache_distinguishes_percentiles(self, serving):
        p50 = serving.execute(box_query("QUANTILE", 10.0, 700.0, quantile=0.5))
        p95 = serving.execute(box_query("QUANTILE", 10.0, 700.0, quantile=0.95))
        assert p50.estimate < p95.estimate
        again = serving.execute(box_query("QUANTILE", 10.0, 700.0, quantile=0.95))
        assert again.estimate == p95.estimate
        stats = serving.stats()["single"]
        assert stats.cache_hits >= 1
        assert serving.cache_info()["size"] >= 2

    def test_grouped_serving_with_sketches(self, serving, engine):
        groupby = GroupByQuery(
            groupings=(GroupingColumn.bins("key", [0, 250, 500, 750, 1000]),),
            aggregates=(
                AggregateSpec("AVG", "value"),
                AggregateSpec("QUANTILE", "value", 0.99),
            ),
        )
        grouped = serving.execute_grouped(groupby, table="events")
        assert len(grouped) == 4
        plan = groupby.compile()
        for index, cell in plan.live_cells():
            query = plan.cell_query(cell, plan.aggregates[1])
            truth = rank_truth(engine, query)
            answer = grouped.cells[index][1]
            assert answer.hard_lower <= truth <= answer.hard_upper

    def test_sketchless_entry_routes_to_exact_fallback(self, workload_table, engine):
        bare = build_pass(
            workload_table,
            "value",
            ["key"],
            PASSConfig(
                n_partitions=8,
                sample_rate=0.01,
                partitioner="equal",
                with_sketches=False,
            ),
        )
        catalog = SynopsisCatalog()
        catalog.register("bare", bare, table_name="events")
        catalog.register_table(workload_table, "events")
        serving = ServingEngine(catalog)
        query = box_query("COUNT_DISTINCT", 100.0, 400.0)
        result = serving.execute(query)
        assert result.exact
        assert result.estimate == engine.execute(query)
        # Classic aggregates still route to the synopsis.
        assert serving.execute(box_query("SUM", 100.0, 400.0)).exact is False

    def test_served_workload_evaluation(self, serving, engine, workload_table):
        workload = random_range_queries(
            workload_table,
            "value",
            ["key"],
            n_queries=8,
            agg="QUANTILE",
            quantile=0.95,
            rng=3,
        )
        metrics = evaluate_served_workload(serving, workload.queries, engine)
        assert metrics.n_queries == 8
        assert metrics.median_relative_error < 0.1


class TestStreamingMaintenance:
    def test_inserts_update_sketches_and_deletes_track_staleness(self):
        table = Table(
            {
                "key": np.arange(2_000, dtype=float),
                "value": np.arange(2_000, dtype=float),
            },
            name="stream",
        )
        dynamic = DynamicPASS(
            table,
            "value",
            ["key"],
            PASSConfig(n_partitions=8, sample_rate=0.05, partitioner="equal"),
        )
        everything = AggregateQuery(
            "QUANTILE", "value", RectPredicate.everything(), quantile=0.99
        )
        before = dynamic.query(everything).estimate
        for i in range(400):
            dynamic.insert({"key": 1000.0, "value": 10_000.0 + i})
        after = dynamic.query(everything).estimate
        assert after > before
        assert dynamic.sketch_staleness == 0.0

        distinct_before = dynamic.query(
            AggregateQuery.count_distinct("value", RectPredicate.everything())
        ).estimate
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dynamic.delete({"key": 0.0, "value": 0.0})
            dynamic.delete({"key": 1.0, "value": 1.0})
        assert dynamic.sketch_staleness == pytest.approx(2 / 2_000)
        # Rebuild reconstructs sketches and clears the drift counter.
        dynamic.rebuild(table)
        assert dynamic.sketch_staleness == 0.0
        assert distinct_before > 0

    def test_router_surfaces_sketch_staleness(self, workload_table):
        plan = ShardPlanner(2, "range").plan(workload_table, "key")
        shards = build_sharded_from_plan(
            plan,
            "value",
            config=PASSConfig(n_partitions=8, sample_rate=0.01, partitioner="equal"),
            dynamic=True,
        )
        router = StreamingShardRouter(shards, plan.tables, rebuild_threshold=None)
        router.insert({"key": 10.0, "value": 42.0})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            router.delete({"key": 10.0, "value": 42.0})
        stats = router.stats()
        assert any(s.sketch_staleness > 0 for s in stats)
        assert shards.sketch_staleness > 0
        assert shards.has_sketches


class TestPersistenceRoundTrips:
    def test_static_synopsis_round_trip(self, synopsis, tmp_path):
        loaded = load_synopsis(save_synopsis(synopsis, tmp_path / "single"))
        assert loaded.has_sketches
        for q in QUANTILES:
            query = box_query("QUANTILE", 200.0, 800.0, quantile=q)
            assert loaded.query(query).estimate == synopsis.query(query).estimate
        distinct = box_query("COUNT_DISTINCT", 200.0, 800.0)
        assert loaded.query(distinct).estimate == synopsis.query(distinct).estimate

    def test_sharded_round_trip(self, sharded, tmp_path):
        loaded = load_synopsis(save_synopsis(sharded, tmp_path / "sharded"))
        query = box_query("QUANTILE", 200.0, 800.0, quantile=0.95)
        original = sharded.query(query)
        restored = loaded.query(query)
        assert restored.estimate == original.estimate
        assert restored.hard_lower == original.hard_lower
        assert restored.hard_upper == original.hard_upper

    def test_dynamic_round_trip_preserves_staleness(self, tmp_path):
        table = Table(
            {
                "key": np.arange(1_000, dtype=float),
                "value": np.arange(1_000, dtype=float),
            },
            name="dyn",
        )
        dynamic = DynamicPASS(
            table,
            "value",
            ["key"],
            PASSConfig(n_partitions=4, sample_rate=0.05, partitioner="equal"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dynamic.delete({"key": 0.0, "value": 0.0})
        loaded = load_synopsis(save_synopsis(dynamic, tmp_path / "dynamic"))
        assert loaded.sketch_staleness == dynamic.sketch_staleness
        query = AggregateQuery(
            "QUANTILE", "value", RectPredicate.everything(), quantile=0.5
        )
        assert loaded.query(query).estimate == dynamic.query(query).estimate
