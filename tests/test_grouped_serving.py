"""Grouped execution through the serving engine and sharded scatter-gather.

The acceptance property of the grouped planner stack: a group-by query over
a (sharded) synopsis built with full per-leaf samples returns per-group
SUM / COUNT / AVG / MIN / MAX equal to exact per-group aggregation on the
raw table, the serving engine caches grouped answers per (cell, aggregate),
and the planner prunes provably empty cells before dispatch.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.evaluation.harness import evaluate_grouped_workload
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.predicate import RectPredicate
from repro.query.query import ExactEngine
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine
from repro.serving.planner import GroupByPlanner

ALL_AGGS = ("SUM", "COUNT", "AVG", "MIN", "MAX")

#: Full sampling: every leaf stores all of its tuples, so every estimate
#: equals the exact aggregate (modulo floating-point summation order).
FULL_CONFIG = PASSConfig(n_partitions=16, sample_rate=1.0, opt_sample_size=300, seed=1)


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(11)
    n = 9000
    return Table(
        {
            "key": rng.uniform(0.0, 80.0, size=n),
            "cat": rng.integers(0, 3, size=n).astype(float),
            "value": np.abs(rng.normal(30.0, 9.0, size=n)),
        },
        name="grouped_serving",
    )


@pytest.fixture(scope="module")
def groupby() -> GroupByQuery:
    return GroupByQuery(
        groupings=(
            GroupingColumn.bins("key", [0.0, 20.0, 40.0, 60.0, 80.0]),
            GroupingColumn.distinct("cat"),
        ),
        aggregates=tuple(AggregateSpec(agg, "value") for agg in ALL_AGGS),
    )


@pytest.fixture(scope="module")
def sharded(table):
    return build_sharded_pass(
        table,
        "value",
        "key",
        n_shards=4,
        predicate_columns=["key", "cat"],
        config=dataclasses.replace(FULL_CONFIG, partitioner="kd"),
    )


@pytest.fixture(scope="module")
def engine(table, sharded) -> ServingEngine:
    catalog = SynopsisCatalog()
    catalog.register("grouped_shards", sharded, table_name=table.name)
    catalog.register_table(table)
    return ServingEngine(catalog)


def _exact_grouped(table: Table, plan) -> dict[int, list[float]]:
    exact = ExactEngine(table)
    return {
        index: [exact.execute(plan.cell_query(cell, spec)) for spec in plan.aggregates]
        for index, cell in plan.live_cells()
    }


def _assert_rows_match(result_row, truth_row):
    for result, truth in zip(result_row, truth_row):
        if math.isnan(truth):
            assert math.isnan(result.estimate)
        else:
            assert result.estimate == pytest.approx(truth, rel=1e-9)


def test_sharded_grouped_equals_exact_per_group(table, sharded, groupby):
    plan = groupby.compile(table)
    truth = _exact_grouped(table, plan)
    grouped = sharded.query_grouped(plan)
    assert len(grouped) == 4 * 3
    for index, row in truth.items():
        _assert_rows_match(grouped.cells[index], row)


def test_sharded_grouped_compiles_explicit_groupings(sharded):
    explicit = GroupByQuery(
        groupings=(GroupingColumn.bins("key", [0.0, 40.0, 80.0]),),
        aggregates=(AggregateSpec("COUNT", "value"),),
    )
    grouped = sharded.query_grouped(explicit)
    assert sum(row[0].estimate for _, row in grouped) == pytest.approx(
        sharded.population_size
    )
    discovery = GroupByQuery(
        groupings=(GroupingColumn.distinct("cat"),),
        aggregates=(AggregateSpec("COUNT", "value"),),
    )
    with pytest.raises(ValueError, match="distinct-value discovery"):
        sharded.query_grouped(discovery)


def test_engine_execute_grouped_equals_exact(table, engine, groupby):
    plan = GroupByPlanner(engine.catalog).compile(groupby, table.name)
    truth = _exact_grouped(table, plan)
    grouped = engine.execute_grouped(groupby, table=table.name)
    assert grouped.group_columns == ("key", "cat")
    for index, row in truth.items():
        _assert_rows_match(grouped.cells[index], row)


def test_engine_grouped_results_are_cached_per_group(table, groupby, sharded):
    catalog = SynopsisCatalog()
    catalog.register("grouped_shards", sharded, table_name=table.name)
    catalog.register_table(table)
    engine = ServingEngine(catalog)
    first = engine.execute_grouped(groupby, table=table.name)
    occupancy = engine.cache_info()["size"]
    # One cache slot per (live cell, aggregate) pair.
    assert occupancy == 4 * 3 * len(ALL_AGGS)
    second = engine.execute_grouped(groupby, table=table.name)
    assert engine.cache_info()["size"] == occupancy
    stats = engine.stats()["grouped_shards"]
    assert stats.cache_hits >= occupancy
    np.testing.assert_array_equal(first.estimates(), second.estimates())


def test_planner_prunes_cells_outside_every_leaf(table, engine):
    # Force an empty frontier by filtering to a region the grouping excludes:
    # the base predicate keeps key in [0, 40] but cat bins only cover values
    # that never co-occur with key > 60 ... simplest provable case: a base
    # predicate that intersects the grouping to a geometrically empty box is
    # already dropped at compile time, so here we check the planner's
    # frontier pass instead via a cell whose region holds zero tuples.
    planner = GroupByPlanner(engine.catalog)
    plan = GroupByQuery(
        groupings=(GroupingColumn.distinct("cat", values=(0.0, 1.0, 2.0, 7.0)),),
        aggregates=(AggregateSpec("COUNT", "value"),),
    ).compile(table)
    pruned = planner.prune_empty_cells(plan, table.name)
    grouped = engine.execute_grouped(plan, table=table.name)
    label_row = dict(iter(grouped))
    missing = label_row[(7.0,)][0]
    if pruned:
        # Pruned cells answer exactly without dispatch.
        assert pruned == {3}
        assert missing.exact
    assert missing.estimate == 0.0
    assert label_row[(0.0,)][0].estimate > 0


def test_planner_routes_whole_plan_once(engine, table, groupby):
    planner = GroupByPlanner(engine.catalog)
    plan = planner.compile(groupby, table.name)
    entry = planner.route(plan, table.name)
    assert entry is not None and entry.name == "grouped_shards"


def test_planner_skips_pruning_when_value_columns_route_apart(table):
    # Aggregates over different value columns can route to different
    # synopses; the planner must then consult no single tree (route() is
    # None, nothing is pruned) while dispatch still answers each compiled
    # query through its own route.
    other = Table(
        {
            "key": table.column("key"),
            "cat": table.column("cat"),
            "value": table.column("value"),
            "weight": np.abs(table.column("value") * 0.5 + 1.0),
        },
        name="two_values",
    )
    catalog = SynopsisCatalog()
    catalog.register(
        "by_value",
        build_pass(other, "value", ["key"], FULL_CONFIG),
        table_name=other.name,
    )
    catalog.register(
        "by_weight",
        build_pass(other, "weight", ["key"], FULL_CONFIG),
        table_name=other.name,
    )
    catalog.register_table(other)
    planner = GroupByPlanner(catalog)
    groupby = GroupByQuery(
        groupings=(GroupingColumn.bins("key", [0.0, 40.0, 80.0]),),
        aggregates=(AggregateSpec("SUM", "value"), AggregateSpec("SUM", "weight")),
    )
    plan = planner.compile(groupby, other.name)
    assert planner.route(plan, other.name) is None
    assert planner.prune_empty_cells(plan, other.name) == set()
    grouped = ServingEngine(catalog).execute_grouped(groupby, table=other.name)
    exact = ExactEngine(other)
    for index, cell in plan.live_cells():
        for spec, result in zip(plan.aggregates, grouped.cells[index]):
            truth = exact.execute(plan.cell_query(cell, spec))
            assert result.estimate == pytest.approx(truth, rel=1e-9)


def test_exact_fallback_serves_unrouted_groupings(table):
    catalog = SynopsisCatalog()
    catalog.register_table(table)
    engine = ServingEngine(catalog)
    groupby = GroupByQuery(
        groupings=(GroupingColumn.bins("key", [0.0, 40.0, 80.0]),),
        aggregates=(AggregateSpec("SUM", "value"), AggregateSpec("COUNT", "value")),
    )
    grouped = engine.execute_grouped(groupby, table=table.name)
    exact = ExactEngine(table)
    plan = groupby.compile(table)
    for index, cell in plan.live_cells():
        for spec, result in zip(plan.aggregates, grouped.cells[index]):
            assert result.exact
            assert result.estimate == pytest.approx(
                exact.execute(plan.cell_query(cell, spec))
            )


def test_evaluate_grouped_workload_modes(table, engine, sharded, groupby):
    exact = ExactEngine(table)
    for executor in (engine, sharded):
        metrics = evaluate_grouped_workload(executor, groupby, exact, table=table.name)
        assert metrics.n_queries == 4 * 3 * len(ALL_AGGS)
        assert metrics.median_relative_error == pytest.approx(0.0, abs=1e-9)
    synopsis = build_pass(
        table, "value", ["key"], PASSConfig(n_partitions=16, sample_rate=1.0, seed=0)
    )
    flat_groupby = GroupByQuery(
        groupings=(GroupingColumn.bins("key", [0.0, 20.0, 40.0, 60.0, 80.0]),),
        aggregates=(AggregateSpec("SUM", "value"), AggregateSpec("AVG", "value")),
    )
    metrics = evaluate_grouped_workload(synopsis, flat_groupby, exact)
    assert metrics.n_queries == 4 * 2
    assert metrics.median_relative_error == pytest.approx(0.0, abs=1e-9)


def test_grouped_respects_base_predicate(table, engine):
    groupby = GroupByQuery(
        groupings=(GroupingColumn.distinct("cat"),),
        aggregates=(AggregateSpec("COUNT", "value"),),
        predicate=RectPredicate.from_bounds(key=(0.0, 40.0)),
    )
    grouped = engine.execute_grouped(groupby, table=table.name)
    exact = ExactEngine(table)
    plan = GroupByPlanner(engine.catalog).compile(groupby, table.name)
    for index, cell in plan.live_cells():
        truth = exact.execute(plan.cell_query(cell, plan.aggregates[0]))
        assert grouped.cells[index][0].estimate == pytest.approx(truth)
