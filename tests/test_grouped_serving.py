"""Grouped execution through the serving engine and sharded scatter-gather.

The acceptance property of the grouped planner stack: a group-by query over
a (sharded) synopsis built with full per-leaf samples returns per-group
SUM / COUNT / AVG / MIN / MAX equal to exact per-group aggregation on the
raw table, the serving engine caches grouped answers per (cell, aggregate),
and provably empty cells are pruned before any mask work.  A plan the engine
routes to one entry is one ``grouped_query`` call: its cells carry that
call's bits on single, sharded and dynamic entries, with the cache off, on,
and partly filled, and the cache, stats and query log book exactly the
computed (cell, aggregate) pairs.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from collections import Counter

import numpy as np
import pytest

from repro.core import batching
from repro.core.batching import grouped_query
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.evaluation.harness import evaluate_grouped_workload
from repro.obs import Observability
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


# ----------------------------------------------------------------------
# A routed plan is one grouped_query call: bit parity and bookkeeping
# ----------------------------------------------------------------------
#: Zero-variance rule on (the default) and per-leaf sketches: AVG takes its
#: own frontier where a constant-valued node stops its descent.
SKETCH_CONFIG = PASSConfig(
    n_partitions=16,
    sample_rate=0.1,
    partitioner="equal",
    opt_sample_size=200,
    with_sketches=True,
    seed=3,
)
MIXED = (
    AggregateSpec("SUM", "value"),
    AggregateSpec("COUNT", "value"),
    AggregateSpec("AVG", "value"),
    AggregateSpec("QUANTILE", "value", 0.5),
    AggregateSpec("QUANTILE", "value", 0.95),
    AggregateSpec("COUNT_DISTINCT", "value"),
)


@pytest.fixture(scope="module")
def flat_table() -> Table:
    """Keys in [0, 80]; the value is constant below key 30."""
    rng = np.random.default_rng(23)
    key = rng.uniform(0.0, 80.0, size=6000)
    value = np.round(np.abs(rng.normal(40.0, 12.0, size=key.shape[0])), 1)
    value[key < 30.0] = 7.0
    return Table({"key": key, "value": value}, name="served_grouped")


def _build(backend: str, table: Table):
    if backend == "single":
        return build_pass(table, "value", ["key"], SKETCH_CONFIG)
    if backend == "sharded":
        return build_sharded_pass(
            table, "value", "key", n_shards=4, config=SKETCH_CONFIG
        )
    dynamic = DynamicPASS(table, "value", ["key"], config=SKETCH_CONFIG)
    # Empty the leaves inside key [28, 52]: a cell among them holds no tuple
    # by its frontier statistics, and is pruned.
    with pytest.warns(StaleExtremaWarning):
        for key, value in zip(table.column("key"), table.column("value")):
            if 28.0 <= key <= 52.0:
                dynamic.delete({"key": float(key), "value": float(value)})
    return dynamic


def _served_plan():
    """16 bins, some past the keys' range, and one the base predicate
    excludes (compiled to ``predicate=None``)."""
    return GroupByQuery(
        groupings=(GroupingColumn.bins("key", np.linspace(0.0, 120.0, 17).tolist()),),
        aggregates=MIXED,
        predicate=RectPredicate.from_bounds(key=(0.0, 110.0)),
    ).compile()


def _engine_over(backend: str, synopsis, table: Table, cache_size: int, obs=None):
    catalog = SynopsisCatalog()
    catalog.register(backend, synopsis, table_name=table.name)
    catalog.register_table(table)
    return ServingEngine(catalog, cache_size=cache_size, obs=obs)


def _assert_cells_bitwise(got, want) -> None:
    assert got.labels == want.labels and got.aggregates == want.aggregates
    for row, expected_row in zip(got.cells, want.cells):
        for result, reference in zip(row, expected_row):
            assert _bits(result) == _bits(reference)


def _bits(result) -> tuple:
    return (
        struct.pack(
            "<5d",
            result.estimate,
            result.ci_half_width,
            result.variance,
            result.hard_lower,
            result.hard_upper,
        ),
        result.tuples_processed,
        result.tuples_skipped,
        result.exact,
    )


def _computed(engine, plan, table: Table) -> list[int]:
    """The live cells the kernel answers: frontier pruning removes the rest."""
    pruned = GroupByPlanner(engine.catalog).prune_empty_cells(plan, table.name)
    return [index for index, _ in plan.live_cells() if index not in pruned]


@pytest.fixture(scope="module", params=["single", "sharded", "dynamic"])
def backend(request, flat_table):
    return request.param, _build(request.param, flat_table)


def test_served_plan_is_grouped_query_bit_for_bit(backend, flat_table):
    name, synopsis = backend
    plan = _served_plan()
    engine = _engine_over(name, synopsis, flat_table, cache_size=0)
    served = engine.execute_grouped(plan, table=flat_table.name)
    direct = grouped_query(synopsis, plan)
    _assert_cells_bitwise(served, direct)
    computed = _computed(engine, plan, flat_table)
    assert set(served.pruned) == {
        index for index, _ in plan.live_cells() if index not in computed
    }
    # The excluded cell, the dynamic entry's pruned cell and the AVG
    # descents the zero-variance rule stops are there to be exercised.
    assert len(plan.live_cells()) < plan.n_cells
    assert (len(computed) < len(plan.live_cells())) == (name == "dynamic")
    predicates = [cell.predicate for _, cell in plan.live_cells()]
    plain = synopsis.frontiers_for(predicates)
    flagged = synopsis.frontiers_for(predicates, [True] * len(predicates))
    assert any(
        not np.array_equal(a.partial, b.partial) for a, b in zip(plain, flagged)
    )
    # Every live cell, pruned ones included: a frontier holding no tuple is
    # an exact empty group in the kernel, so per-query answers agree too.
    for index, cell in plan.live_cells():
        for spec, answer in zip(plan.aggregates, served.cells[index]):
            assert _bits(answer) == _bits(synopsis.query(plan.cell_query(cell, spec)))
    stats = engine.stats()[name]
    assert stats.cache_hits == 0
    assert stats.cache_misses == len(computed) * len(MIXED)
    assert engine.cache_info()["size"] == 0


def test_cached_plan_is_served_from_the_cache_the_second_time(
    backend, flat_table, monkeypatch
):
    name, synopsis = backend
    plan = _served_plan()
    engine = _engine_over(name, synopsis, flat_table, cache_size=4096)
    computed = _computed(engine, plan, flat_table)
    pairs = len(computed) * len(MIXED)
    # The engine calls the kernel through the module attribute (a traced run
    # wraps that name); record the cells each call looks up.
    looked_up = []
    kernel = batching.grouped_query

    def recording(synopsis, plan, skip=()):
        looked_up.append([index for index, _ in plan.live_cells(skip)])
        return kernel(synopsis, plan, skip=skip)

    monkeypatch.setattr(batching, "grouped_query", recording)
    first = engine.execute_grouped(plan, table=flat_table.name)
    _assert_cells_bitwise(first, grouped_query(synopsis, plan))
    stats = engine.stats()[name]
    assert (stats.cache_hits, stats.cache_misses) == (0, pairs)
    assert engine.cache_info()["size"] == pairs
    second = engine.execute_grouped(plan, table=flat_table.name)
    _assert_cells_bitwise(second, first)
    stats = engine.stats()[name]
    assert (stats.cache_hits, stats.cache_misses) == (pairs, pairs)
    assert engine.cache_info()["size"] == pairs
    # Cells cached whole skip the kernel; only pruned cells, which take no
    # cache slot, are looked up again.
    live = [index for index, _ in plan.live_cells()]
    assert looked_up == [live, [index for index in live if index not in computed]]


def test_partly_cached_cells_are_recomputed_and_only_misses_cached(
    backend, flat_table
):
    name, synopsis = backend
    plan = _served_plan()
    engine = _engine_over(name, synopsis, flat_table, cache_size=4096)
    computed = _computed(engine, plan, flat_table)
    # Two aggregates of three cells, and every aggregate of a fourth.
    partial = [
        plan.cell_query(plan.cells[index], spec)
        for index in computed[:3]
        for spec in (MIXED[0], MIXED[4])
    ]
    whole = [plan.cell_query(plan.cells[computed[3]], spec) for spec in MIXED]
    engine.execute_batch(partial + whole, table=flat_table.name)
    cached = len(partial) + len(whole)
    assert engine.cache_info()["size"] == cached
    served = engine.execute_grouped(plan, table=flat_table.name)
    _assert_cells_bitwise(served, grouped_query(synopsis, plan))
    pairs = len(computed) * len(MIXED)
    stats = engine.stats()[name]
    assert stats.cache_hits == cached
    assert stats.cache_misses == cached + pairs - cached
    assert engine.cache_info()["size"] == pairs


@pytest.mark.parametrize("cache_size", [0, 4096])
def test_query_log_has_one_miss_per_computed_pair(backend, flat_table, cache_size):
    name, synopsis = backend
    plan = _served_plan()
    engine = _engine_over(
        name, synopsis, flat_table, cache_size=cache_size, obs=Observability()
    )
    keys = Counter(
        plan.cell_query(plan.cells[index], spec).cache_key()
        for index in _computed(engine, plan, flat_table)
        for spec in MIXED
    )
    engine.execute_grouped(plan, table=flat_table.name)
    records = engine.obs.query_log.records()
    assert Counter(r.cache_key for r in records if r.outcome == "miss") == keys
    assert all(r.synopsis == name for r in records)
    assert len(records) == sum(keys.values())
    engine.execute_grouped(plan, table=flat_table.name)
    second = engine.obs.query_log.records()[len(records):]
    outcome = "cache_hit" if cache_size else "miss"
    assert Counter(r.cache_key for r in second if r.outcome == outcome) == keys
    assert len(second) == sum(keys.values())
    assert len(second) == len(keys)


def test_a_plan_whose_sketches_route_elsewhere_runs_query_by_query(flat_table):
    """A SUM routes to the finer sketchless entry, its P95 only to the entry
    with sketches: no one entry serves the plan, so each query routes alone."""
    catalog = SynopsisCatalog()
    fine = dataclasses.replace(SKETCH_CONFIG, n_partitions=32, with_sketches=False)
    catalog.register(
        "fine",
        build_pass(flat_table, "value", ["key"], fine),
        table_name=flat_table.name,
    )
    catalog.register(
        "sketched",
        build_pass(flat_table, "value", ["key"], SKETCH_CONFIG),
        table_name=flat_table.name,
    )
    catalog.register_table(flat_table)
    plan = _served_plan()
    planner = GroupByPlanner(catalog)
    mixed = dataclasses.replace(plan, aggregates=(MIXED[0], MIXED[4]))
    assert planner.route(mixed, flat_table.name) is None
    classic = dataclasses.replace(plan, aggregates=(MIXED[0],))
    assert planner.route(classic, flat_table.name).name == "fine"
    engine = ServingEngine(catalog, cache_size=0)
    served = engine.execute_grouped(mixed, table=flat_table.name)
    for index, cell in mixed.live_cells():
        for spec, answer in zip(mixed.aggregates, served.cells[index]):
            query = mixed.cell_query(cell, spec)
            want = engine.execute(query, table=flat_table.name)
            assert _bits(answer) == _bits(want)
