"""Pool workers answer with the engine's kernels: one answer per state.

An answer is a function of the published state alone, whichever tier
computes it.  Three properties hold that in place:

* **Frontier-empty parity.**  A frontier holding no tuple is an exact empty
  group in the kernel itself, so per-query, batch, grouped, engine, pool and
  HTTP ``/groupby`` answers agree bit for bit on every cell — on a single,
  a 4-shard and a dynamic entry whose deletes emptied the leaves in key
  [28, 52], for all seven aggregates.
* **Float fields are floats** on every path, the pool's pickles included
  (a hard bound over no non-empty covered row used to be the int ``0``).
* **A worker runs the engine's kernels**, driven here in the test process:
  a chunk is one frontier broadcast per routed entry, a routed plan one
  ``grouped_query`` call, and the parent reads no manifest for a plan.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import batching
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.soa import FlatSynopsis
from repro.data.loaders import load_dataset
from repro.data.table import Table
from repro.query.aggregates import empty_group_result
from repro.query.groupby import AggregateSpec, GroupByPlan, GroupByQuery, GroupingColumn
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving import (
    MPHTTPServer,
    MPServingPool,
    ServingEngine,
    SynopsisCatalog,
    SynopsisPublisher,
)
from repro.serving import server, shm
from repro.serving.server import result_from_payload
from test_grouped_serving import _bits, _build

BACKENDS = ("single", "sharded", "dynamic")
SEVEN = (
    AggregateSpec("SUM", "value"),
    AggregateSpec("COUNT", "value"),
    AggregateSpec("AVG", "value"),
    AggregateSpec("MIN", "value"),
    AggregateSpec("MAX", "value"),
    AggregateSpec("QUANTILE", "value", 0.5),
    AggregateSpec("QUANTILE", "value", 0.95),
    AggregateSpec("COUNT_DISTINCT", "value"),
)
#: 16 bins over [0, 120]: the keys end at 80, and the dynamic entry's
#: deletes emptied [28, 52].
EDGES = np.linspace(0.0, 120.0, 17).tolist()
GROUPBY = GroupByQuery(
    groupings=(GroupingColumn.bins("key", EDGES),), aggregates=SEVEN
)


@pytest.fixture(scope="module")
def table() -> Table:
    """``test_grouped_serving``'s table: keys in [0, 80], value 7 below 30."""
    rng = np.random.default_rng(23)
    key = rng.uniform(0.0, 80.0, size=6000)
    value = np.round(np.abs(rng.normal(40.0, 12.0, size=key.shape[0])), 1)
    value[key < 30.0] = 7.0
    return Table({"key": key, "value": value}, name="served_grouped")


@pytest.fixture(scope="module")
def entries(table) -> dict:
    return {name: _build(name, table) for name in BACKENDS}


@pytest.fixture(scope="module")
def engine(entries) -> ServingEngine:
    catalog = SynopsisCatalog()
    for name, synopsis in entries.items():
        catalog.register(name, synopsis, table_name=name)
    return ServingEngine(catalog, cache_size=0)


@pytest.fixture(scope="module")
def publisher(entries):
    with SynopsisPublisher() as publisher:
        for name, synopsis in entries.items():
            publisher.publish(name, synopsis, table_name=name)
        yield publisher


@pytest.fixture(scope="module")
def stack(publisher):
    with MPServingPool(publisher.register_name, n_workers=2) as pool:
        front = MPHTTPServer(pool)
        base = front.serve_in_thread()
        yield pool, base
        front.close()


def _post_groupby(base: str, table: str, **extra) -> dict:
    payload = {
        "groupings": [{"column": "key", "edges": EDGES}],
        "aggregates": [
            {"agg": spec.agg.name, "value_column": "value", "quantile": spec.quantile}
            for spec in SEVEN
        ],
        "table": table,
        **extra,
    }
    request = urllib.request.Request(
        base + "/groupby",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


@pytest.mark.parametrize("name", BACKENDS)
def test_engine_pool_and_http_agree_on_frontier_empty_cells(
    name, entries, engine, stack
):
    pool, base = stack
    synopsis = entries[name]
    plan = GROUPBY.compile()
    served = engine.execute_grouped(plan, table=name)
    pooled = pool.execute_grouped(plan, table=name)
    http = _post_groupby(base, name)
    assert pooled.pruned == served.pruned
    assert set(http["pruned"]) == served.pruned
    assert len(http["cells"]) == plan.n_cells
    for index, cell in plan.live_cells():
        over_http = [result_from_payload(r) for r in http["cells"][index]["results"]]
        for spec, want, got, wire in zip(
            plan.aggregates, served.cells[index], pooled.cells[index], over_http
        ):
            assert _bits(got) == _bits(want)
            assert _bits(wire) == _bits(want)
            alone = synopsis.query(plan.cell_query(cell, spec))
            assert _bits(alone) == _bits(want)
            if index in served.pruned:
                population = synopsis.population_size
                assert _bits(want) == _bits(empty_group_result(spec.agg, population))
    # The deletes emptied the cells inside key [28, 52].
    assert served.pruned == ({4, 5} if name == "dynamic" else set())


#: A base filter that cuts bins at both ends: cells past 70 compile out, and
#: the first and the sixteenth live cells are clipped inside their bins.
BASE = RectPredicate.from_bounds(key=(3.0, 70.0))


@pytest.mark.parametrize("name", BACKENDS)
def test_engine_pool_and_http_agree_on_a_plan_with_a_base_predicate(
    name, entries, engine, stack
):
    pool, base = stack
    groupby = GroupByQuery(
        groupings=GROUPBY.groupings, aggregates=SEVEN, predicate=BASE
    )
    plan = groupby.compile()
    served = engine.execute_grouped(plan, table=name)
    pooled = pool.execute_grouped(plan, table=name)
    http = _post_groupby(base, name, predicate={"key": [3.0, 70.0]})
    assert pooled.pruned == served.pruned
    assert set(http["pruned"]) == served.pruned
    live = dict(plan.live_cells())
    assert 0 < len(live) < plan.n_cells
    unfiltered = GROUPBY.compile()
    for index, cell in live.items():
        over_http = [result_from_payload(r) for r in http["cells"][index]["results"]]
        for spec, want, got, wire in zip(
            plan.aggregates, served.cells[index], pooled.cells[index], over_http
        ):
            assert _bits(got) == _bits(want)
            assert _bits(wire) == _bits(want)
            assert _bits(entries[name].query(plan.cell_query(cell, spec))) == _bits(
                want
            )
    # Not vacuous: the filter changes the clipped first cell's answers.
    first = AggregateSpec("COUNT", "value")
    filtered = entries[name].query(plan.cell_query(live[0], first))
    whole = entries[name].query(
        unfiltered.cell_query(dict(unfiltered.live_cells())[0], first)
    )
    assert filtered.estimate < whole.estimate


@pytest.mark.parametrize(
    "predicate", [{"key": [1.0]}, {"key": ["low", 2.0]}, {"key": 5.0}, "key"]
)
def test_a_malformed_groupby_predicate_is_a_400(predicate, stack):
    _, base = stack
    with pytest.raises(urllib.error.HTTPError) as refused:
        _post_groupby(base, "single", predicate=predicate)
    assert refused.value.code == 400


def test_a_frontier_holding_no_tuple_is_exact_in_the_kernel(entries):
    """The batch path, which never prunes, answers empty groups too."""
    dynamic = entries["dynamic"]
    predicate = RectPredicate.from_bounds(key=(31.0, 49.0))
    assert dynamic.frontier_count(dynamic.frontier(predicate)) == 0
    queries = [
        AggregateQuery(spec.agg, "value", predicate, spec.quantile) for spec in SEVEN
    ]
    population = dynamic.population_size
    for query, result in zip(queries, batching.batch_query(dynamic, queries)):
        assert _bits(result) == _bits(empty_group_result(query.agg, population))
        assert _bits(dynamic.query(query)) == _bits(result)


# ----------------------------------------------------------------------
# Float fields are floats on every path
# ----------------------------------------------------------------------
FIELD_TYPES = {
    "estimate": float,
    "ci_half_width": float,
    "variance": float,
    "hard_lower": float,
    "hard_upper": float,
    "tuples_processed": int,
    "tuples_skipped": int,
    "exact": bool,
}


def _assert_types(results) -> None:
    for result in results:
        for name, kind in FIELD_TYPES.items():
            assert type(getattr(result, name)) is kind, (name, result)


def test_every_float_field_is_a_float_on_every_path():
    spec = load_dataset("intel", 20_000)
    synopsis = build_pass(
        spec.table,
        spec.value_column,
        [spec.default_predicate_column],
        PASSConfig(n_partitions=32, sample_rate=0.005, opt_sample_size=500, seed=0),
    )
    column = spec.default_predicate_column
    values = spec.table.column(column)
    rng = np.random.default_rng(5)
    low, high = float(values.min()), float(values.max())
    queries = []
    for index in range(300):
        a = float(rng.uniform(low, high))
        # Half the windows are narrower than a leaf: no covered row at all.
        b = a + float(rng.uniform(0.0, high - low) * (1e-3 if index % 2 else 0.5))
        predicate = RectPredicate.from_bounds(**{column: (a, b)})
        for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
            queries.append(AggregateQuery(agg, spec.value_column, predicate))
    uncovered = [
        q for q in queries if synopsis.query_frontier(q).covered.shape[0] == 0
    ]
    assert len(uncovered) > 100
    plan = GroupByQuery(
        groupings=(GroupingColumn.bins(column, np.linspace(low, high, 65).tolist()),),
        aggregates=tuple(
            AggregateSpec(agg, spec.value_column)
            for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX")
        ),
    ).compile()
    _assert_types(synopsis.query(query) for query in queries)
    _assert_types(batching.batch_query(synopsis, queries))
    grouped = batching.grouped_query(synopsis, plan)
    _assert_types(r for row in grouped.cells for r in row)
    with SynopsisPublisher() as publisher:
        publisher.publish("intel", synopsis, table_name=spec.table.name)
        with MPServingPool(publisher.register_name, n_workers=1) as pool:
            _assert_types(pool.execute_batch(queries, spec.table.name))
            grouped = pool.execute_grouped(plan, spec.table.name)
            _assert_types(r for row in grouped.cells for r in row)


# ----------------------------------------------------------------------
# The worker, driven in this process
# ----------------------------------------------------------------------
@pytest.fixture()
def worker(publisher):
    """This process as a pool worker over the publisher's manifest."""
    server._worker_init(publisher.register_name)
    yield
    for _, attachment in server._WORKER["engines"].values():
        attachment.close()
    server._WORKER.clear()


def _counting(monkeypatch, owner, name: str) -> list:
    calls: list = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", BACKENDS)
def test_a_chunk_is_one_broadcast_per_routed_entry(
    name, worker, engine, monkeypatch
):
    broadcasts = _counting(monkeypatch, FlatSynopsis, "frontiers_for")
    lookups = _counting(monkeypatch, FlatSynopsis, "frontier")
    predicates = [
        RectPredicate.from_bounds(key=(float(a), float(a) + 9.5))
        for a in np.linspace(1.0, 60.0, 8)
    ]
    queries = [
        AggregateQuery(agg, "value", predicate, quantile)
        for predicate in predicates
        for agg, quantile in (
            ("SUM", None),
            ("AVG", None),
            ("MAX", None),
            ("QUANTILE", 0.9),
        )
    ]
    answers, (served, _, _, _) = server._worker_execute(name, queries)
    # One broadcast for the chunk's one routed entry, and no per-query lookup.
    assert (len(queries), served) == (32, 32)
    assert len(broadcasts) == 1 and not lookups
    want = engine.execute_batch(queries, name)
    assert [_bits(r) for r in answers] == [_bits(r) for r in want]


def test_a_routed_plan_is_one_grouped_query_call(worker, engine, monkeypatch):
    calls = _counting(monkeypatch, batching, "grouped_query")
    plan = GROUPBY.compile()
    grouped, (served, _, _, _) = server._worker_execute("dynamic", plan)
    assert len(calls) == 1
    want = engine.execute_grouped(plan, table="dynamic")
    assert grouped.pruned == want.pruned
    for row, expected in zip(grouped.cells, want.cells):
        assert [_bits(r) for r in row] == [_bits(r) for r in expected]
    live = len(plan.live_cells()) - len(grouped.pruned)
    assert served == live * len(SEVEN)


def test_the_parent_reads_no_manifest_and_builds_no_cell_query(
    stack, engine, monkeypatch
):
    def forbidden(*args, **kwargs):
        raise AssertionError("the parent routed or expanded a plan")

    for owner in (server, shm):
        monkeypatch.setattr(owner, "read_published", forbidden)
    monkeypatch.setattr(GroupByPlan, "cell_query", forbidden)
    monkeypatch.setattr(GroupByPlan, "queries", forbidden)
    pool, _ = stack
    plan = GROUPBY.compile()
    grouped = pool.execute_grouped(plan, table="sharded")
    monkeypatch.undo()
    want = engine.execute_grouped(plan, table="sharded")
    for row, expected in zip(grouped.cells, want.cells):
        assert [_bits(r) for r in row] == [_bits(r) for r in expected]


def test_an_unrouted_plan_reports_one_population_in_both_tiers():
    """Cells outside a plan's base predicate skip the routed synopses' tuples.

    SUM over ``value`` and over ``weight`` route to two entries, so the plan
    has no single entry and both tiers run it query by query; the cells the
    base predicate compiles out are answered locally, with the population
    read off the routed synopses, not off the engine's 3,000-row fallback
    table or a worker's 0.
    """
    rng = np.random.default_rng(41)
    key = rng.uniform(0.0, 100.0, size=3000)
    table = Table(
        {
            "key": key,
            "value": np.abs(rng.normal(20.0, 5.0, size=key.shape[0])),
            "weight": rng.uniform(1.0, 2.0, size=key.shape[0]),
        },
        name="two_columns",
    )
    config = PASSConfig(n_partitions=16, sample_rate=0.05, seed=3)
    synopses = {
        column: build_pass(table, column, ["key"], config)
        for column in ("value", "weight")
    }
    catalog = SynopsisCatalog()
    for column, synopsis in synopses.items():
        catalog.register(column, synopsis, table_name=table.name)
    catalog.register_table(table)
    plan = GroupByQuery(
        groupings=(GroupingColumn.bins("key", [0.0, 25.0, 50.0, 75.0, 100.0]),),
        aggregates=(AggregateSpec("SUM", "value"), AggregateSpec("SUM", "weight")),
        predicate=RectPredicate.from_bounds(key=(0.0, 45.0)),
    ).compile()
    outside = [i for i in range(plan.n_cells) if i not in dict(plan.live_cells())]
    assert outside
    served = ServingEngine(catalog, cache_size=0).execute_grouped(plan, table.name)
    with SynopsisPublisher() as publisher:
        for column, synopsis in synopses.items():
            publisher.publish(column, synopsis, table_name=table.name)
        with MPServingPool(publisher.register_name, n_workers=1) as pool:
            pooled = pool.execute_grouped(plan, table.name)
    for row, want in zip(pooled.cells, served.cells):
        assert [_bits(r) for r in row] == [_bits(r) for r in want]
    population = synopses["value"].population_size
    assert population == 3000
    for index in outside:
        assert {r.tuples_skipped for r in served.cells[index]} == {population}
