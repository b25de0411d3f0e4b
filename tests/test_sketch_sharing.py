"""One sketch reduction per (predicate, sketch kind) per batch, same bits.

Every tier that batches shares one frontier union among the queries of a
predicate and sketch kind (``repro.sketches.union.shared_union_results``).
Sharing removes repeated identical work only, so each batched answer must
carry the bits (``struct.pack``) of per-query execution — ``synopsis.query``
on a single synopsis (and the ``query_object`` oracle), ``sharded.query`` on a
sharded one — in every tier: ``batch_query``, the serving engine's
``execute_batch`` / ``execute_grouped``, the async tier, the sharded
``query_batch`` / ``query_grouped`` and an ``export_buffers`` round trip.  The
call-count tests pin the saving itself, and the update test pins that
nothing shared outlives the call that built it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import math
import struct

import numpy as np

import repro.sketches.union as union_module
from repro.core.batching import batch_query, grouped_query
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.soa import FlatSynopsis
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.distributed.sharded import ShardedSynopsis
from repro.query.aggregates import SKETCH_AGGREGATES
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.predicate import Box, Interval, RectPredicate
from repro.query.query import AggregateQuery
from repro.serving import AsyncServingEngine, ServingEngine, SynopsisCatalog
from repro.sketches.quantile import QuantileSketch

import oracle

N_ROWS = 4000
CONFIG = PASSConfig(
    n_partitions=16,
    sample_rate=0.1,
    partitioner="equal",
    opt_sample_size=200,
    with_sketches=True,
    seed=3,
)
#: (aggregate, quantile) asked of every predicate: the extreme quantiles, three
#: percentiles, the other sketch kind, and two classic aggregates in between.
KINDS = (
    ("QUANTILE", 0.0),
    ("SUM", None),
    ("QUANTILE", 0.5),
    ("QUANTILE", 0.95),
    ("COUNT_DISTINCT", None),
    ("AVG", None),
    ("QUANTILE", 0.99),
    ("QUANTILE", 1.0),
)
FLOAT_FIELDS = ("estimate", "ci_half_width", "variance", "hard_lower", "hard_upper")


def assert_same_bits(got, want, context) -> None:
    for field in FLOAT_FIELDS:
        left, right = getattr(got, field), getattr(want, field)
        assert struct.pack("<d", left) == struct.pack("<d", right), (
            f"{context} {field}: {left!r} != {right!r}"
        )
    assert got.tuples_processed == want.tuples_processed, context
    assert got.tuples_skipped == want.tuples_skipped, context
    assert got.exact == want.exact, context


@functools.lru_cache(maxsize=None)
def _table() -> Table:
    rng = np.random.default_rng(17)
    key = rng.uniform(0.0, 100.0, size=N_ROWS)
    value = np.round(np.abs(rng.normal(50.0, 15.0, size=N_ROWS) + 0.1 * key), 1)
    return Table({"key": key, "value": value}, name="sketch_sharing")


def _strip_sample(synopsis, leaf: int) -> None:
    """Leave one populated leaf without a sample (its partial mass is unseen)."""
    flat = synopsis.flat
    flat.replace_leaf_sample(
        leaf, {column: np.zeros(0) for column in flat.leaf_sample(leaf)}
    )


def _inside(box: Box, low: float, high: float) -> tuple[float, float]:
    """The (low, high) fractions of a leaf's key interval."""
    interval = box.interval("key")
    width = interval.high - interval.low
    return interval.low + low * width, interval.low + high * width


@functools.lru_cache(maxsize=None)
def _single(unsampled_leaf: bool = True):
    synopsis = build_pass(_table(), "value", ["key"], CONFIG)
    if unsampled_leaf:
        _strip_sample(synopsis, 5)
    return synopsis


@functools.lru_cache(maxsize=None)
def _sharded(unsampled_leaf: bool = True) -> ShardedSynopsis:
    """Four range shards behind *finite* key boxes, one leaf unsampled.

    ``build_sharded_pass`` leaves the outermost key boxes unbounded, so some
    shard always survives; clipping them to the data domain lets a predicate
    beyond it prune every shard.
    """
    built = build_sharded_pass(
        _table(),
        "value",
        "key",
        n_shards=4,
        config=dataclasses.replace(CONFIG, n_partitions=4),
    )
    shards = built.shards
    if unsampled_leaf:
        _strip_sample(shards[1], 2)
    boxes = [
        Box(
            {
                "key": Interval(
                    max(box.interval("key").low, 0.0),
                    min(box.interval("key").high, 100.0),
                )
            }
        )
        for box in built.key_boxes
    ]
    return ShardedSynopsis(shards, boxes, shard_column="key")


def _queries(unsampled_box: Box) -> list[AggregateQuery]:
    """Every kind over repeated and distinct predicates, shuffled."""
    ranges = {
        "covered + partial leaves": (10.3, 70.7),
        "no partial leaf": (-math.inf, math.inf),
        "leaf-aligned on the single synopsis": (18.69079117058066, 61.52804147817209),
        "unsampled partial leaf": _inside(unsampled_box, 0.25, 0.75),
        "beyond the data": (150.0, 200.0),
        "one narrow cell": (40.0, 40.9),
        "across a shard boundary": (49.0, 51.5),
    }
    queries = [
        AggregateQuery(agg, "value", RectPredicate({"key": Interval(*bounds)}), quantile=q)
        for bounds in ranges.values()
        for agg, q in KINDS
    ]
    queries += queries[2:12]  # repeated (predicate, kind) pairs as well
    order = np.random.default_rng(5).permutation(len(queries))
    return [queries[i] for i in order]


def _engine(name: str, synopsis, cache_size: int) -> ServingEngine:
    catalog = SynopsisCatalog()
    catalog.register(name, synopsis, table_name=_table().name)
    catalog.register_table(_table())
    return ServingEngine(catalog, cache_size=cache_size)


def _through_async_tier(engine: ServingEngine, queries):
    async def main():
        async with AsyncServingEngine(engine, batch_window=0.002) as tier:
            return await tier.execute_many(queries)

    return asyncio.run(main())


class TestBatchedSketchAnswersCarryPerQueryBits:
    def test_fixtures_reach_every_branch(self):
        single, sharded = _single(), _sharded()
        flat = single.flat
        queries = _queries(single.leaf_boxes[5])
        partial_counts = {
            flat.query_frontier(query).partial.shape[0] for query in queries
        }
        assert 0 in partial_counts and max(partial_counts) >= 2
        unsampled = AggregateQuery.at_quantile(
            "value",
            0.5,
            RectPredicate({"key": Interval(*_inside(single.leaf_boxes[5], 0.25, 0.75))}),
        )
        union = single.sketch_union(unsampled)
        assert union.sketch.n == 0 and union.boundary_weight > 0
        beyond = AggregateQuery.at_quantile(
            "value", 0.5, RectPredicate({"key": Interval(150.0, 200.0)})
        )
        assert sharded.surviving_shards(beyond) == []
        assert len(sharded.surviving_shards(queries[0])) >= 1

    def test_single_synopsis_tiers(self):
        synopsis = _single()
        queries = _queries(synopsis.leaf_boxes[5])
        want = [synopsis.query(query) for query in queries]
        attached = FlatSynopsis(*synopsis.flat.export_buffers())
        reference = oracle.objects_of(synopsis)
        tiers = {
            "query_object": [oracle.query_object(reference, q) for q in queries],
            "export_buffers": [attached.query(query) for query in queries],
            "batch_query": batch_query(synopsis, queries),
            "execute_batch": _engine("single", synopsis, 0).execute_batch(queries),
            "execute_batch cached": _engine("single", synopsis, 4096).execute_batch(
                queries
            ),
            "async tier": _through_async_tier(_engine("single", synopsis, 0), queries),
        }
        for tier, answers in tiers.items():
            assert len(answers) == len(queries)
            for query, got, expected in zip(queries, answers, want):
                assert_same_bits(got, expected, f"{tier} {query!r}")

    def test_sharded_tiers(self):
        sharded = _sharded()
        queries = _queries(sharded.shards[1].leaf_boxes[2])
        want = [sharded.query(query) for query in queries]
        tiers = {
            "query_batch": sharded.query_batch(queries),
            "execute_batch": _engine("sharded", sharded, 0).execute_batch(queries),
            "async tier": _through_async_tier(_engine("sharded", sharded, 0), queries),
        }
        for tier, answers in tiers.items():
            assert len(answers) == len(queries)
            for query, got, expected in zip(queries, answers, want):
                assert_same_bits(got, expected, f"{tier} {query!r}")

    def test_all_shards_pruned_cell_is_exactly_empty(self):
        sharded = _sharded()
        beyond = RectPredicate({"key": Interval(150.0, 200.0)})
        median, distinct = sharded.query_batch(
            [
                AggregateQuery.at_quantile("value", 0.5, beyond),
                AggregateQuery("COUNT_DISTINCT", "value", beyond),
            ]
        )
        assert median.exact and np.isnan(median.estimate)
        assert distinct.exact and distinct.estimate == 0.0
        assert median.tuples_skipped == distinct.tuples_skipped == N_ROWS

    def _grouped_plans(self, unsampled_box: Box):
        aggregates = tuple(
            AggregateSpec(agg, "value", q) for agg, q in KINDS if agg != "AVG"
        )
        for edges in (
            np.linspace(5.0, 95.0, 13).tolist(),
            [_inside(unsampled_box, f, f)[0] for f in (0.1, 0.4, 0.7)],
        ):
            yield GroupByQuery(
                groupings=(GroupingColumn.bins("key", edges),), aggregates=aggregates
            ).compile()

    def test_grouped_single_synopsis_tiers(self):
        synopsis = _single()
        engine = _engine("single", synopsis, 0)
        reference = oracle.objects_of(synopsis)
        for plan in self._grouped_plans(synopsis.leaf_boxes[5]):
            served = engine.execute_grouped(plan)
            direct = grouped_query(synopsis, plan)
            for index, cell in plan.live_cells():
                for position, spec in enumerate(plan.aggregates):
                    query = plan.cell_query(cell, spec)
                    want = synopsis.query(query)
                    assert_same_bits(
                        served.cells[index][position], want, f"execute_grouped {query!r}"
                    )
                    assert_same_bits(
                        direct.cells[index][position], want, f"grouped_query {query!r}"
                    )
                    if spec.agg in SKETCH_AGGREGATES:
                        assert_same_bits(
                            want,
                            oracle.query_object(reference, query),
                            f"oracle {query!r}",
                        )

    def test_grouped_sharded_tiers(self):
        sharded = _sharded()
        engine = _engine("sharded", sharded, 0)
        for plan in self._grouped_plans(sharded.shards[1].leaf_boxes[2]):
            served = engine.execute_grouped(plan)
            gathered = sharded.query_grouped(plan)
            for index, cell in plan.live_cells():
                for position, spec in enumerate(plan.aggregates):
                    query = plan.cell_query(cell, spec)
                    want = sharded.query(query)
                    assert_same_bits(
                        served.cells[index][position], want, f"execute_grouped {query!r}"
                    )
                    got = gathered.cells[index][position]
                    assert_same_bits(got, want, f"query_grouped {query!r}")


def _percentile_plan(cells: int):
    return GroupByQuery(
        groupings=(
            GroupingColumn.bins("key", np.linspace(5.0, 95.0, cells + 1).tolist()),
        ),
        aggregates=tuple(
            AggregateSpec("QUANTILE", "value", q) for q in (0.5, 0.95, 0.99)
        ),
    ).compile()


class TestOneReductionPerCell:
    """A 64-cell x 3-percentile plan reduces each cell once, sorts it once."""

    def _count(self, monkeypatch, owner, name) -> list:
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_single_synopsis(self, monkeypatch):
        engine = _engine("single", _single(unsampled_leaf=False), 0)
        plan = _percentile_plan(64)
        unions = self._count(monkeypatch, union_module, "quantile_union")
        sorts = self._count(monkeypatch, QuantileSketch, "_sorted_weighted")
        grouped = engine.execute_grouped(plan)
        live = len(plan.live_cells())
        assert live == 64 and len(grouped) == 64
        assert len(unions) == live
        assert len(sorts) == live

    def test_sharded_synopsis(self, monkeypatch):
        sharded = _sharded(unsampled_leaf=False)
        engine = _engine("sharded", sharded, 0)
        plan = _percentile_plan(64)
        per_cell_shards = sum(
            len(sharded.surviving_shards(plan.cell_query(cell, plan.aggregates[0])))
            for _, cell in plan.live_cells()
        )
        assert per_cell_shards > 64  # some cells straddle a shard boundary
        unions = self._count(monkeypatch, union_module, "quantile_union")
        descents = self._count(monkeypatch, FlatSynopsis, "query_frontier")
        broadcasts = []
        frontiers_for = FlatSynopsis.frontiers_for

        def counted_frontiers(self, predicates, *args):
            broadcasts.append(len(predicates))
            return frontiers_for(self, predicates, *args)

        monkeypatch.setattr(FlatSynopsis, "frontiers_for", counted_frontiers)
        sorts = self._count(monkeypatch, QuantileSketch, "_sorted_weighted")
        engine.execute_grouped(plan)
        # One tree: a cell straddling shards is still one frontier, one union.
        # The served plan is one grouped_query call: one broadcast computes
        # every cell's frontier, and the same frontiers prune empty cells.
        assert len(unions) == 64
        assert not descents
        assert broadcasts == [64]
        assert len(sorts) == 64


def test_an_insert_between_two_executions_is_seen():
    """Nothing shared outlives a call, so updates need no invalidation."""
    dynamic = DynamicPASS(_table(), "value", ["key"], config=CONFIG)
    engine = _engine("dynamic", dynamic, 0)
    plan = _percentile_plan(8)

    def per_query():
        return [
            dynamic.query(plan.cell_query(cell, spec))
            for _, cell in plan.live_cells()
            for spec in plan.aggregates
        ]

    def served():
        grouped = engine.execute_grouped(plan)
        return [answer for index, _ in plan.live_cells() for answer in grouped.cells[index]]

    before = served()
    for got, want in zip(before, per_query()):
        assert_same_bits(got, want, "before the insert")
    engine.insert("dynamic", {"key": 42.0, "value": 1.0e6})
    after = served()
    for got, want in zip(after, per_query()):
        assert_same_bits(got, want, "after the insert")
    # The last cell is far from key 42: only the population under it grew.
    assert after[-1].tuples_skipped == before[-1].tuples_skipped + 1
    assert before != after
