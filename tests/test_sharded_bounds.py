"""Certified bounds under sharding: a property over shardings and streams.

A sharded synopsis is one stitched tree (:mod:`repro.distributed.sharded`)
answered by the single-synopsis estimators.  Over range and hash shards,
static shards and dynamic ones after a router stream with one rebuild:

* the hard bounds of all seven aggregates contain the exact answer;
* SUM / COUNT lie in the CI windows of the per-shard reference — the sum of
  the surviving shards' answers, each shard answering alone (its own build
  for static shards, the shard's slice after a stream) — and it in theirs;
  COUNT equals it up to summation order, because a leaf the key-box clip
  turns from partial to covered held only matching sample rows, so the
  reference's estimate for it was exact too;
* a hash point predicate on the shard column is answered from its owning
  shard alone: its bounds are no looser than that shard's own.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_from_plan
from repro.distributed.planner import ShardPlanner
from repro.distributed.router import StreamingShardRouter
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery, ExactEngine

KEY_HIGH = 1000.0
N_ROWS = 6000
N_SHARDS = 4
CONFIG = PASSConfig(
    n_partitions=8, sample_rate=0.05, opt_sample_size=300, with_sketches=True, seed=7
)
CASES = ("range_static", "hash_static", "range_stream", "hash_stream")
CLASSIC = ("SUM", "COUNT", "AVG", "MIN", "MAX")


def _table() -> Table:
    rng = np.random.default_rng(31)
    key = rng.uniform(0.0, KEY_HIGH, size=N_ROWS)
    value = np.round(np.abs(rng.normal(50.0, 15.0, size=N_ROWS) + 0.05 * key), 2)
    return Table({"key": key, "value": value}, name="sharded_bounds")


@functools.lru_cache(maxsize=None)
def _case(name: str) -> dict:
    """The sharded synopsis, its per-shard references and its exact data."""
    strategy, kind = name.split("_")
    table = _table()
    plan = ShardPlanner(N_SHARDS, strategy).plan(table, "key")
    stream = kind == "stream"
    sharded = build_sharded_from_plan(plan, "value", ["key"], CONFIG, dynamic=stream)
    if not stream:
        references = [
            build_pass(
                chunk,
                "value",
                ["key"],
                CONFIG.with_overrides(seed=CONFIG.seed + index),
            )
            for index, chunk in enumerate(plan.tables)
        ]
        return {"sharded": sharded, "references": references, "exact": table}

    # Inserts everywhere, deletes in one shard only, then that shard's
    # rebuild: no shard is left with deletes its sketches could not absorb.
    router = StreamingShardRouter(sharded, plan.tables, rebuild_threshold=None)
    rng = np.random.default_rng(32)
    inserted = [
        {"key": float(k), "value": float(np.round(v, 2))}
        for k, v in zip(rng.uniform(0.0, KEY_HIGH, 300), rng.normal(60.0, 20.0, 300))
    ]
    for row in inserted:
        router.insert(row)
    owner = sharded.shard_for_value(inserted[0]["key"])
    chunk = plan.tables[owner]
    deleted = [
        {"key": float(chunk.column("key")[i]), "value": float(chunk.column("value")[i])}
        for i in range(0, chunk.n_rows, 40)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for row in deleted:
            router.delete(row)
    router.rebuild(owner)
    assert router.stats()[owner].rebuilds == 1 and sharded.sketch_staleness == 0.0

    keep = np.ones(N_ROWS, dtype=bool)
    keys = table.column("key")
    for row in deleted:
        keep[np.flatnonzero(keys == row["key"])[0]] = False
    exact = Table(
        {
            column: np.concatenate(
                [table.column(column)[keep], [row[column] for row in inserted]]
            )
            for column in ("key", "value")
        },
        name=table.name,
    )
    return {"sharded": sharded, "references": sharded.shards, "exact": exact}


def _truth(exact: Table, query: AggregateQuery) -> float:
    """The exact answer; QUANTILE by the sketches' rank definition."""
    engine = ExactEngine(exact)
    if query.agg.value != "QUANTILE":
        return engine.execute(query)
    matching = np.sort(exact.column("value")[engine.predicate_mask(query)])
    if not matching.size:
        return math.nan
    rank = max(1, min(math.ceil(query.quantile * matching.size), matching.size))
    return float(matching[rank - 1])


_fraction = st.floats(min_value=-0.05, max_value=1.05, allow_nan=False)
_predicates = st.tuples(_fraction, _fraction).map(
    lambda pair: RectPredicate.from_bounds(
        key=(min(pair) * KEY_HIGH, max(pair) * KEY_HIGH)
    )
)
_aggregates = st.sampled_from(
    [(agg, None) for agg in (*CLASSIC, "COUNT_DISTINCT")]
    + [("QUANTILE", q) for q in (0.5, 0.95)]
)


class TestCertifiedBoundsUnderSharding:
    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(CASES), predicate=_predicates, aggregate=_aggregates
    )
    def test_hard_bounds_contain_the_exact_answer(self, case, predicate, aggregate):
        made = _case(case)
        agg, quantile = aggregate
        query = AggregateQuery(agg, "value", predicate, quantile=quantile)
        truth = _truth(made["exact"], query)
        result = made["sharded"].query(query)
        if math.isnan(truth):
            assert math.isnan(result.estimate) or result.estimate == 0.0
            return
        eps = 1e-9 * max(1.0, abs(truth))
        assert result.hard_lower - eps <= truth <= result.hard_upper + eps

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(CASES),
        predicate=_predicates,
        agg=st.sampled_from(["SUM", "COUNT"]),
    )
    def test_the_per_shard_reference_lies_in_the_ci_window(
        self, case, predicate, agg
    ):
        made = _case(case)
        sharded = made["sharded"]
        query = AggregateQuery(agg, "value", predicate)
        stitched = sharded.query(query)
        parts = [
            made["references"][i].query(query)
            for i in sharded.surviving_shards(query)
        ]
        variance = sum(part.variance for part in parts)
        assume(not math.isnan(variance) and not math.isnan(stitched.variance))
        reference = sum(part.estimate for part in parts)
        reference_half_width = CONFIG.lam * math.sqrt(max(variance, 0.0))
        eps = 1e-9 * max(1.0, abs(reference))
        # Each estimate lies in the other's window.
        assert abs(stitched.estimate - reference) <= (
            min(stitched.ci_half_width, reference_half_width) + eps
        )
        if agg == "COUNT":
            assert stitched.estimate == pytest.approx(reference, rel=1e-12, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(["hash_static", "hash_stream"]),
        row=st.integers(min_value=0, max_value=N_ROWS - 1),
        agg=st.sampled_from(CLASSIC),
    )
    def test_a_hash_point_predicate_is_answered_by_its_owner(self, case, row, agg):
        made = _case(case)
        sharded = made["sharded"]
        key = float(made["exact"].column("key")[row])
        query = AggregateQuery(
            agg, "value", RectPredicate({"key": Interval(key, key)})
        )
        owner = sharded.shard_for_value(key)
        stitched = sharded.query(query)
        alone = sharded.shards[owner].query(query)
        assert stitched.hard_upper - stitched.hard_lower <= (
            alone.hard_upper - alone.hard_lower
        ) or (math.isnan(stitched.hard_lower) and math.isnan(alone.hard_lower))
        truth = _truth(made["exact"], query)
        eps = 1e-9 * max(1.0, abs(truth))
        assert stitched.hard_lower - eps <= truth <= stitched.hard_upper + eps
        assert sharded.surviving_shards(query) == [owner]
