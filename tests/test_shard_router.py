"""Tests for the streaming shard router: routing, staleness, per-shard rebuilds."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import PASSConfig
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_from_plan
from repro.distributed.planner import ShardPlanner
from repro.distributed.router import StreamingShardRouter
from repro.distributed.sharded import ShardedSynopsis
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine


@pytest.fixture
def table() -> Table:
    rng = np.random.default_rng(23)
    n = 1200
    return Table(
        {
            "key": rng.uniform(0.0, 30.0, size=n),
            "value": np.abs(rng.normal(10.0, 3.0, size=n)),
        },
        name="router_test",
    )


@pytest.fixture
def config() -> PASSConfig:
    return PASSConfig(n_partitions=4, sample_rate=0.1, opt_sample_size=200, seed=1)


def _build(table, config, n_shards=3, threshold=None):
    plan = ShardPlanner(n_shards, "range").plan(table, "key")
    sharded = build_sharded_from_plan(
        plan, "value", ["key"], config, dynamic=True
    )
    router = StreamingShardRouter(sharded, plan.tables, rebuild_threshold=threshold)
    return plan, sharded, router


def test_inserts_route_to_the_owning_shard_only(table, config):
    plan, sharded, router = _build(table, config)
    populations = [shard.population_size for shard in sharded.shards]
    target_key = 1.0
    owner = sharded.shard_for_value(target_key)
    index = router.insert({"key": target_key, "value": 5.0})
    assert index == owner
    for shard_index, shard in enumerate(sharded.shards):
        expected = populations[shard_index] + (1 if shard_index == owner else 0)
        assert shard.population_size == expected


def test_deletes_route_and_update_counts(table, config):
    plan, sharded, router = _build(table, config)
    row = {column: float(table.column(column)[0]) for column in table.column_names}
    owner = sharded.shard_for_row(row)
    before = sharded.shards[owner].population_size
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        router.delete(row)
    assert sharded.shards[owner].population_size == before - 1
    stats = router.stats()
    assert stats[owner].deletes == 1


def test_staleness_tracked_per_shard(table, config):
    plan, sharded, router = _build(table, config)
    router.insert({"key": 1.0, "value": 2.0})
    stalenesses = sharded.per_shard_staleness()
    owner = sharded.shard_for_value(1.0)
    assert stalenesses[owner] > 0.0
    assert all(
        staleness == 0.0
        for index, staleness in enumerate(stalenesses)
        if index != owner
    )


def _slices(sharded) -> list[dict[str, bytes]]:
    """Each shard's exported arrays, as bytes."""
    return [
        {key: value.tobytes() for key, value in shard.export_buffers()[1].items()}
        for shard in sharded.shards
    ]


def test_threshold_triggers_rebuild_of_only_the_drifted_shard(table, config):
    plan, sharded, router = _build(table, config, threshold=0.02)
    owner = sharded.shard_for_value(2.0)
    untouched = [shard for i, shard in enumerate(_slices(sharded)) if i != owner]
    shard_population = sharded.shards[owner].population_size
    inserts = int(shard_population * 0.02) + 2
    for step in range(inserts):
        router.insert({"key": 2.0, "value": 4.0 + step})
    stats = router.stats()
    assert stats[owner].rebuilds >= 1
    # The rebuilt shard's staleness reset; the other shards were not touched.
    assert sharded.per_shard_staleness()[owner] < 0.02
    for index, shard in enumerate(_slices(sharded)):
        if index != owner:
            assert shard in untouched  # the same bytes: only the owner moved


def test_rebuild_materializes_inserts_and_deletes(table, config):
    plan, sharded, router = _build(table, config)
    owner = sharded.shard_for_value(2.0)
    base_population = sharded.shards[owner].population_size
    router.insert({"key": 2.0, "value": 100.0})
    router.insert({"key": 2.0, "value": 101.0})
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        router.delete({"key": 2.0, "value": 100.0})
    router.rebuild(owner)
    rebuilt = sharded.shards[owner]
    assert rebuilt.population_size == base_population + 1
    assert rebuilt.staleness == 0.0
    # The rebuilt shard is a fresh structure with exact statistics.
    query = AggregateQuery("COUNT", "value", RectPredicate.everything())
    assert rebuilt.query(query).estimate == base_population + 1


def test_rebuilt_shard_answers_match_exact_engine(table, config):
    plan, sharded, router = _build(table, config, threshold=None)
    owner = sharded.shard_for_value(5.0)
    for step in range(10):
        router.insert({"key": 5.0, "value": 50.0 + step})
    router.rebuild(owner)
    # An everything-query over the sharded synopsis stays exact after rebuild.
    query = AggregateQuery("COUNT", "value", RectPredicate.everything())
    result = router.sharded.query(query)
    assert result.exact
    assert result.estimate == table.n_rows + 10


def test_rows_missing_schema_columns_are_rejected(table, config):
    plan, sharded, router = _build(table, config)
    with pytest.raises(KeyError, match="missing columns"):
        router.insert({"key": 1.0})


def test_router_requires_dynamic_shards(table, config):
    plan = ShardPlanner(2, "range").plan(table, "key")
    static = build_sharded_from_plan(plan, "value", ["key"], config)
    with pytest.raises(TypeError, match="DynamicPASS"):
        StreamingShardRouter(static, plan.tables)


def test_router_validates_table_count(table, config):
    plan, sharded, _ = _build(table, config)
    with pytest.raises(ValueError, match="base tables"):
        StreamingShardRouter(sharded, plan.tables[:-1])


def test_deleting_unknown_row_fails_at_rebuild(table, config):
    # A delete of a row that never existed in the shard's data surfaces when
    # the rebuild materializes the shard.
    plan, sharded, router = _build(table, config)
    owner = sharded.shard_for_value(1.0)
    router._deleted[owner].append({column: -999.0 for column in table.column_names})
    with pytest.raises(ValueError, match="not found"):
        router.rebuild(owner)


def test_apply_many_groups_rows_per_shard(table, config):
    plan, sharded, router = _build(table, config)
    rng = np.random.default_rng(4)
    rows = [
        {"key": float(rng.uniform(0.0, 30.0)), "value": float(rng.uniform(1.0, 5.0))}
        for _ in range(40)
    ]
    populations = [shard.population_size for shard in sharded.shards]
    indices = router.apply_many(rows, "insert")
    assert indices == [sharded.shard_for_row(row) for row in rows]
    for shard_index, shard in enumerate(sharded.shards):
        expected = populations[shard_index] + indices.count(shard_index)
        assert shard.population_size == expected
    stats = router.stats()
    assert sum(stat.inserts for stat in stats) == len(rows)


def test_apply_many_matches_single_row_updates(table, config):
    plan, sharded_a, router_a = _build(table, config)
    plan_b, sharded_b, router_b = _build(table, config)
    rng = np.random.default_rng(9)
    rows = [
        {"key": float(rng.uniform(0.0, 30.0)), "value": float(rng.uniform(1.0, 5.0))}
        for _ in range(25)
    ]
    for row in rows:
        router_a.insert(row)
    router_b.apply_many(rows, "insert")
    query = AggregateQuery("COUNT", "value", RectPredicate.everything())
    assert sharded_a.query(query).estimate == sharded_b.query(query).estimate
    for shard_a, shard_b in zip(sharded_a.shards, sharded_b.shards):
        assert shard_a.population_size == shard_b.population_size


def test_apply_many_mixed_kinds_and_validation(table, config):
    plan, sharded, router = _build(table, config)
    existing = {column: float(table.column(column)[5]) for column in table.column_names}
    before = sharded.population_size
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        router.apply_many([{"key": 3.0, "value": 2.0}, existing], ["insert", "delete"])
    assert sharded.population_size == before
    with pytest.raises(ValueError, match="update kinds"):
        router.apply_many([{"key": 1.0, "value": 1.0}], ["insert", "delete"])
    with pytest.raises(ValueError, match="unknown update kind"):
        router.apply_many([{"key": 1.0, "value": 1.0}], "upsert")


def test_apply_many_triggers_rebuild_past_threshold(table, config):
    plan, sharded, router = _build(table, config, threshold=0.01)
    rng = np.random.default_rng(11)
    rows = [
        {"key": float(rng.uniform(0.0, 30.0)), "value": float(rng.uniform(1.0, 5.0))}
        for _ in range(60)
    ]
    router.apply_many(rows, "insert")
    stats = router.stats()
    assert sum(stat.rebuilds for stat in stats) >= 1
    # Rebuilds reset the rebuilt shards' staleness; totals stay correct.
    query = AggregateQuery("COUNT", "value", RectPredicate.everything())
    assert sharded.query(query).estimate == 1200 + len(rows)


def test_a_nan_valued_delete_survives_the_rebuild(config):
    """A NaN-valued row deleted through the router is found again at rebuild.

    ``DynamicPASS.delete`` matches NaN to NaN, so the live shard accepts
    the delete; the rebuild's materialization must match it the same way.
    """
    rng = np.random.default_rng(5)
    n = 4000
    key = rng.uniform(0.0, 30.0, size=n)
    value = np.abs(rng.normal(10.0, 3.0, size=n))
    value[:5] = np.nan
    table = Table({"key": key, "value": value}, name="nan_router")
    plan, sharded, router = _build(table, config, n_shards=2)
    owner = sharded.shard_for_value(float(key[0]))
    before = sharded.shard_population(owner)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        router.delete({"key": float(key[0]), "value": float("nan")})
    router.rebuild(owner)
    assert sharded.shard_population(owner) == before - 1
    assert router.stats()[owner].rebuilds == 1
    assert sharded.population_size == n - 1


def test_served_queries_run_beside_threshold_rebuilds(table, config, monkeypatch):
    """Reads through the engine never see a half-written or half-stitched tree.

    The router takes the engine's write lock around each in-place update
    and each re-stitch, so two reader threads querying all the while get
    exact COUNTs of some state between the first and the last insert.
    """
    plan, sharded, router = _build(table, config, threshold=0.02)
    catalog = SynopsisCatalog()
    catalog.register("sharded", sharded, table_name=table.name)
    engine = ServingEngine(catalog, cache_size=0)
    router.set_write_lock(engine.write_locked)
    locked_restitches: list[bool] = []
    replace_shard = ShardedSynopsis.replace_shard

    def watched(self, index, shard):
        locked_restitches.append(engine._lock._writer_active)
        replace_shard(self, index, shard)

    monkeypatch.setattr(ShardedSynopsis, "replace_shard", watched)
    everything = AggregateQuery("COUNT", "value", RectPredicate.everything())
    selective = AggregateQuery(
        "AVG", "value", RectPredicate({"key": Interval(2.0, 14.0)})
    )
    counts: list[float] = []
    errors: list[BaseException] = []
    stop = threading.Event()

    def read() -> None:
        try:
            while not stop.is_set():
                counts.append(engine.execute(everything).estimate)
                engine.execute(selective)
        except BaseException as error:  # reported below
            errors.append(error)

    readers = [threading.Thread(target=read) for _ in range(2)]
    for reader in readers:
        reader.start()
    inserts = 240
    try:
        for step in range(inserts):
            router.insert({"key": 1.0 + step % 12, "value": 3.0})
    finally:
        stop.set()
        for reader in readers:
            reader.join()
    assert errors == []
    rebuilds = sum(stat.rebuilds for stat in router.stats())
    assert rebuilds >= 2 and locked_restitches == [True] * rebuilds
    assert counts and all(1200 <= count <= 1200 + inserts for count in counts)
    assert engine.execute(everything).estimate == 1200 + inserts
