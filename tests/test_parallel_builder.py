"""Tests for the shard builder, which builds every shard in the calling process."""

from __future__ import annotations

import multiprocessing.process

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_from_plan, build_sharded_pass
from repro.distributed.planner import ShardPlanner


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(11)
    n = 4000
    return Table(
        {
            "key": rng.uniform(0.0, 10.0, size=n),
            "value": np.abs(rng.normal(20.0, 5.0, size=n)),
        },
        name="parallel_test",
    )


@pytest.fixture(scope="module")
def config() -> PASSConfig:
    return PASSConfig(n_partitions=8, sample_rate=0.02, opt_sample_size=200, seed=5)


def test_serial_build_matches_per_shard_manual_build(table, config):
    """Each shard's slice carries its manual build's statistics and samples.

    Only the bounds differ: the stitch clips them to the shard's key box.
    """
    plan = ShardPlanner(3, "range").plan(table, "key")
    sharded = build_sharded_from_plan(plan, "value", ["key"], config)
    for index, (chunk, shard) in enumerate(zip(plan.tables, sharded.shards)):
        manual = build_pass(
            chunk, "value", ["key"], config.with_overrides(seed=config.seed + index)
        )
        _, want = manual.export_buffers()
        _, got = shard.export_buffers()
        for key in want:
            if key not in ("col_lows", "col_highs"):
                assert got[key].tobytes() == want[key].tobytes(), key
        interval = plan.key_boxes[index].interval("key")
        assert np.all(got["col_lows"] >= interval.low)
        assert np.all(got["col_highs"] <= interval.high)


def test_dynamic_build_produces_updatable_shards(table, config):
    plan = ShardPlanner(2, "range").plan(table, "key")
    sharded = build_sharded_from_plan(
        plan, "value", ["key"], config, dynamic=True
    )
    assert sharded.supports_updates
    assert all(isinstance(shard, DynamicPASS) for shard in sharded.shards)
    before = sharded.population_size
    sharded.insert({"key": 5.0, "value": 30.0})
    assert sharded.population_size == before + 1


def test_build_sharded_pass_convenience(table, config):
    sharded = build_sharded_pass(
        table,
        "value",
        "key",
        n_shards=3,
        config=config,
    )
    assert sharded.n_shards == 3
    assert sharded.population_size == table.n_rows
    assert sharded.shard_column == "key"


def test_population_and_sample_accounting(table, config):
    plan = ShardPlanner(4, "range").plan(table, "key")
    sharded = build_sharded_from_plan(plan, "value", ["key"], config)
    assert sharded.population_size == table.n_rows
    assert sharded.sample_size == sum(
        s.sample_size for s in map(_unwrap, sharded.shards)
    )
    assert sharded.n_partitions == sum(
        _unwrap(shard).n_partitions for shard in sharded.shards
    )
    assert sharded.storage_bytes() > 0
    assert sharded.build_seconds > 0


def _unwrap(shard):
    return shard.synopsis if isinstance(shard, DynamicPASS) else shard


@pytest.mark.parametrize("dynamic", [False, True])
def test_sharded_build_starts_no_child_process(table, config, monkeypatch, dynamic):
    def refuse(process):
        raise AssertionError(f"a sharded build started a child process: {process!r}")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    sharded = build_sharded_pass(
        table, "value", "key", n_shards=4, config=config, dynamic=dynamic
    )
    assert sharded.n_shards == 4
    assert sharded.population_size == table.n_rows
