"""A synopsis is one object: ``FlatSynopsis`` ← ``PASSSynopsis`` ← ``DynamicPASS``.

Whatever its kind or origin — a fresh build, a ``DynamicPASS``, either one
reloaded from a ``.pass`` file, a shard of a mixed sharded synopsis — a
synopsis *is* the flat arrays and their kernels: nothing unwraps it.  The
harness-era aliases (``.flat``, ``DynamicPASS.synopsis``) return the object
itself, a static synopsis reports 0.0 drift, the build facts travel in every
export, and a published segment carries the kernel state only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.soa import FlatSynopsis
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.distributed.sharded import ShardedSynopsis
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery
from repro.serving.catalog import SynopsisCatalog
from repro.serving.persistence import load_synopsis, save_synopsis
from repro.serving.shm import (
    EpochRegister,
    SynopsisPublisher,
    attach_flat_synopsis,
    read_published,
)

from test_soa_equivalence import assert_results_identical

CONFIG = PASSConfig(n_partitions=8, sample_rate=0.05, seed=3)
GAUGES = ("staleness", "sketch_staleness", "extrema_staleness")
QUERY = AggregateQuery("SUM", "value", RectPredicate({"key": Interval(10.0, 60.0)}))


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(11)
    keys, values = rng.uniform(0.0, 100.0, 2_000), rng.normal(10.0, 2.0, 2_000)
    return Table({"key": keys, "value": values}, name="t")


@pytest.fixture(scope="module")
def static(table) -> PASSSynopsis:
    return build_pass(table, "value", ["key"], CONFIG)


@pytest.fixture()
def dynamic(table) -> DynamicPASS:
    synopsis = DynamicPASS(table, "value", ["key"], CONFIG)
    synopsis.insert({"key": 42.0, "value": 11.0})
    return synopsis


def _assert_one_object(synopsis) -> None:
    assert isinstance(synopsis, PASSSynopsis)
    assert isinstance(synopsis, FlatSynopsis)
    assert synopsis.flat is synopsis
    if isinstance(synopsis, DynamicPASS):
        assert synopsis.synopsis is synopsis
    else:
        assert not hasattr(synopsis, "synopsis")
        assert [getattr(synopsis, gauge) for gauge in GAUGES] == [0.0] * 3


def _assert_same_build_facts(copy, original) -> None:
    assert copy.build_seconds == original.build_seconds > 0.0
    assert copy.effective_partitioner == original.effective_partitioner == "adp"


class TestOneObject:
    def test_a_static_build(self, static):
        _assert_one_object(static)
        assert type(static) is PASSSynopsis
        assert static.n_partitions == len(static.leaf_boxes) == 8
        assert static.leaf_boxes is static.leaf_boxes  # memoised

    def test_a_dynamic_synopsis(self, dynamic, static):
        _assert_one_object(dynamic)
        assert dynamic.staleness > 0.0
        assert dynamic.n_partitions == static.n_partitions
        assert dynamic.build_seconds > 0.0
        assert dynamic.effective_partitioner == static.effective_partitioner

    @pytest.mark.parametrize("kind", ["static", "dynamic"])
    def test_after_save_and_load(self, kind, request, tmp_path):
        original = request.getfixturevalue(kind)
        loaded = load_synopsis(save_synopsis(original, tmp_path / kind))
        assert type(loaded) is type(original)
        _assert_one_object(loaded)
        _assert_same_build_facts(loaded, original)
        assert_results_identical(loaded.query(QUERY), original.query(QUERY))

    def test_the_shards_of_a_mixed_sharded_synopsis(self, table, tmp_path):
        built = {
            dynamic: build_sharded_pass(
                table, "value", "key", n_shards=2, config=CONFIG, dynamic=dynamic
            )
            for dynamic in (False, True)
        }
        mixed = ShardedSynopsis(
            [built[False].shards[0], built[True].shards[1]],
            built[False].key_boxes,
            shard_column="key",
        )
        mixed.insert({"key": 99.0, "value": 9.0})
        loaded = load_synopsis(save_synopsis(mixed, tmp_path / "mixed"))
        for sharded in (mixed, loaded):
            static_shard, dynamic_shard = sharded.shards
            assert type(static_shard) is PASSSynopsis
            assert type(dynamic_shard) is DynamicPASS
            for shard in sharded.shards:
                _assert_one_object(shard)
            assert sharded.staleness == dynamic_shard.staleness > 0.0
            assert sharded.per_shard_staleness() == [0.0, dynamic_shard.staleness]
        for shard, original in zip(loaded.shards, mixed.shards):
            _assert_same_build_facts(shard, original)

    def test_the_catalog_reads_any_kind_without_unwrapping(self, static, dynamic):
        catalog = SynopsisCatalog()
        for name, synopsis in (("static", static), ("dynamic", dynamic)):
            entry = catalog.register(name, synopsis)
            assert entry.pass_synopsis is synopsis
            assert entry.predicate_columns == ("key",)
            assert entry.n_partitions == synopsis.n_partitions
            assert [getattr(entry, gauge) for gauge in GAUGES] == [
                getattr(synopsis, gauge) for gauge in GAUGES
            ]
        assert not catalog.get("static").is_dynamic
        assert catalog.get("dynamic").is_dynamic


class TestPublishedSegments:
    @pytest.mark.parametrize("kind", ["static", "dynamic"])
    def test_a_segment_carries_the_kernel_state_and_the_build_facts(
        self, kind, request
    ):
        synopsis = request.getfixturevalue(kind)
        with SynopsisPublisher() as publisher:
            publisher.publish(kind, synopsis)
            register = EpochRegister.attach(publisher.register_name)
            try:
                (entry,) = read_published(register)[1]
            finally:
                register.close()
            attached, segment = attach_flat_synopsis(entry.segment)
            try:
                assert type(attached) is FlatSynopsis
                _assert_same_build_facts(attached, synopsis)
                assert "kind" not in segment.header
                assert not {"seen", "capacity"} & set(segment.arrays)
                assert_results_identical(
                    attached.query(QUERY), synopsis.query(QUERY)
                )
            finally:
                del attached
                segment.close()

    def test_publish_rejects_what_is_not_a_synopsis(self):
        with SynopsisPublisher() as publisher:
            with pytest.raises(TypeError, match="expected a FlatSynopsis"):
                publisher.publish("junk", object())
