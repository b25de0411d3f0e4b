"""One state, one constructor, one serial form.

A synopsis is a ``(header, arrays)`` pair.  A fresh build, a saved file
mapped back, a published segment attached and the shards stitched into a
sharded synopsis all run ``FlatSynopsis(header, arrays)`` over the same
bytes, so every stage returns the same bits for all seven aggregates — for
a static synopsis, a dynamic one (which then keeps accepting updates) and a
sharded one stitched from both.  A loaded static synopsis serves straight
off the mapping; a loaded dynamic one owns what it writes.
"""

from __future__ import annotations

import functools
import json
import mmap
import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.soa import FlatSynopsis
from repro.core.updates import DynamicPASS
from repro.distributed.parallel import build_sharded_pass
from repro.serving.persistence import load_synopsis, save_synopsis
from repro.serving.shm import (
    EpochRegister,
    SynopsisPublisher,
    attach_flat_synopsis,
    read_published,
)

import oracle
from test_flat_updates import (
    _assert_arrays_match_replay,
    _assert_flat_matches_oracle,
    _columns,
    _small_dynamic,
)
from test_soa_equivalence import (
    ALL_KINDS,
    SKETCH_KINDS,
    _fraction_pair,
    _predicate,
    _query,
    _table,
    assert_results_identical,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.core.updates.StaleExtremaWarning"
)

def _config(n_columns: int, with_sketches: bool) -> PASSConfig:
    return PASSConfig(
        n_partitions=16,
        sample_rate=0.05,
        partitioner="equal" if n_columns == 1 else "kd",
        opt_sample_size=200,
        with_sketches=with_sketches,
        seed=n_columns,
    )


def _build(kind: str, n_columns: int, with_sketches: bool):
    table, columns = _table(n_columns, 1), _columns(n_columns)
    config = _config(n_columns, with_sketches)
    if kind == "static":
        return build_pass(table, "value", columns, config)
    if kind == "dynamic":
        dynamic = DynamicPASS(table, "value", columns, config=config, rng=5)
        rng = np.random.default_rng(n_columns)
        for _ in range(20):  # a state no fresh build has
            dynamic.insert(
                {**{c: float(rng.uniform(0, 100)) for c in columns}, "value": 7.5}
            )
        dynamic.delete({c: float(table.column(c)[3]) for c in columns + ["value"]})
        return dynamic
    sharded = build_sharded_pass(
        table,
        "value",
        "c0",
        n_shards=3,
        predicate_columns=columns,
        config=config,
        dynamic=True,
    )
    # Mixed: shard 1 becomes a static synopsis over the same rows.
    rows = sharded.key_boxes[1].mask({"c0": table.column("c0")})
    sharded.replace_shard(
        1, build_pass(table.select(rows), "value", columns, config)
    )
    sharded.insert({**{c: 1.0 for c in columns}, "value": 3.0})
    return sharded


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """``(kind, n_columns, with_sketches) -> {stage name: something with .query}``.

    built -> saved -> loaded -> published -> attached, each made once; a
    sharded synopsis also publishes each of its shards, compared shard by
    shard in their own test.
    """
    directory = tmp_path_factory.mktemp("serial")
    publisher = SynopsisPublisher()
    register = EpochRegister.attach(publisher.register_name)
    handles = []

    def attach(name: str, synopsis) -> FlatSynopsis:
        publisher.publish(name, synopsis)
        (entry,) = [e for e in read_published(register)[1] if e.name == name]
        flat, handle = attach_flat_synopsis(entry.segment)
        handles.append(handle)
        return flat

    @functools.lru_cache(maxsize=None)
    def make(kind: str, n_columns: int, with_sketches: bool) -> dict:
        name = f"{kind}-{n_columns}-{int(with_sketches)}"
        built = _build(kind, n_columns, with_sketches)
        path = save_synopsis(built, directory / name)
        made = {"built": built, "loaded": load_synopsis(path), "path": path}
        made["attached"] = attach(name, made["loaded"])
        # What the oracle runs over: the loaded arrays, decoded.
        made["reference"] = oracle.objects_of(made["loaded"])
        if kind == "sharded":
            made["attached shards"] = [
                attach(f"{name}-{i}", shard)
                for i, shard in enumerate(made["loaded"].shards)
            ]
        return made

    yield make
    del make  # and with it every cached view: a mapping with views cannot close
    for handle in handles:
        handle.close()
    register.close()
    publisher.close()


class TestEveryStageReturnsTheSameBits:
    @given(
        kind=st.sampled_from(["static", "dynamic", "sharded"]),
        n_columns=st.integers(min_value=1, max_value=3),
        with_sketches=st.booleans(),
        fractions=st.lists(_fraction_pair, min_size=3, max_size=3),
        aggregate=st.sampled_from(ALL_KINDS),
    )
    def test_built_saved_loaded_published_attached(
        self, stages, kind, n_columns, with_sketches, fractions, aggregate
    ):
        made = stages(kind, n_columns, with_sketches)
        query = _query(aggregate, _predicate(n_columns, fractions))
        engines = {stage: made[stage] for stage in ("loaded", "attached")}
        try:
            want = made["built"].query(query)
        except ValueError:
            # Built without sketches: every stage refuses the same way.
            assert aggregate in SKETCH_KINDS and not with_sketches
            for stage, engine in engines.items():
                with pytest.raises(ValueError, match="without sketches"):
                    engine.query(query)
            return
        for stage, engine in engines.items():
            assert_results_identical(engine.query(query), want, context=f"{stage} ")
        assert_results_identical(
            want, oracle.query_object(made["reference"], query), "oracle "
        )

    @given(
        n_columns=st.integers(min_value=1, max_value=3),
        with_sketches=st.booleans(),
        fractions=st.lists(_fraction_pair, min_size=3, max_size=3),
        aggregate=st.sampled_from(ALL_KINDS),
    )
    def test_a_mixed_sharded_synopsis_shard_by_shard(
        self, stages, n_columns, with_sketches, fractions, aggregate
    ):
        if aggregate in SKETCH_KINDS and not with_sketches:
            return
        made = stages("sharded", n_columns, with_sketches)
        kinds = [type(shard).__name__ for shard in made["loaded"].shards]
        assert kinds == ["DynamicPASS", "PASSSynopsis", "DynamicPASS"]
        query = _query(aggregate, _predicate(n_columns, fractions))
        for built, loaded, attached in zip(
            made["built"].shards, made["loaded"].shards, made["attached shards"]
        ):
            want = built.query(query)
            assert_results_identical(loaded.query(query), want, "loaded shard ")
            assert_results_identical(attached.query(query), want, "attached shard ")


class TestALoadedDynamicSynopsisKeepsAcceptingUpdates:
    @pytest.mark.parametrize("n_columns", [1, 2, 3])
    def test_every_flat_update_invariant_holds_across_a_reload(
        self, n_columns, tmp_path
    ):
        table, dynamic = _small_dynamic(n_columns, 1)
        names = _columns(n_columns)
        live = [
            {name: float(table.column(name)[i]) for name in names + ["value"]}
            for i in range(table.n_rows)
        ]
        rng = np.random.default_rng(n_columns)

        def churn(target: DynamicPASS, steps: int) -> None:
            for step in range(steps):
                if step % 3 == 2:
                    target.delete(live.pop(int(rng.integers(len(live)))))
                else:
                    row = {name: float(rng.uniform(0.0, 100.0)) for name in names}
                    row["value"] = float(np.round(rng.normal(50.0, 15.0), 1))
                    target.insert(row)
                    live.append(row)
                _assert_arrays_match_replay(target, live)

        churn(dynamic, 12)
        loaded = load_synopsis(save_synopsis(dynamic, tmp_path / "resumed"))
        assert isinstance(loaded, DynamicPASS)
        assert loaded.config == dynamic.config
        assert loaded.predicate_columns == dynamic.predicate_columns
        _assert_arrays_match_replay(loaded, live)
        _assert_flat_matches_oracle(loaded, rng)
        churn(loaded, 24)
        _assert_flat_matches_oracle(loaded, rng)
        # The saved instance was not touched by the loaded one's updates.
        assert dynamic.updates_since_build == 12
        assert loaded.updates_since_build == 36


class TestZeroCopy:
    def test_a_loaded_static_synopsis_serves_off_the_mapping(self, stages, tmp_path):
        loaded = stages("static", 2, True)["loaded"]
        flat = loaded.flat
        _, arrays = flat.export_buffers()
        kernel = [
            flat._node_sum,
            flat._node_count,
            flat._parent,
            flat._is_leaf,
            flat._samples.offsets,
            *flat._samples.columns.values(),
            *flat._col_lows,
            *flat._col_highs,
        ]
        for array in kernel:
            assert not array.flags.writeable
            base = array
            while isinstance(base, np.ndarray) and base.base is not None:
                base = base.base
            assert isinstance(base, mmap.mmap)
        leaf = flat.leaf_for_point({"c0": 40.0, "c1": 60.0})
        for write in (
            lambda: flat.add_value(leaf, 1.0),
            lambda: flat.remove_value(leaf, 1.0),
            lambda: flat.replace_leaf_sample(leaf, flat.leaf_sample(leaf)),
        ):
            with pytest.raises(TypeError, match="read-only"):
                write()
        # A loaded static sharded synopsis is the same kind of view.
        static_sharded = build_sharded_pass(
            _table(2, 1), "value", "c0", n_shards=3, config=_config(2, True)
        )
        sharded = load_synopsis(save_synopsis(static_sharded, tmp_path / "sharded"))
        assert not sharded._node_sum.flags.writeable
        assert not sharded._shard_rows.flags.writeable

    def test_a_loaded_dynamic_synopsis_owns_writable_arrays(self, stages):
        loaded = stages("dynamic", 2, True)["loaded"]
        flat = loaded.synopsis.flat
        for array in (
            flat._node_sum,
            flat._node_count,
            flat._samples.offsets,
            *flat._samples.columns.values(),
            loaded._seen,
            loaded._capacity,
        ):
            assert array.flags.writeable and array.flags.owndata


class TestOneVocabulary:
    def test_file_segment_and_export_name_the_same_arrays(self, stages):
        made = stages("static", 2, True)
        header, arrays = made["built"].export_buffers()
        raw = made["path"].read_bytes()
        (length,) = struct.unpack_from("<Q", raw, 8)
        document = json.loads(raw[16 : 16 + length])
        in_file = {entry["key"] for entry in document["arrays"]}
        with SynopsisPublisher() as publisher:
            publisher.publish("vocabulary", made["built"])
            register = EpochRegister.attach(publisher.register_name)
            (entry,) = read_published(register)[1]
            _, attachment = attach_flat_synopsis(entry.segment)
            in_segment = set(attachment.arrays)
            in_segment_header = dict(attachment.header)
            attachment.close()
            register.close()
        assert in_file == in_segment == set(arrays)
        # The headers differ only in the two build facts a segment need not carry.
        assert {k: v for k, v in document["synopsis"].items()} == header
        assert in_segment_header == made["built"].flat.export_buffers()[0]
        assert not any(
            key.startswith(("tree/", "strata/", "samples/", "reservoir/"))
            for key in in_file
        )

    def test_a_dynamic_file_adds_exactly_its_counters(self, stages):
        static = stages("static", 1, False)["built"].export_buffers()
        dynamic = stages("dynamic", 1, False)["built"].export_buffers()
        assert set(dynamic[1]) - set(static[1]) == {"seen", "capacity"}
        assert set(dynamic[0]) - set(static[0]) == {
            "kind",
            "predicate_columns",
            "extra_sample_columns",
            "config",
            "reservoir_capacity",
            "updates_since_build",
            "build_population",
            "minmax_possibly_stale",
            "sketch_stale_deletes",
            "extrema_stale_deletes",
        }

    def test_a_sharded_file_is_one_stitched_tree(self, stages):
        static = stages("static", 1, False)["built"].export_buffers()
        header, arrays = stages("sharded", 1, False)["built"].export_buffers()
        assert header["kind"] == "sharded" and header["dynamic"]
        assert header["shard_dynamic"] == [True, False, True]
        assert set(arrays) == set(static[1]) | {"shard_rows", "seen", "capacity"}
        assert arrays["shard_rows"].shape == (3, 2)
        assert header["sharding"]["strategy"] == "range"
        assert header["sharding"]["shard_column"] == "c0"
        assert not any(key.startswith("shard0/") for key in arrays)
