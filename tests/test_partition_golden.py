"""Golden builds: the 1-D partitioners' output pinned to recorded digests.

Each digest below was recorded on the commit *before* the ADP partitioner
solved its DP levels in lockstep (one scalar binary search per split, one
scalar oracle call per candidate) and has not been edited since.  A match
means the batched partitioner picks bit-identical break ranks and
objectives, and that everything built on them — the leaf boxes, statistics,
samples and sketches — is bit-identical as well.

The synopsis cases are the 1-D perfbench synopses (the 200k-row ``intel``
surrogate with 64 leaves, and ``groupby_sketch``'s single synopsis) plus an
AVG-template build; the digest covers every array of ``export_buffers()``
(the header only adds ``build_seconds``, a wall-clock reading, and the
configuration).  The partition cases pin ``approximate_dp_partition``,
``hill_climbing_partition`` and ``naive_dp_partition`` directly: their break
ranks, cut values and the objective's exact bits.

The k-d cases (``KD_GOLDEN``) were recorded on the commit *before* the
builder emitted the node arrays directly (when it still scanned the table
with one box mask per leaf and flattened an object tree): ``kernel_2d``'s
build, a ``taxi_multidim``-style build (2-column k-d boxes handed to a
5-predicate-column BSS build with proportional allocation) and a 3-D
fanout-8 build with an extra sample column and sketches.

The k-d partition cases (``KD_PARTITION_GOLDEN``) were recorded on the
commit *before* the k-d greedy ran on per-depth priority queues and the leaf
distinct-count sketches came from one hash pass over the leaf-ordered values
(when every k-d expansion rescanned every leaf); the partition digest covers
the k-d leaf boxes' bounds in list order, the leaf depths and the
objective's bits.  The sharded cases (``SHARDED_GOLDEN``) were re-recorded
on the commit that stitched the shards into one tree, whose export is a new
layout: one root over the shards' subtrees, bounds clipped to the key
boxes.  What did not move there — every shard's statistics, samples,
sketches and reservoirs, byte for byte as its own build — is pinned by
``test_sharded_synopsis.TestAShardIsASubtree``; the sharded digest covers
every array of ``ShardedSynopsis.export_buffers()`` and its header without
the ``build_seconds`` / ``shard_build_seconds`` readings.
The COUNT template scores a leaf by its sample count, so equal scores are
the rule there and the first-in-list-order tie break decides; its small
integer grid also leaves some leaves unsplittable and the depth spread
past its limit.  In the NaN case every leaf holding a NaN sample value
scores 0 (the variance term clamps its NaN to zero), another source of
ties.  The two skewed cases make the depth-spread rule bind: one over
continuous columns, one with ``max_depth_spread=1`` where unsplittable
grid leaves leave no leaf eligible and the fall-back picks among all.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.generators import uniform_random
from repro.data.loaders import load_dataset
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.partitioning.dp import approximate_dp_partition, naive_dp_partition
from repro.partitioning.hill_climbing import hill_climbing_partition
from repro.partitioning.kdtree import kd_partition

N_ROWS = 200_000

#: case -> SHA-256 over every ``export_buffers()`` array (see the docstring).
SYNOPSIS_GOLDEN = {
    "intel_64": "1e0b1edea3888ccdab6f589341630b405e79e0ce95ca292aba476c321f5d3d55",
    "groupby_64": "0888c91a077b3829bc471014615383395b862d7639f89e7421e3aac0c2a058ed",
    "intel_avg_32": "01ec9e1997868f9e1a1f0a85786ede242b2ed208d8ccdb2bf1442d5eabcb09e8",
}

#: case -> SHA-256 over every ``export_buffers()`` array of a k-d build.
KD_GOLDEN = {
    "kernel_2d": "073e6e956558e5596152992ebc2574ec9c3b4d04bf54258c0e68abd092a10adc",
    "taxi_bss": "f47a28312cbfd0b77962b337d66f16fab93094024910927f4357b04ff00ebf52",
    "kd_3d_fanout8": "e3424bcbb692f181b63e8c24b3f8a1aefdbcb02a13bfc4bb94fcff2bbae3061e",
}

#: case -> SHA-256 over a 4-shard build's ``export_buffers()`` (see above).
SHARDED_GOLDEN = {
    "hash_dynamic": "919f6154f1bc244ef252a2d43ca88037a1f205d45ea50f32c37c2b740a3d05ed",
    "hash_static": "10fcc9aef0013eb5c2606644daa5406bcdade8b5ed1c60e97cfaa5fa80dc5c45",
    "range_dynamic": "13bf65413c1e3ef0e0ca122dd0ecc0c3a86e1ffd8e203c004dd9238e3d699ace",
    "range_static": "b9059f551d34ecee778fce55ec8c4be852f0cee8e499a26ec881d89aecf1be2f",
}

#: case -> SHA-256 over a ``kd_partition`` result's boxes, depths, objective.
KD_PARTITION_GOLDEN = {
    "count_grid": "f7198648e2b30503283eaf049c2fce6f4da40882e255c04c2d6376ea4bdc0039",
    "grid_spread_1": "7c6cefcfe64744410347c3d2162256c07e0ac7e4a028b975b30ba6fd670fc348",
    "kd_us_3d": "a369f804c8e3462ec277a960d1e42354f1b575a12b4efb4fc56bdbf45672f3bb",
    "nan_values": "420296b494d0dfb078688cd8076a2da8481afc896ea2edd46c83f834408dd312",
    "skewed_spread": "d0622aa87d5638db0fd337c99b110044114896fd82061c6ab94be3584243c3d3",
}

#: case -> SHA-256 over break ranks, boundaries and the objective's bits.
PARTITION_GOLDEN = {
    "adp_sum_64": "44e53eb7b1123633afcceacceadedb440615e42aa53b5e1497c7c6ea570b3ed9",
    "adp_avg_16": "a40bf311f2676ac943862007dc67fd220f947678da8427ada2db569c887eb46c",
    "hill_16": "1d73f843b1024ddd5eb99cd2ebdf92084bce344a3891fc44c2ad90f966efccb6",
    "naive_4": "193b1d355f386da2efe3b4f77249b451f9a8e5c179292cf7d0521434a451529b",
}


@pytest.fixture(scope="module")
def intel():
    return load_dataset("intel", N_ROWS)


def _groupby_table() -> Table:
    rng = np.random.default_rng(0)
    key = rng.uniform(0.0, 1000.0, size=N_ROWS)
    value = np.abs(rng.normal(50.0, 15.0, size=N_ROWS) + 0.05 * key)
    return Table({"key": key, "value": value}, name="bench_groupby")


def _arrays_digest(synopsis) -> str:
    _, arrays = synopsis.export_buffers()
    digest = hashlib.sha256()
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(f"{key}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _partition_digest(result) -> str:
    text = "|".join(
        [
            ",".join(str(rank) for rank in result.break_ranks),
            ",".join(float(cut).hex() for cut in result.boundaries),
            float(result.objective).hex(),
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _build(case: str, intel):
    if case == "groupby_64":
        return build_pass(
            _groupby_table(), "value", ["key"], PASSConfig(n_partitions=64)
        )
    column = intel.default_predicate_column
    if case == "intel_64":
        config = PASSConfig(n_partitions=64, sample_rate=0.005)
    else:
        config = PASSConfig(n_partitions=32, sample_rate=0.005, agg_template="AVG")
    return build_pass(intel.table, intel.value_column, [column], config)


def _kd_build(case: str):
    if case == "kernel_2d":
        config = PASSConfig(
            n_partitions=1024, sample_rate=0.02, partitioner="kd", seed=3
        )
        table = uniform_random(n_rows=N_ROWS, n_predicate_columns=2, seed=7)
        return build_pass(table, "value", ["c0", "c1"], config)
    if case == "taxi_bss":
        nyc = load_dataset("nyc", n_rows=50_000)
        columns = list(nyc.predicate_columns)
        boxes = kd_partition(
            nyc.table, nyc.value_column, columns[:2], 128, policy="max_variance", rng=0
        ).boxes
        config = PASSConfig(
            n_partitions=128,
            sample_rate=0.005,
            mode="bss",
            allocation="proportional",
            seed=0,
        )
        return build_pass(
            nyc.table, nyc.value_column, columns, config, leaf_boxes=boxes
        )
    table = uniform_random(n_rows=30_000, n_predicate_columns=3, seed=11)
    tag = np.random.default_rng(5).integers(0, 40, size=table.n_rows)
    table = Table({**table.columns(["c0", "c1", "c2", "value"]), "tag": tag})
    config = PASSConfig(
        n_partitions=100, sample_rate=0.02, partitioner="kd", fanout=8, seed=6
    )
    return build_pass(
        table, "value", ["c0", "c1", "c2"], config, extra_sample_columns=["tag"]
    )


def _without_build_seconds(header):
    if isinstance(header, dict):
        return {
            key: _without_build_seconds(value)
            for key, value in header.items()
            if key not in ("build_seconds", "shard_build_seconds")
        }
    if isinstance(header, list):
        return [_without_build_seconds(value) for value in header]
    return header


def _sharded_digest(sharded) -> str:
    header, arrays = sharded.export_buffers()
    digest = hashlib.sha256()
    digest.update(
        json.dumps(_without_build_seconds(header), sort_keys=True).encode()
    )
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(f"{key}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _kd_partition_digest(result) -> str:
    parts = [",".join(result.columns)]
    for box, depth in zip(result.boxes, result.leaf_depths):
        intervals = [(column, box.interval(column)) for column in result.columns]
        bounds = ",".join(
            f"{column}:{interval.low.hex()}:{interval.high.hex()}"
            for column, interval in intervals
        )
        parts.append(f"{depth}|{bounds}")
    parts.append(float(result.objective).hex())
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _sharded_build(case: str):
    strategy, kind = case.split("_")
    return build_sharded_pass(
        _groupby_table(),
        "value",
        "key",
        n_shards=4,
        strategy=strategy,
        config=PASSConfig(n_partitions=16),
        dynamic=kind == "dynamic",
    )


def _kd_partition(case: str):
    if case == "kd_us_3d":
        table = uniform_random(n_rows=40_000, n_predicate_columns=3, seed=13)
        return kd_partition(
            table, "value", ["c0", "c1", "c2"], 300, policy="breadth_first", rng=8
        )
    rng = np.random.default_rng(21)
    n = 20_000
    columns = {
        "c0": rng.integers(0, 8, size=n).astype(float),
        "c1": rng.integers(0, 40, size=n).astype(float),
        "value": rng.uniform(0.0, 100.0, size=n),
    }
    if case == "count_grid":
        return kd_partition(
            Table(columns), "value", ["c0", "c1"], 400, agg="COUNT",
            opt_sample_size=2_000, rng=4,
        )
    if case == "nan_values":
        columns["c1"] = rng.uniform(0.0, 1.0, size=n)
        columns["value"][rng.random(n) < 0.002] = np.nan
        return kd_partition(Table(columns), "value", ["c0", "c1"], 64, rng=6)
    # A heavy corner pulls the greedy deep, so the depth-spread rule binds.
    rng = np.random.default_rng(31)
    c0, c1 = rng.uniform(0.0, 1.0, size=n), rng.uniform(0.0, 1.0, size=n)
    if case == "skewed_spread":
        value = rng.lognormal(0.0, 1.0, size=n)
        value[(c0 < 0.1) & (c1 < 0.1)] *= 1000
        table = Table({"c0": c0, "c1": c1, "value": value})
        return kd_partition(table, "value", ["c0", "c1"], 200, rng=9)
    # Half the rows on a 3 x 3 grid: leaves holding only grid points cannot
    # split, pin the shallowest depth, and leave the spread rule no
    # eligible leaf (the fall-back to every splittable leaf).
    grid = rng.random(n) < 0.5
    c0[grid] = rng.integers(0, 3, grid.sum()) / 3.0
    c1[grid] = rng.integers(0, 3, grid.sum()) / 3.0
    value = rng.lognormal(0.0, 2.0, size=n)
    value[(c0 < 0.2) & (c1 < 0.2)] *= 50
    table = Table({"c0": c0, "c1": c1, "value": value})
    return kd_partition(
        table, "value", ["c0", "c1"], 200, max_depth_spread=1, rng=9
    )


def _partition(case: str, intel):
    table, value = intel.table, intel.value_column
    column = intel.default_predicate_column
    if case == "adp_sum_64":
        return approximate_dp_partition(table, value, column, 64, opt_sample_size=1000)
    if case == "adp_avg_16":
        return approximate_dp_partition(
            table, value, column, 16, agg="AVG", delta=0.02, opt_sample_size=600, rng=4
        )
    if case == "hill_16":
        return hill_climbing_partition(table, value, column, 16, rng=2)
    rng = np.random.default_rng(3)
    value = np.abs(rng.normal(20, 10, size=40))
    small = Table({"key": np.arange(40.0), "value": value})
    return naive_dp_partition(small, "value", "key", 4, agg="SUM")


@pytest.mark.parametrize("case", sorted(SYNOPSIS_GOLDEN))
def test_synopsis_arrays_match_the_recorded_digest(case, intel):
    assert _arrays_digest(_build(case, intel)) == SYNOPSIS_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(PARTITION_GOLDEN))
def test_partition_matches_the_recorded_digest(case, intel):
    assert _partition_digest(_partition(case, intel)) == PARTITION_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(KD_GOLDEN))
def test_kd_synopsis_arrays_match_the_recorded_digest(case):
    assert _arrays_digest(_kd_build(case)) == KD_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SHARDED_GOLDEN))
def test_sharded_build_matches_the_recorded_digest(case):
    assert _sharded_digest(_sharded_build(case)) == SHARDED_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(KD_PARTITION_GOLDEN))
def test_kd_partition_matches_the_recorded_digest(case):
    assert _kd_partition_digest(_kd_partition(case)) == KD_PARTITION_GOLDEN[case]
