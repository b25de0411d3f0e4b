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
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.loaders import load_dataset
from repro.data.table import Table
from repro.partitioning.dp import approximate_dp_partition, naive_dp_partition
from repro.partitioning.hill_climbing import hill_climbing_partition

N_ROWS = 200_000

#: case -> SHA-256 over every ``export_buffers()`` array (see the docstring).
SYNOPSIS_GOLDEN = {
    "intel_64": "1e0b1edea3888ccdab6f589341630b405e79e0ce95ca292aba476c321f5d3d55",
    "groupby_64": "0888c91a077b3829bc471014615383395b862d7639f89e7421e3aac0c2a058ed",
    "intel_avg_32": "01ec9e1997868f9e1a1f0a85786ede242b2ed208d8ccdb2bf1442d5eabcb09e8",
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
