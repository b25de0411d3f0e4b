"""Micro-benchmarks of the core operations (not tied to a paper figure).

These measure the hot paths downstream users care about when sizing a
deployment: per-query latency of each synopsis, MCF lookups, ADP optimization
time, and dynamic-update throughput.  pytest-benchmark's statistics
(mean / stddev / ops) are meaningful here, so the operations run for many
rounds unlike the experiment reproductions.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.loaders import load_dataset
from repro.data.loaders import DatasetSpec
from repro.partitioning.dp import approximate_dp_partition
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.sampling.stratified import StratifiedSampleSynopsis, equal_depth_boxes
from repro.sampling.uniform import UniformSampleSynopsis

N_ROWS = 60_000


@pytest.fixture(scope="module")
def intel_spec() -> DatasetSpec:
    spec = load_dataset("intel", N_ROWS)
    return DatasetSpec(
        table=spec.table, value_column=spec.value_column, predicate_columns=("time",)
    )


@pytest.fixture(scope="module")
def sum_query(intel_spec) -> AggregateQuery:
    low, high = np.quantile(intel_spec.table.column("time"), [0.2, 0.6])
    return AggregateQuery.sum(
        intel_spec.value_column,
        RectPredicate.from_bounds(time=(float(low), float(high))),
    )


@pytest.fixture(scope="module")
def pass_synopsis(intel_spec):
    return build_pass(
        intel_spec.table,
        intel_spec.value_column,
        intel_spec.predicate_columns,
        PASSConfig(n_partitions=64, sample_rate=0.005, opt_sample_size=1000, seed=0),
    )


def test_pass_query_latency(benchmark, pass_synopsis, sum_query):
    benchmark(pass_synopsis.query, sum_query)


def test_uniform_query_latency(benchmark, intel_spec, sum_query):
    synopsis = UniformSampleSynopsis(
        intel_spec.table,
        intel_spec.value_column,
        intel_spec.predicate_columns,
        sample_rate=0.005,
        rng=0,
    )
    benchmark(synopsis.query, sum_query)


def test_stratified_query_latency(benchmark, intel_spec, sum_query):
    synopsis = StratifiedSampleSynopsis(
        intel_spec.table,
        intel_spec.value_column,
        intel_spec.predicate_columns,
        equal_depth_boxes(intel_spec.table, "time", 64),
        sample_rate=0.005,
        rng=0,
    )
    benchmark(synopsis.query, sum_query)


def test_mcf_lookup_latency(benchmark, pass_synopsis, sum_query):
    benchmark(pass_synopsis.frontier, sum_query.predicate)


def test_adp_partitioning_time(benchmark, intel_spec):
    benchmark.pedantic(
        lambda: approximate_dp_partition(
            intel_spec.table,
            intel_spec.value_column,
            "time",
            64,
            opt_sample_size=1000,
            rng=0,
        ),
        rounds=3,
        iterations=1,
    )


def test_pass_build_time(benchmark, intel_spec):
    benchmark.pedantic(
        lambda: build_pass(
            intel_spec.table,
            intel_spec.value_column,
            intel_spec.predicate_columns,
            PASSConfig(
                n_partitions=64, sample_rate=0.005, opt_sample_size=1000, seed=0
            ),
        ),
        rounds=3,
        iterations=1,
    )


def _dynamic_intel(intel_spec) -> DynamicPASS:
    return DynamicPASS(
        intel_spec.table,
        intel_spec.value_column,
        intel_spec.predicate_columns,
        config=PASSConfig(
            n_partitions=32, sample_rate=0.005, partitioner="equal", seed=0
        ),
        rng=0,
    )


def test_dynamic_insert_throughput(benchmark, intel_spec):
    dynamic = _dynamic_intel(intel_spec)
    rng = np.random.default_rng(3)

    def insert_one():
        dynamic.insert({"time": float(rng.uniform(0, 3)), "light": 123.0})

    benchmark(insert_one)


def test_dynamic_delete_throughput(benchmark, intel_spec):
    """Deletes of sampled rows: each drops a row from its leaf's slots in place."""
    dynamic = _dynamic_intel(intel_spec)
    sampled = np.flatnonzero(dynamic.sample_counts)
    rng = np.random.default_rng(3)
    deleted: list[dict[str, float]] = []

    def pick_sampled_row():
        # Untimed: restore the previous round's row, then pick the next one.
        if deleted:
            dynamic.insert(deleted.pop())
        sample = dynamic.leaf_sample(int(rng.choice(sampled)))
        position = int(rng.integers(next(iter(sample.values())).shape[0]))
        row = {column: float(values[position]) for column, values in sample.items()}
        deleted.append(row)
        return (row,), {}

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StaleExtremaWarning)
        benchmark.pedantic(
            dynamic.delete, setup=pick_sampled_row, rounds=2000, iterations=1
        )
