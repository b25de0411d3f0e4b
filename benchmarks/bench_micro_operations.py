"""Micro-benchmarks of the core operations (not tied to a paper figure).

These measure the hot paths downstream users care about when sizing a
deployment: per-query latency of each synopsis, MCF lookups, a batch's shared
moment pass, a grouped plan, a one-query batch, ADP optimization time, and
dynamic-update throughput.
pytest-benchmark's statistics (mean / stddev / ops) are meaningful here, so
the operations run for many rounds unlike the experiment reproductions.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.batching import batch_query, grouped_query
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.generators import uniform_random
from repro.data.loaders import load_dataset
from repro.data.loaders import DatasetSpec
from repro.partitioning.dp import approximate_dp_partition
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
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


def test_batch_query_shared_moments(benchmark, intel_spec, pass_synopsis):
    """A 64-cell x SUM / COUNT / AVG batch: one moment pass for the batch."""
    edges = np.quantile(intel_spec.table.column("time"), np.linspace(0.2, 0.8, 65))
    batch = [
        AggregateQuery(
            agg,
            intel_spec.value_column,
            RectPredicate.from_bounds(time=(float(low), float(high))),
        )
        for low, high in zip(edges[:-1], edges[1:])
        for agg in ("SUM", "COUNT", "AVG")
    ]
    benchmark(batch_query, pass_synopsis, batch)


def test_grouped_query_classic_plan(benchmark, intel_spec, pass_synopsis):
    """A 64-cell SUM / COUNT / AVG plan: one ``answer_shared`` assembly."""
    edges = np.quantile(intel_spec.table.column("time"), np.linspace(0.2, 0.8, 65))
    plan = GroupByQuery(
        groupings=(GroupingColumn.bins("time", [float(edge) for edge in edges]),),
        aggregates=tuple(
            AggregateSpec(agg, intel_spec.value_column)
            for agg in ("SUM", "COUNT", "AVG")
        ),
    ).compile()
    benchmark(grouped_query, pass_synopsis, plan)


def test_one_query_batch(benchmark, pass_synopsis, sum_query):
    """``batch_query`` of one query: the serving pool's one-request chunk."""
    benchmark(batch_query, pass_synopsis, [sum_query])


@pytest.fixture(scope="module")
def kd_synopsis():
    """A 2-D k-d synopsis over uniform data: the MIN / MAX kernel's input."""
    table = uniform_random(n_rows=N_ROWS, n_predicate_columns=2, seed=7)
    return build_pass(
        table,
        "value",
        ["c0", "c1"],
        PASSConfig(n_partitions=256, sample_rate=0.02, partitioner="kd", seed=3),
    )


def _extrema_queries(predicate: RectPredicate) -> list[AggregateQuery]:
    return [AggregateQuery(agg, "value", predicate) for agg in ("MIN", "MAX")]


def _kept_partial_leaves(synopsis, query: AggregateQuery) -> int:
    """Partial leaves whose sample extremum can still beat the covered one
    (the pruning rule of ``FlatSynopsis._extremum_answer``)."""
    frontier = synopsis.frontier(query.predicate)
    leaves = synopsis._leaf_of_row[frontier.partial]
    lows, highs = synopsis._leaf_sample_extrema()
    if query.agg.name == "MAX":
        best = synopsis._node_max[frontier.covered].max()
        return int((highs[leaves] >= best).sum())
    best = synopsis._node_min[frontier.covered].min()
    return int((lows[leaves] <= best).sum())


def test_extrema_wide_box_prunes_partial_leaves(benchmark, kd_synopsis):
    """MIN / MAX over a wide box: covered extrema beat ~every partial leaf."""
    queries = _extrema_queries(RectPredicate.from_bounds(c0=(0.1, 0.9), c1=(0.1, 0.9)))
    for query in queries:
        frontier = kd_synopsis.frontier(query.predicate)
        assert frontier.covered.shape[0] and frontier.partial.shape[0] > 10
        assert _kept_partial_leaves(kd_synopsis, query) <= 3
    benchmark(lambda: [kd_synopsis.query(query) for query in queries])


def test_extrema_narrow_box_gathers_every_partial_leaf(benchmark, kd_synopsis):
    """MIN / MAX over a strip thinner than a leaf: no covered node prunes,
    and the frontier-wide gather branch runs."""
    queries = _extrema_queries(
        RectPredicate.from_bounds(c0=(0.2, 0.8), c1=(0.5, 0.5001))
    )
    for query in queries:
        frontier = kd_synopsis.frontier(query.predicate)
        assert not frontier.covered.shape[0] and frontier.partial.shape[0] > 3
    benchmark(lambda: [kd_synopsis.query(query) for query in queries])


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
