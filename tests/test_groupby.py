"""The group-by query model and the single-synopsis grouped executor.

Covers the compilation semantics (bin edges, distinct values, cross
products, base-predicate intersection), the grouped result container, and
the core invariants of :func:`repro.core.batching.grouped_query`: answers
identical to sequential per-query execution, one shared mask pass per group
cell, and frontier-statistics pruning of provably empty cells.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from repro.aggregation.partition import PartitionStats
from repro.core.batching import grouped_query
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.data.table import Table
from repro.query.groupby import (
    AggregateSpec,
    GroupByQuery,
    GroupingColumn,
    empty_group_result,
    execute_plan,
)
from repro.query.predicate import Box, Interval, RectPredicate
from repro.query.query import ExactEngine
from repro.result import LAMBDA_99
from repro.sampling.stratified import Stratum

import oracle

ALL_AGGS = ("SUM", "COUNT", "AVG", "MIN", "MAX")


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(5)
    n = 8000
    return Table(
        {
            "key": rng.uniform(0.0, 100.0, size=n),
            "cat": rng.integers(0, 4, size=n).astype(float),
            "value": np.abs(rng.normal(20.0, 6.0, size=n)),
        },
        name="groupby_test",
    )


@pytest.fixture(scope="module")
def synopsis(table) -> PASSSynopsis:
    return build_pass(
        table,
        "value",
        ["key", "cat"],
        PASSConfig(
            n_partitions=32,
            sample_rate=0.1,
            partitioner="kd",
            opt_sample_size=400,
            seed=3,
        ),
    )


# ----------------------------------------------------------------------
# Grouping columns and compilation
# ----------------------------------------------------------------------
def test_bins_resolve_to_disjoint_covering_intervals():
    cells = GroupingColumn.bins("key", [0.0, 10.0, 20.0]).resolve()
    assert [label for label, _ in cells] == [(0.0, 10.0), (10.0, 20.0)]
    first, second = (interval for _, interval in cells)
    assert first.low == 0.0 and second.high == 20.0
    # Left-closed cells: the shared edge belongs to the right cell only.
    assert not first.contains_value(10.0)
    assert second.contains_value(10.0)
    assert first.high == float(np.nextafter(10.0, -math.inf))


def test_bins_validate_edges():
    with pytest.raises(ValueError, match="at least 2"):
        GroupingColumn.bins("key", [1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        GroupingColumn.bins("key", [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="not both"):
        GroupingColumn("key", edges=(0.0, 1.0), values=(2.0,))


def test_distinct_resolution_from_table(table):
    cells = GroupingColumn.distinct("cat").resolve(table)
    assert [label for label, _ in cells] == [0.0, 1.0, 2.0, 3.0]
    assert all(interval.low == interval.high for _, interval in cells)


def test_distinct_discovery_requires_a_source():
    grouping = GroupingColumn.distinct("cat")
    with pytest.raises(ValueError, match="distinct-value discovery"):
        grouping.resolve(None)


def test_distinct_discovery_rejects_huge_cardinality():
    wide = Table({"cat": np.arange(2000, dtype=float)}, name="wide")
    with pytest.raises(ValueError, match="distinct values"):
        GroupingColumn.distinct("cat").resolve(wide)


def test_compile_cross_product_and_cell_order(table):
    plan = GroupByQuery(
        groupings=(
            GroupingColumn.bins("key", [0.0, 50.0, 100.0]),
            GroupingColumn.distinct("cat"),
        ),
        aggregates=(AggregateSpec("SUM", "value"),),
    ).compile(table)
    assert plan.n_cells == 2 * 4
    # First grouping is the slow axis of the cross product.
    assert plan.cells[0].labels == ((0.0, 50.0), 0.0)
    assert plan.cells[3].labels == ((0.0, 50.0), 3.0)
    assert plan.cells[4].labels == ((50.0, 100.0), 0.0)
    assert plan.n_queries == len(plan.queries()) == 8


def test_compile_intersects_base_predicate(table):
    plan = GroupByQuery(
        groupings=(GroupingColumn.bins("key", [0.0, 50.0, 100.0]),),
        aggregates=(AggregateSpec("COUNT", "value"),),
        predicate=RectPredicate.from_bounds(key=(60.0, 90.0), cat=(1.0, 2.0)),
    ).compile(table)
    # The [0, 50) cell is disjoint from key in [60, 90]: provably empty.
    assert plan.cells[0].predicate is None
    live = plan.live_cells()
    assert [index for index, _ in live] == [1]
    predicate = live[0][1].predicate
    assert predicate.interval("key") == Interval(60.0, 90.0)
    assert predicate.interval("cat") == Interval(1.0, 2.0)


def test_groupby_query_validation():
    agg = AggregateSpec("SUM", "value")
    with pytest.raises(ValueError, match="grouping column"):
        GroupByQuery(groupings=(), aggregates=(agg,))
    with pytest.raises(ValueError, match="aggregate"):
        GroupByQuery(groupings=(GroupingColumn.bins("k", [0, 1]),), aggregates=())
    with pytest.raises(ValueError, match="repeat"):
        GroupByQuery(
            groupings=(
                GroupingColumn.bins("k", [0, 1]),
                GroupingColumn.distinct("k"),
            ),
            aggregates=(agg,),
        )
    with pytest.raises(ValueError, match="repeat"):
        GroupByQuery(
            groupings=(GroupingColumn.bins("k", [0, 1]),), aggregates=(agg, agg)
        )


def test_aggregate_specs_accept_pairs():
    query = GroupByQuery(
        groupings=(GroupingColumn.bins("k", [0, 1]),),
        aggregates=(("sum", "value"), ("count", "value")),
    )
    assert [spec.name for spec in query.aggregates] == ["SUM(value)", "COUNT(value)"]
    assert query.value_columns == ("value",)


# ----------------------------------------------------------------------
# Grouped execution on one synopsis
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def groupby() -> GroupByQuery:
    return GroupByQuery(
        groupings=(
            GroupingColumn.bins("key", [0.0, 25.0, 50.0, 75.0, 100.0]),
            GroupingColumn.distinct("cat", values=(0.0, 1.0, 2.0, 3.0)),
        ),
        aggregates=tuple(AggregateSpec(agg, "value") for agg in ALL_AGGS),
    )


def test_grouped_query_matches_sequential(synopsis, groupby):
    plan = groupby.compile()
    grouped = grouped_query(synopsis, plan)
    position = 0
    flat = plan.queries()
    for index, _ in plan.live_cells():
        for result in grouped.cells[index]:
            sequential = synopsis.query(flat[position])
            position += 1
            # One answer_shared pass over every cell: the bits of the
            # per-query kernel.
            for attr in (
                "estimate",
                "ci_half_width",
                "variance",
                "hard_lower",
                "hard_upper",
            ):
                got, want = getattr(result, attr), getattr(sequential, attr)
                assert struct.pack("<d", got) == struct.pack("<d", want), attr
            assert result.exact == sequential.exact
            assert result.tuples_processed == sequential.tuples_processed
            assert result.tuples_skipped == sequential.tuples_skipped
    assert position == len(flat)


def test_grouped_estimates_track_exact_groups(table, synopsis, groupby):
    plan = groupby.compile()
    grouped = grouped_query(synopsis, plan)
    exact = ExactEngine(table)
    counts = grouped.estimates()[:, list(ALL_AGGS).index("COUNT")]
    truth = np.array(
        [
            exact.execute(plan.cell_query(cell, AggregateSpec("COUNT", "value")))
            for cell in plan.cells
        ]
    )
    # COUNT estimates are unbiased; at 10% sampling the per-cell error of
    # ~500-tuple groups stays well under 50%.
    assert np.all(np.abs(counts - truth) <= np.maximum(0.5 * truth, 60.0))
    assert float(truth.sum()) == table.n_rows


def test_grouped_result_accessors(synopsis, groupby):
    grouped = grouped_query(synopsis, groupby.compile())
    assert len(grouped) == 16
    assert grouped.group_columns == ("key", "cat")
    assert grouped.aggregate_index("AVG(value)") == 2
    row = grouped.cell(((0.0, 25.0), 1.0))
    assert len(row) == len(ALL_AGGS)
    records = grouped.to_records()
    assert records[0]["key"] == (0.0, 25.0)
    assert set(records[0]) == {"key", "cat"} | {f"{a}(value)" for a in ALL_AGGS}
    with pytest.raises(KeyError):
        grouped.cell(((0.0, 25.0), 9.0))
    with pytest.raises(KeyError):
        grouped.aggregate_index("MEDIAN(value)")


def _hand_synopsis_with_empty_leaf() -> PASSSynopsis:
    """A synopsis whose middle partition is empty (bounded leaf boxes)."""
    boxes = [
        Box({"key": Interval(0.0, 10.0)}),
        Box({"key": Interval(float(np.nextafter(10.0, math.inf)), 20.0)}),
        Box({"key": Interval(float(np.nextafter(20.0, math.inf)), 30.0)}),
    ]
    stats = [
        PartitionStats(sum=10.0, count=4, min=1.0, max=4.0),
        PartitionStats.empty(),
        PartitionStats(sum=40.0, count=4, min=7.0, max=13.0),
    ]
    strata = [
        Stratum(
            box=boxes[0],
            size=4,
            sample_columns={
                "key": np.array([1.0, 4.0, 6.0, 9.0]),
                "value": np.array([1.0, 2.0, 3.0, 4.0]),
            },
        ),
        Stratum(
            box=boxes[1],
            size=0,
            sample_columns={"key": np.zeros(0), "value": np.zeros(0)},
        ),
        Stratum(
            box=boxes[2],
            size=4,
            sample_columns={
                "key": np.array([21.0, 24.0, 26.0, 29.0]),
                "value": np.array([7.0, 9.0, 11.0, 13.0]),
            },
        ),
    ]
    return oracle.SynopsisObjects(
        tree=oracle.PartitionTree.build_from_leaves(boxes, stats),
        leaf_samples=strata,
        leaf_sketches=None,
        value_column="value",
        lam=LAMBDA_99,
        zero_variance_rule=True,
        with_fpc=False,
    ).synopsis()


def test_grouped_query_prunes_provably_empty_cells():
    synopsis = _hand_synopsis_with_empty_leaf()
    # The middle cell [10.5, 19.5) lies strictly inside the empty partition
    # (10, 20]; its frontier statistics prove it cannot match any tuple.
    plan = GroupByQuery(
        groupings=(GroupingColumn.bins("key", [0.0, 10.5, 19.5, 30.0]),),
        aggregates=(AggregateSpec("COUNT", "value"), AggregateSpec("AVG", "value")),
    ).compile()
    flat = synopsis.flat
    (frontier,) = flat.frontiers_for([plan.cells[1].predicate])
    assert flat.frontier_count(frontier) == 0
    grouped = grouped_query(synopsis, plan)
    count, avg = grouped.cells[1]
    assert count.exact and count.estimate == 0.0
    assert avg.exact and math.isnan(avg.estimate)
    assert count.tuples_processed == 0
    assert count.tuples_skipped == synopsis.population_size
    # Non-empty neighbours still answer normally.
    assert grouped.cells[0][0].estimate > 0.0
    assert grouped.cells[2][0].estimate > 0.0


def test_empty_group_result_semantics():
    assert empty_group_result("SUM").estimate == 0.0
    assert empty_group_result("COUNT").estimate == 0.0
    for agg in ("AVG", "MIN", "MAX"):
        assert math.isnan(empty_group_result(agg).estimate)
    result = empty_group_result("SUM", population=123)
    assert result.exact and result.tuples_skipped == 123


def test_execute_plan_rejects_misaligned_executor():
    plan = GroupByQuery(
        groupings=(GroupingColumn.bins("key", [0.0, 1.0]),),
        aggregates=(AggregateSpec("SUM", "value"),),
    ).compile()
    with pytest.raises(ValueError, match="batch executor returned"):
        execute_plan(plan, lambda queries: [])
