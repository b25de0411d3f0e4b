"""The array build equals the object build, and it checks the leaf boxes.

``build_pass`` assigns every row to its leaf in one pass over the table and
emits the node arrays, the CSR samples and the packed sketches directly.
``tests/oracle.py`` keeps the object build it replaced (one ``Box.mask`` scan
per leaf, a ``PartitionTree`` of ``PartitionNode`` objects, one ``Stratum``
per leaf, laid out by the object ``flatten``).  Every comparison here is on
the bytes of ``export_buffers()``, never within a tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from repro.aggregation.partition import PartitionStats
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.table import Table
from repro.partitioning.boundaries import boxes_from_boundaries
from repro.partitioning.kdtree import kd_partition
from repro.query.aggregates import AggregateType
from repro.query.predicate import Box, Interval, RectPredicate
from repro.query.query import AggregateQuery

SETTINGS = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], derandomize=True
)
#: (mode, allocation) pairs: ESS, and BSS with either allocation.
SAMPLING = (("ess", "equal"), ("bss", "equal"), ("bss", "proportional"))
SPECIAL_VALUES = (-0.0, 0.0, math.nan, math.inf, -math.inf)


def _table(seed: int, n_rows: int, n_columns: int, duplicates: bool, specials: bool):
    rng = np.random.default_rng(seed)
    columns = {
        f"c{i}": (
            rng.integers(0, 8, size=n_rows).astype(float)
            if duplicates
            else rng.uniform(0.0, 100.0, size=n_rows)
        )
        for i in range(n_columns)
    }
    value = rng.normal(10.0, 5.0, size=n_rows)
    if specials:
        picks = rng.random(n_rows) < 0.2
        value[picks] = rng.choice(SPECIAL_VALUES, size=int(picks.sum()))
    columns["value"] = value
    columns["extra"] = rng.integers(0, 5, size=n_rows)
    return Table(columns, name="array_build")


def _stats(arrays, row: int) -> PartitionStats:
    return PartitionStats(
        *(arrays[f"node_{name}"][row].item() for name in ("sum", "count", "min", "max"))
    )


def _same(a: float, b: float) -> bool:
    """Equal bits, or both NaN (see ``oracle.assert_same_buffers``)."""
    return (math.isnan(a) and math.isnan(b)) or (
        np.float64(a).tobytes() == np.float64(b).tobytes()
    )


def assert_tree_invariants(synopsis) -> None:
    """Definition 3.1 on the arrays: every parent is its children merged.

    Children are merged left to right from the empty partition (geometry
    order lists siblings right to left), bit for bit; no child holds more
    rows than its parent, and the leaves hold every summarized row.
    """
    _, arrays = synopsis.export_buffers()
    parent = arrays["parent"].tolist()
    children: dict[int, list[int]] = {}
    for row in range(1, len(parent)):
        children.setdefault(parent[row], []).insert(0, row)
    assert sorted(children) == np.flatnonzero(~arrays["is_leaf"]).tolist()
    for row, kids in children.items():
        merged = PartitionStats.empty()
        for kid in kids:
            merged = merged.merge(_stats(arrays, kid))
            assert arrays["node_count"][kid] <= arrays["node_count"][row]
        got = _stats(arrays, row)
        assert merged.count == got.count
        for name in ("sum", "min", "max"):
            assert _same(getattr(merged, name), getattr(got, name)), (row, name)
    leaves = arrays["is_leaf"]
    assert arrays["node_count"][leaves].sum() == arrays["node_count"][0]


# inf and -inf in one leaf sum to NaN, with numpy's warning.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@given(
    seed=st.integers(0, 2**16),
    n_rows=st.integers(1, 400),
    n_columns=st.integers(1, 3),
    duplicates=st.booleans(),
    specials=st.booleans(),
    layout=st.sampled_from(("optimizer", "precomputed")),
    n_partitions=st.integers(1, 13),
    fanout=st.one_of(st.none(), st.integers(2, 8)),
    sampling=st.sampled_from(SAMPLING),
    with_sketches=st.booleans(),
    extra=st.booleans(),
)
@SETTINGS
def test_array_build_equals_the_object_build(
    seed,
    n_rows,
    n_columns,
    duplicates,
    specials,
    layout,
    n_partitions,
    fanout,
    sampling,
    with_sketches,
    extra,
):
    table = _table(seed, n_rows, n_columns, duplicates, specials)
    columns = [f"c{i}" for i in range(n_columns)]
    mode, allocation = sampling
    config = PASSConfig(
        n_partitions=n_partitions,
        sample_rate=0.1,
        partitioner=("equal", "kd", "kd_us")[seed % 3] if n_columns == 1 else "kd",
        opt_sample_size=200,
        mode=mode,
        allocation=allocation,
        fanout=fanout,
        with_sketches=with_sketches,
        seed=seed,
    )
    leaf_boxes = None
    if layout == "precomputed" and n_columns == 1:
        # Cuts on data values (duplicate keys fall on them) and between
        # them, so some leaves are empty.
        keys = table.column("c0")
        rng = np.random.default_rng(seed)
        cuts = rng.choice(keys, size=n_partitions) + rng.choice(
            (0.0, 0.25, 0.5), size=n_partitions
        )
        leaf_boxes = boxes_from_boundaries("c0", cuts)
    elif layout == "precomputed":
        # k-d boxes over a subset of the predicate columns.
        leaf_boxes = kd_partition(
            table, "value", columns[: n_columns - 1], n_partitions, rng=seed
        ).boxes
    arguments = (table, "value", columns, config, leaf_boxes)
    extra_columns = ["extra"] if extra else None
    built = build_pass(*arguments, extra_sample_columns=extra_columns)
    reference = oracle.reference_build(*arguments, extra_sample_columns=extra_columns)
    oracle.assert_same_buffers(built, reference.synopsis())
    assert_tree_invariants(built)


@pytest.mark.parametrize("n_leaves", range(1, 20))
@pytest.mark.parametrize("fanout", range(2, 9))
def test_every_leaf_count_and_fanout_groups_like_the_object_tree(n_leaves, fanout):
    """Leaf counts that are not a multiple of the fanout leave short groups
    and pass-through singletons at every level."""
    table = _table(n_leaves, 300, 1, False, False)
    cuts = np.linspace(0.0, 100.0, n_leaves + 1)[1:-1]
    config = PASSConfig(n_partitions=n_leaves, fanout=fanout, seed=fanout)
    synopsis, objects = oracle.built_with_objects(
        build_pass,
        table,
        "value",
        ["c0"],
        config,
        leaf_boxes=boxes_from_boundaries("c0", cuts),
    )
    assert synopsis.n_partitions == objects.tree.n_leaves == n_leaves
    assert_tree_invariants(synopsis)


def test_leaf_order_follows_the_object_key_over_mixed_column_sets():
    """Boxes constraining different columns sort by their (column, low)
    pairs; a box over fewer columns is not the same as one with ±inf."""
    table = Table(
        {
            "a": np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
            "b": np.array([0.0, 5.0, 0.0, 5.0, 0.0, 5.0]),
            "value": np.arange(6.0),
        }
    )
    boxes = [
        Box({"b": Interval(4.0, 6.0), "a": Interval(0.0, 3.0)}),
        Box({"b": Interval(-1.0, 1.0)}),
        Box({"a": Interval(3.5, 10.0), "b": Interval(4.0, 6.0)}),
        Box({"a": Interval(-math.inf, 2.5), "b": Interval(4.5, 4.6)}),
    ]
    for fanout in (2, 3):
        oracle.built_with_objects(
            build_pass,
            table,
            "value",
            ["a", "b"],
            PASSConfig(n_partitions=4, fanout=fanout),
            leaf_boxes=boxes,
        )


class TestLeafBoxesAreChecked:
    """Precomputed leaf boxes must be disjoint and cover the table."""

    @staticmethod
    def _table() -> Table:
        return Table({"key": np.arange(100.0), "value": np.ones(100)})

    @staticmethod
    def _boxes(*intervals) -> list[Box]:
        return [Box({"key": Interval(low, high)}) for low, high in intervals]

    def test_overlapping_boxes_are_rejected(self):
        boxes = self._boxes((0.0, 60.0), (40.0, math.inf))
        with pytest.raises(ValueError, match="leaf boxes 0 and 1 overlap: row 40"):
            build_pass(self._table(), "value", ["key"], leaf_boxes=boxes)

    def test_boxes_leaving_a_gap_are_rejected(self):
        boxes = self._boxes((0.0, 30.0), (50.0, 99.0))
        with pytest.raises(ValueError, match="19 rows"):
            build_pass(self._table(), "value", ["key"], leaf_boxes=boxes)

    def test_rows_with_a_nan_box_coordinate_stay_out(self):
        key = np.arange(100.0)
        key[[3, 50]] = math.nan
        table = Table({"key": key, "value": np.ones(100)})
        boxes = self._boxes((-math.inf, 49.5), (49.6, math.inf))
        synopsis = build_pass(table, "value", ["key"], leaf_boxes=boxes)
        assert synopsis.population_size == 98
        count = AggregateQuery(
            AggregateType.COUNT, "value", RectPredicate({"key": Interval.unbounded()})
        )
        assert synopsis.query(count).estimate == 98.0
