"""The zero-led segment sum the moment kernel runs on, and the kernel on it.

``core/soa.py`` reduces every partial leaf of a frontier with one
``np.add.reduceat`` over a gather that reserves a 0.0 *lead slot* before
each leaf's rows.  ``np.add.reduceat`` seeds a segment with its first element
and adds the rest with numpy's pairwise inner loop; ``np.add.reduce`` seeds
with the identity 0.0.  So a segment led by 0.0 reduces to the bits of
``np.add.reduce`` over the leaf's own slice — the summation contract the
kernel shares with ``tests/oracle.py``.  The first class pins that numpy
behaviour (segments below, at and across the 8-element unrolled block, the
128-element pairwise block and numpy's 8,192-element buffer, with ``-0.0``,
NaN and ±inf); the second holds the gathered kernel to the oracle on a 2-D
synopsis whose partial leaves hold more than 256 sample rows, with an
unsampled and an empty leaf among them, static and after streaming deletes
have left stale values in slack slots.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from repro.aggregation.partition import PartitionStats
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.soa import _SCALAR_FRONTIER_LEAVES
from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.table import Table
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery

import oracle
from test_soa_equivalence import CLASSIC_AGGS, _edit_sample, assert_results_identical

#: Lengths on both sides of the pairwise sum's unrolled block (8), its
#: recursion block (128, 256) and numpy's reduction buffer (8,192).
EDGE_LENGTHS = (0, 1, 7, 8, 9, 128, 129, 257, 8_193, 20_000)
SPECIALS = (-0.0, math.nan, math.inf, -math.inf)


def _zero_led(segments: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The segments concatenated, each after a 0.0 lead slot, and the leads."""
    lengths = np.array([segment.shape[0] for segment in segments], dtype=np.int64)
    leads = np.zeros(len(segments), dtype=np.int64)
    np.cumsum(lengths[:-1] + 1, out=leads[1:])
    data = np.zeros(int(lengths.sum()) + len(segments))
    for lead, segment in zip(leads.tolist(), segments):
        data[lead + 1 : lead + 1 + segment.shape[0]] = segment
    return data, leads


def _assert_zero_led_is_reduce(segments: list[np.ndarray]) -> None:
    data, leads = _zero_led(segments)
    with np.errstate(invalid="ignore", over="ignore"):
        got = np.add.reduceat(data, leads)
        want = np.array([np.add.reduce(segment) for segment in segments])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


_segment = st.tuples(
    st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(0, 300)),
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(SPECIALS)),
        max_size=3,
    ),
)


class TestZeroLedReduceat:
    @given(st.lists(_segment, min_size=1, max_size=6))
    def test_equals_per_slice_reduce_bitwise(self, drawn):
        """Values spread over ten decades, so any other order moves the ulps."""
        segments = []
        for length, seed, specials in drawn:
            rng = np.random.default_rng(seed)
            values = rng.normal(size=length) * 10.0 ** rng.uniform(-5, 5, size=length)
            if length:
                for where, special in specials:
                    values[int(where * length)] = special
            segments.append(values)
        _assert_zero_led_is_reduce(segments)

    @given(
        st.lists(
            st.lists(
                st.one_of(st.floats(width=64), st.sampled_from(SPECIALS)),
                max_size=40,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_any_float_values(self, segments):
        _assert_zero_led_is_reduce(
            [np.array(values, dtype=float) for values in segments]
        )

    def test_negative_zero_sums_like_reduce(self):
        """``np.add.reduce`` of ``[-0.0]`` is ``+0.0``: so is the zero-led sum."""
        _assert_zero_led_is_reduce(
            [np.array([-0.0]), np.array([-0.0, -0.0]), np.zeros(0)]
        )

    def test_plain_reduceat_is_not_reduce(self):
        """Seeding with the first row moves the last bits — why the lead exists."""
        rng = np.random.default_rng(5)
        segments = [
            rng.normal(size=300) * 10.0 ** rng.uniform(-5, 5, size=300)
            for _ in range(20)
        ]
        lengths = [segment.shape[0] for segment in segments]
        starts = np.concatenate([[0], np.cumsum(lengths[:-1])])
        got = np.add.reduceat(np.concatenate(segments), starts)
        want = np.array([np.add.reduce(segment) for segment in segments])
        assert got.view(np.int64).tolist() != want.view(np.int64).tolist()


# ----------------------------------------------------------------------
# The gathered moment kernel against the oracle
# ----------------------------------------------------------------------
COLUMNS = ("c0", "c1")
#: Just inside the data domain: every outer leaf of the 4 x 4 k-d grid is cut.
FRAME = RectPredicate({column: Interval(1.0, 99.0) for column in COLUMNS})
#: Cuts neither the empty nor the unsampled leaf: its variance is finite.
INNER = RectPredicate({"c0": Interval(10.0, 70.0), "c1": Interval(5.0, 95.0)})
PREDICATES = (
    FRAME,
    RectPredicate({"c0": Interval(1.0, 99.0), "c1": Interval(1.0, 60.0)}),
    INNER,
)


@functools.lru_cache(maxsize=None)
def _table() -> Table:
    """8,000 rows in 2-D: 16 k-d leaves of ~500 rows, 400 of them sampled."""
    rng = np.random.default_rng(36)
    columns = {column: rng.uniform(0.0, 100.0, size=8_000) for column in COLUMNS}
    columns["value"] = rng.normal(50.0, 15.0, size=8_000) * 10.0 ** rng.uniform(
        -3, 3, size=8_000
    )
    return Table(columns, name="segment_sums")


def _config() -> PASSConfig:
    return PASSConfig(
        n_partitions=16,
        sample_rate=0.2,
        partitioner="kd",
        zero_variance_rule=False,
        seed=2,
    )


def _frame_leaves(synopsis) -> list[int]:
    flat = synopsis.flat
    return flat._leaf_of_row[flat.frontier(FRAME).partial].tolist()


@functools.lru_cache(maxsize=None)
def _static():
    """The reference build with one boundary leaf emptied, one unsampled."""
    synopsis, objects = oracle.built_with_objects(
        build_pass, _table(), "value", list(COLUMNS), _config()
    )
    empty, unsampled = _frame_leaves(synopsis)[:2]
    leaf = objects.tree.leaves[empty]
    leaf.stats = PartitionStats.empty()
    synopsis = objects.synopsis()
    _edit_sample(synopsis, empty, lambda column, values: values[:0])
    _edit_sample(synopsis, unsampled, lambda column, values: values[:0])
    return synopsis


@functools.lru_cache(maxsize=None)
def _poisoned():
    """The build with ``inf`` / ``-inf`` / NaN closing every leaf ``INNER`` does
    not cut: the rows the lead slots of the cut leaves read."""
    _, objects = oracle.built_with_objects(
        build_pass, _table(), "value", list(COLUMNS), _config()
    )
    synopsis = objects.synopsis()
    flat = synopsis.flat
    cut = set(flat._leaf_of_row[flat.frontier(INNER).partial].tolist())
    poisons = (math.inf, -math.inf, math.nan)
    for leaf in sorted(set(range(flat.n_partitions)) - cut):

        def edit(column, values, poison=poisons[leaf % 3]):
            if column != "value":
                return values
            values = values.copy()
            values[-1] = poison
            return values

        _edit_sample(synopsis, leaf, edit)
    return synopsis


def _row(table: Table, index: int) -> dict[str, float]:
    return {column: float(table.column(column)[index]) for column in table.column_names}


@functools.lru_cache(maxsize=None)
def _dynamic() -> DynamicPASS:
    """A ``DynamicPASS`` that streaming deletes left with the same leaf states.

    Every row of one boundary leaf is deleted (an empty leaf), the sampled
    rows of a second (unsampled, its population kept), and twenty sampled
    rows of each other boundary leaf, whose freed slots keep stale values.
    """
    table = _table()
    dynamic = DynamicPASS(table, "value", list(COLUMNS), config=_config())
    empty, unsampled, *others = _frame_leaves(dynamic)
    rows = [_row(table, index) for index in range(table.n_rows)]
    leaf_of = [dynamic.leaf_for_point(row) for row in rows]
    doomed = [row for row, leaf in zip(rows, leaf_of) if leaf == empty]
    for leaf, keep in [(unsampled, None)] + [(leaf, 20) for leaf in others]:
        sample = dynamic.leaf_sample(leaf)
        doomed += [
            {column: float(values[i]) for column, values in sample.items()}
            for i in range(len(sample["value"]))
        ][:keep]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StaleExtremaWarning)
        for row in doomed:
            dynamic.delete(row)
    return dynamic


@pytest.mark.parametrize("factory", [_static, _dynamic], ids=["static", "dynamic"])
class TestGatheredKernelMatchesOracle:
    def test_fixture_reaches_every_leaf_state(self, factory):
        synopsis = factory()
        flat = synopsis.flat
        partial = flat.frontier(FRAME).partial
        counts = flat._sample_counts[flat._leaf_of_row[partial]]
        sizes = flat._node_count[partial]
        assert partial.shape[0] > _SCALAR_FRONTIER_LEAVES
        assert ((sizes == 0) & (counts == 0)).sum() == 1
        assert ((sizes > 0) & (counts == 0)).sum() == 1
        assert (counts > 256).sum() >= partial.shape[0] - 2
        if factory is _dynamic:
            slots = np.diff(flat._samples.offsets)
            assert (slots > flat._sample_counts).sum() >= partial.shape[0] - 1

    @pytest.mark.parametrize("agg", CLASSIC_AGGS)
    @pytest.mark.parametrize("predicate", PREDICATES, ids=["frame", "band", "inner"])
    def test_bit_identical(self, factory, agg, predicate):
        synopsis = factory()
        objects = oracle.objects_of(synopsis)
        query = AggregateQuery(agg, "value", predicate)
        assert_results_identical(
            synopsis.query(query), oracle.query_object(objects, query), f"{agg} "
        )


@pytest.mark.parametrize("agg", ("SUM", "COUNT", "AVG"))
def test_lead_slots_never_read_their_row(agg):
    """A lead slot reads the row before its leaf: non-finite there, yet 0.0."""
    synopsis = _poisoned()
    query = AggregateQuery(agg, "value", INNER)
    got = synopsis.query(query)
    assert_results_identical(got, oracle.query_object(synopsis, query), f"{agg} ")
    assert math.isfinite(got.estimate) and math.isfinite(got.variance)
