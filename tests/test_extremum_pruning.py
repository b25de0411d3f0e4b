"""MIN / MAX skip the partial leaves that cannot win, and keep the oracle's bits.

``FlatSynopsis._extremum_answer`` drops a partial leaf whose whole sample's
MAX is below the best covered candidate (for MIN: whose sample MIN is above
it) before it gathers or masks any sample row.  The covered candidates come
first in ``max(candidates)``, so a dropped leaf's matched extremum could
never have replaced the estimate: every answer must stay bit-identical to
the reference in ``tests/oracle.py`` on every path — ``synopsis.query``,
``batch_query``, ``grouped_query`` and a synopsis attached over read-only
buffers.  The cases pinned here:

* **(a)** a covered extremum that beats every partial leaf, where no sample
  row is read at all;
* **(b)** samples holding ``±inf``, NaN and ``-0.0`` next to a winning
  covered node (whose extremum is itself a signed zero);
* **(c)** the answers after ``DynamicPASS`` insert / delete streams, NaN
  inserts included, with the derived extrema built before the stream;
* **(d)** the answers after ``replace_leaf_sample`` writes values outside
  the node extrema.

The derived per-leaf sample extrema are NaN-propagating, built once and
then refreshed one leaf at a time by each sample writer.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from repro.core.batching import batch_query, grouped_query
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.soa import FlatSynopsis
from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.table import Table
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery

import oracle
from test_soa_equivalence import _bits, assert_results_identical as assert_identical

COLUMNS = ("c0", "c1")
#: A rectangle just inside the data domain: every outer leaf is partial and
#: the centre is covered.
FRAME = RectPredicate({column: Interval(1.0, 99.0) for column in COLUMNS})
#: The value column whose covered centre wins each extremum: ``dome`` peaks
#: at ``-0.0`` in the centre, ``bowl`` bottoms out at ``0.0`` there.
SHAPE_OF = {"MAX": "dome", "MIN": "bowl"}


@functools.lru_cache(maxsize=None)
def _table(n_rows: int = 4000) -> Table:
    """A 2-D table whose extrema sit in the centre, exactly ``±0.0`` there.

    ``bowl`` is 0.0 within radius 10 of (50, 50) and rises outwards;
    ``dome`` is its negation, ``-0.0`` in the centre.
    """
    rng = np.random.default_rng(31)
    c0, c1 = (rng.uniform(0.0, 100.0, size=n_rows) for _ in COLUMNS)
    squared = (c0 - 50.0) ** 2 + (c1 - 50.0) ** 2
    bowl = np.maximum(squared - 100.0, 0.0) / 100.0
    bowl += np.where(bowl > 0.0, rng.uniform(0.0, 0.5, size=n_rows), 0.0)
    return Table({"c0": c0, "c1": c1, "bowl": bowl, "dome": -bowl}, name="extrema")


def _config(n_partitions: int = 64) -> PASSConfig:
    return PASSConfig(
        n_partitions=n_partitions, sample_rate=0.1, partitioner="kd", seed=5
    )


def _build(shape: str):
    return build_pass(_table(), shape, list(COLUMNS), _config())


def _frame_boundary(synopsis) -> list[int]:
    """The leaves ``FRAME`` cuts, in frontier order."""
    return synopsis._leaf_of_row[synopsis.frontier(FRAME).partial].tolist()


def _replace_value(synopsis, leaf: int, edit) -> None:
    """Rewrite leaf ``leaf``'s value column in place through the sample writer."""
    rows = {c: v.copy() for c, v in synopsis.leaf_sample(leaf).items()}
    edit(rows[synopsis.value_column], rows)
    synopsis.replace_leaf_sample(leaf, rows)


def _inside_frame_row(rows: dict) -> int:
    """A sample row of ``rows`` that ``FRAME`` matches."""
    inside = np.ones(rows["c0"].shape[0], dtype=bool)
    for column in COLUMNS:
        inside &= (rows[column] >= 1.0) & (rows[column] <= 99.0)
    return int(np.flatnonzero(inside)[0])


@functools.lru_cache(maxsize=None)
def _doctored(agg: str, with_winner: bool):
    """The shape whose covered centre wins ``agg``, with poisoned boundary leaves.

    Four leaves ``FRAME`` cuts get, in their value column: one row set to the
    losing infinity, one row NaN, every row ``-0.0``, every row ``+0.0``.  With
    ``with_winner`` a fifth gets one matched row at the winning infinity:
    below (for MIN: above) the covered best by its node statistics, the
    leaf's sample beats it.
    """
    synopsis = _build(SHAPE_OF[agg])
    win = math.inf if agg == "MAX" else -math.inf
    leaves = _frame_boundary(synopsis)
    assert len(leaves) >= 5

    def one_row(poison):
        def edit(values, rows):
            values[_inside_frame_row(rows)] = poison

        return edit

    def every_row(poison):
        def edit(values, rows):
            values[:] = poison

        return edit

    edits = [one_row(-win), one_row(math.nan), every_row(-0.0), every_row(0.0)]
    if with_winner:
        edits.append(one_row(win))
    for leaf, edit in zip(leaves, edits):
        _replace_value(synopsis, leaf, edit)
    return synopsis


def _read_only(synopsis) -> FlatSynopsis:
    """``synopsis`` attached over read-only copies of its exported buffers."""
    header, arrays = synopsis.export_buffers()
    frozen = {}
    for key, values in arrays.items():
        values = values.copy()
        values.flags.writeable = False
        frozen[key] = values
    return FlatSynopsis(header, frozen)


def _rectangle(fractions) -> RectPredicate:
    return RectPredicate(
        {
            column: Interval(100.0 * start, 100.0 * (start + width))
            for column, (start, width) in zip(COLUMNS, fractions)
        }
    )


_fraction_pair = st.tuples(
    st.floats(min_value=-0.1, max_value=0.9), st.floats(min_value=0.0, max_value=1.2)
)


def assert_every_path_matches_oracle(synopsis, queries, context: str = "") -> None:
    """Per query, batch, and read-only attachment all carry the oracle's bits."""
    reference = oracle.objects_of(synopsis)
    attached = _read_only(synopsis)
    batched = batch_query(synopsis, queries)
    for query, in_batch in zip(queries, batched):
        want = oracle.query_object(reference, query)
        where = f"{context}{query.agg.name} {query.predicate} "
        assert_identical(synopsis.query(query), want, where + "query ")
        assert_identical(in_batch, want, where + "batch ")
        assert_identical(attached.query(query), want, where + "read-only ")


def assert_grouped_matches_oracle(synopsis, edges, aggs=("MIN", "MAX", "SUM")) -> None:
    """A grouped plan (MIN / MAX beside a SUM by default) carries the
    per-cell oracle bits."""
    plan = GroupByQuery(
        groupings=tuple(GroupingColumn.bins(column, edges) for column in COLUMNS),
        aggregates=tuple(AggregateSpec(agg, synopsis.value_column) for agg in aggs),
    ).compile()
    reference = oracle.objects_of(synopsis)
    grouped = grouped_query(synopsis, plan)
    for index, cell in plan.live_cells():
        for spec, got in zip(plan.aggregates, grouped.cells[index]):
            want = oracle.query_object(reference, plan.cell_query(cell, spec))
            assert_identical(got, want, f"{cell.labels} {spec.name} ")


def _queries(synopsis, predicates) -> list[AggregateQuery]:
    return [
        AggregateQuery(agg, synopsis.value_column, predicate)
        for predicate in predicates
        for agg in ("MIN", "MAX")
    ]


# ----------------------------------------------------------------------
# (a) a covered extremum beats every partial leaf
# ----------------------------------------------------------------------
@pytest.mark.parametrize("agg", ["MIN", "MAX"])
def test_a_winning_covered_extremum_reads_no_sample_row(agg, monkeypatch):
    synopsis = _build(SHAPE_OF[agg])
    frontier = synopsis.frontier(FRAME)
    leaves = synopsis._leaf_of_row[frontier.partial]
    assert frontier.covered.shape[0] and leaves.shape[0] > 3  # the gather branch
    lows, highs = synopsis._leaf_sample_extrema()
    sampled = leaves[synopsis.sample_counts[leaves] > 0]
    if agg == "MAX":
        assert (highs[sampled] < -0.0).all()
    else:
        assert (lows[sampled] > 0.0).all()
    query = AggregateQuery(agg, SHAPE_OF[agg], FRAME)
    want = oracle.query_object(oracle.objects_of(synopsis), query)
    assert _bits(want.estimate) == _bits(-0.0 if agg == "MAX" else 0.0)
    assert want.tuples_processed == int(synopsis.sample_counts[leaves].sum()) > 0

    def no_rows(*args, **kwargs):
        raise AssertionError("a beaten partial leaf's sample was read")

    monkeypatch.setattr(FlatSynopsis, "_frontier_gather", no_rows)
    monkeypatch.setattr(FlatSynopsis, "_leaf_mask", staticmethod(no_rows))
    assert_identical(synopsis.query(query), want)
    assert_identical(batch_query(synopsis, [query])[0], want)
    assert_identical(_read_only(synopsis).query(query), want)


@pytest.mark.parametrize("agg", ["MIN", "MAX"])
def test_a_leaf_that_can_win_is_still_scanned(agg):
    """Not every partial leaf is dropped: the far corners win the other extremum."""
    shape = SHAPE_OF[agg]
    other = "MIN" if agg == "MAX" else "MAX"
    synopsis = _build(shape)
    query = AggregateQuery(other, shape, FRAME)
    result = synopsis.query(query)
    covered = (synopsis._node_min if other == "MIN" else synopsis._node_max)[
        synopsis.frontier(FRAME).covered
    ]
    best = covered.min() if other == "MIN" else covered.max()
    assert (result.estimate < best) if other == "MIN" else (result.estimate > best)
    assert_every_path_matches_oracle(synopsis, [query])


@given(fractions=st.lists(_fraction_pair, min_size=2, max_size=2))
def test_random_rectangles_over_both_shapes(fractions):
    for shape in ("dome", "bowl"):
        synopsis = _build(shape)
        assert_every_path_matches_oracle(
            synopsis, _queries(synopsis, [_rectangle(fractions)])
        )


@pytest.mark.parametrize("shape", ["dome", "bowl"])
@pytest.mark.parametrize("n_bins", [3, 7])
def test_grouped_plans_over_both_shapes(shape, n_bins):
    assert_grouped_matches_oracle(_build(shape), np.linspace(0.0, 100.0, n_bins + 1))


# ----------------------------------------------------------------------
# (b) ±inf, NaN and -0.0 next to a winning covered node
# ----------------------------------------------------------------------
@pytest.mark.parametrize("agg", ["MIN", "MAX"])
def test_nonfinite_and_signed_zero_samples_beside_a_winning_covered_node(agg):
    synopsis = _doctored(agg, False)
    query = AggregateQuery(agg, SHAPE_OF[agg], FRAME)
    assert_every_path_matches_oracle(synopsis, [query])
    # The covered centre's signed zero wins over +-0.0, NaN and the losing
    # infinity in the partial leaves.
    assert _bits(synopsis.query(query).estimate) == _bits(
        -0.0 if agg == "MAX" else 0.0
    )
    lows, highs = synopsis._leaf_sample_extrema()
    nan_leaf = _frame_boundary(synopsis)[1]
    assert math.isnan(lows[nan_leaf]) and math.isnan(highs[nan_leaf])


@pytest.mark.parametrize("agg", ["MIN", "MAX"])
def test_a_sample_beyond_its_node_statistics_still_wins(agg):
    """Node extrema would prune this leaf: its sample holds an infinity they lack."""
    synopsis = _doctored(agg, True)
    winner = _frame_boundary(synopsis)[4]
    row = synopsis._leaf_rows()[winner]
    covered = synopsis.frontier(FRAME).covered
    if agg == "MAX":
        assert synopsis._node_max[row] < synopsis._node_max[covered].max()
    else:
        assert synopsis._node_min[row] > synopsis._node_min[covered].min()
    query = AggregateQuery(agg, SHAPE_OF[agg], FRAME)
    assert synopsis.query(query).estimate == (math.inf if agg == "MAX" else -math.inf)
    assert_every_path_matches_oracle(synopsis, [query])


@given(
    fractions=st.lists(_fraction_pair, min_size=2, max_size=2),
    agg=st.sampled_from(["MIN", "MAX"]),
    with_winner=st.booleans(),
)
def test_random_rectangles_over_the_poisoned_leaves(fractions, agg, with_winner):
    synopsis = _doctored(agg, with_winner)
    assert_every_path_matches_oracle(
        synopsis, _queries(synopsis, [_rectangle(fractions), FRAME])
    )


@pytest.mark.parametrize("agg", ["MIN", "MAX"])
def test_grouped_plans_over_the_poisoned_leaves(agg):
    assert_grouped_matches_oracle(
        _doctored(agg, True),
        [0.0, 0.5, 30.0, 50.0, 70.0, 99.5, 100.0],
        aggs=("MIN", "MAX"),
    )


@pytest.mark.parametrize("agg", ["MIN", "MAX"])
@pytest.mark.parametrize("with_winner", [False, True])
def test_sum_count_avg_over_the_poisoned_leaves(agg, with_winner):
    """A sampled leaf holding ``±inf`` or NaN adds ``N/n · Σ matched`` like any
    other sampled leaf; only an unsampled one adds its hard-bound midpoint.

    The sign of a NaN that an invalid operation (``inf - inf``) makes depends
    on operand order inside numpy's loops, so NaNs compare by value here.
    """
    synopsis = _doctored(agg, with_winner)
    edges = [0.0, 0.5, 30.0, 50.0, 70.0, 99.5, 100.0]
    aggs = ("SUM", "COUNT", "AVG")
    plan = GroupByQuery(
        groupings=tuple(GroupingColumn.bins(column, edges) for column in COLUMNS),
        aggregates=tuple(AggregateSpec(each, synopsis.value_column) for each in aggs),
    ).compile()
    grouped = grouped_query(synopsis, plan)
    cells = [
        (plan.cell_query(cell, spec), got)
        for index, cell in plan.live_cells()
        for spec, got in zip(plan.aggregates, grouped.cells[index])
    ]
    queries = [query for query, _ in cells]
    reference = oracle.objects_of(synopsis)
    attached = _read_only(synopsis)
    nonfinite = 0
    for (query, in_plan), in_batch in zip(cells, batch_query(synopsis, queries)):
        want = _positive_nans(oracle.query_object(reference, query))
        nonfinite += not math.isfinite(want.estimate)
        where = f"{query.agg.name} {query.predicate} "
        for got, path in (
            (synopsis.query(query), "query "),
            (in_batch, "batch "),
            (attached.query(query), "read-only "),
            (in_plan, "grouped "),
        ):
            assert_identical(_positive_nans(got), want, where + path)
    assert len(cells) == 108 and nonfinite


def _positive_nans(result):
    """``result`` with every NaN field replaced by the positive quiet NaN."""
    return dataclasses.replace(
        result,
        **{
            field.name: math.nan
            for field in dataclasses.fields(result)
            if isinstance(getattr(result, field.name), float)
            and math.isnan(getattr(result, field.name))
        },
    )


# ----------------------------------------------------------------------
# (c) after DynamicPASS insert / delete streams
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=3),
    n_inserts=st.integers(min_value=0, max_value=30),
    n_deletes=st.integers(min_value=0, max_value=10),
    nan_every=st.integers(min_value=2, max_value=6),
    fractions=st.lists(_fraction_pair, min_size=2, max_size=2),
    shape=st.sampled_from(["dome", "bowl"]),
)
def test_update_streams_keep_the_oracle_bits(
    seed, n_inserts, n_deletes, nan_every, fractions, shape
):
    table = _table(1500)
    dynamic = DynamicPASS(
        table,
        shape,
        list(COLUMNS),
        config=_config(16),
        reservoir_capacity=200,
        rng=seed,
    )
    predicates = [_rectangle(fractions), FRAME]
    queries = _queries(dynamic, predicates)
    for query in queries:  # builds the derived extrema before the stream
        dynamic.query(query)
    rng = np.random.default_rng(seed)
    for index in range(n_inserts):
        # Values beyond both ends of the table's: an accepted row can beat
        # the covered centre of either shape.
        value = math.nan if index % nan_every == 0 else rng.uniform(-60.0, 60.0)
        point = {column: rng.uniform(0.0, 100.0) for column in COLUMNS}
        dynamic.insert({**point, shape: value})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StaleExtremaWarning)
        for _ in range(n_deletes):
            row = int(rng.integers(0, table.n_rows))
            columns = (*COLUMNS, shape)
            dynamic.delete({c: float(table.column(c)[row]) for c in columns})
    assert_every_path_matches_oracle(dynamic, queries, f"seed {seed} ")


@pytest.mark.parametrize("agg", ["MIN", "MAX"])
def test_an_accepted_insert_into_a_beaten_leaf_wins(agg):
    """Built extrema that missed the insert would drop the leaf it landed in."""
    shape = SHAPE_OF[agg]
    dynamic = DynamicPASS(
        _table(1500), shape, list(COLUMNS), config=_config(16), reservoir_capacity=400
    )
    query = AggregateQuery(agg, shape, FRAME)
    before = dynamic.query(query)
    leaf = _frame_boundary(dynamic)[0]
    rows = dynamic.leaf_sample(leaf)
    point = {column: float(rows[column][_inside_frame_row(rows)]) for column in COLUMNS}
    value = 1e3 if agg == "MAX" else -1e3
    held = int(dynamic.sample_counts[leaf])
    dynamic.insert({**point, shape: value})
    assert int(dynamic.sample_counts[leaf]) == held + 1  # appended into a free slot
    after = dynamic.query(query)
    assert before.estimate != value and after.estimate == value
    assert_every_path_matches_oracle(dynamic, [query])


# ----------------------------------------------------------------------
# (d) after replace_leaf_sample
# ----------------------------------------------------------------------
@pytest.mark.parametrize("length", ["same", "shorter", "longer"])
@pytest.mark.parametrize("agg", ["MIN", "MAX"])
def test_replaced_samples_outside_the_node_extrema(agg, length):
    shape = SHAPE_OF[agg]
    synopsis = _build(shape)
    query = AggregateQuery(agg, shape, FRAME)
    assert_every_path_matches_oracle(synopsis, [query])  # extrema built
    leaf = _frame_boundary(synopsis)[2]
    rows = {c: v.copy() for c, v in synopsis.leaf_sample(leaf).items()}
    keep = {"same": len(rows[shape]), "shorter": 3, "longer": len(rows[shape])}[length]
    rows = {c: v[:keep] for c, v in rows.items()}
    if length == "longer":
        rows = {c: np.concatenate([v, v[:4]]) for c, v in rows.items()}
    beyond = 500.0 if agg == "MAX" else -500.0
    rows[shape][_inside_frame_row(rows)] = beyond
    synopsis.replace_leaf_sample(leaf, rows)
    assert synopsis.query(query).estimate == beyond
    assert_every_path_matches_oracle(synopsis, [query])
    assert_grouped_matches_oracle(synopsis, [0.0, 1.0, 50.0, 99.0, 100.0])


# ----------------------------------------------------------------------
# The derived extrema: NaN-propagating, refreshed one leaf at a time
# ----------------------------------------------------------------------
def _reference_extrema(synopsis, leaf: int) -> tuple[float, float]:
    values = synopsis.leaf_sample(leaf)[synopsis.value_column]
    if not values.shape[0]:
        return math.inf, -math.inf
    return float(np.minimum.reduce(values)), float(np.maximum.reduce(values))


def _assert_extrema(synopsis, lows, highs) -> None:
    for leaf in range(synopsis.sample_counts.shape[0]):
        low, high = _reference_extrema(synopsis, leaf)
        assert _bits(lows[leaf]) == _bits(low), leaf
        assert _bits(highs[leaf]) == _bits(high), leaf


def test_built_extrema_propagate_nan_and_skip_slack():
    synopsis = _doctored("MAX", True)
    attached = _read_only(synopsis)
    _assert_extrema(attached, *attached._leaf_sample_extrema())
    nan_leaf = _frame_boundary(synopsis)[1]
    assert math.isnan(attached._leaf_sample_extrema()[1][nan_leaf])
    # A reserved synopsis' slack slots hold zeros: never an extremum.
    dynamic = DynamicPASS(
        _table(1500), "dome", list(COLUMNS), config=_config(16), reservoir_capacity=400
    )
    _assert_extrema(dynamic, *dynamic._leaf_sample_extrema())
    assert (dynamic._leaf_sample_extrema()[1] < 0.0).any()


def test_a_sample_write_refreshes_only_its_own_leaf():
    dynamic = DynamicPASS(
        _table(1500), "dome", list(COLUMNS), config=_config(16), reservoir_capacity=200
    )
    lows, highs = dynamic._leaf_sample_extrema()
    # Boundary leaves: their values are distinct, so a dropped MAX row moves it.
    nan, append, drop, shrink, empty, full = _frame_boundary(dynamic)[:6]
    first = dynamic.leaf_sample(0)

    def row(value):
        return {c: (value if c == "dome" else float(v[0])) for c, v in first.items()}

    def put(leaf, value, position=None):
        if position is None:
            position = int(dynamic.sample_counts[leaf])
        dynamic.put_sample_row(leaf, position, row(value))

    def rows(leaf, keep):
        return {c: v[:keep] * 0.0 - 9.0 for c, v in dynamic.leaf_sample(leaf).items()}

    writes = [
        ("overwrite with NaN", nan, lambda: put(nan, math.nan, position=0)),
        ("append", append, lambda: put(append, 7.0)),
        ("drop the MAX row", drop, lambda: dynamic.drop_sample_row(
            drop, int(np.argmax(dynamic.leaf_sample(drop)["dome"])))),
        ("replace", shrink, lambda: dynamic.replace_leaf_sample(
            shrink, rows(shrink, 2))),
        ("empty", empty, lambda: dynamic.replace_leaf_sample(empty, rows(empty, 0))),
        ("fill every slot", full, lambda: [
            put(full, 0.5) for _ in range(200 - int(dynamic.sample_counts[full]))
        ]),
        ("grow past the slots", full, lambda: put(full, 11.0)),
    ]
    for name, leaf, write in writes:
        before = (lows.copy(), highs.copy())
        write()
        # The same arrays, written in place: no whole-synopsis recompute.
        assert dynamic._leaf_sample_extrema()[0] is lows
        assert dynamic._leaf_sample_extrema()[1] is highs
        others = np.arange(lows.shape[0]) != leaf
        for now, then in zip((lows, highs), before):
            assert now[others].tobytes() == then[others].tobytes(), name
        low, high = _reference_extrema(dynamic, leaf)
        assert _bits(lows[leaf]) == _bits(low), name
        assert _bits(highs[leaf]) == _bits(high), name
        assert (_bits(low), _bits(high)) != tuple(
            _bits(then[leaf]) for then in before
        ), f"{name} left its leaf's extrema as they were"
    assert math.isnan(highs[nan]) and highs[append] == 7.0 and highs[shrink] == -9.0
    assert (lows[empty], highs[empty]) == (math.inf, -math.inf) and highs[full] == 11.0
    before = (lows.tobytes(), highs.tobytes())
    dynamic.reserve_sample_slots(np.full(lows.shape[0], 300))
    assert (lows.tobytes(), highs.tobytes()) == before
    _assert_extrema(dynamic, lows, highs)
