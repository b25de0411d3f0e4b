"""A batch answers each predicate once, with the bits of per-query execution.

``BatchPlan.execute`` groups a batch's classic aggregates by (canonical
predicate, partial rows) and runs one mask / moment pass per group
(``FlatSynopsis.answer_shared``); ``compile_batch`` computes every slot's
frontier in one ``FlatSynopsis.frontiers_for`` broadcast.  Sharing removes
repeated identical work only, so every batched answer must carry the float
bits (``struct.pack``) of ``synopsis.query`` on the same query — on a
synopsis with zero-variance partial nodes (the AVG replay), unsampled and
empty partial leaves, NaN in a sample column, a predicate on a column the
samples lack, a ``DynamicPASS`` whose CSR has slack after churn, and a
hash-sharded stitch answering point predicates on its shard column.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from repro.core.batching import batch_query, compile_batch
from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.soa import FlatSynopsis
from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery

N_ROWS = 3000
COLUMNS = ("c0", "c1")
#: Every aggregate a batch may mix; the sketch kinds ride the same frontiers.
KINDS = (
    ("SUM", None),
    ("COUNT", None),
    ("AVG", None),
    ("MIN", None),
    ("MAX", None),
    ("QUANTILE", 0.5),
    ("COUNT_DISTINCT", None),
)
FLOAT_FIELDS = ("estimate", "ci_half_width", "variance", "hard_lower", "hard_upper")
CONFIG = PASSConfig(
    n_partitions=32,
    sample_rate=0.05,
    partitioner="kd",
    opt_sample_size=200,
    zero_variance_rule=True,
    with_sketches=True,
    seed=2,
)


def assert_same_bits(got, want, context: str) -> None:
    for field in FLOAT_FIELDS:
        left, right = getattr(got, field), getattr(want, field)
        assert struct.pack("<d", left) == struct.pack("<d", right), (
            f"{context} {field}: batch={left!r} query={right!r}"
        )
    assert got.tuples_processed == want.tuples_processed, context
    assert got.tuples_skipped == want.tuples_skipped, context
    assert got.exact == want.exact, context


def assert_batch_is_per_query(synopsis, queries) -> None:
    """``batch_query`` == ``synopsis.query`` per query, raised errors included."""
    expected = []
    for query in queries:
        try:
            expected.append(synopsis.query(query))
        except KeyError as error:
            with pytest.raises(KeyError) as raised:
                batch_query(synopsis, queries)
            assert raised.value.args == error.args
            return
    answers = batch_query(synopsis, queries)
    assert len(answers) == len(queries)
    for query, got, want in zip(queries, answers, expected):
        assert_same_bits(got, want, f"{query.agg.value} {query.predicate}")


@functools.lru_cache(maxsize=None)
def _table() -> Table:
    """Two predicate columns, a constant slab and a NaN-bearing ``tag``.

    Values are constant where ``c0 < 30``, so partitions there have
    ``min == max`` and AVG descends on its own under the zero-variance rule;
    ``tag`` is sampled beside the predicate columns and is NaN in a tenth of
    the rows.
    """
    rng = np.random.default_rng(5)
    columns = {column: rng.uniform(0.0, 100.0, size=N_ROWS) for column in COLUMNS}
    value = np.abs(rng.normal(50.0, 15.0, size=N_ROWS))
    value[columns["c0"] < 30.0] = 42.0
    tag = rng.uniform(0.0, 100.0, size=N_ROWS)
    tag[rng.random(N_ROWS) < 0.1] = math.nan
    return Table({**columns, "value": value, "tag": tag}, name="shared_moments")


def _middle_leaves(synopsis, count: int) -> list[int]:
    """``count`` leaves a central predicate overlaps only partly."""
    frontier = synopsis.frontier(RectPredicate.from_bounds(c0=(35.0, 65.0)))
    return synopsis._leaf_of_row[frontier.partial].tolist()[:count]


@functools.lru_cache(maxsize=None)
def _single():
    """A static synopsis with one unsampled and one empty partial leaf."""
    synopsis = build_pass(
        _table(), "value", list(COLUMNS), CONFIG, extra_sample_columns=["tag"]
    )
    unsampled, empty = _middle_leaves(synopsis, 2)
    synopsis.replace_leaf_sample(
        unsampled,
        {column: np.zeros(0) for column in synopsis.leaf_sample(unsampled)},
    )
    for _ in range(int(synopsis.leaf_populations()[empty])):
        synopsis.remove_value(empty, 0.0)
    return synopsis


@functools.lru_cache(maxsize=None)
def _dynamic():
    """A ``DynamicPASS`` after inserts and deletes: its CSR carries slack."""
    table = _table()
    dynamic = DynamicPASS(
        table,
        "value",
        list(COLUMNS),
        config=CONFIG,
        reservoir_capacity=40,
        extra_sample_columns=["tag"],
    )
    rng = np.random.default_rng(9)
    rows = [
        {column: float(table.column(column)[i]) for column in table.column_names}
        for i in rng.choice(N_ROWS, size=60, replace=False).tolist()
    ]
    for row in rows:
        dynamic.insert(dict(row, value=row["value"] + 1.0))
    with pytest.warns(StaleExtremaWarning):
        for row in rows[:40]:
            dynamic.delete(row)
    counts = dynamic.sample_counts
    assert np.any(np.diff(dynamic._samples.offsets) > counts)  # slack slots
    return dynamic


@functools.lru_cache(maxsize=None)
def _hash_sharded():
    """Three hash shards on ``c0`` (their samples lack ``tag``)."""
    return build_sharded_pass(
        _table(),
        "value",
        "c0",
        n_shards=3,
        strategy="hash",
        predicate_columns=list(COLUMNS),
        config=dataclasses.replace(CONFIG, n_partitions=8),
    )


@functools.lru_cache(maxsize=None)
def _rule_off():
    """The static build without the zero-variance rule."""
    return build_pass(
        _table(),
        "value",
        list(COLUMNS),
        dataclasses.replace(CONFIG, zero_variance_rule=False),
    )


FIXTURES = {"single": _single, "dynamic": _dynamic, "hash_sharded": _hash_sharded}

_bound = st.floats(min_value=0.0, max_value=100.0)


@st.composite
def _predicates(draw) -> RectPredicate:
    """Ranges on ``c0`` / ``c1``, a point on ``c0``, sometimes ``tag`` too."""
    intervals = {}
    if draw(st.booleans()):
        key = float(_table().column("c0")[draw(st.integers(0, N_ROWS - 1))])
        intervals["c0"] = Interval(key, key)
    for column in COLUMNS:
        if column not in intervals and draw(st.booleans()):
            low, high = sorted((draw(_bound), draw(_bound)))
            intervals[column] = Interval(low, high)
    if draw(st.integers(0, 3)) == 0:
        low, high = sorted((draw(_bound), draw(_bound)))
        intervals["tag"] = Interval(low, high)
    return RectPredicate(intervals)


@st.composite
def _batches(draw) -> list[AggregateQuery]:
    """1-4 predicates, each asked by several aggregates, in shuffled order."""
    predicates = draw(st.lists(_predicates(), min_size=1, max_size=4))
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(predicates) - 1), st.sampled_from(KINDS)),
            min_size=1,
            max_size=16,
        )
    )
    return [
        AggregateQuery(agg, "value", predicates[index], quantile=quantile)
        for index, (agg, quantile) in picks
    ]


class TestBatchEqualsPerQuery:
    @given(fixture=st.sampled_from(sorted(FIXTURES)), queries=_batches())
    def test_mixed_batches(self, fixture, queries):
        assert_batch_is_per_query(FIXTURES[fixture](), queries)

    def test_fixtures_reach_every_branch(self):
        """The replay, unsampled / empty leaves, slack and owner filter occur."""
        single = _single()
        predicate = RectPredicate.from_bounds(c0=(10.3, 70.7))
        queries = [AggregateQuery(agg, "value", predicate) for agg, _ in KINDS]
        plan = compile_batch(single, queries)
        sum_frontier, avg_frontier = (plan.slot_frontiers[plan.slots[i]] for i in (0, 2))
        assert avg_frontier.partial.shape[0] < sum_frontier.partial.shape[0]
        assert_batch_is_per_query(single, queries)

        wide = RectPredicate.from_bounds(c0=(35.0, 65.0))
        leaves = single._leaf_of_row[single.frontier(wide).partial]
        assert np.any(single.sample_counts[leaves] == 0)
        assert np.any(single.leaf_populations()[leaves] == 0)
        assert_batch_is_per_query(
            single, [AggregateQuery(agg, "value", wide) for agg, _ in KINDS[:5]]
        )

        sharded = _hash_sharded()
        key = float(_table().column("c0")[0])
        point = RectPredicate.from_bounds(c0=(key, key))
        (unfiltered,) = sharded._frontier_chunk([point], None)
        assert sharded.frontier(point).partial.shape[0] < unfiltered.partial.shape[0]
        assert_batch_is_per_query(
            sharded, [AggregateQuery(agg, "value", point) for agg, _ in KINDS[:5]]
        )

    def test_a_column_the_samples_lack_raises_the_per_query_error(self):
        """A spelled-out unbounded column is still checked, query by query."""
        single = _single()
        plain = RectPredicate.from_bounds(c0=(20.0, 60.0))
        unbounded = RectPredicate(
            {"c0": Interval(20.0, 60.0), "zzz": Interval(-math.inf, math.inf)}
        )
        assert plain.canonical_key() == unbounded.canonical_key()
        queries = [
            AggregateQuery("SUM", "value", plain),
            AggregateQuery("COUNT", "value", unbounded),
        ]
        single.query(queries[0])
        with pytest.raises(KeyError):
            single.query(queries[1])
        assert_batch_is_per_query(single, queries)
        missing = RectPredicate.from_bounds(zzz=(0.0, 1.0))
        assert_batch_is_per_query(
            single, [AggregateQuery(agg, "value", missing) for agg, _ in KINDS]
        )


class TestOneMomentPassPerPredicate:
    def test_sum_count_avg_share_one_pass(self, monkeypatch):
        """64 cells x SUM / COUNT / AVG: one moment pass, one group per cell.

        With the zero-variance rule on, an AVG whose descent stops early
        keeps other partial rows and is a group of its own in that pass.
        """
        synopsis = _rule_off()
        calls = []
        moments = FlatSynopsis._batched_partial_moments

        def counted(self, partial, constraints, need_sum, need_count):
            calls.append((need_sum, need_count, len(constraints)))
            return moments(self, partial, constraints, need_sum, need_count)

        edges = np.linspace(30.0, 90.0, 65)
        queries = [
            AggregateQuery(agg, "value", RectPredicate.from_bounds(c1=(low, high)))
            for low, high in zip(edges[:-1], edges[1:])
            for agg in ("SUM", "COUNT", "AVG")
        ]
        expected = [synopsis.query(query) for query in queries]
        monkeypatch.setattr(FlatSynopsis, "_batched_partial_moments", counted)
        answers = batch_query(synopsis, queries)
        assert calls == [(True, True, 64)]
        for query, got, want in zip(queries, answers, expected):
            assert_same_bits(got, want, f"{query.agg.value} {query.predicate}")
        calls.clear()
        batch_query(_single(), queries)
        ((need_sum, need_count, n_groups),) = calls
        assert need_sum and need_count and 64 < n_groups <= 128

    def test_rule_off_avg_shares_the_sum_count_slot(self):
        """Without the zero-variance rule AVG's frontier is SUM / COUNT's."""
        synopsis = _rule_off()
        predicates = [
            RectPredicate.from_bounds(c0=(low, low + 40.0), c1=(20.0, 80.0))
            for low in (0.0, 10.3, 25.0, 50.0)
        ]
        queries = [
            AggregateQuery(agg, "value", predicate)
            for predicate in predicates
            for agg in ("SUM", "COUNT", "AVG")
        ]
        plan = compile_batch(synopsis, queries)
        assert len(plan.slot_queries) == len(predicates)
        assert plan.slots == [index // 3 for index in range(len(queries))]
        assert_batch_is_per_query(synopsis, queries)


class TestFrontiersFor:
    @given(
        fixture=st.sampled_from(sorted(FIXTURES)),
        predicates=st.lists(_predicates(), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_mixed_flags_equal_per_predicate_frontiers(
        self, fixture, predicates, data
    ):
        synopsis = FIXTURES[fixture]()
        flags = data.draw(
            st.lists(st.booleans(), min_size=len(predicates), max_size=len(predicates))
        )
        for predicate, flag, got in zip(
            predicates, flags, synopsis.frontiers_for(predicates, flags)
        ):
            want = synopsis.frontier(predicate, zero_variance=flag)
            assert np.array_equal(got.covered, want.covered)
            assert np.array_equal(got.partial, want.partial)
            assert got.nodes_visited == want.nodes_visited

    def test_the_replay_and_the_chunks_are_reached(self, monkeypatch):
        """Flagged lookups replay; a batch wider than a chunk still matches."""
        synopsis = _single()
        predicates = [
            RectPredicate.from_bounds(c0=(low, low + 30.0)) for low in range(0, 70, 3)
        ]
        flags = [index % 2 == 0 for index in range(len(predicates))]
        replays = sum(
            not np.array_equal(
                synopsis.frontier(p, zero_variance=True).partial,
                synopsis.frontier(p).partial,
            )
            for p in predicates
        )
        assert replays > 0
        monkeypatch.setattr(
            "repro.core.soa._BROADCAST_CELLS", 3 * synopsis._n_nodes
        )
        for predicate, flag, got in zip(
            predicates, flags, synopsis.frontiers_for(predicates, flags)
        ):
            want = synopsis.frontier(predicate, zero_variance=flag)
            assert np.array_equal(got.covered, want.covered)
            assert np.array_equal(got.partial, want.partial)
            assert got.nodes_visited == want.nodes_visited


CLASSIC = ("SUM", "COUNT", "AVG", "MIN", "MAX")


class TestOneAssemblyOverManyGroups:
    """One ``answer_shared`` call over groups of every shape: the bits of
    per-query ``synopsis.query``."""

    @staticmethod
    def _assert_groups(synopsis, predicates, aggs=CLASSIC):
        """One call over every predicate's group(s); returns the groups."""
        groups, members = [], []
        for predicate in predicates:
            batch = [AggregateQuery(a, synopsis.value_column, predicate) for a in aggs]
            frontiers = [synopsis.query_frontier(query) for query in batch]
            # An AVG whose zero-variance descent kept other rows is a group apart.
            left = list(range(len(batch)))
            while left:
                frontier = frontiers[left[0]]
                group = [
                    i
                    for i in left
                    if np.array_equal(frontiers[i].covered, frontier.covered)
                    and np.array_equal(frontiers[i].partial, frontier.partial)
                ]
                left = [i for i in left if i not in group]
                queries = [batch[i] for i in group]
                group_predicates = [q.predicate for q in queries]
                groups.append((group_predicates, [q.agg for q in queries], frontier))
                members.append(queries)
        for queries, answers in zip(members, synopsis.answer_shared(groups)):
            for query, got in zip(queries, answers):
                assert_same_bits(
                    got, synopsis.query(query), f"{query.agg.value} {query.predicate}"
                )
        return groups

    def test_groups_with_no_one_and_many_partial_rows(self):
        """Unsampled and emptied partial leaves, AVG split off by the rule."""
        synopsis = _single()
        wide = RectPredicate.from_bounds(c0=(35.0, 65.0))
        box = synopsis.leaf_boxes[_middle_leaves(synopsis, 3)[2]]
        bounds = {
            column: (
                max(box.interval(column).low, 0.0),
                min(box.interval(column).high, 100.0),
            )
            for column in COLUMNS
        }
        inside = RectPredicate.from_bounds(
            **{
                column: ((low + high) / 2, (low + high) / 2 + 1e-6)
                for column, (low, high) in bounds.items()
            }
        )
        predicates = [
            RectPredicate.everything(),
            inside,
            wide,
            RectPredicate.from_bounds(c0=(10.0, 40.0), c1=(5.0, 95.0)),
            RectPredicate.from_bounds(c0=(20.0, 28.0)),
        ]
        groups = self._assert_groups(synopsis, predicates)
        partial_rows = [frontier.partial.shape[0] for _, _, frontier in groups]
        assert 0 in partial_rows and 1 in partial_rows and max(partial_rows) > 3
        # The unsampled and the empty leaf are partial rows of the wide group,
        # and the constant slab splits some AVG off its SUM / COUNT.
        rows = synopsis.frontier(wide).partial
        leaves = synopsis._leaf_of_row[rows]
        assert np.any(synopsis.sample_counts[leaves] == 0)
        assert np.any(synopsis.leaf_populations()[leaves] == 0)
        assert len(groups) > len(predicates)

    def test_a_dynamic_synopsis_whose_deletes_emptied_leaves(self):
        """Covered and partial rows without tuples add nothing to the bounds."""
        from test_grouped_serving import _build

        rng = np.random.default_rng(23)
        key = rng.uniform(0.0, 80.0, size=6000)
        value = np.round(np.abs(rng.normal(40.0, 12.0, size=key.shape[0])), 1)
        table = Table({"key": key, "value": value}, name="emptied")
        dynamic = _build("dynamic", table)
        predicates = [
            RectPredicate.from_bounds(key=(low, low + width))
            for low, width in ((20.0, 40.0), (29.0, 3.5), (30.0, 20.0), (10.0, 60.0))
        ]
        groups = self._assert_groups(dynamic, predicates)
        counts = dynamic._node_count
        assert any(np.any(counts[f.covered] == 0) for _, _, f in groups)
        assert any(np.any(counts[f.partial] == 0) for _, _, f in groups)

    @pytest.mark.parametrize("agg", ["MIN", "MAX"])
    def test_the_poisoned_leaves(self, agg):
        """Sample rows set to ``±inf`` and NaN, beside ±0.0 ones."""
        from test_extremum_pruning import FRAME, _doctored

        synopsis = _doctored(agg, with_winner=True)
        predicates = [
            FRAME,
            RectPredicate.from_bounds(c0=(0.5, 99.5), c1=(30.0, 70.0)),
            RectPredicate.from_bounds(c0=(99.5, 100.0), c1=(70.0, 99.5)),
            RectPredicate.from_bounds(c0=(45.0, 55.0), c1=(45.0, 55.0)),
        ]
        groups = self._assert_groups(synopsis, predicates)
        answers = [r for row in synopsis.answer_shared(groups) for r in row]
        assert any(not math.isfinite(r.estimate) for r in answers)
