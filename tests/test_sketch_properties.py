"""Property-based tests for the sketch laws and the sharded metamorphic bound.

Three families of properties, all driven by hypothesis (deterministic in CI
under the ``ci`` profile registered in ``conftest.py``):

* **Sketch laws** — merge commutativity (exact), merge associativity (bit
  exact for the KMV distinct sketch; within the certified rank-error bound
  for the quantile sketch), and ``to_arrays`` / ``from_arrays`` round-trip
  identity.
* **Certified error bounds under adversarial inputs** — whatever value
  multiset hypothesis constructs (sorted runs, constant blocks, duplicate
  floods, mixed magnitudes), the true rank of every quantile estimate stays
  within the sketch's self-reported ``rank_error_bound()``, and KMV stays
  *exact* below its capacity.
* **Sharding is metamorphic** (the acceptance property) — on a 100k-row
  workload, for random shard counts and random box predicates, the sharded
  scatter-gather QUANTILE / COUNT_DISTINCT answers and the single-synopsis
  answers must both contain the exact answer within their certified hard
  bounds, and the two certified intervals must overlap — sharding cannot
  move an estimate beyond the documented error.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery, ExactEngine
from repro.sketches import DistinctSketch, QuantileSketch

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_FINITE = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def value_arrays(draw, min_size: int = 1, max_size: int = 400) -> np.ndarray:
    """Adversarially shaped float arrays: base values, duplication, ordering."""
    base = draw(st.lists(_FINITE, min_size=min_size, max_size=max_size))
    values = np.asarray(base, dtype=float)
    repeat = draw(st.integers(min_value=1, max_value=4))
    if repeat > 1:
        values = np.tile(values, repeat)
    shape = draw(st.sampled_from(["as-is", "sorted", "reversed", "constant"]))
    if shape == "sorted":
        values = np.sort(values)
    elif shape == "reversed":
        values = np.sort(values)[::-1]
    elif shape == "constant":
        values = np.full(values.size, values[0])
    return values


_QS = (0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0)


def _assert_rank_bound(sketch: QuantileSketch, data: np.ndarray) -> None:
    """Every quantile estimate's true rank is within the certified bound."""
    ordered = np.sort(data)
    n = ordered.size
    bound = sketch.rank_error_bound()
    assert sketch.n == n
    for q in _QS:
        estimate = sketch.quantile(q)
        target = max(1, min(math.ceil(q * n), n))
        lo = np.searchsorted(ordered, estimate, side="left") + 1
        hi = np.searchsorted(ordered, estimate, side="right")
        assert lo <= target + bound, (q, estimate, lo, target, bound)
        assert hi >= target - bound, (q, estimate, hi, target, bound)


# ---------------------------------------------------------------------------
# Quantile sketch laws
# ---------------------------------------------------------------------------


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _update_weighted_by_masks(
    sketch: QuantileSketch, values: np.ndarray, total_weight: int
) -> None:
    """``update_weighted`` as first written: a weight per value, a mask per bit.

    The reference the prefix / suffix placement must reproduce exactly.
    """
    values = np.asarray(values, dtype=float).ravel()
    values = values[~np.isnan(values)]
    if values.size == 0 or total_weight <= 0:
        return
    values = np.sort(values)
    base, extra = divmod(total_weight, values.size)
    weights = np.full(values.size, base, dtype=np.int64)
    weights[:extra] += 1
    sketch._min = min(sketch._min, float(values[0]))
    sketch._max = max(sketch._max, float(values[-1]))
    sketch._n += total_weight
    level = 0
    while np.any(weights):
        chosen = values[(weights & 1).astype(bool)]
        if chosen.size:
            sketch._ensure_level(level)
            sketch._levels[level] = np.concatenate([sketch._levels[level], chosen])
        weights >>= 1
        level += 1
    sketch._compress()


def _value_at_rank_scalar(sketch: QuantileSketch, rank: float) -> float:
    """``value_at_rank`` as first written: its own sorted view, scalar clipping."""
    values, cumulative = sketch._sorted_weighted()
    rank = min(max(float(rank), 1.0), float(cumulative[-1]))
    index = int(np.searchsorted(cumulative, rank, side="left"))
    return float(values[min(index, values.size - 1)])


def _assert_same_state(sketch: QuantileSketch, reference: QuantileSketch) -> None:
    assert len(sketch._levels) == len(reference._levels)
    for level, expected in zip(sketch._levels, reference._levels):
        assert level.tobytes() == expected.tobytes()
    assert sketch._compactions == reference._compactions
    assert sketch._n == reference._n
    assert sketch._rank_error == reference._rank_error
    assert _bits(sketch._min) == _bits(reference._min)
    assert _bits(sketch._max) == _bits(reference._max)


class TestQuantileSketchLaws:
    @given(a=value_arrays(), b=value_arrays(), k=st.sampled_from([8, 16, 64]))
    def test_merge_commutativity_is_exact(self, a, b, k):
        left, right = QuantileSketch(k), QuantileSketch(k)
        left.update_array(a)
        right.update_array(b)
        ab, ba = left.merge(right), right.merge(left)
        assert ab.n == ba.n
        assert ab.rank_error_bound() == ba.rank_error_bound()
        for q in _QS:
            assert ab.quantile(q) == ba.quantile(q)

    @given(
        a=value_arrays(),
        b=value_arrays(),
        c=value_arrays(),
        k=st.sampled_from([8, 16, 64]),
    )
    def test_merge_associativity_within_certified_bound(self, a, b, c, k):
        sketches = []
        for part in (a, b, c):
            sketch = QuantileSketch(k)
            sketch.update_array(part)
            sketches.append(sketch)
        grouped_left = sketches[0].merge(sketches[1]).merge(sketches[2])
        grouped_right = sketches[0].merge(sketches[1].merge(sketches[2]))
        combined = np.concatenate([a, b, c])
        # Both groupings must answer within their own certified bound of the
        # true combined multiset — the meaningful associativity for a lossy
        # summary (bit equality is not promised; the bound is).
        _assert_rank_bound(grouped_left, combined)
        _assert_rank_bound(grouped_right, combined)
        assert grouped_left.n == grouped_right.n == combined.size
        assert grouped_left.min == grouped_right.min == combined.min()
        assert grouped_left.max == grouped_right.max == combined.max()

    @given(data=value_arrays(max_size=1000), k=st.sampled_from([8, 16, 64]))
    def test_rank_error_bound_under_adversarial_inputs(self, data, k):
        sketch = QuantileSketch(k)
        sketch.update_array(data)
        _assert_rank_bound(sketch, data)

    @given(data=value_arrays(), k=st.sampled_from([8, 32]))
    def test_round_trip_identity(self, data, k):
        sketch = QuantileSketch(k)
        sketch.update_array(data)
        loaded = QuantileSketch.from_arrays(sketch.to_arrays())
        assert loaded.n == sketch.n
        assert loaded.rank_error_bound() == sketch.rank_error_bound()
        assert loaded.min == sketch.min and loaded.max == sketch.max
        for q in _QS:
            assert loaded.quantile(q) == sketch.quantile(q)

    @given(
        data=value_arrays(),
        weight=st.integers(min_value=1, max_value=10_000),
        k=st.sampled_from([8, 32]),
    )
    def test_weighted_update_conserves_weight(self, data, weight, k):
        sketch = QuantileSketch(k)
        sketch.update_weighted(data, weight)
        assert sketch.n == weight
        assert sketch.min >= np.min(data) - 0.0  # inserted values come from data
        assert sketch.max <= np.max(data)

    @given(
        updates=st.lists(
            st.tuples(
                value_arrays(max_size=60),
                st.booleans(),
                # Below the value count (only a prefix is kept), exact
                # multiples of it (no extra unit) and everything in between.
                st.integers(min_value=0, max_value=4000),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ),
        other=value_arrays(),
        k=st.sampled_from([8, 16, 64]),
    )
    def test_weighted_update_places_the_items_of_the_per_value_weights(
        self, updates, other, k
    ):
        """The prefix / suffix placement is the per-bit mask loop, bit for bit."""
        sketch, reference = QuantileSketch(k), QuantileSketch(k)
        for values, with_nans, weight, exact_multiple in updates:
            if with_nans:
                values = np.concatenate([values, [math.nan, math.nan]])
                np.random.default_rng(values.size).shuffle(values)
            if exact_multiple:
                weight -= weight % int((~np.isnan(values)).sum())
            sketch.update_weighted(values, weight)
            _update_weighted_by_masks(reference, values, weight)
            _assert_same_state(sketch, reference)
        tail = QuantileSketch(k)
        tail.update_array(other)
        _assert_same_state(sketch.merge(tail), reference.merge(tail))

    @given(
        data=value_arrays(max_size=600),
        k=st.sampled_from([8, 64]),
        ranks=st.lists(
            st.one_of(
                st.integers(min_value=-5, max_value=3000),
                st.floats(min_value=-5.0, max_value=3000.0, allow_nan=False),
            ),
            max_size=12,
        ),
    )
    def test_values_at_ranks_is_value_at_rank_per_rank(self, data, k, ranks):
        sketch = QuantileSketch(k)
        sketch.update_array(data)
        ranks += [0, 1, sketch.n, sketch.n + 1]  # the clipped ends, always
        got = sketch.values_at_ranks(ranks)
        assert [_bits(v) for v in got] == [
            _bits(sketch.value_at_rank(rank)) for rank in ranks
        ]
        assert [_bits(v) for v in got] == [
            _bits(_value_at_rank_scalar(sketch, rank)) for rank in ranks
        ]
        assert all(type(value) is float for value in got)
        empty = QuantileSketch(k).values_at_ranks(ranks)
        assert len(empty) == len(ranks) and all(math.isnan(v) for v in empty)
        assert QuantileSketch(k).values_at_ranks([]) == sketch.values_at_ranks([]) == []


# ---------------------------------------------------------------------------
# Distinct sketch laws
# ---------------------------------------------------------------------------


class TestDistinctSketchLaws:
    @given(
        a=value_arrays(),
        b=value_arrays(),
        c=value_arrays(),
        k=st.sampled_from([16, 64]),
    )
    def test_merge_associativity_and_commutativity_bit_exact(self, a, b, c, k):
        sketches = []
        for part in (a, b, c):
            sketch = DistinctSketch(k)
            sketch.update_array(part)
            sketches.append(sketch)
        orders = [
            sketches[0].merge(sketches[1]).merge(sketches[2]),
            sketches[0].merge(sketches[1].merge(sketches[2])),
            sketches[2].merge(sketches[0]).merge(sketches[1]),
            sketches[1].merge(sketches[2].merge(sketches[0])),
        ]
        reference = orders[0]
        for other in orders[1:]:
            assert other.estimate() == reference.estimate()
            assert other.is_exact == reference.is_exact
            assert np.array_equal(
                other.to_arrays()["hashes"], reference.to_arrays()["hashes"]
            )

    @given(data=value_arrays(max_size=200))
    def test_exact_below_capacity_on_adversarial_inputs(self, data):
        truth = float(np.unique(data).shape[0])
        assume(truth <= 256)
        sketch = DistinctSketch(k=256)
        sketch.update_array(data)
        assert sketch.is_exact
        assert sketch.estimate() == truth
        assert sketch.error_fraction() == 0.0

    @given(data=value_arrays(), k=st.sampled_from([16, 64]))
    def test_round_trip_identity(self, data, k):
        sketch = DistinctSketch(k)
        sketch.update_array(data)
        loaded = DistinctSketch.from_arrays(sketch.to_arrays())
        assert loaded.estimate() == sketch.estimate()
        assert loaded.is_exact == sketch.is_exact
        assert np.array_equal(
            loaded.to_arrays()["hashes"], sketch.to_arrays()["hashes"]
        )


# ---------------------------------------------------------------------------
# Sharding is metamorphic: scatter-gather == single synopsis within bound
# ---------------------------------------------------------------------------

_N_ROWS = 100_000
_KEY_HIGH = 1000.0
_SHARD_COUNTS = (2, 3, 5)


@pytest.fixture(scope="module")
def sketch_workload():
    """A 100k-row workload: one synopsis plus sharded variants per count.

    The value column is quantized to ~2.5k distinct values so the distinct
    sketches stay unsaturated (their envelopes are then exact and the
    containment assertions deterministic); the quantile assertions rely only
    on the certified rank bounds, which hold for any data.
    """
    rng = np.random.default_rng(20260730)
    key = rng.uniform(0.0, _KEY_HIGH, size=_N_ROWS)
    value = np.round(np.abs(rng.normal(50.0, 15.0, size=_N_ROWS) + 0.02 * key), 1)
    table = Table({"key": key, "value": value}, name="sketch_workload")
    config = PASSConfig(
        n_partitions=32,
        sample_rate=0.01,
        partitioner="equal",
        sketch_quantile_k=200,
        sketch_distinct_k=8192,
    )
    single = build_pass(table, "value", ["key"], config)
    sharded = {
        count: build_sharded_pass(
            table,
            "value",
            "key",
            n_shards=count,
            config=config,
        )
        for count in _SHARD_COUNTS
    }
    return {
        "table": table,
        "engine": ExactEngine(table),
        "single": single,
        "sharded": sharded,
    }


@st.composite
def key_boxes(draw):
    """Random non-degenerate [low, high] boxes over the key domain."""
    low = draw(st.floats(min_value=0.0, max_value=_KEY_HIGH - 1.0))
    width = draw(st.floats(min_value=5.0, max_value=_KEY_HIGH))
    return low, min(low + width, _KEY_HIGH)


class TestShardingIsMetamorphic:
    @settings(max_examples=25)
    @given(
        box=key_boxes(),
        q=st.sampled_from([0.5, 0.95, 0.99]),
        n_shards=st.sampled_from(_SHARD_COUNTS),
    )
    def test_sharded_quantile_within_certified_bounds(
        self, sketch_workload, box, q, n_shards
    ):
        low, high = box
        query = AggregateQuery(
            "QUANTILE",
            "value",
            RectPredicate({"key": Interval(low, high)}),
            quantile=q,
        )
        engine = sketch_workload["engine"]
        matching = np.sort(
            sketch_workload["table"].column("value")[engine.predicate_mask(query)]
        )
        assume(matching.size > 0)
        # The sketch's rank-definition ground truth (value at rank ceil(q*m)).
        target = max(1, min(math.ceil(q * matching.size), matching.size))
        truth = float(matching[target - 1])

        single = sketch_workload["single"].query(query)
        merged = sketch_workload["sharded"][n_shards].query(query)
        # Certified bounds must contain the truth on both paths ...
        assert single.hard_lower <= truth <= single.hard_upper
        assert merged.hard_lower <= truth <= merged.hard_upper
        # ... so sharding cannot move the answer beyond the documented
        # epsilon: the two certified intervals must overlap, and each
        # estimate must lie inside the other path's interval envelope
        # stretched by nothing at all.
        assert max(single.hard_lower, merged.hard_lower) <= min(
            single.hard_upper, merged.hard_upper
        )

    @settings(max_examples=25)
    @given(box=key_boxes(), n_shards=st.sampled_from(_SHARD_COUNTS))
    def test_sharded_count_distinct_within_certified_bounds(
        self, sketch_workload, box, n_shards
    ):
        low, high = box
        query = AggregateQuery.count_distinct(
            "value", RectPredicate({"key": Interval(low, high)})
        )
        truth = sketch_workload["engine"].execute(query)
        single = sketch_workload["single"].query(query)
        merged = sketch_workload["sharded"][n_shards].query(query)
        assert single.hard_lower <= truth <= single.hard_upper
        assert merged.hard_lower <= truth <= merged.hard_upper
        assert max(single.hard_lower, merged.hard_lower) <= min(
            single.hard_upper, merged.hard_upper
        )

    @settings(max_examples=10)
    @given(
        q=st.sampled_from([0.5, 0.95]), n_shards=st.sampled_from(_SHARD_COUNTS)
    )
    def test_unfiltered_quantile_matches_across_paths(
        self, sketch_workload, q, n_shards
    ):
        """With no predicate there is no boundary: both paths are pure sketch
        merges of the same leaf sketches and must agree within the summed
        compaction error alone."""
        query = AggregateQuery(
            "QUANTILE", "value", RectPredicate.everything(), quantile=q
        )
        matching = np.sort(sketch_workload["table"].column("value"))
        target = max(1, min(math.ceil(q * matching.size), matching.size))
        truth = float(matching[target - 1])
        single = sketch_workload["single"].query(query)
        merged = sketch_workload["sharded"][n_shards].query(query)
        for result in (single, merged):
            assert result.tuples_processed == 0  # no partial leaves touched
            assert result.hard_lower <= truth <= result.hard_upper
        spread = abs(single.estimate - merged.estimate)
        envelope = (single.hard_upper - single.hard_lower) + (
            merged.hard_upper - merged.hard_lower
        )
        assert spread <= envelope
