"""The batched 1-D partitioners equal their scalar reference, bit for bit.

``repro.partitioning`` solves each DP level of ADP in lockstep (one oracle
call per binary-search step over every row, one over the candidate matrix),
scores a hill-climbing configuration in one call, and enumerates an exact
range's sub-interval triangle in one expression.  ``tests/oracle.py`` keeps
the scalar versions: one rank range per oracle call, one row and one binary
search at a time.  Every comparison here is on the exact bits — break ranks,
cut values and objectives — never within a tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import ScalarMaxVarianceOracle, scalar_partitioners, scalar_run_dp
from repro.aggregation.prefix import PrefixSums
from repro.data.table import Table
from repro.partitioning.dp import _run_dp, approximate_dp_partition, naive_dp_partition
from repro.partitioning.hill_climbing import hill_climbing_partition
from repro.partitioning.max_variance import (
    MaxVarianceOracle,
    SparseTable,
    brute_force_max_variance,
)

AGGS = ("SUM", "AVG", "COUNT")
DELTAS = (0.01, 0.05, 0.2, 1.0)
VALUE_KINDS = (
    "lognormal",
    "normal",
    "negative",
    "zeros",
    "constant",
    "few",
    "overflow",
)
KEY_KINDS = ("distinct", "duplicates", "constant")
SETTINGS = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], derandomize=True
)


def _values(kind: str, m: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "lognormal":
        return rng.lognormal(1.0, 1.5, size=m)
    if kind == "normal":
        return rng.normal(0.0, 20.0, size=m)
    if kind == "negative":
        return -rng.lognormal(1.0, 1.0, size=m)
    if kind == "zeros":
        return np.zeros(m)
    if kind == "constant":
        return np.full(m, 7.25)
    if kind == "few":
        return rng.integers(-2, 3, size=m).astype(float)
    # Sums of squares overflow: inf and NaN variances, all-inf candidate sets.
    return np.where(np.arange(m) % 2 == 0, 1e154, -1e154)


@st.composite
def tables(draw, max_rows: int) -> Table:
    m = draw(st.integers(min_value=1, max_value=max_rows))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    key_kind = draw(st.sampled_from(KEY_KINDS))
    if key_kind == "distinct":
        key = rng.permutation(m).astype(float)
    elif key_kind == "duplicates":
        key = rng.integers(0, max(1, m // 4), size=m).astype(float)
    else:
        key = np.zeros(m)
    values = _values(draw(st.sampled_from(VALUE_KINDS)), m, rng)
    return Table({"key": key, "value": values})


def _bits(result) -> tuple:
    return (
        result.break_ranks,
        tuple(float(cut).hex() for cut in result.boundaries),
        float(result.objective).hex(),
    )


def _batched_and_scalar(partition, *args, **kwargs) -> tuple[tuple, tuple]:
    with np.errstate(over="ignore", invalid="ignore"):
        batched = partition(*args, **kwargs)
        with scalar_partitioners():
            scalar = partition(*args, **kwargs)
    return _bits(batched), _bits(scalar)


@settings(SETTINGS, max_examples=30)
@given(
    table=tables(max_rows=300),
    agg=st.sampled_from(AGGS),
    delta=st.sampled_from(DELTAS),
    seed=st.integers(min_value=0, max_value=1000),
    data=st.data(),
)
def test_adp_and_hill_climbing_match_the_scalar_reference(
    table, agg, delta, seed, data
):
    m = table.n_rows
    k = data.draw(st.integers(min_value=1, max_value=m + 5), label="k")
    args = (table, "value", "key", k)
    common = dict(agg=agg, delta=delta, opt_sample_size=m, rng=seed)
    batched, scalar = _batched_and_scalar(approximate_dp_partition, *args, **common)
    assert batched == scalar
    batched, scalar = _batched_and_scalar(hill_climbing_partition, *args, **common)
    assert batched == scalar
    if agg == "COUNT":
        # ADP short-circuits COUNT templates; the DP itself still has to agree.
        values = table.column("value")
        with np.errstate(over="ignore", invalid="ignore"):
            batched_dp = _run_dp(MaxVarianceOracle(values, agg, delta), k, True)
            scalar_oracle = ScalarMaxVarianceOracle(values, agg, delta)
            scalar_dp = scalar_run_dp(scalar_oracle, k, True)
        assert batched_dp[0] == scalar_dp[0]
        assert batched_dp[1].hex() == scalar_dp[1].hex()


@settings(SETTINGS, max_examples=40)
@given(
    table=tables(max_rows=14),
    agg=st.sampled_from(AGGS),
    delta=st.sampled_from(DELTAS),
    data=st.data(),
)
def test_naive_dp_matches_the_scalar_reference(table, agg, delta, data):
    k = data.draw(st.integers(min_value=1, max_value=table.n_rows + 5), label="k")
    batched, scalar = _batched_and_scalar(
        naive_dp_partition, table, "value", "key", k, agg=agg, delta=delta
    )
    assert batched == scalar
    values = table.column("value")
    with np.errstate(over="ignore", invalid="ignore"):
        exact = ScalarMaxVarianceOracle(values, agg, delta, exact=True)
        expected = exact.max_variance(0, table.n_rows - 1)
        assert brute_force_max_variance(values, agg, delta).hex() == expected.hex()


@settings(SETTINGS, max_examples=60)
@given(
    table=tables(max_rows=300),
    agg=st.sampled_from(AGGS),
    delta=st.sampled_from(DELTAS),
    exact=st.booleans(),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_oracle_lanes_match_scalar_calls(table, agg, delta, exact, seed):
    """Lanes of any shape, ``start > end`` ones mixed in, equal scalar calls."""
    values = table.column("value")[: 24 if exact else None]
    m = values.shape[0]
    rng = np.random.default_rng(seed)
    start = rng.integers(0, m, size=(40, 3))
    end = rng.integers(0, m, size=(40, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        batched = MaxVarianceOracle(values, agg, delta, exact=exact)
        scalar = ScalarMaxVarianceOracle(values, agg, delta, exact=exact)
        lanes = batched.max_variance(start, end)
        expected = [scalar.max_variance(s, e) for s, e in zip(start.flat, end.flat)]
        single = batched.max_variance(int(start[0, 0]), int(end[0, 0]))
    assert lanes.shape == (40, 3)
    assert lanes.ravel().tobytes() == np.array(expected).tobytes()
    assert type(single) is float and single.hex() == expected[0].hex()


@pytest.mark.parametrize("agg", AGGS)
@pytest.mark.parametrize("head", [0, 7, 30])
def test_overflowing_values_match_the_scalar_reference(agg, head):
    """inf / NaN variances: Python's max, the all-inf fallback, the running max."""
    rng = np.random.default_rng(head)
    tail = np.where(np.arange(60 - head) % 2 == 0, 1e154, -1e154)
    values = np.concatenate([rng.normal(5.0, 2.0, size=head), tail])
    table = Table({"key": np.arange(60.0), "value": values})
    for partition, source, k in (
        (approximate_dp_partition, table, 6),
        (hill_climbing_partition, table, 6),
        (naive_dp_partition, table.head(16), 3),
    ):
        batched, scalar = _batched_and_scalar(
            partition, source, "value", "key", k, agg=agg, delta=0.05
        )
        assert batched == scalar
    with np.errstate(over="ignore", invalid="ignore"):
        batched_dp = _run_dp(MaxVarianceOracle(values, agg, 0.05), 6, True)
        scalar_dp = scalar_run_dp(ScalarMaxVarianceOracle(values, agg, 0.05), 6, True)
    assert batched_dp[0] == scalar_dp[0]
    assert batched_dp[1].hex() == scalar_dp[1].hex()


@pytest.mark.parametrize("m,k", [(1, 1), (2, 5), (300, 7), (1000, 16)])
def test_run_dp_makes_log_m_oracle_calls_per_level(m, k):
    oracle = MaxVarianceOracle(np.random.default_rng(m).lognormal(size=m), "SUM")
    calls = []
    score = oracle.max_variance

    def counted(start, end):
        calls.append((start, end))
        return score(start, end)

    oracle.max_variance = counted
    _run_dp(oracle, k, True)
    levels = min(k, m) - 1
    assert len(calls) <= 1 + levels * (math.ceil(math.log2(m)) + 1)


class TestRangeValidationOverLanes:
    def test_prefix_sums_reject_one_bad_lane(self):
        prefix = PrefixSums.from_values(np.arange(5.0))
        good = np.array([0, 1, 2])
        for start, end in (
            (good, np.array([1, 5, 3])),  # past the end
            (np.array([0, -1, 2]), good + 1),  # before the start
            (np.array([0, 3, 2]), good + 1),  # start > end
        ):
            for method in (prefix.range_sum, prefix.range_sum_sq, prefix.range_count):
                with pytest.raises(IndexError):
                    method(start, end)

    def test_prefix_sums_lanes_equal_scalar_calls(self):
        prefix = PrefixSums.from_values(np.array([1.5, -2.0, 3.25, 0.0, 7.0]))
        start, end = np.array([0, 1, 4, 2]), np.array([4, 1, 4, 3])
        sums = prefix.range_sum(start, end)
        assert sums.tolist() == [prefix.range_sum(s, e) for s, e in zip(start, end)]
        assert type(prefix.range_sum(0, 4)) is float

    def test_sparse_table_rejects_one_bad_lane(self):
        table = SparseTable(np.arange(6.0))
        with pytest.raises(IndexError):
            table.query(np.array([0, 2]), np.array([3, 6]))
        with pytest.raises(IndexError):
            table.query(np.array([0, 4]), np.array([3, 2]))
        assert table.query(np.array([0, 2]), np.array([5, 3])).tolist() == [5.0, 3.0]

    def test_oracle_rejects_a_bad_lane_but_zeroes_empty_ones(self):
        oracle = MaxVarianceOracle(np.arange(5.0), agg="SUM")
        with pytest.raises(IndexError):
            oracle.max_variance(np.array([0, 2]), np.array([3, 9]))
        lanes = oracle.max_variance(np.array([0, 4, 2]), np.array([3, 1, 2]))
        assert lanes[1] == 0.0 and lanes[0] == oracle.max_variance(0, 3)
