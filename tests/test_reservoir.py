"""Tests for reservoir sampling (Vitter's Algorithm R).

The accept / evict rule is :func:`repro.sampling.reservoir.reservoir_slot`;
the rows live in the flat CSR sample columns and ``DynamicPASS`` keeps the
``capacity`` / ``seen`` counters, so the row-level behaviours (discard of an
equal row, the rebased ``seen``) are checked through it.
"""

from __future__ import annotations

import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.table import Table
from repro.sampling.reservoir import reservoir_slot


def _retained(capacity: int, n_items: int, seed: int) -> list[int]:
    """Stream items ``0 .. n_items - 1`` through a reservoir; what it holds."""
    rng = np.random.default_rng(seed)
    held: list[int] = []
    for item in range(n_items):
        slot = reservoir_slot(len(held), capacity, item + 1, rng)
        if slot is None:
            continue
        if slot == len(held):
            held.append(item)
        else:
            held[slot] = item
    return held


def _dynamic(reservoir_capacity: int | None = None) -> tuple[Table, DynamicPASS]:
    rng = np.random.default_rng(5)
    table = Table(
        {"key": np.arange(400, dtype=float), "value": rng.normal(50.0, 10.0, size=400)}
    )
    config = PASSConfig(n_partitions=4, sample_rate=0.2, partitioner="equal", seed=0)
    return table, DynamicPASS(
        table, "value", ["key"], config=config, reservoir_capacity=reservoir_capacity
    )


@contextlib.contextmanager
def _ignoring_stale_extrema():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StaleExtremaWarning)
        yield


class TestReservoirBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            _dynamic(reservoir_capacity=-1)

    def test_keeps_everything_below_capacity(self):
        assert _retained(10, 5, seed=0) == [0, 1, 2, 3, 4]

    def test_below_capacity_consumes_no_random_numbers(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert [reservoir_slot(i, 10, i + 1, rng) for i in range(10)] == list(range(10))
        assert rng.bit_generator.state == before

    def test_never_exceeds_capacity(self):
        assert len(_retained(8, 1_000, seed=0)) == 8

    def test_a_full_reservoir_replaces_inside_its_capacity(self):
        rng = np.random.default_rng(0)
        slots = [reservoir_slot(1, 1, seen, rng) for seen in range(2, 201)]
        # With capacity 1 the expected number of acceptances is H_200 - 1 ~ 4.9;
        # any positive count shows replacement happens, always at slot 0.
        assert set(slots) == {None, 0}

    def test_discard_removes_one_matching_row(self):
        table, dynamic = _dynamic()
        flat = dynamic.synopsis.flat
        leaf = 1
        sample = {c: v.copy() for c, v in flat.leaf_sample(leaf).items()}
        sampled = {column: float(values[3]) for column, values in sample.items()}
        with _ignoring_stale_extrema():
            dynamic.delete(sampled)
        after = flat.leaf_sample(leaf)
        assert len(after["key"]) == len(sample["key"]) - 1
        assert sampled["key"] not in after["key"].tolist()
        for column, values in sample.items():
            assert after[column].tolist() == np.delete(values, 3).tolist()
        # A tuple that was never sampled leaves the sample alone.
        keys = table.column("key")
        in_leaf = dynamic.synopsis.leaf_boxes[leaf].mask({"key": keys})
        unsampled = next(
            int(i)
            for i in np.flatnonzero(in_leaf)
            if keys[i] not in sample["key"].tolist()
        )
        with _ignoring_stale_extrema():
            dynamic.delete(
                {
                    "key": float(keys[unsampled]),
                    "value": float(table.column("value")[unsampled]),
                }
            )
        assert flat.leaf_sample(leaf)["key"].tolist() == after["key"].tolist()

    def test_seen_is_rebased_to_the_leaf_population(self):
        _, dynamic = _dynamic()
        _, arrays = dynamic.export_buffers()
        # 100 rows per leaf, 20 % sampled: the reservoir has "seen" the
        # whole leaf, so a new row is accepted with probability 40 / 101.
        assert arrays["seen"].tolist() == [100] * 4
        assert arrays["capacity"].tolist() == [40] * 4
        accepted = 0
        for i in range(300):
            dynamic.insert({"key": 0.5, "value": 1e6 + i})
            accepted += 1e6 + i in dynamic.synopsis.flat.leaf_sample(0)["value"]
        _, arrays = dynamic.export_buffers()
        assert arrays["seen"].tolist() == [400, 100, 100, 100]
        # sum_{n=101}^{400} 40 / n ~ 55.2 expected acceptances.
        assert 30 < accepted < 85


class TestReservoirUniformity:
    def test_inclusion_probability_is_approximately_uniform(self):
        """Every stream element should be retained with probability ~ capacity/n."""
        capacity, stream_length, trials = 10, 100, 400
        counts = np.zeros(stream_length)
        for trial in range(trials):
            for item in _retained(capacity, stream_length, seed=trial):
                counts[item] += 1
        frequencies = counts / trials
        expected = capacity / stream_length
        # Early and late stream elements must be retained at similar rates.
        assert abs(frequencies[:20].mean() - expected) < 0.05
        assert abs(frequencies[-20:].mean() - expected) < 0.05

    @given(
        st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=200)
    )
    @settings(max_examples=50)
    def test_size_invariant(self, capacity, n_items):
        assert len(_retained(capacity, n_items, seed=7)) == min(capacity, n_items)
