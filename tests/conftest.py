"""Shared fixtures for the test suite.

Most tests work on small, deterministic tables so failures are easy to reason
about; a handful of integration tests use the surrogate dataset generators at
reduced sizes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, Phase, settings
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    pass
else:
    # The "ci" profile makes property tests deterministic: derandomize=True
    # derives every example from the test body (a fixed seed), and the
    # deadline is dropped because shared CI runners stall unpredictably.
    # Select it with HYPOTHESIS_PROFILE=ci (the CI workflow does).
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", deadline=None)
    # The "mutants" profile is "dev" without shrinking: a deliberately broken
    # kernel fails the first falsifying example, and shrinking it over the
    # cached fixtures would take minutes per test.  Select it with
    # HYPOTHESIS_PROFILE=mutants when checking that the suite kills a
    # mutant.
    settings.register_profile(
        "mutants",
        deadline=None,
        phases=[phase for phase in Phase if phase is not Phase.shrink],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.data.generators import adversarial, intel_wireless_like, nyc_taxi_like
from repro.data.table import Table
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery, ExactEngine


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_table() -> Table:
    """A 10-row table with a single predicate column and known values."""
    return Table(
        {
            "key": np.arange(10, dtype=float),
            "value": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
        },
        name="tiny",
    )


@pytest.fixture
def skewed_table(rng: np.random.Generator) -> Table:
    """A 2000-row table whose value variance is concentrated in one region.

    The first 80% of keys carry a constant value; the final 20% carry noisy
    large values — a miniature version of the paper's adversarial dataset.
    """
    n = 2000
    key = np.arange(n, dtype=float)
    value = np.concatenate(
        [np.full(int(n * 0.8), 5.0), rng.normal(100.0, 20.0, size=n - int(n * 0.8))]
    )
    value = np.abs(value)
    return Table({"key": key, "value": value}, name="skewed")


@pytest.fixture
def multi_table(rng: np.random.Generator) -> Table:
    """A 3000-row table with three predicate columns and one value column."""
    n = 3000
    return Table(
        {
            "a": rng.uniform(0, 100, size=n),
            "b": rng.uniform(0, 10, size=n),
            "c": rng.integers(0, 50, size=n).astype(float),
            "value": np.abs(rng.lognormal(1.0, 0.6, size=n)),
        },
        name="multi",
    )


@pytest.fixture(scope="session")
def intel_small() -> Table:
    """A small Intel-Wireless-like dataset shared across tests (read-only)."""
    return intel_wireless_like(n_rows=20_000, seed=7)


@pytest.fixture(scope="session")
def adversarial_small() -> Table:
    """A small adversarial dataset shared across tests (read-only)."""
    return adversarial(n_rows=20_000, seed=41)


@pytest.fixture(scope="session")
def nyc_small() -> Table:
    """A small NYC-taxi-like dataset shared across tests (read-only)."""
    return nyc_taxi_like(n_rows=20_000, seed=23)


@pytest.fixture
def range_query_factory():
    """Factory producing SUM/COUNT/AVG range queries over a key column."""

    def factory(agg: str, low: float, high: float, value_column: str = "value",
                key_column: str = "key") -> AggregateQuery:
        return AggregateQuery(
            agg, value_column, RectPredicate({key_column: Interval(low, high)})
        )

    return factory


@pytest.fixture
def exact(tiny_table: Table) -> ExactEngine:
    """Exact engine over the tiny table."""
    return ExactEngine(tiny_table)
