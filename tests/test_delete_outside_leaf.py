"""A delete whose value lies outside its leaf's [MIN, MAX] is rejected unwritten.

Deletes never tighten a leaf's MIN / MAX, so those stay valid outer bounds of
the live values: a tuple whose value lies outside them cannot be in the leaf.
Subtracting it anyway drove the leaf's SUM (and every certified bound over
it) arbitrarily far from the truth; the delete now raises ``ValueError``
before it writes anything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.table import Table
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery

FULL_SUM = AggregateQuery("SUM", "value", RectPredicate({"key": Interval(0.0, 100.0)}))


@pytest.fixture()
def table() -> Table:
    rng = np.random.default_rng(0)
    keys, values = rng.uniform(0.0, 100.0, 2_000), rng.normal(10.0, 2.0, 2_000)
    return Table({"key": keys, "value": values}, name="t")


@pytest.fixture()
def dynamic(table) -> DynamicPASS:
    return DynamicPASS(table, "value", ["key"])


def _state(synopsis: DynamicPASS) -> dict[str, np.ndarray]:
    return synopsis.export_buffers()[1]


@pytest.mark.parametrize("value", [1e9, -1e9])
def test_a_value_outside_the_leaf_bounds_is_rejected_before_any_write(
    table, dynamic, value
):
    before = _state(dynamic)
    answer = dynamic.query(FULL_SUM)
    with pytest.raises(ValueError, match="leaf .* holds values in"):
        dynamic.delete({"key": 5.0, "value": value})
    after = _state(dynamic)
    assert after.keys() == before.keys()
    for key, array in before.items():
        assert np.array_equal(after[key], array), key
    assert dynamic.updates_since_build == 0
    assert dynamic.query(FULL_SUM) == answer
    truth = float(table.column("value").sum())
    assert answer.hard_lower <= truth <= answer.hard_upper


def test_a_value_at_the_leaf_extremum_is_still_deleted(dynamic):
    leaf = dynamic.leaf_for_point({"key": 5.0})
    stats = dynamic.leaf_stats(leaf)
    with pytest.warns(StaleExtremaWarning):
        dynamic.delete({"key": 5.0, "value": stats.max})
    assert dynamic.updates_since_build == 1
    assert dynamic.leaf_stats(leaf).count == stats.count - 1
