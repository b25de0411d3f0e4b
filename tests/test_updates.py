"""Tests for dynamic updates (insertions / deletions) of a PASS synopsis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery, ExactEngine

import oracle


@pytest.fixture
def dynamic_setup():
    """A small table plus a DynamicPASS built over it."""
    rng = np.random.default_rng(9)
    n = 2000
    table = Table(
        {
            "key": np.arange(n, dtype=float),
            "value": np.abs(rng.normal(50.0, 10.0, size=n)),
        },
        name="dynamic",
    )
    config = PASSConfig(n_partitions=8, sample_rate=0.1, partitioner="equal", seed=0)
    dynamic = DynamicPASS(table, "value", ["key"], config=config, rng=1)
    return table, dynamic


def _root_sum(dynamic: DynamicPASS) -> float:
    return dynamic.synopsis.flat.node_stats(slice(0, 1))[0].sum


class TestInsertions:
    def test_insert_updates_counts_and_sums(self, dynamic_setup):
        table, dynamic = dynamic_setup
        before_count = dynamic.population_size
        before_sum = _root_sum(dynamic)
        dynamic.insert({"key": 100.5, "value": 42.0})
        assert dynamic.population_size == before_count + 1
        assert _root_sum(dynamic) == pytest.approx(before_sum + 42.0)
        assert dynamic.updates_since_build == 1

    def test_insert_updates_every_node_on_the_path(self, dynamic_setup):
        _, dynamic = dynamic_setup
        flat = dynamic.synopsis.flat
        tree = oracle.objects_of(dynamic).tree
        leaf = tree.leaves[flat.leaf_for_point({"key": 100.5})]
        # Node rows are the decoded tree's geometry order.
        nodes = tree.geometry().nodes
        path = [
            row
            for row, node in enumerate(nodes)
            if any(inner is leaf for inner in node.iter_subtree())
        ]
        assert nodes[path[0]] is tree.root and nodes[path[-1]] is leaf
        assert len(path) == 4
        before = [stats.count for stats in flat.node_stats()]
        box = dynamic.insert({"key": 100.5, "value": 10.0})
        assert box == leaf.box
        for row, stats in enumerate(flat.node_stats()):
            assert stats.count == before[row] + (row in path)

    def test_inserted_extremum_widens_hard_bounds(self, dynamic_setup):
        table, dynamic = dynamic_setup
        dynamic.insert({"key": 250.0, "value": 10_000.0})
        query = AggregateQuery(
            "MAX", "value", RectPredicate.from_bounds(key=(0.0, 500.0))
        )
        result = dynamic.query(query)
        assert result.hard_upper >= 10_000.0

    def test_query_after_inserts_tracks_exact_answer(self, dynamic_setup):
        table, dynamic = dynamic_setup
        new_rows = [{"key": 123.3 + i, "value": 77.0} for i in range(50)]
        for row in new_rows:
            dynamic.insert(row)
        query = AggregateQuery.count(
            "value", RectPredicate.from_bounds(key=(0.0, 1999.0))
        )
        result = dynamic.query(query)
        # COUNT over the whole key range: 2000 original + 50 inserted.
        updated = Table(
            {
                "key": np.concatenate(
                    [table.column("key"), [r["key"] for r in new_rows]]
                ),
                "value": np.concatenate(
                    [table.column("value"), [r["value"] for r in new_rows]]
                ),
            }
        )
        truth = ExactEngine(updated).execute(query)
        assert result.relative_error(truth) < 0.1

    def test_insert_requires_predicate_columns(self, dynamic_setup):
        _, dynamic = dynamic_setup
        with pytest.raises(KeyError):
            dynamic.insert({"value": 1.0})


class TestDeletions:
    def test_delete_updates_counts(self, dynamic_setup):
        table, dynamic = dynamic_setup
        row = {
            "key": float(table.column("key")[10]),
            "value": float(table.column("value")[10]),
        }
        before = dynamic.population_size
        dynamic.delete(row)
        assert dynamic.population_size == before - 1

    def test_delete_then_insert_round_trip(self, dynamic_setup):
        table, dynamic = dynamic_setup
        row = {"key": 5.0, "value": float(table.column("value")[5])}
        before_sum = _root_sum(dynamic)
        dynamic.delete(row)
        dynamic.insert(row)
        assert _root_sum(dynamic) == pytest.approx(before_sum)
        assert dynamic.updates_since_build == 2


class TestRebuild:
    def test_rebuild_resets_update_counter(self, dynamic_setup):
        table, dynamic = dynamic_setup
        dynamic.insert({"key": 1.5, "value": 3.0})
        assert dynamic.updates_since_build == 1
        dynamic.rebuild(table)
        assert dynamic.updates_since_build == 0
        assert dynamic.population_size == table.n_rows

    def test_rebuild_keeps_the_instance_generator(self, dynamic_setup):
        """Identity and state continue: a rebuild neither swaps the generator
        for ``default_rng(0)`` nor replays its draws."""
        table, _ = dynamic_setup
        config = PASSConfig(
            n_partitions=8, sample_rate=0.1, partitioner="equal", seed=0
        )
        generator = np.random.default_rng(123)
        # A capacity below the built sample makes construction itself draw.
        dynamic = DynamicPASS(
            table, "value", ["key"], config=config, reservoir_capacity=5, rng=generator
        )
        states = [generator.bit_generator.state]
        for _ in range(2):
            dynamic.rebuild(table)
            assert dynamic._rng is generator
            states.append(generator.bit_generator.state)
        assert states[0] != states[1] != states[2] != states[0]

        # A seed becomes one generator that is kept, not re-seeded.
        seeded = DynamicPASS(
            table, "value", ["key"], config=config, reservoir_capacity=5, rng=123
        )
        first = seeded._rng
        for expected in states[1:]:
            seeded.rebuild(table)
            assert seeded._rng is first
            assert first.bit_generator.state == expected

    def test_negative_reservoir_capacity_is_named_as_such(self, dynamic_setup):
        table, _ = dynamic_setup
        with pytest.raises(ValueError, match="must not be negative"):
            DynamicPASS(table, "value", ["key"], reservoir_capacity=-1)


class TestStaleness:
    def test_staleness_starts_at_zero_and_grows(self, dynamic_setup):
        table, dynamic = dynamic_setup
        assert dynamic.staleness == 0.0
        dynamic.insert({"key": 10.5, "value": 4.0})
        assert dynamic.staleness == pytest.approx(1.0 / table.n_rows)
        dynamic.insert({"key": 11.5, "value": 4.0})
        assert dynamic.staleness == pytest.approx(2.0 / table.n_rows)

    def test_rebuild_resets_staleness(self, dynamic_setup):
        table, dynamic = dynamic_setup
        dynamic.insert({"key": 1.5, "value": 3.0})
        dynamic.rebuild(table)
        assert dynamic.staleness == 0.0
        assert not dynamic.minmax_possibly_stale


class TestStaleExtrema:
    def test_deleting_an_extremum_warns_once(self, dynamic_setup):
        table, dynamic = dynamic_setup
        import warnings as warnings_module

        from repro.core.updates import StaleExtremaWarning

        flat = dynamic.synopsis.flat
        extremum = flat.leaf_stats(0).max
        keys = table.column("key")
        values = table.column("value")
        # Find the actual row holding the leaf's maximum.
        in_leaf = dynamic.synopsis.leaf_boxes[0].mask({"key": keys})
        index = int(np.flatnonzero(in_leaf & (values == extremum))[0])
        row = {"key": float(keys[index]), "value": float(values[index])}

        assert not dynamic.minmax_possibly_stale
        with pytest.warns(StaleExtremaWarning):
            dynamic.delete(row)
        assert dynamic.minmax_possibly_stale
        # Bounds stay conservative (valid but possibly loose).
        assert flat.leaf_stats(0).max == extremum

        # A second stale deletion does not warn again.
        extremum2 = flat.leaf_stats(0).min
        index2 = int(np.flatnonzero(in_leaf & (values == extremum2))[0])
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", StaleExtremaWarning)
            dynamic.delete({"key": float(keys[index2]), "value": float(values[index2])})

    def test_interior_deletion_does_not_warn(self, dynamic_setup):
        table, dynamic = dynamic_setup
        import warnings as warnings_module

        from repro.core.updates import StaleExtremaWarning

        stats = dynamic.synopsis.flat.leaf_stats(0)
        keys = table.column("key")
        values = table.column("value")
        in_leaf = dynamic.synopsis.leaf_boxes[0].mask({"key": keys})
        interior = np.flatnonzero(in_leaf & (values > stats.min) & (values < stats.max))
        index = int(interior[0])
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", StaleExtremaWarning)
            dynamic.delete({"key": float(keys[index]), "value": float(values[index])})
        assert not dynamic.minmax_possibly_stale
