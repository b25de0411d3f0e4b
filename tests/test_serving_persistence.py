"""Tests for synopsis persistence: save/load must be bit-exact.

The acceptance bar for the serving layer is that a persisted-and-reloaded
synopsis answers every query identically to the in-memory instance it was
saved from — same estimates, intervals, hard bounds, and telemetry counters.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.tree import PartitionTree
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving.catalog import SynopsisCatalog
from repro.serving.persistence import (
    FORMAT_VERSION,
    load_catalog,
    load_synopsis,
    save_catalog,
    save_synopsis,
)


def assert_identical(a, b):
    """AQPResult equality treating NaN fields as equal (NaN != NaN otherwise)."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), field.name
        else:
            assert x == y, f"{field.name}: {x!r} != {y!r}"


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(5)
    n = 6000
    return Table(
        {
            "a": rng.uniform(0.0, 100.0, size=n),
            "b": rng.uniform(0.0, 10.0, size=n),
            "value": np.abs(rng.lognormal(2.0, 0.8, size=n)),
        },
        name="persisted",
    )


@pytest.fixture(scope="module")
def workload(table: Table) -> list[AggregateQuery]:
    rng = np.random.default_rng(11)
    queries = []
    for _ in range(30):
        low, high = sorted(rng.uniform(0.0, 100.0, size=2))
        predicate = RectPredicate.from_bounds(a=(float(low), float(high)))
        for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
            queries.append(AggregateQuery(agg, "value", predicate))
    return queries


class TestTreeArrays:
    def test_round_trip_preserves_structure_and_stats(self, table):
        synopsis = build_pass(
            table,
            "value",
            ["a"],
            PASSConfig(n_partitions=16, partitioner="equal", seed=0),
        )
        tree = synopsis.tree
        rebuilt = PartitionTree.from_arrays(tree.to_arrays())
        assert rebuilt.n_leaves == tree.n_leaves
        assert rebuilt.n_nodes == tree.n_nodes
        assert rebuilt.height == tree.height
        for original, loaded in zip(
            tree.root.iter_subtree(), rebuilt.root.iter_subtree()
        ):
            assert loaded.stats == original.stats
            assert loaded.box == original.box
            assert loaded.leaf_index == original.leaf_index
        rebuilt.validate()

    def test_rejects_empty_arrays(self):
        with pytest.raises(ValueError, match="empty"):
            PartitionTree.from_arrays(
                {
                    "n_children": np.zeros(0, dtype=np.int64),
                    "leaf_index": np.zeros(0, dtype=np.int64),
                    "sum": np.zeros(0),
                    "count": np.zeros(0, dtype=np.int64),
                    "min": np.zeros(0),
                    "max": np.zeros(0),
                    "box_columns": np.array([], dtype=str),
                    "box_low": np.zeros((0, 0)),
                    "box_high": np.zeros((0, 0)),
                    "box_present": np.zeros((0, 0), dtype=bool),
                }
            )


class TestSynopsisRoundTrip:
    def test_estimates_bit_exact_after_reload(self, table, workload, tmp_path):
        synopsis = build_pass(
            table,
            "value",
            ["a"],
            PASSConfig(n_partitions=32, opt_sample_size=800, seed=3),
        )
        path = save_synopsis(synopsis, tmp_path / "static.pass")
        loaded = load_synopsis(path)
        assert isinstance(loaded, PASSSynopsis)
        assert loaded.sample_size == synopsis.sample_size
        assert loaded.population_size == synopsis.population_size
        for query in workload:
            assert_identical(synopsis.query(query), loaded.query(query))

    def test_multidim_synopsis_round_trips(self, table, tmp_path):
        synopsis = build_pass(
            table,
            "value",
            ["a", "b"],
            PASSConfig(n_partitions=32, partitioner="kd", opt_sample_size=800, seed=0),
        )
        loaded = load_synopsis(save_synopsis(synopsis, tmp_path / "kd"))
        query = AggregateQuery.sum(
            "value", RectPredicate.from_bounds(a=(10.0, 70.0), b=(2.0, 8.0))
        )
        assert_identical(synopsis.query(query), loaded.query(query))

    def test_npz_suffix_appended(self, table, tmp_path):
        synopsis = build_pass(
            table,
            "value",
            ["a"],
            PASSConfig(n_partitions=4, partitioner="equal", seed=0),
        )
        path = save_synopsis(synopsis, tmp_path / "plain")
        assert path.suffix == ".npz"
        assert path.exists()


class TestDynamicRoundTrip:
    def test_reload_preserves_updates_and_reservoirs(self, table, workload, tmp_path):
        dynamic = DynamicPASS(
            table,
            "value",
            ["a"],
            PASSConfig(n_partitions=8, partitioner="equal", sample_rate=0.05, seed=0),
        )
        rng = np.random.default_rng(2)
        for _ in range(50):
            dynamic.insert(
                {
                    "a": float(rng.uniform(0, 100)),
                    "b": 1.0,
                    "value": float(rng.uniform(1, 30)),
                }
            )
        loaded = load_synopsis(save_synopsis(dynamic, tmp_path / "dynamic"))
        assert isinstance(loaded, DynamicPASS)
        assert loaded.updates_since_build == dynamic.updates_since_build
        assert loaded.staleness == dynamic.staleness
        assert loaded.population_size == dynamic.population_size
        for query in workload:
            assert_identical(dynamic.query(query), loaded.query(query))

    def test_reloaded_instance_accepts_further_updates(self, table, tmp_path):
        dynamic = DynamicPASS(
            table,
            "value",
            ["a"],
            PASSConfig(n_partitions=4, partitioner="equal", seed=0),
        )
        loaded = load_synopsis(save_synopsis(dynamic, tmp_path / "resume"))
        before = loaded.population_size
        loaded.insert({"a": 50.0, "b": 1.0, "value": 7.0})
        assert loaded.population_size == before + 1
        assert loaded.updates_since_build == 1


class TestCatalogRoundTrip:
    def test_catalog_round_trip_serves_identical_estimates(
        self, table, workload, tmp_path
    ):
        config = PASSConfig(n_partitions=16, partitioner="equal", seed=0)
        catalog = SynopsisCatalog()
        catalog.register(
            "static", build_pass(table, "value", ["a"], config), table_name="persisted"
        )
        catalog.register(
            "dynamic",
            DynamicPASS(
                table,
                "value",
                ["a", "b"],
                PASSConfig(n_partitions=16, partitioner="kd", seed=0),
            ),
            table_name="persisted",
        )
        catalog.register_table(table, "persisted")
        save_catalog(catalog, tmp_path / "catalog")
        loaded = load_catalog(tmp_path / "catalog", tables={"persisted": table})

        assert set(loaded.names()) == {"static", "dynamic"}
        assert loaded.get("dynamic").is_dynamic
        assert loaded.exact_engine("persisted") is not None
        for query in workload:
            entry = catalog.route(query)
            loaded_entry = loaded.route(query)
            assert loaded_entry.name == entry.name
            assert_identical(
                entry.pass_synopsis.query(query),
                loaded_entry.pass_synopsis.query(query),
            )


class TestFormatVersioning:
    def test_header_records_format_version(self, table, tmp_path):
        import json

        synopsis = build_pass(
            table,
            "value",
            ["a"],
            PASSConfig(n_partitions=4, partitioner="equal", seed=0),
        )
        path = save_synopsis(synopsis, tmp_path / "versioned")
        with np.load(path, allow_pickle=False) as data:
            header = json.loads(data["__header__"].item())
        assert header["format"] == FORMAT_VERSION

    def test_unsupported_version_rejected(self, table, tmp_path):
        import json

        synopsis = build_pass(
            table,
            "value",
            ["a"],
            PASSConfig(n_partitions=4, partitioner="equal", seed=0),
        )
        path = save_synopsis(synopsis, tmp_path / "future")
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        header = json.loads(arrays["__header__"].item())
        header["format"] = FORMAT_VERSION + 1
        arrays["__header__"] = np.array(json.dumps(header))
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="unsupported synopsis format"):
            load_synopsis(path)

    @pytest.mark.parametrize("execution", ["object", "soa"])
    def test_archive_with_execution_header_still_loads(
        self, table, workload, tmp_path, execution
    ):
        """Archives from before the one-executor change carry ``execution``
        in the synopsis header and (dynamic ones) in the saved config."""
        import json

        dynamic = DynamicPASS(
            table,
            "value",
            ["a"],
            PASSConfig(n_partitions=8, partitioner="equal", sample_rate=0.05, seed=0),
        )
        dynamic.insert({"a": 50.0, "b": 1.0, "value": 7.0})
        static = build_pass(
            table, "value", ["a"], PASSConfig(n_partitions=16, seed=3)
        )
        for name, saved in (("old_dynamic", dynamic), ("old_static", static)):
            path = save_synopsis(saved, tmp_path / name)
            with np.load(path, allow_pickle=False) as data:
                arrays = {key: data[key] for key in data.files}
            header = json.loads(arrays["__header__"].item())
            assert "execution" not in header
            header["execution"] = execution
            if "config" in header:
                assert "execution" not in header["config"]
                header["config"]["execution"] = execution
            arrays["__header__"] = np.array(json.dumps(header))
            np.savez_compressed(path, **arrays)
            loaded = load_synopsis(path)
            for query in workload:
                assert_identical(saved.query(query), loaded.query(query))

    def test_non_synopsis_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez_compressed(path, values=np.arange(3))
        with pytest.raises(ValueError, match="missing header"):
            load_synopsis(path)
