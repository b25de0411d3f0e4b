"""Tests for synopsis persistence: save/load must be bit-exact.

The acceptance bar for the serving layer is that a persisted-and-reloaded
synopsis answers every query identically to the in-memory instance it was
saved from — same estimates, intervals, hard bounds, and telemetry counters.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import mmap
import os
import shutil
import struct

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.updates import DynamicPASS
from repro.distributed.parallel import build_sharded_pass
from repro.data.table import Table
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.obs.drift import WorkloadFingerprint
from repro.serving import MPServingPool, ServingEngine
from repro.serving.catalog import SynopsisCatalog
from repro.serving.persistence import (
    FORMAT_VERSION,
    SEGMENT_MAGIC,
    EpochRegister,
    SegmentLayout,
    _write_segment,
    load_catalog,
    load_catalog_workloads,
    load_synopsis,
    save_catalog,
    save_synopsis,
)
from repro.serving.shm import attach_flat_synopsis

import oracle


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


def _read_header(path) -> tuple[dict, int]:
    """A saved file's JSON header document and its encoded length."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[16 : 16 + length]), length


def _rewrite_header(path, edit) -> None:
    """Apply ``edit(document)`` to a saved file's header, in place.

    The header area has slack before the first page-aligned payload, so an
    edited document of about the same size fits without moving anything.
    """
    document, _ = _read_header(path)
    raw = bytearray(path.read_bytes())
    header_area = min((entry["offset"] for entry in document["arrays"]), default=0)
    edit(document)
    encoded = json.dumps(document).encode("utf-8")
    assert 16 + len(encoded) <= header_area
    struct.pack_into("<Q", raw, 8, len(encoded))
    raw[16 : 16 + len(encoded)] = encoded
    path.write_bytes(raw)


class TestTreeArrays:
    def test_round_trip_preserves_structure_and_stats(self, table):
        """The reference build's tree -> arrays -> the oracle's decoded tree."""
        synopsis, built = oracle.built_with_objects(
            build_pass,
            table,
            "value",
            ["a"],
            PASSConfig(n_partitions=16, partitioner="equal", seed=0),
        )
        tree = built.tree
        decoded = oracle.objects_of(synopsis)
        rebuilt = decoded.tree
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
        for original, loaded in zip(built.leaf_samples, decoded.leaf_samples):
            assert loaded.box == original.box and loaded.size == original.size
            assert list(loaded.sample_columns) == list(original.sample_columns)
            for column, values in original.sample_columns.items():
                assert loaded.sample_columns[column].tobytes() == values.tobytes()
        assert synopsis.leaf_boxes == tuple(leaf.box for leaf in tree.leaves)

    def test_rejects_empty_arrays(self, table, tmp_path):
        """A file whose directory lacks the kernel arrays is refused by name."""
        synopsis = build_pass(
            table, "value", ["a"], PASSConfig(n_partitions=4, partitioner="equal")
        )
        path = save_synopsis(synopsis, tmp_path / "hollow")
        _rewrite_header(path, lambda document: document.update(arrays=[]))
        with pytest.raises(ValueError, match=r"hollow\.pass.*lack the arrays"):
            load_synopsis(path)


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

    def test_suffix_appended(self, table, tmp_path):
        synopsis = build_pass(
            table,
            "value",
            ["a"],
            PASSConfig(n_partitions=4, partitioner="equal", seed=0),
        )
        path = save_synopsis(synopsis, tmp_path / "plain")
        assert path.name == "plain.pass"
        assert path.exists()
        assert save_synopsis(synopsis, tmp_path / "named.pass").name == "named.pass"
        # Loading normalizes the same way.
        assert load_synopsis(tmp_path / "plain").population_size == table.n_rows


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


class TestSavedDirectory:
    """A saved catalog is a generation directory: ``current`` names the live
    manifest, which names every entry's file."""

    @pytest.fixture(scope="class")
    def catalogs(self, table):
        """Two 2-entry catalogs over the same names, built differently."""
        built = []
        for seed in (0, 1):
            config = PASSConfig(n_partitions=8, partitioner="equal", seed=seed)
            catalog = SynopsisCatalog()
            catalog.register(
                "x", build_pass(table, "value", ["a"], config), table_name="persisted"
            )
            catalog.register(
                "y",
                build_pass(table, "value", ["a", "b"], config.with_overrides(
                    partitioner="kd"
                )),
                table_name="persisted",
            )
            built.append(catalog)
        return built

    @staticmethod
    def fingerprint(high: float) -> WorkloadFingerprint:
        return WorkloadFingerprint.from_boxes(
            [(("a", 0.0, high),)], {"a": (0.0, 100.0)}
        )

    @staticmethod
    def assert_serves(directory, catalog, workload):
        loaded = load_catalog(directory)
        assert loaded.names() == catalog.names()
        for name in catalog.names():
            for query in workload:
                assert_identical(
                    loaded.get(name).synopsis.query(query),
                    catalog.get(name).synopsis.query(query),
                )

    def test_a_second_save_leaves_only_the_live_generation(
        self, catalogs, workload, tmp_path
    ):
        directory = tmp_path / "catalog"
        first = save_catalog(catalogs[0], directory)
        # A user's own files stay, even under a generation-like name; a killed
        # writer's temporaries and swap link go.
        (directory / "notes.txt").write_text("not a generation file")
        save_synopsis(catalogs[0].get("x").synopsis, directory / "synopsis-notes.pass")
        for leftover in (
            ".synopsis-7-0.pass.k2x_9qaz.tmp",
            ".manifest-7.json.a1b2c3d4.tmp",
        ):
            (directory / leftover).write_bytes(b"torn")
        os.symlink("manifest-7.json", directory / ".current-7")
        manifest = save_catalog(
            catalogs[1], directory, workloads={"x": self.fingerprint(50.0)}
        )
        assert first.name == "manifest-0.json" and manifest.name == "manifest-1.json"
        assert os.readlink(directory / "current") == manifest.name
        document = json.loads(manifest.read_text())
        named = {
            os.path.basename(entry[key])
            for entry in document["entries"]
            for key in ("segment", "workload")
            if entry.get(key)
        }
        assert named == {"synopsis-1-0.pass", "synopsis-1-1.pass", "workload-1-0.npz"}
        assert set(os.listdir(directory)) == {
            "current", manifest.name, "notes.txt", "synopsis-notes.pass", *named
        }
        self.assert_serves(directory, catalogs[1], workload)

    def test_a_copied_and_a_moved_directory_load_and_serve(
        self, catalogs, workload, tmp_path
    ):
        directory = tmp_path / "catalog"
        save_catalog(catalogs[0], directory)
        copied = shutil.copytree(directory, tmp_path / "copied", symlinks=True)
        moved = tmp_path / "moved"
        os.rename(directory, moved)
        for saved in (copied, moved):
            self.assert_serves(saved, catalogs[0], workload)
            with MPServingPool(str(saved), n_workers=1) as pool:
                queries = workload[:10]
                engine = ServingEngine(load_catalog(saved), cache_size=0)
                for got, query in zip(
                    pool.execute_batch(queries, "persisted"), queries
                ):
                    assert_identical(got, engine.execute(query, "persisted"))

    def test_a_copy_without_its_symlinks_is_refused_with_the_fix(
        self, catalogs, tmp_path
    ):
        directory = tmp_path / "catalog"
        save_catalog(catalogs[0], directory)
        copied = shutil.copytree(directory, tmp_path / "copied")
        assert not os.path.islink(copied / "current")
        for load in (load_catalog, load_catalog_workloads):
            with pytest.raises(ValueError, match="symlinks=True") as raised:
                load(copied)
            assert str(copied) in str(raised.value)

    def test_fingerprints_round_trip_with_their_generation(self, catalogs, tmp_path):
        directory = tmp_path / "catalog"
        assert load_catalog_workloads(save_catalog(catalogs[0], directory).parent) == {}
        for high in (40.0, 70.0):
            save_catalog(
                catalogs[0], directory, workloads={"y": self.fingerprint(high)}
            )
            baselines = load_catalog_workloads(directory)
            assert list(baselines) == ["y"]
            assert baselines["y"].distance(self.fingerprint(high)) == pytest.approx(
                0.0, abs=1e-12
            )
            assert self.fingerprint(high).distance(
                self.fingerprint(110.0 - high)
            ) > 0.0
        # The fingerprint file and the synopsis files share the epoch.
        _, manifest = EpochRegister.attach(str(directory)).read()
        (y,) = [entry for entry in manifest["entries"] if entry["name"] == "y"]
        epoch = _epoch(os.readlink(directory / "current"))
        assert y["workload"] == f"workload-{epoch}-1.npz"
        assert os.path.basename(y["segment"]) == f"synopsis-{epoch}-1.pass"

    def test_an_old_format_directory_is_refused_by_name(self, catalogs, tmp_path):
        directory = tmp_path / "legacy"
        directory.mkdir()
        save_synopsis(catalogs[0].get("x").synopsis, directory / "x.pass")
        (directory / "catalog.json").write_text(
            json.dumps(
                {
                    "format": FORMAT_VERSION,
                    "entries": [
                        {
                            "name": "x",
                            "file": "x.pass",
                            "table_name": "persisted",
                            "predicate_columns": ["a"],
                        }
                    ],
                }
            )
        )
        for load in (load_catalog, load_catalog_workloads):
            with pytest.raises(ValueError, match=r"catalog\.json.*") as raised:
                load(directory)
            assert str(directory) in str(raised.value)
        with pytest.raises(FileNotFoundError, match="no saved catalog"):
            load_catalog(tmp_path / "missing")


def _epoch(manifest_name: str) -> int:
    return int(manifest_name.removeprefix("manifest-").removesuffix(".json"))


class TestFormatVersioning:
    @pytest.fixture
    def saved(self, table, tmp_path):
        synopsis = build_pass(
            table,
            "value",
            ["a"],
            PASSConfig(n_partitions=4, partitioner="equal", seed=0),
        )
        return save_synopsis(synopsis, tmp_path / "versioned")

    def test_header_records_format_version(self, saved):
        document, _ = _read_header(saved)
        assert document["format"] == FORMAT_VERSION == 2
        assert saved.read_bytes()[:8] == SEGMENT_MAGIC

    def test_unsupported_version_rejected(self, saved):
        _rewrite_header(
            saved, lambda document: document.update(format=FORMAT_VERSION + 1)
        )
        with pytest.raises(
            ValueError, match=r"unsupported synopsis format 3 in .*versioned\.pass"
        ):
            load_synopsis(saved)

    def test_v1_npz_archive_is_refused(self, tmp_path):
        """Version 1 was a compressed npz; there is no second read path."""
        path = tmp_path / "old.pass"
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle, __header__=json.dumps({"format": 1}), values=np.arange(3)
            )
        with pytest.raises(
            ValueError, match=r"unsupported synopsis format 1 in .*old\.pass"
        ):
            load_synopsis(path)

    def test_non_synopsis_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.pass"
        path.write_bytes(b"not a synopsis at all" * 400)
        with pytest.raises(ValueError, match=r"junk\.pass is not a synopsis segment"):
            load_synopsis(path)
        path.write_bytes(b"")
        with pytest.raises(ValueError, match=r"junk\.pass.*empty"):
            load_synopsis(path)
        with pytest.raises(TypeError, match="expected a PASSSynopsis"):
            save_synopsis(object(), path)


@pytest.mark.parametrize("kind", ["static", "dynamic", "sharded"])
def test_written_segment_equals_the_layout_in_a_zeroed_buffer(table, kind, tmp_path):
    """The file writer streams each piece to its offset, staging no copy:
    its bytes, through a plain file object and through ``save_synopsis``,
    are those ``SegmentLayout.write`` puts in a zeroed buffer."""
    config = PASSConfig(n_partitions=8, partitioner="equal", with_sketches=True, seed=0)
    synopsis = {
        "static": lambda: build_pass(table, "value", ["a"], config),
        "dynamic": lambda: DynamicPASS(table, "value", ["a"], config),
        "sharded": lambda: build_sharded_pass(
            table, "value", "a", n_shards=2, config=config
        ),
    }[kind]()
    header, arrays = synopsis.export_buffers()
    layout = SegmentLayout(header, arrays)
    expected = bytearray(layout.size)
    layout.write(expected)
    stream = io.BytesIO()
    _write_segment(stream, header, arrays)
    assert stream.getvalue() == expected
    assert save_synopsis(synopsis, tmp_path / kind).read_bytes() == expected


class TestOutsideInput:
    """A saved file is outside input: every defect is a ``ValueError`` naming it."""

    @pytest.fixture(scope="class")
    def files(self, table, tmp_path_factory):
        directory = tmp_path_factory.mktemp("outside")
        config = PASSConfig(
            n_partitions=8, partitioner="equal", with_sketches=True, seed=0
        )
        sharded = build_sharded_pass(
            table, "value", "a", n_shards=2, config=config
        )
        return {
            "static": save_synopsis(
                build_pass(table, "value", ["a"], config), directory / "static"
            ),
            "dynamic": save_synopsis(
                DynamicPASS(table, "value", ["a"], config), directory / "dynamic"
            ),
            "sharded": save_synopsis(sharded, directory / "sharded"),
        }

    @pytest.mark.parametrize("kind", ["static", "dynamic", "sharded"])
    def test_truncation_sweep(self, files, kind, tmp_path):
        """Cut at every page boundary, inside the header and at the last byte."""
        raw = files[kind].read_bytes()
        assert len(raw) % mmap.PAGESIZE == 0
        _, header_len = _read_header(files[kind])
        cuts = sorted(
            {0, 7, 8, 15, 16, 16 + header_len // 2, 16 + header_len, len(raw) - 1}
            | set(range(mmap.PAGESIZE, len(raw), mmap.PAGESIZE))
        )
        path = tmp_path / f"{kind}-cut.pass"
        for cut in cuts:
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=r"-cut\.pass"):
                load_synopsis(path)
        path.write_bytes(raw)
        assert load_synopsis(path).population_size > 0

    def test_flipped_magic(self, files, tmp_path):
        raw = bytearray(files["static"].read_bytes())
        raw[3] ^= 0xFF
        path = tmp_path / "magic.pass"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=r"magic\.pass.*bad magic"):
            load_synopsis(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda entry: entry.update(offset=1 << 40), "ends past"),
            (lambda entry: entry.update(shape=[1 << 40]), "ends past"),
            (lambda entry: entry.update(offset=-8), "negative"),
            (lambda entry: entry.update(dtype="|O"), "dtype"),
            (lambda entry: entry.update(dtype="<U4"), "dtype"),
            (lambda entry: entry.update(dtype="no-such-type"), "corrupt"),
            (lambda entry: entry.pop("shape"), "corrupt"),
        ],
    )
    def test_corrupt_directory_entries(self, files, tmp_path, edit, message):
        path = tmp_path / "directory.pass"
        path.write_bytes(files["static"].read_bytes())
        _rewrite_header(path, lambda document: edit(document["arrays"][3]))
        with pytest.raises(ValueError, match=rf"directory\.pass.*{message}"):
            load_synopsis(path)

    def test_header_that_is_not_json(self, files, tmp_path):
        raw = bytearray(files["static"].read_bytes())
        raw[16:24] = b"\xff\xfe{{{{}}"
        path = tmp_path / "header.pass"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=r"header\.pass.*unreadable header"):
            load_synopsis(path)

    def test_a_live_segment_is_checked_the_same_way(self, table, tmp_path):
        """``attach`` runs the one reader: a foreign generation file is a ValueError."""
        foreign = tmp_path / "synopsis-1.pass"
        foreign.write_bytes(b"NOTAPASS" + bytes(mmap.PAGESIZE - 8))
        with pytest.raises(ValueError, match="bad magic"):
            attach_flat_synopsis(str(foreign))
