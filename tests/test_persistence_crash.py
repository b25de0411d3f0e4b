"""Crash-injection tests for atomic synopsis persistence.

The acceptance property: ``kill -9`` at *any* instant during
:func:`~repro.serving.persistence.save_synopsis` never leaves an unloadable
file behind.  A restart after the crash sees either the complete old file or
the complete new one — never a truncated one that makes ``load_synopsis``
raise ``ValueError``.

The injection runs a real save in a child process with the crash wired into
the exact point under test (mid temp-file write, or between the temp write
and the atomic rename), SIGKILLs it there, and then loads the archive from
the parent — the same sequence as a serving node dying mid-checkpoint and
restarting.

A catalog re-save stopped part-way (its writer raising before the second
entry's file) loads as the old catalog whole; the every-line SIGKILL
version of that is ``tests/test_publish_crash.py``.

The restart-resume tests cover the second half of the story: a dynamic
synopsis saved under write load reloads with its update counters and
staleness intact and keeps accepting updates.
"""

from __future__ import annotations

import dataclasses
import math
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving import persistence
from repro.serving.catalog import SynopsisCatalog
from repro.serving.persistence import (
    load_catalog,
    load_synopsis,
    load_workload_fingerprint,
    save_catalog,
    save_synopsis,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def assert_identical(a, b):
    """AQPResult equality treating NaN fields as equal (NaN != NaN otherwise)."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), field.name
        else:
            assert x == y, f"{field.name}: {x!r} != {y!r}"


def make_table(seed: int, n: int = 3000) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        {
            "a": rng.uniform(0.0, 100.0, size=n),
            "value": np.abs(rng.lognormal(1.5, 0.7, size=n)),
        },
        name="crashy",
    )


def build(seed: int):
    return build_pass(
        make_table(seed),
        "value",
        ["a"],
        PASSConfig(n_partitions=8, sample_rate=0.02, opt_sample_size=200, seed=0),
    )


def workload() -> list[AggregateQuery]:
    queries = []
    for low, high in [(5.0, 40.0), (20.0, 90.0), (0.0, 100.0), (61.0, 62.0)]:
        predicate = RectPredicate.from_bounds(a=(low, high))
        for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
            queries.append(AggregateQuery(agg, "value", predicate))
    return queries


def run_crashing_save(tmp_path: Path, path: Path, crash_point: str) -> None:
    """Run a real save in a child process and SIGKILL it at ``crash_point``.

    The child rebuilds the "new" synopsis deterministically, arms the crash
    inside the persistence module, then runs a real ``save_synopsis``
    (workload fingerprint included, so both write paths execute).  The crash
    is ``os.kill(pid, SIGKILL)`` — no cleanup code gets to run, exactly like
    a crashed serving node.
    """
    program = textwrap.dedent(
        f"""
        import os, signal, sys
        import numpy as np
        sys.path.insert(0, {SRC!r})
        from repro.core.builder import build_pass
        from repro.core.config import PASSConfig
        from repro.data.table import Table
        from repro.obs.drift import WorkloadFingerprint
        from repro.serving import persistence

        rng = np.random.default_rng(2)
        table = Table(
            {{
                "a": rng.uniform(0.0, 100.0, size=3000),
                "value": np.abs(rng.lognormal(1.5, 0.7, size=3000)),
            }},
            name="crashy",
        )
        synopsis = build_pass(
            table, "value", ["a"],
            PASSConfig(n_partitions=8, sample_rate=0.02, opt_sample_size=200, seed=0),
        )
        target = {str(path)!r}
        crash_point = {crash_point!r}

        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        if crash_point == "before_rename":
            real_replace = os.replace
            def crashing_replace(src, dst):
                if str(dst) == target:
                    die()
                return real_replace(src, dst)
            persistence.os.replace = crashing_replace
        elif crash_point == "mid_write":
            import io
            real_write = persistence._write_segment
            def crashing_write(handle, header, arrays):
                # The workload fingerprint sibling was already written for
                # real (it is an npz, not a segment): the crash hits the
                # synopsis write.
                buffer = io.BytesIO()
                real_write(buffer, header, arrays)
                payload = buffer.getvalue()
                handle.write(payload[: len(payload) // 2])
                handle.flush()
                os.fsync(handle.fileno())
                die()
            persistence._write_segment = crashing_write
        else:
            raise SystemExit(f"unknown crash point {{crash_point!r}}")

        fingerprint = WorkloadFingerprint.from_boxes(
            [(("a", 0.0, 50.0),)], {{"a": (0.0, 100.0)}}
        )
        persistence.save_synopsis(synopsis, target, workload=fingerprint)
        raise SystemExit("save completed; the crash point never fired")
        """
    )
    completed = subprocess.run(
        [sys.executable, "-c", program],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == -signal.SIGKILL, (
        f"child exited {completed.returncode} instead of being killed:\n"
        f"{completed.stdout}\n{completed.stderr}"
    )


@pytest.mark.parametrize("crash_point", ["before_rename", "mid_write"])
class TestKillDuringSave:
    def test_existing_archive_survives_crashing_resave(
        self, tmp_path: Path, crash_point: str
    ) -> None:
        """Old archive stays byte-complete when a re-save is killed."""
        path = tmp_path / "synopsis.pass"
        old = build(seed=1)
        save_synopsis(old, path)
        expected = [old.query(query) for query in workload()]

        run_crashing_save(tmp_path, path, crash_point)

        # The loader must see the complete old file — never a torn one.
        loaded = load_synopsis(path)
        for query, want in zip(workload(), expected):
            assert_identical(loaded.query(query), want)

    def test_fresh_save_crash_leaves_no_archive(
        self, tmp_path: Path, crash_point: str
    ) -> None:
        """A killed first-time save leaves a clean miss, not a corrupt file."""
        path = tmp_path / "fresh.pass"
        run_crashing_save(tmp_path, path, crash_point)
        # Either nothing exists (clean miss a restart can rebuild from) or —
        # never — a file that exists but fails to load.
        if path.exists():
            load_synopsis(path)

    def test_workload_sibling_is_never_staler_than_synopsis(
        self, tmp_path: Path, crash_point: str
    ) -> None:
        """The fingerprint writes first, so a crash leaves (new wl, old syn).

        That ordering is safe for drift detection (a fresher baseline is
        conservative); the reverse — a fresh synopsis referencing a stale or
        missing fingerprint — must never happen.
        """
        path = tmp_path / "paired.pass"
        old = build(seed=1)
        save_synopsis(old, path)
        run_crashing_save(tmp_path, path, crash_point)
        workload_path = path.with_name("paired.workload.npz")
        if workload_path.exists():
            load_workload_fingerprint(workload_path)  # complete, loadable
        load_synopsis(path)  # and the synopsis is never torn


def test_an_interrupted_catalog_resave_loads_the_old_catalog_whole(
    tmp_path: Path, monkeypatch
) -> None:
    """A re-save stopped before its second entry's file leaves the old
    catalog — both entries — not the new ``x`` beside the old ``y``."""
    old, new = SynopsisCatalog(), SynopsisCatalog()
    for catalog, seeds in ((old, (1, 2)), (new, (3, 4))):
        for name, seed in zip(("x", "y"), seeds):
            catalog.register(name, build(seed), table_name="crashy")
    directory = tmp_path / "catalog"
    save_catalog(old, directory)
    real_write = persistence._atomic_write
    written: list[Path] = []

    def stop_at_the_second_synopsis(path, write):
        if path.suffix == ".pass":
            written.append(path)
            if len(written) == 2:
                raise OSError("disk gone")
        return real_write(path, write)

    monkeypatch.setattr(persistence, "_atomic_write", stop_at_the_second_synopsis)
    with pytest.raises(OSError, match="disk gone"):
        save_catalog(new, directory)
    monkeypatch.undo()
    loaded = load_catalog(directory)
    assert loaded.names() == ["x", "y"]
    for name in ("x", "y"):
        for query in workload():
            assert_identical(
                loaded.get(name).synopsis.query(query),
                old.get(name).synopsis.query(query),
            )
    # The next complete save replaces the stopped one's leftovers.
    save_catalog(new, directory)
    assert sorted(path.name for path in directory.iterdir()) == [
        "current", "manifest-1.json", "synopsis-1-0.pass", "synopsis-1-1.pass"
    ]


class TestRestartResume:
    def make_dynamic(self) -> DynamicPASS:
        return DynamicPASS(
            make_table(seed=7, n=2000),
            "value",
            ["a"],
            PASSConfig(n_partitions=8, sample_rate=0.02, opt_sample_size=200, seed=0),
        )

    def updates(self, seed: int, n: int) -> list[dict[str, float]]:
        rng = np.random.default_rng(seed)
        return [
            {"a": float(rng.uniform(0.0, 100.0)), "value": float(rng.uniform(1, 30))}
            for _ in range(n)
        ]

    def test_counters_and_staleness_survive_reload(self, tmp_path: Path) -> None:
        dynamic = self.make_dynamic()
        for row in self.updates(seed=3, n=60):
            dynamic.insert(row)
        path = save_synopsis(dynamic, tmp_path / "dyn")

        loaded = load_synopsis(path)
        assert isinstance(loaded, DynamicPASS)
        assert loaded.updates_since_build == dynamic.updates_since_build
        assert loaded.staleness == dynamic.staleness
        assert loaded.population_size == dynamic.population_size
        for query in workload():
            assert_identical(loaded.query(query), dynamic.query(query))

    def test_save_under_write_load_reloads_a_consistent_snapshot(
        self, tmp_path: Path
    ) -> None:
        """Updates that land after the save don't corrupt the archive.

        The save exports a snapshot; updates applied to the live instance
        while (and after) the archive is written must neither appear in the
        reloaded copy nor prevent it from resuming updates.
        """
        dynamic = self.make_dynamic()
        pre_save = self.updates(seed=4, n=40)
        post_save = self.updates(seed=5, n=25)
        for row in pre_save:
            dynamic.insert(row)
        path = save_synopsis(dynamic, tmp_path / "under-load")
        snapshot_updates = dynamic.updates_since_build
        for row in post_save:
            dynamic.insert(row)

        loaded = load_synopsis(path)
        assert loaded.updates_since_build == snapshot_updates
        assert loaded.population_size == dynamic.population_size - len(post_save)

        # The reloaded synopsis resumes the write path: replaying the same
        # post-save updates advances its counters to match the live one.
        for row in post_save:
            loaded.insert(row)
        assert loaded.updates_since_build == dynamic.updates_since_build
        assert loaded.staleness == dynamic.staleness
        assert loaded.population_size == dynamic.population_size
        # COUNT is sample-independent, so it agrees exactly even though the
        # reservoir RNG state does not survive a reload.
        count = AggregateQuery(
            "COUNT", "value", RectPredicate.from_bounds(a=(0.0, 100.0))
        )
        assert_identical(loaded.query(count), dynamic.query(count))
