"""Crash-injection tests for publishing generations as files.

The acceptance property: ``kill -9`` of a publisher's owner at *any* instant
inside :meth:`~repro.serving.shm.SynopsisPublisher.publish` leaves the
``current`` manifest naming a complete generation — one that
:func:`~repro.serving.shm.attach_flat_synopsis` maps, and that a live pool
keeps answering bit-identically to the in-process engine over that
generation.  A later publisher removes the dead owner's directory, and
never a live owner's.

The owner is a child process.  It publishes a first generation, then
republishes with a line tracer on the writer — ``repro/serving/shm.py`` and
``repro/serving/persistence.py``, less the segment layout's in-memory offset
arithmetic — that SIGKILLs it at line ``k`` of the ``n`` lines the same
publish runs uninterrupted: at every ``k`` (one owner forked per line), and,
with a pool attached before the kill, at the first line, the last and
seeded fractions ``k / n`` between.  The same harness kills a re-save of a
2-entry catalog (:func:`~repro.serving.persistence.save_catalog`) at every
line: the directory then loads as the old catalog or the new one, whole.
Each owner publishes under the test's own root directory: tests run in
parallel, and a publisher constructed by another test would sweep a killed
owner's directory away.
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.table import Table
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving import MPServingPool, ServingEngine, SynopsisCatalog, shm
from repro.serving.persistence import load_catalog
from repro.serving.shm import (
    EpochRegister,
    SynopsisPublisher,
    attach_flat_synopsis,
    read_published,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Where in ``publish`` an owner serving a live pool dies, as a fraction of
#: its lines: the first and the last line, and seeded draws between.
KILL_FRACTIONS = [0.0, 1.0] + np.random.default_rng(39).uniform(size=3).tolist()

CHILD = textwrap.dedent(
    """
    import os, signal, sys
    import numpy as np
    sys.path.insert(0, {src!r})
    from repro.core.builder import build_pass
    from repro.core.config import PASSConfig
    from repro.data.table import Table
    from repro.serving import persistence, shm
    from repro.serving.catalog import SynopsisCatalog

    shm._generation_root = lambda: {root!r}

    def build(seed):
        rng = np.random.default_rng(seed)
        table = Table(
            {{
                "a": rng.uniform(0.0, 100.0, size=3000),
                "value": np.abs(rng.lognormal(1.5, 0.7, size=3000)),
            }},
            name="crashy",
        )
        return build_pass(
            table, "value", ["a"],
            PASSConfig(n_partitions=8, sample_rate=0.02, opt_sample_size=200, seed=0),
        )

    # The writer's lines: the publisher's and the generation writer's.  The
    # segment layout's offset arithmetic writes nothing, so it is skipped.
    WRITER = (shm.__file__, persistence.__file__)

    def nested(code):
        yield code
        for constant in code.co_consts:
            if hasattr(constant, "co_consts"):
                yield from nested(constant)

    IN_MEMORY = {{
        code
        for function in (
            persistence.SegmentLayout.__init__,
            persistence.SegmentLayout.pieces,
            persistence._align,
        )
        for code in nested(function.__code__)
    }}

    def traced(write, on_line):
        def local(frame, event, arg):
            if event == "line":
                on_line()
            return local

        def calls(frame, event, arg):
            code = frame.f_code
            if code.co_filename in WRITER and code not in IN_MEMORY:
                return local
            return None

        sys.settrace(calls)
        try:
            write()
        finally:
            sys.settrace(None)

    def traced_publish(publisher, synopsis, on_line):
        traced(
            lambda: publisher.publish("crashy", synopsis, table_name="crashy"),
            on_line,
        )

    def kill_counter(kill_at):
        def count():
            count.seen += 1
            if count.seen == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)

        count.seen = 0
        return count

    first, second = build(1), build(2)
    mode = {mode!r}

    def publish_first():
        publisher = shm.SynopsisPublisher()
        publisher.publish("crashy", first, table_name="crashy")
        print(publisher.register_name, flush=True)
        return publisher

    def die_at(publisher, kill_at):
        traced_publish(publisher, second, kill_counter(kill_at))
        raise SystemExit("publish completed; the kill point never fired")

    def catalog(x, y):
        built = SynopsisCatalog()
        built.register("x", x, table_name="crashy")
        built.register("y", y, table_name="crashy")
        return built

    if mode == "save-every":  # re-save a 2-entry catalog, one kill per line
        old, new = catalog(first, second), catalog(second, first)
        lines = []
        scratch = os.path.join({root!r}, "scratch")
        persistence.save_catalog(old, scratch)
        traced(
            lambda: persistence.save_catalog(new, scratch),
            lambda: lines.append(None),
        )
        for kill_at in range(1, len(lines) + 1):
            directory = os.path.join({root!r}, str(kill_at))
            pid = os.fork()
            if pid == 0:
                persistence.save_catalog(old, directory)
                traced(
                    lambda: persistence.save_catalog(new, directory),
                    kill_counter(kill_at),
                )
                raise SystemExit("save completed; the kill point never fired")
            _, status = os.waitpid(pid, 0)
            signalled = os.WIFSIGNALED(status)
            print(directory, os.WTERMSIG(status) if signalled else -1, flush=True)
        raise SystemExit(0)
    if mode is None:  # die between publishes, the publisher still open
        publisher = publish_first()
        os.kill(os.getpid(), signal.SIGKILL)
    # The lines the republish runs, counted on a scratch publisher.
    lines = []
    with shm.SynopsisPublisher() as scratch:
        scratch.publish("crashy", first, table_name="crashy")
        traced_publish(scratch, second, lambda: lines.append(None))
    if mode == "every":  # one owner per line, forked from this process
        for kill_at in range(1, len(lines) + 1):
            pid = os.fork()
            if pid == 0:
                # A root of its own, or its publisher sweeps the dead ones.
                os.mkdir(os.path.join({root!r}, str(kill_at)))
                shm._generation_root = lambda: os.path.join({root!r}, str(kill_at))
                die_at(publish_first(), kill_at)
            _, status = os.waitpid(pid, 0)
            print(os.WTERMSIG(status) if os.WIFSIGNALED(status) else -1, flush=True)
        raise SystemExit(0)
    kill_at = min(len(lines), max(1, round(mode * len(lines))))
    publisher = publish_first()
    sys.stdin.readline()  # the test's pool is attached
    die_at(publisher, kill_at)
    """
)


def build(seed: int):
    rng = np.random.default_rng(seed)
    table = Table(
        {
            "a": rng.uniform(0.0, 100.0, size=3000),
            "value": np.abs(rng.lognormal(1.5, 0.7, size=3000)),
        },
        name="crashy",
    )
    return build_pass(
        table,
        "value",
        ["a"],
        PASSConfig(n_partitions=8, sample_rate=0.02, opt_sample_size=200, seed=0),
    )


@pytest.fixture(scope="module")
def generations():
    """The owner's first and second generation, built the way it builds them."""
    return build(1), build(2)


def workload() -> list[AggregateQuery]:
    queries = []
    for low, high in [(5.0, 40.0), (20.0, 90.0), (0.0, 100.0), (61.0, 62.0)]:
        predicate = RectPredicate.from_bounds(a=(low, high))
        for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
            queries.append(AggregateQuery(agg, "value", predicate))
    return queries


def engine_answers(synopsis) -> list:
    catalog = SynopsisCatalog()
    catalog.register("crashy", synopsis, table_name="crashy")
    engine = ServingEngine(catalog)
    return [engine.execute(query, "crashy") for query in workload()]


def assert_identical(a, b):
    """AQPResult equality treating NaN fields as equal (NaN != NaN otherwise)."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), field.name
        else:
            assert x == y, f"{field.name}: {x!r} != {y!r}"


def start_owner(root: Path, fraction: float | None) -> tuple[subprocess.Popen, str]:
    """Start an owner publishing under ``root``; ``(process, register name)``."""
    owner = subprocess.Popen(
        [
            sys.executable,
            "-c",
            CHILD.format(src=SRC, root=str(root), mode=fraction),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    return owner, owner.stdout.readline().strip()


def reap(owner: subprocess.Popen) -> int:
    """Kill the owner if it still runs, and wait for it."""
    if owner.poll() is None:
        owner.kill()
    owner.stdin.close()
    owner.stdout.close()
    return owner.wait(timeout=60)


@pytest.mark.parametrize("fraction", KILL_FRACTIONS)
def test_owner_killed_mid_publish_leaves_a_servable_generation(
    tmp_path, generations, fraction
):
    owner, register_name = start_owner(tmp_path, fraction)
    try:
        assert os.path.dirname(register_name) == str(tmp_path)
        expected = [engine_answers(generation) for generation in generations]
        with MPServingPool(register_name, n_workers=1) as pool:
            for got, want in zip(pool.execute_batch(workload(), "crashy"), expected[0]):
                assert_identical(got, want)
            owner.stdin.write("go\n")
            owner.stdin.flush()
            assert owner.wait(timeout=120) == -signal.SIGKILL
            epoch, (entry,) = read_published(EpochRegister.attach(register_name))
            # The first line of publish is before the swap, the last after.
            assert epoch in (1, 2)
            assert (fraction, epoch) not in ((0.0, 2), (1.0, 1))
            want = expected[epoch - 1]
            flat, handle = attach_flat_synopsis(entry.segment)
            for query, answer in zip(workload(), want):
                assert_identical(flat.query(query), answer)
            del flat
            handle.close()
            for got, answer in zip(pool.execute_batch(workload(), "crashy"), want):
                assert_identical(got, answer)
    finally:
        reap(owner)


def test_every_line_of_publish_leaves_a_complete_generation(tmp_path, generations):
    """Killed at each line in turn, the owner leaves the old generation before
    the swap and the new one after it — complete, and mapped by attach."""
    completed = subprocess.run(
        [sys.executable, "-c", CHILD.format(src=SRC, root=str(tmp_path), mode="every")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    output = completed.stdout.split()
    register_names, signals = output[0::2], output[1::2]
    assert signals == [str(int(signal.SIGKILL))] * len(register_names)
    expected = [[g.query(query) for query in workload()] for g in generations]
    epochs = []
    for register_name in register_names:
        epoch, (entry,) = read_published(EpochRegister.attach(register_name))
        flat, handle = attach_flat_synopsis(entry.segment)
        for query, answer in zip(workload(), expected[epoch - 1]):
            assert_identical(flat.query(query), answer)
        del flat
        handle.close()
        epochs.append(epoch)
    assert len(epochs) > 30 and epochs[0] == 1 and epochs[-1] == 2
    assert epochs == sorted(epochs)  # once swapped, every later kill serves it


def test_every_line_of_a_catalog_resave_leaves_one_whole_catalog(
    tmp_path, generations
):
    """A 2-entry catalog ``{x: first, y: second}`` re-saved as ``{x: second,
    y: first}``, killed at each line of ``save_catalog`` in turn: the
    directory loads as the old catalog before the swap and the new one
    after — never one entry of each."""
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            CHILD.format(src=SRC, root=str(tmp_path), mode="save-every"),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    output = completed.stdout.split()
    directories, signals = output[0::2], output[1::2]
    assert signals == [str(int(signal.SIGKILL))] * len(directories)
    answers = [[g.query(query) for query in workload()] for g in generations]
    catalogs = {"old": (answers[0], answers[1]), "new": (answers[1], answers[0])}
    saved = []
    for directory in directories:
        loaded = load_catalog(directory)
        assert [entry.name for entry in loaded.entries()] == ["x", "y"]
        got = [
            [loaded.get(name).synopsis.query(query) for query in workload()]
            for name in ("x", "y")
        ]
        which = "old" if got[0][0].estimate == answers[0][0].estimate else "new"
        for entry_answers, want in zip(got, catalogs[which]):
            for answer, expected in zip(entry_answers, want):
                assert_identical(answer, expected)
        saved.append(which)
    assert len(saved) > 30 and saved[0] == "old" and saved[-1] == "new"
    # Once swapped, every later kill loads the new catalog.
    assert saved == sorted(saved, key=["old", "new"].index)


def test_a_new_publisher_sweeps_a_dead_owners_directory(tmp_path, monkeypatch):
    owner, register_name = start_owner(tmp_path, None)
    assert reap(owner) == -signal.SIGKILL
    assert os.path.isdir(register_name)
    monkeypatch.setattr(shm, "_generation_root", lambda: str(tmp_path))
    with SynopsisPublisher() as publisher:
        assert not os.path.exists(register_name)
        assert os.path.dirname(publisher.register_name) == str(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_a_live_owners_directory_is_never_swept(tmp_path, monkeypatch, generations):
    monkeypatch.setattr(shm, "_generation_root", lambda: str(tmp_path))
    # Not a publisher's: a pass-* directory without a manifest, and a file.
    (tmp_path / "pass-foreign").mkdir()
    (tmp_path / "pass-file").write_bytes(b"")
    owner, register_name = start_owner(tmp_path, 0.5)  # alive, waiting on stdin
    try:
        before = sorted(os.listdir(register_name))
        with SynopsisPublisher() as first:
            first.publish("crashy", generations[0], table_name="crashy")
            with SynopsisPublisher():
                assert sorted(os.listdir(register_name)) == before
                assert read_published(EpochRegister.attach(first.register_name))[0] == 1
        assert (tmp_path / "pass-foreign").is_dir()
        assert (tmp_path / "pass-file").is_file()
    finally:
        reap(owner)
