"""Publishing synopses to a worker pool as generation files.

A :class:`SynopsisPublisher` writes each generation of a synopsis as an
immutable ``.pass`` file through the one writer of
:mod:`repro.serving.persistence`, and :func:`attach_flat_synopsis` maps it
with the reader :func:`~repro.serving.persistence.load_synopsis` runs: a
process-per-core worker pool (:mod:`repro.serving.server`) serves
**read-only views** of one mapped copy, and attach, load and restart are one
code path.

Protocol (normative, mirrored in ``docs/ARCHITECTURE.md``).  A publisher is
the only writer of its directory ``pass-<random>`` under ``/dev/shm`` (the
system temp dir where the platform has no ``/dev/shm``):

* a publish advances the epoch by one, writes ``synopsis-<epoch>.pass``,
  then ``manifest-<epoch>.json`` naming every live entry's file (each
  atomically: temp file, fsync, ``os.replace``), swaps the ``current``
  symlink to the new manifest with one ``os.replace``, and only then unlinks
  the file and the manifest it replaced.  Killed at any instant, it leaves
  ``current`` naming a complete manifest whose files are complete;
* a reader (:class:`EpochRegister`) takes the epoch from the name the link
  points at — one ``readlink``, which no reused inode can fool — and reads
  the manifest it names.  A mapped file outlives its name, so a worker
  finishes a request on the generation it started on and re-attaches at its
  next check; once the publisher is gone a read raises
  :class:`PublisherGone`;
* the manifest records the owner's pid: each new publisher removes the
  ``pass-*`` directories of owners that died and leaves live owners' alone.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import NamedTuple

from repro.core.soa import FlatSynopsis
from repro.serving.persistence import MappedFile, _atomic_write, _write_segment

__all__ = [
    "attach_flat_synopsis",
    "PublisherGone",
    "EpochRegister",
    "PublishedEntry",
    "read_published",
    "SynopsisPublisher",
]

#: Name prefix of generation directories (leak checks glob it), the link in
#: one naming the live manifest, and the names of manifests and generations.
_DIRECTORY_PREFIX = "pass-"
_CURRENT = "current"
_MANIFEST = "manifest-{}.json"
_GENERATION = "synopsis-{}.pass"


def attach_flat_synopsis(path: str) -> tuple[FlatSynopsis, MappedFile]:
    """Map a synopsis file and rehydrate a zero-copy :class:`FlatSynopsis`.

    ``path`` is a manifest entry's ``segment``, mapped as ``load_synopsis``
    maps a file (:class:`MappedFile`).  Returns the engine plus the handle
    keeping the mapping alive; close the handle only after the engine is
    discarded.
    """
    attached = MappedFile(path)
    return FlatSynopsis(attached.header, attached.arrays), attached


class PublisherGone(RuntimeError):
    """A publisher's manifest, or a generation file it names, is gone for good.

    The publisher closed, or it died and a later publisher swept its
    directory.  Raised by :class:`EpochRegister` reads; a pool worker ships it
    to its caller (HTTP 503) and lives on.
    """


def _epoch_of(target: str) -> int:
    """The epoch in a manifest name ``manifest-<epoch>.json``."""
    return int(target.removeprefix("manifest-").removesuffix(".json"))


class EpochRegister:
    """The reader of a publisher's manifest: its ``current`` link names the live one.

    The link points at ``manifest-<epoch>.json``, so :meth:`epoch` costs one
    ``readlink``; :meth:`read` loads the manifest it names — the owner's pid
    and one :class:`PublishedEntry` record per live generation file.  A reader
    holds no descriptor between calls.
    """

    def __init__(self, directory: str) -> None:
        self.name = directory
        self._link = os.path.join(directory, _CURRENT)

    @classmethod
    def attach(cls, name: str) -> "EpochRegister":
        """The reader of ``name``, a :attr:`SynopsisPublisher.register_name`."""
        return cls(name)

    def _target(self) -> str:
        try:
            return os.readlink(self._link)
        except OSError as error:
            raise PublisherGone(f"publisher {self.name} is gone: {error}") from None

    def epoch(self) -> int:
        """The live generation."""
        return _epoch_of(self._target())

    def read(self) -> tuple[int, dict]:
        """``(epoch, manifest)`` of the live generation.

        ``current`` only ever names a complete manifest.  A publish racing
        this read may unlink the manifest it named; the read follows the link
        while it keeps moving, and raises :class:`PublisherGone` once it
        names a removed manifest and stays put.
        """
        target = self._target()
        while True:
            try:
                with open(os.path.join(self.name, target), "rb") as handle:
                    return _epoch_of(target), json.load(handle)
            except FileNotFoundError:
                moved = self._target()
                if moved == target:
                    raise PublisherGone(
                        f"publisher {self.name} is gone: {target} was removed"
                    ) from None
                target = moved

    def close(self) -> None:
        """Nothing to release: a reader holds no descriptor between calls."""


class PublishedEntry(NamedTuple):
    """One manifest entry: a published synopsis' file and routing metadata.

    The publisher writes ``_asdict()`` of these into the manifest; readers
    rebuild them from it and hand them to
    :func:`repro.serving.catalog.route_query`, which reads the same
    attributes off a :class:`~repro.serving.catalog.CatalogEntry`.
    """

    name: str
    #: Path of the generation file (what :func:`attach_flat_synopsis` takes).
    segment: str
    #: None publishes a wildcard: the entry matches requests for any table.
    table_name: str | None
    value_column: str
    predicate_columns: list[str]
    n_partitions: int
    population_size: int
    #: True when the file carries the packed per-leaf sketches.
    supports_sketches: bool


def read_published(register: EpochRegister) -> tuple[int, list[PublishedEntry]]:
    """``(epoch, entries)`` of a publisher's live generation."""
    epoch, manifest = register.read()
    return epoch, [PublishedEntry(**entry) for entry in manifest.get("entries", [])]


def _generation_root() -> str:
    """Where publishers make their directories: tmpfs ``/dev/shm`` if present."""
    return "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


def _sweep_dead_owners(root: str) -> None:
    """Remove the generation directories under ``root`` whose owner died.

    A directory whose manifest cannot be read (not a publisher's, or one in
    the microseconds before its first manifest) and one whose owner runs are
    left alone.
    """
    for directory in glob.glob(os.path.join(root, _DIRECTORY_PREFIX + "*")):
        try:
            owner = int(EpochRegister(directory).read()[1]["owner"])
        except (PublisherGone, OSError, ValueError, LookupError, TypeError):
            continue
        try:
            os.kill(owner, 0)
        except ProcessLookupError:
            shutil.rmtree(directory, ignore_errors=True)
        except PermissionError:  # alive, under another user
            pass


class SynopsisPublisher:
    """Single-writer owner of a set of published synopses.

    Owns one generation directory (:attr:`register_name`; the protocol is
    the module docstring's).  Constructing one first removes the directories
    of publishers that died without closing.  Typical write path::

        publisher = SynopsisPublisher()
        publisher.publish("sensors", synopsis, table_name="intel")
        ...                        # workers attach via publisher.register_name
        publisher.publish("sensors", rebuilt)   # epoch flip; readers migrate
        publisher.close()          # remove the directory

    A :class:`~repro.distributed.router.StreamingShardRouter` rebuild can be
    wired straight in through :meth:`watch_router`: every shard rebuild
    republishes the sharded synopsis under this publisher.
    """

    def __init__(self) -> None:
        root = _generation_root()
        _sweep_dead_owners(root)
        self._directory = tempfile.mkdtemp(prefix=_DIRECTORY_PREFIX, dir=root)
        # Removes the directory once: on close(), or at interpreter exit for
        # a publisher never closed.
        self._remove = weakref.finalize(self, shutil.rmtree, self._directory, True)
        self._entries: dict[str, PublishedEntry] = {}
        self._epoch = 0
        self._flip(0)

    @property
    def register_name(self) -> str:
        """The generation directory worker pools attach to."""
        return self._directory

    @property
    def epoch(self) -> int:
        """The current published generation."""
        return self._epoch

    def publish(
        self,
        name: str,
        synopsis: FlatSynopsis,
        *,
        table_name: str | None = None,
        predicate_columns: tuple[str, ...] | None = None,
    ) -> int:
        """Publish (or republish) one synopsis; returns the new epoch.

        The flat buffers are written to a fresh generation file *first*, then
        the manifest swaps to name it.  ``predicate_columns`` defaults to the
        synopsis' bound columns and, with ``table_name`` (None = any table),
        feeds worker-side routing (:class:`PublishedEntry`).  The file holds
        the kernel state of any kind of synopsis
        (:meth:`FlatSynopsis.export_buffers`): a ``DynamicPASS``' reservoir
        and update state stay with the writer.
        """
        self._require_open()
        if not isinstance(synopsis, FlatSynopsis):
            raise TypeError(f"expected a FlatSynopsis, got {type(synopsis)!r}")
        header, arrays = FlatSynopsis.export_buffers(synopsis)
        epoch = self._epoch + 1
        path = os.path.join(self._directory, _GENERATION.format(epoch))
        _atomic_write(Path(path), lambda out: _write_segment(out, header, arrays))
        previous = self._entries.get(name)
        self._entries[name] = PublishedEntry(
            name=name,
            segment=path,
            table_name=table_name,
            value_column=header["value_column"],
            predicate_columns=list(
                predicate_columns
                if predicate_columns is not None
                else header["columns"]
            ),
            n_partitions=int(arrays["is_leaf"].sum()),
            population_size=int(arrays["node_count"][0]),
            supports_sketches=bool(header["sketch_keys"]),
        )
        self._flip(epoch)
        if previous is not None:
            os.unlink(previous.segment)
        return epoch

    def publish_catalog(self, catalog) -> int:
        """Publish every entry of a :class:`SynopsisCatalog`; returns the epoch.

        Each entry — static, dynamic or sharded (one stitched tree) —
        publishes under its catalog name with its registered routing
        metadata, so worker-side routing sees the same candidates as the
        in-process engine.
        """
        self._require_open()
        epoch = self.epoch
        for entry in catalog.entries():
            epoch = self.publish(
                entry.name,
                entry.synopsis,
                table_name=entry.table_name,
                predicate_columns=entry.predicate_columns,
            )
        return epoch

    def retire(self, name: str) -> int:
        """Withdraw a published synopsis; returns the new epoch."""
        self._require_open()
        entry = self._entries.pop(name, None)
        epoch = self._flip(self._epoch + 1)
        if entry is not None:
            os.unlink(entry.segment)
        return epoch

    def watch_router(self, router, name: str, *, table_name: str | None = None):
        """Republish a streaming router's synopsis on every shard rebuild.

        Registers a swap listener on ``router`` (a
        :class:`~repro.distributed.router.StreamingShardRouter`) that
        republishes the whole sharded synopsis under ``name`` after a shard
        is stitched in — the "write a fresh generation, swap the manifest"
        write path — and publishes it once now.  Returns the listener so
        callers can detach it with ``router.remove_swap_listener``.
        """
        self._require_open()

        def on_swap(index: int, shard) -> None:
            self.publish(name, router.sharded, table_name=table_name)

        router.add_swap_listener(on_swap)
        self.publish(name, router.sharded, table_name=table_name)
        return on_swap

    def _flip(self, epoch: int) -> int:
        """Swap ``current`` to a new manifest of the live entries at ``epoch``."""
        entries = [entry._asdict() for entry in self._entries.values()]
        encoded = json.dumps({"owner": os.getpid(), "entries": entries}).encode()
        target = _MANIFEST.format(epoch)
        _atomic_write(Path(self._directory, target), lambda out: out.write(encoded))
        link = os.path.join(self._directory, f".{_CURRENT}-{epoch}")
        os.symlink(target, link)
        os.replace(link, os.path.join(self._directory, _CURRENT))
        if epoch != self._epoch:
            os.unlink(os.path.join(self._directory, _MANIFEST.format(self._epoch)))
        self._epoch = epoch
        return epoch

    def _require_open(self) -> None:
        if not self._remove.alive:
            raise RuntimeError("publisher is closed")

    def close(self) -> None:
        """Remove the generation directory; idempotent.

        Workers keep the files they have mapped until they re-attach; their
        next epoch check raises :class:`PublisherGone`.
        """
        self._entries.clear()
        self._remove()

    def __enter__(self) -> "SynopsisPublisher":
        """Context-manager support; closes (and removes) on exit."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Remove the generation directory on context exit."""
        self.close()
