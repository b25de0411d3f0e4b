"""Publishing synopses to a worker pool as generation directories.

The directory format, its writer and its reader (:class:`EpochRegister`,
re-exported here) live in :mod:`repro.serving.persistence`: a published and
a saved catalog are one format, and a pool serves either.  What is
pool-specific lives here.  A :class:`SynopsisPublisher` owns a temporary
directory ``pass-<random>`` under ``/dev/shm`` (the system temp dir where
there is none), removed by a finalizer; its manifests record the owner's
pid, and each new publisher removes the directories of owners that died.
:func:`attach_flat_synopsis` maps a generation file through the reader
:func:`~repro.serving.persistence.load_synopsis` uses, so a process-per-core
worker pool (:mod:`repro.serving.server`) serves **read-only views** of one
mapped copy.  A mapped file outlives its name: a worker finishes a request
on the generation it started on and re-attaches at its next check.
"""

from __future__ import annotations

import glob
import os
import shutil
import tempfile
import weakref

from repro.core.soa import FlatSynopsis
from repro.serving.persistence import (
    EpochRegister,
    GenerationWriter,
    MappedFile,
    PublishedEntry,
    PublisherGone,
    read_published,
)

__all__ = [
    "attach_flat_synopsis",
    "PublisherGone",
    "EpochRegister",
    "PublishedEntry",
    "read_published",
    "SynopsisPublisher",
]

#: Name prefix of generation directories (leak checks glob it).
_DIRECTORY_PREFIX = "pass-"


def attach_flat_synopsis(path: str) -> tuple[FlatSynopsis, MappedFile]:
    """Map a synopsis file and rehydrate a zero-copy :class:`FlatSynopsis`.

    ``path`` is a manifest entry's ``segment``, mapped as ``load_synopsis``
    maps a file (:class:`MappedFile`).  Returns the engine plus the handle
    keeping the mapping alive; close the handle only after the engine is
    discarded.
    """
    attached = MappedFile(path)
    return FlatSynopsis(attached.header, attached.arrays), attached


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
    """Single-writer owner of a generation directory (:attr:`register_name`).

    Constructing one first removes the directories of publishers that died
    without closing.  Typical write path::

        publisher = SynopsisPublisher()
        publisher.publish("sensors", synopsis, table_name="intel")
        ...                        # workers attach via publisher.register_name
        publisher.publish("sensors", rebuilt)   # epoch flip; readers migrate
        publisher.close()          # remove the directory

    :meth:`watch_router` republishes a streaming router's sharded synopsis
    on every shard rebuild.
    """

    def __init__(self) -> None:
        root = _generation_root()
        _sweep_dead_owners(root)
        directory = tempfile.mkdtemp(prefix=_DIRECTORY_PREFIX, dir=root)
        # Removes the directory once: on close(), or at interpreter exit for
        # a publisher never closed.
        self._remove = weakref.finalize(self, shutil.rmtree, directory, True)
        self._writer = GenerationWriter(directory, owner=os.getpid())
        self._writer.commit([])

    @property
    def register_name(self) -> str:
        """The generation directory worker pools attach to."""
        return str(self._writer.directory)

    @property
    def epoch(self) -> int:
        """The current published generation."""
        return self._writer.epoch

    def publish(
        self,
        name: str,
        synopsis: FlatSynopsis,
        *,
        table_name: str | None = None,
        predicate_columns: tuple[str, ...] | None = None,
    ) -> int:
        """Publish (or republish) one synopsis; returns the new epoch.

        ``predicate_columns`` (default: the synopsis' bound columns) and
        ``table_name`` (None = any table) feed worker-side routing
        (:class:`PublishedEntry`).  The file holds the bytes
        :func:`~repro.serving.persistence.save_synopsis` writes.
        """
        self._require_open()
        if not isinstance(synopsis, FlatSynopsis):
            raise TypeError(f"expected a FlatSynopsis, got {type(synopsis)!r}")
        return self._writer.commit([(name, synopsis, table_name, predicate_columns)])

    def publish_catalog(self, catalog) -> int:
        """Publish every entry of a :class:`SynopsisCatalog`; returns the epoch.

        Each entry keeps its catalog name and routing metadata, so workers
        route as the in-process engine does.  All entries are one generation:
        the epoch advances once, and no worker sees some new and some old.
        """
        self._require_open()
        return self._writer.commit(
            [
                (entry.name, entry.synopsis, entry.table_name, entry.predicate_columns)
                for entry in catalog.entries()
            ]
        )

    def retire(self, name: str) -> int:
        """Withdraw a published synopsis; returns the new epoch."""
        self._require_open()
        return self._writer.commit([], retire=[name])

    def watch_router(self, router, name: str, *, table_name: str | None = None):
        """Republish a streaming router's synopsis on every shard rebuild.

        Publishes ``router.sharded`` (a
        :class:`~repro.distributed.router.StreamingShardRouter`'s) under
        ``name`` now and after each shard is stitched in.  Returns the swap
        listener, for ``router.remove_swap_listener``.
        """
        self._require_open()

        def on_swap(index: int, shard) -> None:
            self.publish(name, router.sharded, table_name=table_name)

        router.add_swap_listener(on_swap)
        self.publish(name, router.sharded, table_name=table_name)
        return on_swap

    def _require_open(self) -> None:
        if not self._remove.alive:
            raise RuntimeError("publisher is closed")

    def close(self) -> None:
        """Remove the generation directory; idempotent.

        Workers keep the files they have mapped until they re-attach; their
        next epoch check raises :class:`PublisherGone`.
        """
        self._remove()

    def __enter__(self) -> "SynopsisPublisher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
