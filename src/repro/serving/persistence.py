"""The synopsis' one serial form, and versioned save / load of synopses and catalogs.

A synopsis is a ``(header, arrays)`` pair of flat numpy buffers
(:meth:`~repro.core.soa.FlatSynopsis.export_buffers`) of any kind: static,
dynamic (plus its reservoir ``seen`` / ``capacity`` arrays and update
counters) or sharded (one stitched tree, its routing in the header and
``shard_rows``; the earlier per-shard ``shard<i>/`` layout is refused).  This
module owns the byte layout of that pair — :class:`SegmentLayout` writes it,
:func:`parse_segment` reads it back as zero-copy views — with the one writer
of a ``.pass`` file (:func:`_atomic_write` of the layout) and the one reader
(:class:`MappedFile`, a read-only ``mmap``) that :func:`load_synopsis` and a
pool worker's attach share: a loaded static synopsis is zero-copy, and a
restart is the attach code path.  The arrays round-trip bit for bit, so a
reloaded synopsis answers exactly like the instance that was saved.

The layout is normative in ``docs/ARCHITECTURE.md`` ("File and generation
format"): the magic ``b"PASSSEG1"``, the little-endian ``uint64`` length of a
JSON header — ``format``, ``size``, the exported ``synopsis`` header and the
``arrays`` directory (key, dtype, shape, offset per buffer, packed sketches
under ``sketch/<key>``) — and each payload at its **page-aligned** offset.  A
file is outside input: the reader checks everything it is about to trust
(magic, header length, format, every directory entry's dtype and extent) and
raises ``ValueError`` naming the path — version-1 ``.npz`` archives included,
there is one read path.

A catalog is saved as a **generation directory**, the format a
:class:`~repro.serving.shm.SynopsisPublisher` publishes in: ``current``, a
symlink, names ``manifest-<epoch>.json``, which names each entry's immutable
``synopsis-<epoch>-<i>.pass`` with its routing metadata and, when saved with
one, its build-time workload fingerprint ``workload-<epoch>-<i>.npz`` (see
:mod:`repro.obs.drift`).  :class:`GenerationWriter` is its one writer — it
writes the files, then the manifest, swaps ``current``, and only then
removes what the swap replaced — and :class:`EpochRegister` its one reader,
so ``kill -9`` at any instant of a save or publish leaves the previous
catalog or the new one, never a mix (``tests/test_publish_crash.py``).
Tables are *not* persisted; pass them back to :func:`load_catalog` to
restore the exact-scan fallback.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import re
import struct
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.pass_synopsis import PASSSynopsis
from repro.core.soa import FlatSynopsis
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.sharded import ShardedSynopsis
from repro.obs.drift import WorkloadFingerprint
from repro.serving.catalog import SynopsisCatalog

__all__ = [
    "FORMAT_VERSION",
    "SEGMENT_MAGIC",
    "SegmentLayout",
    "parse_segment",
    "MappedFile",
    "save_synopsis",
    "load_synopsis",
    "save_catalog",
    "load_catalog",
    "save_workload_fingerprint",
    "load_workload_fingerprint",
    "load_catalog_workloads",
    "PublisherGone",
    "PublishedEntry",
    "EpochRegister",
    "read_published",
    "GenerationWriter",
]

#: Layout version in every file header (and every catalog manifest and
#: fingerprint archive); bumped on incompatible changes.  Version 1 was the
#: compressed-npz archive.
FORMAT_VERSION = 2

#: First eight bytes of every synopsis file.
SEGMENT_MAGIC = b"PASSSEG1"

_PAGE = mmap.PAGESIZE

#: Suffix of synopsis files / of workload-fingerprint archives.
_SUFFIX = ".pass"
_WORKLOAD_SUFFIX = ".npz"

#: In a generation directory: the link naming the live manifest, the
#: manifests' names, and the only names a writer removes (the files it makes,
#: their ``_atomic_write`` temporaries and its swap link).
_CURRENT = "current"
_MANIFEST = "manifest-{}.json"
_FILE = r"(?:synopsis-\d+-\d+\.pass|workload-\d+-\d+\.npz|manifest-\d+\.json)"
_GENERATED = re.compile(rf"{_FILE}|\.{_FILE}\.\w+\.tmp|\.current-\d+")

#: Reserved npz key holding a fingerprint archive's JSON header.
_HEADER_KEY = "__header__"

#: What ``load_synopsis`` builds for each header ``kind`` (absent: static).
_KINDS = {None: PASSSynopsis, "dynamic": DynamicPASS, "sharded": ShardedSynopsis}


def _align(offset: int) -> int:
    """Round ``offset`` up to the next page boundary."""
    return (offset + _PAGE - 1) // _PAGE * _PAGE


class SegmentLayout:
    """Where a ``(header, arrays)`` pair goes in a buffer of ``size`` bytes.

    ``header`` must be JSON-safe (every ``export_buffers`` header is).
    Construct, then either :meth:`write` into ``size`` writable bytes or
    write its :meth:`pieces` at their offsets (:func:`_write_segment`, a
    file with no staging copy).
    """

    def __init__(self, header: Mapping, arrays: Mapping[str, np.ndarray]) -> None:
        self._payloads = [np.ascontiguousarray(array) for array in arrays.values()]
        directory = [
            {
                "key": key,
                "dtype": payload.dtype.str,
                "shape": list(payload.shape),
                "offset": 0,
            }
            for key, payload in zip(arrays, self._payloads)
        ]
        document = {
            "format": FORMAT_VERSION,
            "size": 0,
            "synopsis": dict(header),
            "arrays": directory,
        }
        # Two passes: offsets depend on the header length, which depends on
        # the offsets (they are JSON numbers).  Size the header area from a
        # zero-offset template plus generous per-entry slack for the digits.
        template = json.dumps(document).encode("utf-8")
        offset = _align(16 + len(template) + 32 * len(directory) + 64)
        header_area = offset
        for entry, payload in zip(directory, self._payloads):
            entry["offset"] = offset
            offset = _align(offset + max(payload.nbytes, 1))
        #: Bytes the layout occupies (a whole number of pages).
        self.size = document["size"] = offset
        self._directory = directory
        self._encoded = json.dumps(document).encode("utf-8")
        if 16 + len(self._encoded) > header_area:
            raise RuntimeError("segment header overflowed its reserved space")

    def write(self, buf) -> None:
        """Write magic, header and every payload into writable ``buf``."""
        buf[0:8] = SEGMENT_MAGIC
        struct.pack_into("<Q", buf, 8, len(self._encoded))
        buf[16 : 16 + len(self._encoded)] = self._encoded
        for entry, payload in zip(self._directory, self._payloads):
            view = np.ndarray(
                payload.shape, dtype=payload.dtype, buffer=buf, offset=entry["offset"]
            )
            view[...] = payload

    def pieces(self):
        """``(offset, bytes-like)`` of everything :meth:`write` puts in a
        buffer: magic and header length, the header, each payload (a
        zero-copy view); the bytes between them are zeros."""
        yield 0, SEGMENT_MAGIC + struct.pack("<Q", len(self._encoded))
        yield 16, self._encoded
        for entry, payload in zip(self._directory, self._payloads):
            yield entry["offset"], payload.reshape(-1).view(np.uint8)


def _array_spec(entry: Mapping, available: int) -> tuple[str, np.dtype, tuple, int]:
    """``(key, dtype, shape, offset)`` of an entry inside ``available`` bytes."""
    key = str(entry["key"])
    dtype = np.dtype(entry["dtype"])
    if dtype.kind not in "biuf":
        raise ValueError(f"array {key!r} has non-numeric dtype {dtype}")
    shape = tuple(int(extent) for extent in entry["shape"])
    offset = int(entry["offset"])
    if offset < 0 or any(extent < 0 for extent in shape):
        raise ValueError(f"array {key!r} has a negative extent")
    if offset + dtype.itemsize * math.prod(shape) > available:
        raise ValueError(f"array {key!r} ends past the {available} bytes present")
    return key, dtype, shape, offset


def _read_directory(view: memoryview, source: str) -> tuple[dict, list[tuple]]:
    """Validate a segment's framing; ``(synopsis header, array specs)``.

    Every failure is a ``ValueError`` naming ``source``; nothing here keeps
    a reference into ``view``.
    """
    if len(view) < 16 or bytes(view[0:8]) != SEGMENT_MAGIC:
        raise ValueError(f"{source} is not a synopsis segment (bad magic)")
    (header_len,) = struct.unpack_from("<Q", view, 8)
    if 16 + header_len > len(view):
        raise ValueError(
            f"{source} is truncated: its header claims {header_len} bytes, "
            f"{len(view) - 16} follow"
        )
    try:
        document = json.loads(bytes(view[16 : 16 + header_len]).decode("utf-8"))
        version = document["format"]
    except (ValueError, KeyError, TypeError) as error:
        raise ValueError(f"{source} has an unreadable header: {error}") from error
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported synopsis format {version!r} in {source} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    try:
        if int(document["size"]) > len(view):
            raise ValueError(f"{len(view)} of {document['size']} bytes present")
        header = dict(document["synopsis"])
        specs = [_array_spec(entry, len(view)) for entry in document["arrays"]]
    except (ValueError, KeyError, TypeError) as error:
        raise ValueError(
            f"{source} is truncated or has a corrupt array directory: {error}"
        ) from error
    return header, specs


def parse_segment(buf, source: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The ``(header, arrays)`` a :class:`SegmentLayout` wrote into ``buf``.

    ``arrays`` are read-only numpy views straight over ``buf`` (a shared
    mapping, an ``mmap`` of a file), which must outlive them.  ``source``
    (a path or segment name) is named in the ``ValueError`` any malformed
    input raises — no array is created before the whole directory checks out.
    """
    with memoryview(buf) as view:
        header, specs = _read_directory(view, source)
    arrays: dict[str, np.ndarray] = {}
    for key, dtype, shape, offset in specs:
        array = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
        array.flags.writeable = False
        arrays[key] = array
    return header, arrays


def _atomic_write(path: Path, write: Callable[[BinaryIO], None]) -> None:
    """Write a file durably: temp file in the same directory + rename.

    A same-directory temporary file, fsynced and ``os.replace``-d into place,
    makes the write atomic on POSIX: a reader (or a post-crash restart) sees
    the complete old file or the complete new one, never a torn one.  The
    temp file is removed on any failure before the rename.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def _write_segment(
    handle: BinaryIO, header: Mapping, arrays: Mapping[str, np.ndarray]
) -> None:
    """Write ``(header, arrays)`` in the segment layout to an open file.

    The bytes are those :meth:`SegmentLayout.write` puts in a zeroed buffer,
    written piece by piece at their offsets from the handle's position: no
    second copy of the synopsis is staged, and the gaps between pieces read
    as zeros (a file hole, or a ``BytesIO``'s zero fill).
    """
    layout = SegmentLayout(header, arrays)
    base = handle.tell()
    for offset, piece in layout.pieces():
        handle.seek(base + offset)
        handle.write(piece)
    end = base + layout.size
    if handle.tell() < end:  # padding after the last payload
        handle.seek(end - 1)
        handle.write(b"\0")


class MappedFile:
    """A read-only ``mmap`` of one synopsis file and zero-copy views over it.

    The one reader of the serial form (:func:`load_synopsis`, a pool
    worker's attach).  ``header`` is the synopsis scalar header; ``arrays``
    maps buffer keys to read-only views over the mapping, valid after the
    file's name is unlinked.  Keep the instance referenced while any view
    is in use, then :meth:`close`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        source = str(path)
        with open(path, "rb") as handle:
            if not os.fstat(handle.fileno()).st_size:
                raise ValueError(f"{source} is not a synopsis file (it is empty)")
            self._mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            if self._mapping[:4] == b"PK\x03\x04":
                raise ValueError(
                    f"unsupported synopsis format 1 in {source}: a zip (npz) "
                    f"archive (this build reads version {FORMAT_VERSION})"
                )
            self.header, self.arrays = parse_segment(self._mapping, source)
        except ValueError:
            self._mapping.close()
            raise

    def close(self) -> None:
        """Drop the mapping.  Views into ``arrays`` must not be used after."""
        self.arrays = {}
        self._mapping.close()


def _normalize(path: str | Path, suffix: str) -> Path:
    path = Path(path)
    if path.suffix != suffix:
        path = path.with_name(path.name + suffix)
    return path


def save_synopsis(
    synopsis: PASSSynopsis | DynamicPASS | ShardedSynopsis,
    path: str | Path,
    *,
    workload: WorkloadFingerprint | None = None,
) -> Path:
    """Persist a synopsis to one ``.pass`` file; returns the final path.

    The suffix is appended when missing.  A dynamic synopsis keeps its
    reservoir and update counters, so it resumes accepting updates after a
    restart (its reservoir RNG state does not survive).  ``workload`` also
    writes the build-time fingerprint to a sibling ``<stem>.workload.npz``,
    *before* the synopsis file: a crash never leaves a synopsis whose
    fingerprint is missing or staler than itself.
    """
    if not isinstance(synopsis, tuple(_KINDS.values())):
        raise TypeError(
            "expected a PASSSynopsis, DynamicPASS, or ShardedSynopsis, "
            f"got {type(synopsis)!r}"
        )
    header, arrays = synopsis.export_buffers()
    path = _normalize(path, _SUFFIX)
    if workload is not None:
        save_workload_fingerprint(workload, path.with_name(f"{path.stem}.workload"))
    _atomic_write(path, lambda handle: _write_segment(handle, header, arrays))
    return path


def save_workload_fingerprint(
    fingerprint: WorkloadFingerprint, path: str | Path
) -> Path:
    """Persist a build-time workload fingerprint to a ``.npz`` archive, atomically."""
    header, arrays = fingerprint.to_arrays()
    header["format"] = FORMAT_VERSION
    path = _normalize(path, _WORKLOAD_SUFFIX)
    _atomic_write(
        path,
        lambda handle: np.savez_compressed(
            handle, **{_HEADER_KEY: json.dumps(header)}, **arrays
        ),
    )
    return path


def load_workload_fingerprint(path: str | Path) -> WorkloadFingerprint:
    """Load a fingerprint saved with :func:`save_workload_fingerprint`."""
    path = _normalize(path, _WORKLOAD_SUFFIX)
    with np.load(path, allow_pickle=False) as data:
        if _HEADER_KEY not in data.files:
            raise ValueError(
                f"{path} is not a fingerprint archive (missing header)"
            )
        header = json.loads(data[_HEADER_KEY].item())
        version = header.get("format")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported fingerprint format {version!r} in {path} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        arrays = {key: data[key] for key in data.files if key != _HEADER_KEY}
    return WorkloadFingerprint.from_arrays(header, arrays)


def load_synopsis(path: str | Path) -> PASSSynopsis | DynamicPASS | ShardedSynopsis:
    """Load a synopsis saved with :func:`save_synopsis`.

    The file is mapped, not read (:class:`MappedFile`): a static synopsis
    (sharded or not) serves straight from read-only views of the mapping,
    which lives as long as they do.  ``ValueError`` naming ``path`` for
    anything that is not a complete file of the current format.
    """
    path = _normalize(path, _SUFFIX)
    mapped = MappedFile(path)
    try:
        return _KINDS[mapped.header.get("kind")].from_buffers(
            mapped.header, mapped.arrays
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(
            f"{path} does not hold a loadable synopsis: {error}"
        ) from error


class PublisherGone(RuntimeError):
    """A generation directory's manifest, or a file it names, is gone for good.

    Its publisher closed, or died and a later publisher swept its directory.
    Raised by :class:`EpochRegister` reads; a pool worker ships it to its
    caller (HTTP 503) and lives on.
    """


class PublishedEntry(NamedTuple):
    """One manifest entry: a generation file and its routing metadata.

    The manifest holds ``_asdict()`` of these; :func:`repro.serving.catalog.route_query`
    reads the same attributes off a :class:`~repro.serving.catalog.CatalogEntry`.
    """

    name: str
    #: The generation file.  The writer records the path it wrote;
    #: :func:`read_published` resolves its name inside the directory it reads.
    segment: str
    #: None publishes a wildcard: the entry matches requests for any table.
    table_name: str | None
    value_column: str
    predicate_columns: list[str]
    n_partitions: int
    population_size: int
    #: True when the file carries the packed per-leaf sketches.
    supports_sketches: bool
    #: File name of the entry's build-time workload fingerprint, if saved.
    workload: str | None = None


def _epoch_of(target: str) -> int:
    """The epoch in a manifest name ``manifest-<epoch>.json``."""
    return int(target.removeprefix("manifest-").removesuffix(".json"))


class EpochRegister:
    """The reader of a generation directory.

    ``current`` links to ``manifest-<epoch>.json``, so :meth:`epoch` costs
    one ``readlink``; :meth:`read` loads the manifest it names.
    """

    def __init__(self, directory: str) -> None:
        self.name = directory
        self._link = os.path.join(directory, _CURRENT)

    @classmethod
    def attach(cls, name: str) -> "EpochRegister":
        """The reader of generation directory ``name``."""
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

        ``current`` only names complete manifests.  A commit racing this read
        may unlink the one it named: the read follows the link while it
        moves, and raises :class:`PublisherGone` once it stays put.
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


def read_published(register: EpochRegister) -> tuple[int, list[PublishedEntry]]:
    """``(epoch, entries)`` of a directory's live generation.

    Each entry's ``segment`` is its file name inside ``register.name``.  A
    manifest of another format version raises ``ValueError`` naming it.
    """
    epoch, manifest = register.read()
    if manifest.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported manifest format {manifest.get('format')!r} in "
            f"{register.name} (this build reads version {FORMAT_VERSION})"
        )
    return epoch, [
        PublishedEntry(**entry)._replace(
            segment=os.path.join(register.name, os.path.basename(entry["segment"]))
        )
        for entry in manifest["entries"]
    ]


class GenerationWriter:
    """The one writer of a generation directory (``docs/ARCHITECTURE.md``).

    :meth:`commit` writes each new entry's ``synopsis-<epoch>-<i>.pass``
    (and ``workload-<epoch>-<i>.npz``), then ``manifest-<epoch>.json`` naming
    every live entry's files, swaps ``current`` to it with one
    ``os.replace``, and only then removes the generation files it does not
    name.  Killed at any instant, it leaves the previous generation before
    the swap and the new one after.  One writer per directory at a time.
    """

    def __init__(self, directory: str | os.PathLike, owner: int | None = None) -> None:
        self.directory = Path(directory)
        #: The publishing process' pid, recorded in each manifest it writes.
        self.owner = owner
        #: The live generation, -1 while the directory has none.
        self.epoch = -1
        self.entries: dict[str, dict] = {}
        if os.path.lexists(self.directory / _CURRENT):
            self.epoch, manifest = EpochRegister(str(self.directory)).read()
            self.entries = {entry["name"]: entry for entry in manifest["entries"]}

    def commit(
        self,
        synopses: Iterable[tuple[str, FlatSynopsis, str | None, Sequence[str] | None]],
        *,
        retire: Iterable[str] = (),
        workloads: Mapping[str, WorkloadFingerprint] | None = None,
    ) -> int:
        """Publish one generation; returns its epoch.

        ``synopses`` are ``(name, synopsis, table_name, predicate_columns)``
        to add or replace; each file holds ``synopsis.export_buffers()``, the
        bytes :func:`save_synopsis` writes.  ``predicate_columns`` of None
        means the synopsis' bound columns.  Names in ``retire`` leave first;
        the other live entries stay.
        """
        epoch = self.epoch + 1
        entries = dict(self.entries)
        for name in retire:
            entries.pop(name, None)
        for index, (name, synopsis, table_name, columns) in enumerate(synopses):
            header, arrays = synopsis.export_buffers()
            path = self.directory / f"synopsis-{epoch}-{index}{_SUFFIX}"
            _atomic_write(path, lambda out: _write_segment(out, header, arrays))
            workload = None
            if (workloads or {}).get(name) is not None:
                workload = f"workload-{epoch}-{index}{_WORKLOAD_SUFFIX}"
                save_workload_fingerprint(workloads[name], self.directory / workload)
            entries[name] = PublishedEntry(
                name=name,
                segment=str(path),
                table_name=table_name,
                value_column=header["value_column"],
                predicate_columns=list(
                    columns if columns is not None else header["columns"]
                ),
                n_partitions=int(arrays["is_leaf"].sum()),
                population_size=int(arrays["node_count"][0]),
                supports_sketches=bool(header["sketch_keys"]),
                workload=workload,
            )._asdict()
        manifest = _MANIFEST.format(epoch)
        document = {"format": FORMAT_VERSION, "entries": list(entries.values())}
        if self.owner is not None:
            document["owner"] = self.owner
        encoded = json.dumps(document).encode("utf-8")
        _atomic_write(self.directory / manifest, lambda out: out.write(encoded))
        link = self.directory / f".{_CURRENT}-{epoch}"
        if os.path.lexists(link):  # left by a writer killed before its swap
            os.unlink(link)
        os.symlink(manifest, link)
        os.replace(link, self.directory / _CURRENT)
        self.epoch, self.entries = epoch, entries
        live = {_CURRENT, manifest}
        for entry in entries.values():
            live.update((os.path.basename(entry["segment"]), entry["workload"]))
        for name in os.listdir(self.directory):
            if name not in live and _GENERATED.fullmatch(name):
                os.unlink(self.directory / name)
        return epoch


def _saved_generation(directory: Path) -> list[PublishedEntry]:
    """The live entries of a saved catalog directory, files resolved in it."""
    if os.path.islink(directory / _CURRENT):
        return read_published(EpochRegister(str(directory)))[1]
    if os.path.exists(directory / _CURRENT):
        raise ValueError(
            f"{directory} was copied without its symlinks (current is a plain "
            "file); copy it with cp -a or shutil.copytree(..., symlinks=True)"
        )
    if (directory / "catalog.json").exists():
        raise ValueError(
            f"unsupported catalog format in {directory}: a catalog.json "
            "directory; load it with an earlier build and save it again"
        )
    raise FileNotFoundError(f"{directory} holds no saved catalog")


def save_catalog(
    catalog: SynopsisCatalog,
    directory: str | Path,
    *,
    workloads: Mapping[str, WorkloadFingerprint] | None = None,
) -> Path:
    """Persist every catalog entry as one generation; returns its manifest.

    ``directory`` then holds exactly this catalog (:class:`GenerationWriter`):
    an earlier catalog saved there is replaced whole, atomically.  A pool
    serves it as it is (``MPServingPool(str(directory))``).  ``workloads``
    maps entry names to build-time fingerprints, saved in the same
    generation for :func:`load_catalog_workloads`.
    """
    writer = GenerationWriter(directory)
    epoch = writer.commit(
        [
            (entry.name, entry.synopsis, entry.table_name, entry.predicate_columns)
            for entry in catalog.entries()
        ],
        retire=list(writer.entries),
        workloads=workloads,
    )
    return writer.directory / _MANIFEST.format(epoch)


def load_catalog(
    directory: str | Path, tables: Mapping[str, Table] | None = None
) -> SynopsisCatalog:
    """Rebuild the catalog :func:`save_catalog` saved to ``directory``.

    Reads the manifest that ``current`` names; a directory of the retired
    ``catalog.json`` format raises ``ValueError`` naming it.  Each table in
    ``tables`` (``table_name -> Table``) is re-registered as the exact-scan
    fallback for its queries.
    """
    catalog = SynopsisCatalog()
    for entry in _saved_generation(Path(directory)):
        catalog.register(
            entry.name,
            load_synopsis(entry.segment),
            table_name=entry.table_name,
            predicate_columns=tuple(entry.predicate_columns),
        )
    for table_name, table in (tables or {}).items():
        catalog.register_table(table, name=table_name)
    return catalog


def load_catalog_workloads(
    directory: str | Path,
) -> dict[str, WorkloadFingerprint]:
    """Build-time fingerprints saved with a catalog, keyed by entry name.

    They come from the generation :func:`load_catalog` reads; entries saved
    without one are absent.  The result feeds
    :class:`~repro.obs.drift.WorkloadDriftDetector`.
    """
    directory = Path(directory)
    return {
        entry.name: load_workload_fingerprint(directory / entry.workload)
        for entry in _saved_generation(directory)
        if entry.workload
    }
