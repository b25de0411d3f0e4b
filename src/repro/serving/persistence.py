"""The synopsis' one serial form, and versioned save / load of synopses and catalogs.

A synopsis is a ``(header, arrays)`` pair of flat numpy buffers
(:meth:`~repro.core.soa.FlatSynopsis.export_buffers`), whichever kind
exported them: a static synopsis, a dynamic one (plus its reservoir ``seen``
/ ``capacity`` arrays and update counters) or a sharded one (one stitched
tree, its routing in the header and ``shard_rows``; a file of the earlier
per-shard ``shard<i>/`` layout is refused).  This module owns the byte
layout that pair is written in — :class:`SegmentLayout` writes it into any
buffer or piece by piece to a file, :func:`parse_segment` reads it back as
zero-copy views — with the one
writer of a ``.pass`` file (:func:`_atomic_write` of the layout) and the one
reader (:class:`MappedFile`, a read-only ``mmap``).  :func:`save_synopsis`
and a :class:`~repro.serving.shm.SynopsisPublisher`'s generations are written
by the same writer; :func:`load_synopsis` and a pool worker's attach map
through the same reader, so a loaded static synopsis is zero-copy and
read-only and a restart is the attach code path (dynamic synopses copy their
arrays to own writable ones).  The arrays round-trip bit for bit, so a
reloaded synopsis returns estimates identical to the instance that was saved
— the property the serving tests assert.

The layout is normative in ``docs/ARCHITECTURE.md`` ("File and generation
format"): the magic ``b"PASSSEG1"``, the little-endian ``uint64`` length of a
JSON header — ``format``, ``size``, the exported ``synopsis`` header and the
``arrays`` directory (key, dtype, shape, offset per buffer, packed sketches
under ``sketch/<key>``) — and each payload at its **page-aligned** offset.  A
file is outside input: the reader checks everything it is about to trust
(magic, header length, format, every directory entry's dtype and extent) and
raises ``ValueError`` naming the path — version-1 ``.npz`` archives included,
there is one read path.

A catalog is persisted as a directory: one ``<name>.pass`` per entry plus a
``catalog.json`` manifest with the routing metadata.  Tables themselves are
*not* persisted (they are the workload's data, not the synopsis'); pass them
back to :func:`load_catalog` to restore the exact-scan fallback.

Build-time workload fingerprints (see :mod:`repro.obs.drift`) persist as a
sibling ``<name>.workload.npz`` archive next to each synopsis file — their
own small npz, untouched by the synopsis format.  A reloaded catalog
therefore keeps its drift baselines via :func:`load_catalog_workloads`.

Every write in this module is crash-safe: files are written to a
same-directory temporary file, fsynced and published with an atomic
``os.replace``, fingerprint siblings are written before the synopsis file
that references them, and the catalog manifest is written last.  Killing the
process at any instant — including ``kill -9`` mid-write — leaves only
complete files on disk (the crash-injection tests in
``tests/test_persistence_crash.py`` assert exactly this).
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Mapping

import numpy as np

from repro.core.pass_synopsis import PASSSynopsis
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
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
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

    The one reader of the serial form: :func:`load_synopsis` and a pool
    worker's :func:`~repro.serving.shm.attach_flat_synopsis` both map through
    it.  ``header`` is the synopsis scalar header; ``arrays`` maps buffer keys
    to read-only numpy views straight over the mapping, which stays valid
    after the file's name is unlinked.  Keep the instance referenced for as
    long as any view (or a synopsis built over the views) is in use, then
    :meth:`close`.
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


def _workload_path(path: Path) -> Path:
    """Sibling ``<stem>.workload.npz`` path for a synopsis file path."""
    return path.with_name(path.name[: -len(_SUFFIX)] + ".workload" + _WORKLOAD_SUFFIX)


def save_synopsis(
    synopsis: PASSSynopsis | DynamicPASS | ShardedSynopsis,
    path: str | Path,
    *,
    workload: WorkloadFingerprint | None = None,
) -> Path:
    """Persist a synopsis to a single ``.pass`` file; returns the final path.

    The suffix is appended when missing.  Dynamic synopses persist their
    reservoir counters and update counters as well, so serving can resume
    accepting updates after a restart (the reservoir RNG state is the one
    piece that does not survive — see :meth:`DynamicPASS.export_buffers`).
    A sharded synopsis is one stitched tree: its arrays, routing and
    per-shard drift counters go to the same one file.  Passing ``workload``
    additionally writes the build-time fingerprint to a sibling
    ``<stem>.workload.npz``.

    Both writes are atomic (same-directory temp file + ``os.replace``), and
    the workload sibling is written *before* the synopsis file, so a crash
    at any point leaves every existing file loadable and never a synopsis
    whose fingerprint pair is missing or staler than the synopsis itself.
    """
    if not isinstance(synopsis, tuple(_KINDS.values())):
        raise TypeError(
            "expected a PASSSynopsis, DynamicPASS, or ShardedSynopsis, "
            f"got {type(synopsis)!r}"
        )
    header, arrays = synopsis.export_buffers()
    path = _normalize(path, _SUFFIX)
    if workload is not None:
        save_workload_fingerprint(workload, _workload_path(path))
    _atomic_write(path, lambda handle: _write_segment(handle, header, arrays))
    return path


def save_workload_fingerprint(
    fingerprint: WorkloadFingerprint, path: str | Path
) -> Path:
    """Persist a build-time workload fingerprint to a ``.npz`` archive.

    The write is atomic (temp file + ``os.replace``), like every archive
    this module produces.
    """
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


def save_catalog(
    catalog: SynopsisCatalog,
    directory: str | Path,
    *,
    workloads: Mapping[str, WorkloadFingerprint] | None = None,
) -> Path:
    """Persist every catalog entry plus a ``catalog.json`` manifest.

    ``workloads`` optionally maps entry names to their build-time workload
    fingerprints; each is saved as a sibling ``<name>.workload.npz`` and
    referenced from the manifest so :func:`load_catalog_workloads` can
    restore the drift baselines later.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"format": FORMAT_VERSION, "entries": []}
    for entry in catalog.entries():
        file_name = f"{entry.name}{_SUFFIX}"
        save_synopsis(entry.synopsis, directory / file_name)
        meta = {
            "name": entry.name,
            "file": file_name,
            "table_name": entry.table_name,
            "predicate_columns": list(entry.predicate_columns),
        }
        fingerprint = (workloads or {}).get(entry.name)
        if fingerprint is not None:
            workload_file = f"{entry.name}.workload.npz"
            save_workload_fingerprint(fingerprint, directory / workload_file)
            meta["workload"] = workload_file
        manifest["entries"].append(meta)
    manifest_path = directory / "catalog.json"
    # The manifest is the catalog's commit point — write it atomically too,
    # after every file it references exists on disk.
    encoded = json.dumps(manifest, indent=2).encode("utf-8")
    _atomic_write(manifest_path, lambda handle: handle.write(encoded))
    return manifest_path


def load_catalog(
    directory: str | Path, tables: Mapping[str, Table] | None = None
) -> SynopsisCatalog:
    """Rebuild a catalog saved with :func:`save_catalog`.

    Parameters
    ----------
    directory:
        The directory the catalog was saved to.
    tables:
        Optional ``table_name -> Table`` mapping; every table provided is
        re-registered as the exact-scan fallback for its queries.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "catalog.json").read_text())
    version = manifest.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported catalog format {version!r} in {directory} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    catalog = SynopsisCatalog()
    for meta in manifest["entries"]:
        synopsis = load_synopsis(directory / meta["file"])
        catalog.register(
            meta["name"],
            synopsis,
            table_name=meta["table_name"],
            predicate_columns=tuple(meta["predicate_columns"]),
        )
    for table_name, table in (tables or {}).items():
        catalog.register_table(table, name=table_name)
    return catalog


def load_catalog_workloads(
    directory: str | Path,
) -> dict[str, WorkloadFingerprint]:
    """Build-time fingerprints saved next to a catalog, keyed by entry name.

    Entries saved without a ``workloads`` mapping are simply absent; the
    result feeds straight into
    :class:`~repro.obs.drift.WorkloadDriftDetector`.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "catalog.json").read_text())
    baselines: dict[str, WorkloadFingerprint] = {}
    for meta in manifest["entries"]:
        workload_file = meta.get("workload")
        if workload_file:
            baselines[meta["name"]] = load_workload_fingerprint(
                directory / workload_file
            )
    return baselines
