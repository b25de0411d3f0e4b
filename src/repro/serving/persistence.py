"""Versioned save / load of synopses and catalogs.

A synopsis is persisted as a single ``.pass`` file holding exactly the bytes
a shared-memory segment holds (:mod:`repro.serving.shm`: magic, JSON header
with the array directory, page-aligned payloads) — the ``(header, arrays)``
of ``export_buffers``, whichever kind exported them: a static synopsis, a
dynamic one (plus its reservoir ``seen`` / ``capacity`` arrays and update
counters) or a sharded one (one stitched tree, its routing in the header and
``shard_rows``; a file of the earlier per-shard ``shard<i>/`` layout is
refused).  Loading maps the file and hands the views to the same constructor a
pool worker's attach uses, so a loaded static synopsis is zero-copy and
read-only and a restart is the attach code path; dynamic synopses copy their
arrays to own writable ones.  The arrays round-trip bit for bit, so a
reloaded synopsis returns estimates identical to the instance that was saved
— the property the serving tests assert.  A file is outside input: everything
read from it is checked and rejected with a ``ValueError`` naming the path
(version-1 ``.npz`` archives included — there is one read path).

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
import mmap
import os
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
from repro.serving.shm import FORMAT_VERSION, SegmentLayout, parse_segment

__all__ = [
    "FORMAT_VERSION",
    "save_synopsis",
    "load_synopsis",
    "save_catalog",
    "load_catalog",
    "save_workload_fingerprint",
    "load_workload_fingerprint",
    "load_catalog_workloads",
]

#: Suffix of synopsis files / of workload-fingerprint archives.
_SUFFIX = ".pass"
_WORKLOAD_SUFFIX = ".npz"

#: Reserved npz key holding a fingerprint archive's JSON header.
_HEADER_KEY = "__header__"

#: What ``load_synopsis`` builds for each header ``kind`` (absent: static).
_KINDS = {None: PASSSynopsis, "dynamic": DynamicPASS, "sharded": ShardedSynopsis}


def _normalize(path: str | Path, suffix: str) -> Path:
    path = Path(path)
    if path.suffix != suffix:
        path = path.with_name(path.name + suffix)
    return path


def _workload_path(path: Path) -> Path:
    """Sibling ``<stem>.workload.npz`` path for a synopsis file path."""
    return path.with_name(path.name[: -len(_SUFFIX)] + ".workload" + _WORKLOAD_SUFFIX)


def _atomic_write(path: Path, write: Callable[[BinaryIO], None]) -> None:
    """Write a file durably: temp file in the same directory + rename.

    Writing straight to the final path leaves a truncated file behind if the
    process dies mid-write, and the loader then fails on what used to be a
    good file.  Writing to a same-directory temporary file, fsyncing it and
    ``os.replace``-ing it into place makes the publish atomic on POSIX: a
    reader (or a post-crash restart) sees either the complete old file or the
    complete new one, never a torn one.  The temp file is cleaned up on any
    failure before the rename.
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
    """Write ``(header, arrays)`` in the segment layout to an open file."""
    layout = SegmentLayout(header, arrays)
    buffer = bytearray(layout.size)
    layout.write(buffer)
    handle.write(buffer)


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

    The file is mapped, not read: a static synopsis (sharded or not)
    serves straight from read-only views of the mapping, which lives as long
    as they do.  ``ValueError`` naming ``path`` for anything that is not a
    complete file of the current format.
    """
    path = _normalize(path, _SUFFIX)
    with open(path, "rb") as handle:
        if not os.fstat(handle.fileno()).st_size:
            raise ValueError(f"{path} is not a synopsis file (it is empty)")
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    if mapping[:4] == b"PK\x03\x04":
        raise ValueError(
            f"unsupported synopsis format 1 in {path}: a zip (npz) archive "
            f"(this build reads version {FORMAT_VERSION})"
        )
    header, arrays = parse_segment(mapping, str(path))
    try:
        return _KINDS[header.get("kind")].from_buffers(header, arrays)
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
