"""The synopsis' one serial form, shared-memory segments, and the epoch protocol.

A synopsis is a ``(header, arrays)`` pair of flat numpy buffers
(:meth:`~repro.core.soa.FlatSynopsis.export_buffers`).  This module owns the
byte layout that pair is written in — :class:`SegmentLayout` writes it into
any buffer, :func:`parse_segment` reads it back as zero-copy views — and uses
it for :class:`multiprocessing.shared_memory.SharedMemory` segments, so a
process-per-core worker pool (:mod:`repro.serving.server`) serves queries
over **read-only views** of one shared copy instead of pickling the synopsis
into every worker.  :mod:`repro.serving.persistence` writes the very same
bytes to a file and maps them back, so a restart and a pool attach are one
code path.

Layout (one segment or file per synopsis; normative, mirrored in
``docs/ARCHITECTURE.md``):

* bytes ``0..8`` — magic ``b"PASSSEG1"``;
* bytes ``8..16`` — little-endian ``uint64`` length of the JSON header;
* bytes ``16..16+len`` — the JSON header: ``format`` (the layout version),
  ``size`` (the bytes the whole layout occupies), ``synopsis`` (the
  exported header: scalars and name lists) and ``arrays``, the directory
  (key, dtype, shape, byte offset per buffer) — the kernel arrays and, for
  a synopsis built with sketches, its per-leaf sketches ragged-packed under
  ``sketch/<key>``;
* each array payload at its directory offset, every offset **page-aligned**
  (so a buffer never straddles an unrelated buffer's cache lines and the
  kernel can share pages cleanly).

A file is outside input and a segment's owner may have died mid-write, so the
reader checks everything it is about to trust (magic, header length, format,
every directory entry's dtype and extent) and raises ``ValueError`` naming
the source.

Coordination between the single writer and the readers is a tiny separate
**epoch register** segment updated with a seqlock:

* the owner process is the only writer — it rebuilds into a *fresh* data
  segment, then flips the register: sequence number to odd (write in
  progress), payload (the entry -> segment-name manifest), sequence to the
  next even value;
* a reader snapshots the sequence number, copies the payload, and re-reads
  the sequence — a torn read (writer raced it) shows as odd or changed and
  the reader simply retries — boundedly: a sequence that stays odd (the
  publisher died mid-publish) raises :class:`EpochReadTimeout` instead of
  hanging the reader.  Workers validate the epoch per request and
  re-attach to the new segments when it moved, so a reader never observes a
  torn synopsis: old segments stay mapped (and therefore alive) in any
  worker still finishing a request against them, even after the owner
  unlinks the names.

Segment lifetime is owned by the single owner process: readers attach with
``track=False`` where available (Python 3.13+); on older interpreters the
attach-side tracker registration is left in place — workers are spawned
from the owner and share its resource tracker, where registration is
idempotent and doubles as crash cleanup (see :func:`_attach_untracked`).
"""

from __future__ import annotations

import json
import math
import mmap
import secrets
import struct
import time
from multiprocessing import shared_memory
from typing import Mapping, NamedTuple

import numpy as np

from repro.core.soa import FlatSynopsis

__all__ = [
    "FORMAT_VERSION",
    "SEGMENT_MAGIC",
    "REGISTER_MAGIC",
    "SegmentLayout",
    "parse_segment",
    "SynopsisSegment",
    "AttachedSegment",
    "EpochRegister",
    "EpochReadTimeout",
    "PublishedEntry",
    "read_published",
    "SynopsisPublisher",
    "attach_flat_synopsis",
]

#: Layout version in every segment / file header (and every manifest and
#: archive :mod:`repro.serving.persistence` writes); bumped on incompatible
#: changes.  Version 1 was the compressed-npz archive.
FORMAT_VERSION = 2

#: First eight bytes of every synopsis data segment and synopsis file.
SEGMENT_MAGIC = b"PASSSEG1"

#: First eight bytes of every epoch-register segment.
REGISTER_MAGIC = b"PASSEPR1"

#: Name prefixes of data segments and epoch registers (leak checks glob them).
_SEGMENT_PREFIX = "pass-seg"
_REGISTER_PREFIX = "pass-epoch"

#: Bytes allocated per epoch register; bounds the JSON manifest it can hold.
_REGISTER_CAPACITY = 1 << 16

#: Seconds a reader sleeps before retrying a torn or in-progress register read.
_SPIN_INTERVAL = 0.0005

#: Consecutive odd (write in flight) sequence reads after which a reader
#: gives up.  A publish holds the sequence odd for microseconds; a second of
#: spinning (2000 x ``_SPIN_INTERVAL``) means the publisher died mid-publish.
_MAX_ODD_READS = 2000

_PAGE = mmap.PAGESIZE
_SEQ_OFFSET = 8
_LEN_OFFSET = 16
_PAYLOAD_OFFSET = 24


def _segment_name(prefix: str) -> str:
    """A collision-resistant shared-memory name under ``prefix``."""
    return f"{prefix}-{secrets.token_hex(6)}"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking tracker ownership.

    On Python 3.13+ this is ``SharedMemory(name, track=False)``.  Earlier
    interpreters register every attach with the resource tracker; that is
    harmless here because the serving workers are spawned from the owner
    process and inherit its tracker (registration is idempotent in the
    shared tracker, and the tracker only unlinks at full-tree shutdown —
    which doubles as crash cleanup).  Explicitly *unregistering* after
    attach would be wrong: it erases the owner's registration from the
    shared tracker and the owner's own ``unlink`` then trips a tracker
    ``KeyError``.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13 fallback
        return shared_memory.SharedMemory(name=name)


def _align(offset: int) -> int:
    """Round ``offset`` up to the next page boundary."""
    return (offset + _PAGE - 1) // _PAGE * _PAGE


class SegmentLayout:
    """Where a ``(header, arrays)`` pair goes in a buffer of ``size`` bytes.

    ``header`` must be JSON-safe (every ``export_buffers`` header is).
    Construct, allocate ``size`` bytes wherever they should live (shared
    memory, a ``bytearray`` bound for a file), then :meth:`write` into them.
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


class SynopsisSegment:
    """Owner-side handle of one published synopsis data segment.

    Created by :meth:`write`; the owner keeps the handle to ``unlink`` the
    name once a newer generation has been published (readers still attached
    keep the memory alive until they re-attach).
    """

    def __init__(self, segment: shared_memory.SharedMemory) -> None:
        self._segment = segment

    @property
    def name(self) -> str:
        """The shared-memory name readers attach with."""
        return self._segment.name

    @property
    def size(self) -> int:
        """Allocated segment size in bytes."""
        return self._segment.size

    @classmethod
    def write(
        cls,
        header: Mapping,
        arrays: Mapping[str, np.ndarray],
    ) -> "SynopsisSegment":
        """Lay ``(header, arrays)`` out in a fresh shared-memory segment.

        Each array is copied once into the segment (:class:`SegmentLayout`).
        Returns the owning handle.
        """
        layout = SegmentLayout(header, arrays)
        segment = shared_memory.SharedMemory(
            create=True, size=layout.size, name=_segment_name(_SEGMENT_PREFIX)
        )
        layout.write(segment.buf)
        return cls(segment)

    def close(self) -> None:
        """Close the owner's mapping (the segment itself stays published)."""
        self._segment.close()

    def unlink(self) -> None:
        """Remove the segment's name; mapped readers keep the memory alive."""
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class AttachedSegment:
    """A reader's zero-copy view of a published synopsis segment.

    ``header`` is the synopsis scalar header; ``arrays`` maps buffer keys to
    read-only numpy views straight over the shared mapping.  Keep the
    instance referenced for as long as any view (or a :class:`FlatSynopsis`
    built over the views) is in use, then :meth:`close`.
    """

    def __init__(self, name: str) -> None:
        self._segment = _attach_untracked(name)
        try:
            self.header, self.arrays = parse_segment(self._segment.buf, name)
        except ValueError:
            self._segment.close()
            raise

    @property
    def name(self) -> str:
        """The attached segment's shared-memory name."""
        return self._segment.name

    def close(self) -> None:
        """Drop the mapping.  Views into ``arrays`` must not be used after."""
        self.arrays = {}
        self._segment.close()


def attach_flat_synopsis(name: str) -> tuple[FlatSynopsis, AttachedSegment]:
    """Attach a segment and rehydrate a zero-copy :class:`FlatSynopsis`.

    Returns the engine plus the attachment handle keeping the mapping
    alive; close the handle only after the engine is discarded.
    """
    attached = AttachedSegment(name)
    return FlatSynopsis(attached.header, attached.arrays), attached


class EpochReadTimeout(TimeoutError):
    """An epoch register stayed mid-publish: its writer died before the flip.

    Raised by :meth:`EpochRegister.read` after ``_MAX_ODD_READS`` consecutive
    odd sequence reads.  The register never becomes consistent again on its
    own; the owner has to publish afresh (a new publisher and pool).
    """


class EpochRegister:
    """The tiny seqlock-guarded control segment naming the live generation.

    One writer (the owner process) and any number of readers (workers).
    The payload is an arbitrary JSON document — the publisher stores the
    entry manifest (synopsis name -> data-segment name plus routing
    metadata).  The sequence number at byte 8 doubles as the **epoch**: it
    is even when the register is consistent and increments by 2 per
    publish, so workers detect staleness with a single 8-byte read.
    """

    def __init__(
        self, segment: shared_memory.SharedMemory, *, owner: bool
    ) -> None:
        self._segment = segment
        self._owner = owner

    @classmethod
    def create(cls) -> "EpochRegister":
        """Allocate a fresh register (epoch 0, empty payload); owner side."""
        segment = shared_memory.SharedMemory(
            create=True,
            size=_REGISTER_CAPACITY,
            name=_segment_name(_REGISTER_PREFIX),
        )
        segment.buf[0:8] = REGISTER_MAGIC
        struct.pack_into("<Q", segment.buf, _SEQ_OFFSET, 0)
        struct.pack_into("<Q", segment.buf, _LEN_OFFSET, 0)
        return cls(segment, owner=True)

    @classmethod
    def attach(cls, name: str) -> "EpochRegister":
        """Attach to an existing register by name; reader side."""
        segment = _attach_untracked(name)
        if bytes(segment.buf[0:8]) != REGISTER_MAGIC:
            segment.close()
            raise ValueError(f"{name} is not an epoch register (bad magic)")
        return cls(segment, owner=False)

    @property
    def name(self) -> str:
        """The register's shared-memory name (hand this to workers)."""
        return self._segment.name

    def epoch(self) -> int:
        """The current generation (even; odd means a publish is in flight)."""
        (seq,) = struct.unpack_from("<Q", self._segment.buf, _SEQ_OFFSET)
        return seq

    def publish(self, manifest: Mapping) -> int:
        """Atomically install a new manifest; returns the new (even) epoch.

        Seqlock write protocol: bump the sequence to odd, write the
        payload, bump to the next even value.  Readers that race the write
        observe the odd sequence (or a changed one) and retry, so they
        only ever act on a complete manifest.
        """
        if not self._owner:
            raise RuntimeError("only the owning process may publish")
        encoded = json.dumps(manifest).encode("utf-8")
        capacity = self._segment.size - _PAYLOAD_OFFSET
        if len(encoded) > capacity:
            raise ValueError(
                f"manifest ({len(encoded)} bytes) exceeds the register "
                f"capacity ({capacity} bytes)"
            )
        buf = self._segment.buf
        (seq,) = struct.unpack_from("<Q", buf, _SEQ_OFFSET)
        struct.pack_into("<Q", buf, _SEQ_OFFSET, seq + 1)  # odd: in progress
        struct.pack_into("<Q", buf, _LEN_OFFSET, len(encoded))
        buf[_PAYLOAD_OFFSET : _PAYLOAD_OFFSET + len(encoded)] = encoded
        struct.pack_into("<Q", buf, _SEQ_OFFSET, seq + 2)  # even: consistent
        return seq + 2

    def read(self) -> tuple[int, dict]:
        """A consistent ``(epoch, manifest)`` snapshot (seqlock read side).

        Raises :class:`EpochReadTimeout` when the sequence stays odd for
        ``_MAX_ODD_READS`` reads in a row.
        """
        buf = self._segment.buf
        odd_reads = 0
        while True:
            (seq1,) = struct.unpack_from("<Q", buf, _SEQ_OFFSET)
            if seq1 % 2:
                odd_reads += 1
                if odd_reads >= _MAX_ODD_READS:
                    raise EpochReadTimeout(
                        f"epoch register {self.name} has been mid-publish "
                        f"(sequence {seq1}) for {odd_reads} reads; its "
                        "publisher died before completing the flip"
                    )
                time.sleep(_SPIN_INTERVAL)
                continue
            odd_reads = 0
            (length,) = struct.unpack_from("<Q", buf, _LEN_OFFSET)
            payload = bytes(buf[_PAYLOAD_OFFSET : _PAYLOAD_OFFSET + length])
            (seq2,) = struct.unpack_from("<Q", buf, _SEQ_OFFSET)
            if seq1 == seq2:
                manifest = json.loads(payload.decode("utf-8")) if length else {}
                return seq1, manifest
            time.sleep(_SPIN_INTERVAL)

    def close(self) -> None:
        """Drop this process's mapping of the register."""
        self._segment.close()

    def unlink(self) -> None:
        """Remove the register's name (owner teardown)."""
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class PublishedEntry(NamedTuple):
    """One manifest entry: a published synopsis' segment and routing metadata.

    The publisher writes ``_asdict()`` of these into the epoch register;
    readers rebuild them from the manifest and hand them to
    :func:`repro.serving.catalog.route_query`, which reads the same
    attributes off a :class:`~repro.serving.catalog.CatalogEntry`.
    """

    name: str
    segment: str
    #: None publishes a wildcard: the entry matches requests for any table.
    table_name: str | None
    value_column: str
    predicate_columns: list[str]
    n_partitions: int
    population_size: int
    #: True when the segment carries the packed per-leaf sketches.
    supports_sketches: bool


def read_published(register: EpochRegister) -> tuple[int, list[PublishedEntry]]:
    """A consistent ``(epoch, entries)`` snapshot of a publisher's register."""
    epoch, manifest = register.read()
    return epoch, [PublishedEntry(**entry) for entry in manifest.get("entries", [])]


class SynopsisPublisher:
    """Single-writer owner of a set of published synopses.

    Holds the epoch register plus the current generation's data segments.
    :meth:`publish` installs a synopsis under a name (replacing any previous
    generation atomically via the register flip), after which the previous
    segment's name is unlinked — workers mid-request on the old generation
    keep it alive through their mapping and re-attach on their next epoch
    check.  Typical write path::

        publisher = SynopsisPublisher()
        publisher.publish("sensors", synopsis, table_name="intel")
        ...                        # workers attach via publisher.register_name
        publisher.publish("sensors", rebuilt)   # epoch flip; readers migrate
        publisher.close()          # unlink everything

    A :class:`~repro.distributed.router.StreamingShardRouter` rebuild can be
    wired straight in through :meth:`watch_router`: every atomic shard swap
    republishes the rebuilt shard's segment under this publisher.
    """

    def __init__(self) -> None:
        self._register = EpochRegister.create()
        self._segments: dict[str, SynopsisSegment] = {}
        self._entries: dict[str, PublishedEntry] = {}
        self._closed = False

    @property
    def register_name(self) -> str:
        """The epoch register name worker pools attach to."""
        return self._register.name

    @property
    def epoch(self) -> int:
        """The current published generation."""
        return self._register.epoch()

    def publish(
        self,
        name: str,
        synopsis: FlatSynopsis,
        *,
        table_name: str | None = None,
        predicate_columns: tuple[str, ...] | None = None,
    ) -> int:
        """Publish (or republish) one synopsis; returns the new epoch.

        The flat buffers are laid out in a fresh segment *first*, then the
        register flips to the manifest naming it — readers either see the
        old complete generation or the new one.  ``predicate_columns``
        defaults to the synopsis' bound columns and, with ``table_name``
        (None = any table), feeds worker-side routing
        (:class:`PublishedEntry`).  The segment holds the kernel state of any
        kind of synopsis (:meth:`FlatSynopsis.export_buffers`): a
        ``DynamicPASS``' reservoir and update state stay with the writer.
        """
        self._require_open()
        if not isinstance(synopsis, FlatSynopsis):
            raise TypeError(f"expected a FlatSynopsis, got {type(synopsis)!r}")
        header, arrays = FlatSynopsis.export_buffers(synopsis)
        segment = SynopsisSegment.write(header, arrays)
        previous = self._segments.get(name)
        self._segments[name] = segment
        self._entries[name] = PublishedEntry(
            name=name,
            segment=segment.name,
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
        epoch = self._flip()
        if previous is not None:
            previous.unlink()
            previous.close()
        return epoch

    def publish_catalog(self, catalog) -> tuple[int, list[str]]:
        """Publish every eligible entry of a :class:`SynopsisCatalog`.

        Single-synopsis entries (static or dynamic) publish under their
        catalog name with their registered routing metadata, so worker-side
        routing sees the same candidates as the in-process engine.  Sharded
        entries are skipped — the worker pool routes whole queries, not
        shard scatter/gather — and returned in the skipped list so callers
        can keep serving them in-process.  Returns ``(epoch, skipped)``.
        """
        self._require_open()
        skipped = []
        epoch = self.epoch
        for entry in catalog.entries():
            if entry.is_sharded:
                skipped.append(entry.name)
                continue
            epoch = self.publish(
                entry.name,
                entry.synopsis,
                table_name=entry.table_name,
                predicate_columns=entry.predicate_columns,
            )
        return epoch, skipped

    def retire(self, name: str) -> int:
        """Withdraw a published synopsis; returns the new epoch."""
        self._require_open()
        segment = self._segments.pop(name, None)
        self._entries.pop(name, None)
        epoch = self._flip()
        if segment is not None:
            segment.unlink()
            segment.close()
        return epoch

    def watch_router(self, router, name: str, *, table_name: str | None = None):
        """Republish on every atomic shard swap of a streaming router.

        Registers a swap listener on ``router`` (a
        :class:`~repro.distributed.router.StreamingShardRouter`) that
        republishes the swapped shard's synopsis under ``name`` — the
        "rebuild into a fresh segment, flip the epoch" write path.  Only
        single-shard routers are publishable today (the worker pool routes
        whole queries, not shard scatter/gather); a multi-shard router
        raises.  Returns the listener so callers can detach it with
        ``router.remove_swap_listener``.
        """
        self._require_open()
        if router.sharded.n_shards != 1:
            raise ValueError(
                "only single-shard routers can republish through the worker "
                f"pool (got {router.sharded.n_shards} shards); serve "
                "multi-shard synopses through the in-process engine"
            )

        def on_swap(index: int, shard) -> None:
            self.publish(name, shard, table_name=table_name)

        router.add_swap_listener(on_swap)
        self.publish(name, router.sharded.shards[0], table_name=table_name)
        return on_swap

    def _flip(self) -> int:
        """Install the current entries as the register's manifest."""
        return self._register.publish(
            {"entries": [entry._asdict() for entry in self._entries.values()]}
        )

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("publisher is closed")

    def close(self) -> None:
        """Unlink every segment and the register; idempotent."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments.values():
            segment.unlink()
            segment.close()
        self._segments.clear()
        self._entries.clear()
        self._register.unlink()
        self._register.close()

    def __enter__(self) -> "SynopsisPublisher":
        """Context-manager support; closes (and unlinks) on exit."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Unlink all published segments on context exit."""
        self.close()
