"""Streaming updates over a sharded synopsis with per-shard rebuilds.

The :class:`StreamingShardRouter` is the write path of the distributed
layer.  It applies every insert / delete to the stitched
:class:`~repro.distributed.sharded.ShardedSynopsis` — which routes the row
to its shard first, then to a leaf among that shard's rows — and, when the
owning shard's drift (``ShardedSynopsis.per_shard_staleness``) passes the
rebuild threshold, re-optimizes *that shard only*: the replacement is built
from the shard's current data and stitched in place of its slice
(:meth:`~repro.distributed.sharded.ShardedSynopsis.replace_shard`), every
other shard keeping its statistics, samples and reservoirs.  Updates are
O(tree height) per tuple, and the expensive re-optimization is amortized and
localized to one shard.

Every shard shares the stitched root's path, so the router takes one lock
for all updates.  The router is the **single writer** for its synopsis:
once a router owns a :class:`ShardedSynopsis`, apply every insert / delete
through the router (not through ``ShardedSynopsis.insert`` or
``ServingEngine.insert`` directly) — a rebuild replays the router's own
delta log, so updates applied behind its back would be silently lost.
:meth:`StreamingShardRouter.rebuild` guards against that drift by checking
the materialized snapshot against the shard's live population and raising on
a mismatch.

When the synopsis is also registered in a
:class:`~repro.serving.engine.ServingEngine`, hand the router the engine's
write lock (``router.set_write_lock(engine.write_locked)``): every in-place
update and every re-stitch then runs under it, as ``ServingEngine.insert``
does, so no query reads a half-written tree.  A rebuild's replacement shard
is built outside it; readers wait for the re-stitch only.  Drop the engine's
cached results after router-applied updates (``engine.invalidate(name)``) —
only updates applied through the engine invalidate its cache automatically.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.sharded import ShardedSynopsis
from repro.obs import Observability

__all__ = ["StreamingShardRouter", "ShardUpdateStats"]

#: Rebuild-duration histogram buckets (seconds): rebuilds are orders of
#: magnitude slower than queries, so the default latency buckets top out
#: too early for them.
_REBUILD_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


@dataclass(frozen=True)
class ShardUpdateStats:
    """Per-shard write-path telemetry snapshot.

    Attributes
    ----------
    inserts / deletes:
        Updates routed to the shard since the router was created.
    rebuilds:
        Number of re-optimizations the router triggered for the shard.
    staleness:
        The shard's current update drift (updates since its last build,
        normalized by its build-time population; see
        :meth:`~repro.distributed.sharded.ShardedSynopsis.per_shard_staleness`).
    population:
        The shard's current tuple count.
    sketch_staleness:
        The shard's QUANTILE / COUNT_DISTINCT sketch drift: deletions the
        mergeable sketches could not absorb, normalized by the build-time
        population.  A rebuild reconstructs the sketches and resets it to 0.0.
    extrema_staleness:
        The shard's extremum-delete drift: deletions that hit a partition
        MIN / MAX (leaving the bound conservative), normalized by the
        build-time population.  A rebuild retightens the bounds and resets
        it to 0.0.
    """

    inserts: int
    deletes: int
    rebuilds: int
    staleness: float
    population: int
    sketch_staleness: float = 0.0
    extrema_staleness: float = 0.0

    def as_dict(self) -> dict[str, float | int]:
        """Field-name-keyed dict view (the serving stack's uniform
        ``as_dict()`` contract — see
        :meth:`repro.serving.stats.StatsSnapshot.as_dict`)."""
        return asdict(self)


class StreamingShardRouter:
    """Routes streaming inserts / deletes and rebuilds drifted shards.

    Parameters
    ----------
    sharded:
        The sharded synopsis to maintain, built from :class:`DynamicPASS`
        shards (``dynamic=True``).
    shard_tables:
        The per-shard base tables from the :class:`ShardPlan`.  The router
        keeps them (plus the applied deltas) so a rebuild can materialize the
        shard's current data without touching the other shards.
    rebuild_threshold:
        Staleness ratio above which a shard is re-optimized (``None``
        disables automatic rebuilds; :meth:`rebuild` stays available).
    obs:
        The shared :class:`~repro.obs.Observability` context.  When enabled,
        every routed update increments ``repro_shard_updates_total`` (labeled
        by shard and kind), rebuilds count into ``repro_shard_rebuilds_total``
        and time into a ``repro_shard_rebuild_seconds`` histogram, and
        per-shard staleness is exported as scrape-time gauges.
    """

    def __init__(
        self,
        sharded: ShardedSynopsis,
        shard_tables: Sequence[Table],
        rebuild_threshold: float | None = 0.25,
        obs: Observability | None = None,
    ) -> None:
        if not sharded.supports_updates:
            raise TypeError(
                "every shard must be a DynamicPASS to route streaming updates "
                "(build the sharded synopsis with dynamic=True)"
            )
        if len(shard_tables) != sharded.n_shards:
            raise ValueError(
                f"{sharded.n_shards} shards but {len(shard_tables)} base tables"
            )
        if rebuild_threshold is not None and rebuild_threshold <= 0:
            raise ValueError("rebuild_threshold must be positive (or None)")
        self._sharded = sharded
        self._base_tables = list(shard_tables)
        self._rebuild_threshold = rebuild_threshold
        self._lock = threading.RLock()
        self._write_locked: Callable[[], AbstractContextManager] = nullcontext
        self._inserted: list[list[dict[str, float]]] = [
            [] for _ in range(sharded.n_shards)
        ]
        self._deleted: list[list[dict[str, float]]] = [
            [] for _ in range(sharded.n_shards)
        ]
        self._insert_counts = [0] * sharded.n_shards
        self._delete_counts = [0] * sharded.n_shards
        self._rebuild_counts = [0] * sharded.n_shards
        self._swap_listeners: list[Callable[[int, DynamicPASS], None]] = []
        self._obs = obs if obs is not None else Observability.disabled()
        registry = self._obs.metrics
        update_help = "Streaming updates routed to each shard."
        self._m_inserts = [
            registry.counter(
                "repro_shard_updates_total",
                update_help,
                {"shard": str(index), "kind": "insert"},
            )
            for index in range(sharded.n_shards)
        ]
        self._m_deletes = [
            registry.counter(
                "repro_shard_updates_total",
                update_help,
                {"shard": str(index), "kind": "delete"},
            )
            for index in range(sharded.n_shards)
        ]
        self._m_rebuilds = [
            registry.counter(
                "repro_shard_rebuilds_total",
                "Per-shard re-optimizations triggered by staleness drift.",
                {"shard": str(index)},
            )
            for index in range(sharded.n_shards)
        ]
        self._m_rebuild_seconds = registry.histogram(
            "repro_shard_rebuild_seconds",
            "Wall-clock duration of per-shard rebuilds.",
            buckets=_REBUILD_BUCKETS,
        )
        if self._obs.enabled:
            for index in range(sharded.n_shards):
                registry.gauge(
                    "repro_shard_staleness",
                    "Per-shard update drift at scrape time.",
                    {"shard": str(index)},
                ).set_function(self._gauge_reader(index, 0))
                registry.gauge(
                    "repro_shard_extrema_staleness",
                    "Per-shard extremum-delete drift at scrape time.",
                    {"shard": str(index)},
                ).set_function(self._gauge_reader(index, 2))

    def _gauge_reader(self, index: int, column: int) -> Callable[[], float]:
        """Reads shard ``index``'s ``per_shard_drift`` column at scrape time."""
        return lambda: float(self._sharded.per_shard_drift()[index, column])

    @property
    def sharded(self) -> ShardedSynopsis:
        """The maintained sharded synopsis."""
        return self._sharded

    @property
    def rebuild_threshold(self) -> float | None:
        """Staleness ratio that triggers an automatic per-shard rebuild."""
        return self._rebuild_threshold

    def set_write_lock(
        self, write_locked: Callable[[], AbstractContextManager] | None
    ) -> None:
        """Run every in-place write and re-stitch under ``write_locked()``.

        Pass the serving engine's :meth:`~repro.serving.engine.ServingEngine.
        write_locked` when the synopsis is served, so concurrent queries
        never read it mid-write; ``None`` drops the lock.  Taken inside the
        router's own lock, never around a replacement shard's build.
        """
        self._write_locked = write_locked or nullcontext

    def add_swap_listener(
        self, listener: Callable[[int, DynamicPASS], None]
    ) -> None:
        """Invoke ``listener(shard_index, replacement)`` after each rebuild.

        Listeners fire right after the replacement is stitched in
        (:meth:`~repro.distributed.sharded.ShardedSynopsis.replace_shard`),
        still under the router's lock, so they observe rebuilds in order.
        This is how the publisher
        (:meth:`repro.serving.shm.SynopsisPublisher.watch_router`)
        republishes the synopsis to the worker pool.  Listener exceptions
        propagate to the updater that triggered the rebuild.
        """
        self._swap_listeners.append(listener)

    def remove_swap_listener(
        self, listener: Callable[[int, DynamicPASS], None]
    ) -> None:
        """Detach a listener added with :meth:`add_swap_listener`."""
        self._swap_listeners.remove(listener)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def insert(self, row: Mapping[str, float]) -> int:
        """Insert one tuple into its owning shard; returns the shard index."""
        return self._apply(*self._record(row), "insert")

    def delete(self, row: Mapping[str, float]) -> int:
        """Delete one tuple from its owning shard; returns the shard index."""
        return self._apply(*self._record(row), "delete")

    def apply_many(
        self,
        rows: Sequence[Mapping[str, float]],
        kinds: str | Sequence[str] = "insert",
    ) -> list[int]:
        """Apply a batch of updates in arrival order under one lock acquisition.

        This is the async tier's bulk write entry point.  ``kinds`` is
        ``"insert"`` or ``"delete"`` for every row, or one kind per row;
        kinds and rows are checked before any row is applied.  Each row
        behaves as :meth:`insert` / :meth:`delete` would, rebuild threshold
        included.

        Returns the owning shard index per row, aligned with the input.
        """
        rows = list(rows)
        if isinstance(kinds, str):
            row_kinds = [kinds] * len(rows)
        else:
            row_kinds = list(kinds)
            if len(row_kinds) != len(rows):
                raise ValueError(f"{len(rows)} rows but {len(row_kinds)} update kinds")
        for kind in row_kinds:
            if kind not in ("insert", "delete"):
                raise ValueError(f"unknown update kind {kind!r}")
        records = [self._record(row) for row in rows]
        with self._lock:
            return [
                self._apply(index, record, kind)
                for (index, record), kind in zip(records, row_kinds)
            ]

    def _record(self, row: Mapping[str, float]) -> tuple[int, dict[str, float]]:
        """``(owning shard, the row in its shard table's full schema)``."""
        index = self._sharded.shard_for_row(row)
        return index, self._full_row(index, row)

    def _apply(self, index: int, record: dict[str, float], kind: str) -> int:
        with self._lock:
            with self._write_locked():
                getattr(self._sharded, kind)(record)
            if kind == "insert":
                self._inserted[index].append(record)
                self._insert_counts[index] += 1
                self._m_inserts[index].inc()
            else:
                self._deleted[index].append(record)
                self._delete_counts[index] += 1
                self._m_deletes[index].inc()
            if (
                self._rebuild_threshold is not None
                and self._sharded.per_shard_staleness()[index]
                >= self._rebuild_threshold
            ):
                self._rebuild_locked(index)
        return index

    def _full_row(self, index: int, row: Mapping[str, float]) -> dict[str, float]:
        """Validate and normalize a row to the shard table's full schema.

        Rebuilds materialize the shard from its base table plus the deltas,
        so every update must carry every column of the shard's schema.
        """
        columns = self._base_tables[index].column_names
        missing = [column for column in columns if column not in row]
        if missing:
            raise KeyError(
                f"row is missing columns {missing} required by shard {index}'s schema"
            )
        return {column: float(row[column]) for column in columns}

    # ------------------------------------------------------------------
    # Per-shard rebuilds
    # ------------------------------------------------------------------
    def rebuild(self, index: int) -> None:
        """Re-optimize one shard from its current data (other shards untouched)."""
        with self._lock:
            self._rebuild_locked(index)

    def _rebuild_locked(self, index: int) -> None:
        rebuild_start = time.perf_counter()
        sharded = self._sharded
        snapshot = self._materialize(index)
        population = sharded.shard_population(index)
        if snapshot.n_rows != population:
            raise RuntimeError(
                f"shard {index}'s delta log materializes {snapshot.n_rows} rows but "
                f"the live shard holds {population}: updates were applied "
                "outside this router (route every insert/delete through the router "
                "so rebuilds cannot lose them)"
            )
        config = sharded.config
        replacement = DynamicPASS(
            snapshot,
            sharded.value_column,
            sharded.predicate_columns,
            config=config.with_overrides(seed=config.seed + index),
            extra_sample_columns=sharded.extra_sample_columns,
        )
        with self._write_locked():
            sharded.replace_shard(index, replacement)
        for listener in self._swap_listeners:
            listener(index, replacement)
        self._base_tables[index] = snapshot
        self._inserted[index].clear()
        self._deleted[index].clear()
        self._rebuild_counts[index] += 1
        self._m_rebuilds[index].inc()
        self._m_rebuild_seconds.observe(time.perf_counter() - rebuild_start)

    def _materialize(self, index: int) -> Table:
        """The shard's current data: base table plus inserts minus deletes.

        A deleted row matches the first live row equal to it in every
        column, NaN matching NaN (as :meth:`DynamicPASS.delete` matches).
        """
        base = self._base_tables[index]
        columns = base.column_names
        arrays = {column: base.column(column).astype(float) for column in columns}
        inserted = self._inserted[index]
        if inserted:
            for column in columns:
                appended = np.array(
                    [record[column] for record in inserted], dtype=float
                )
                arrays[column] = np.concatenate([arrays[column], appended])
        keep = np.ones(next(iter(arrays.values())).shape[0], dtype=bool)
        for record in self._deleted[index]:
            match = keep.copy()
            for column in columns:
                value = record[column]
                values = arrays[column]
                match &= np.isnan(values) if math.isnan(value) else values == value
            hits = np.flatnonzero(match)
            if hits.shape[0] == 0:
                raise ValueError(
                    f"deleted row {record!r} not found in shard {index}'s data"
                )
            keep[hits[0]] = False
        return Table(
            {column: values[keep] for column, values in arrays.items()},
            name=base.name,
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> list[ShardUpdateStats]:
        """Per-shard write-path telemetry, in shard order."""
        sharded = self._sharded
        drift = sharded.per_shard_drift().tolist()
        return [
            ShardUpdateStats(
                inserts=self._insert_counts[index],
                deletes=self._delete_counts[index],
                rebuilds=self._rebuild_counts[index],
                staleness=drift[index][0],
                population=sharded.shard_population(index),
                sketch_staleness=drift[index][1],
                extrema_staleness=drift[index][2],
            )
            for index in range(sharded.n_shards)
        ]
