"""Streaming updates over a sharded synopsis with per-shard rebuilds.

The :class:`StreamingShardRouter` is the write path of the distributed
layer.  It directs every insert / delete to the shard that owns the row's
shard-column value, tracks each shard's update drift
(:attr:`~repro.core.updates.DynamicPASS.staleness`), and — when a shard
drifts past the rebuild threshold — re-optimizes *that shard only*: the
replacement synopsis is built off to the side from the shard's current data
and swapped in with a single reference assignment
(:meth:`~repro.distributed.sharded.ShardedSynopsis.replace_shard`), so reads
against every other shard (and against the old copy of the rebuilding shard)
continue untouched.  This is the answering-queries-under-updates pattern:
updates are O(tree height) per tuple, and the expensive re-optimization is
amortized, localized to one shard, and never blocks the read path.

Mutations to one shard are serialized by a per-shard lock; different shards
update concurrently.  The router is the **single writer** for its synopsis:
once a router owns a :class:`ShardedSynopsis`, apply every insert / delete
through the router (not through ``ShardedSynopsis.insert`` or
``ServingEngine.insert`` directly) — a rebuild replays the router's own
delta log, so updates applied behind its back would be silently lost.
:meth:`StreamingShardRouter.rebuild` guards against that drift by checking
the materialized snapshot against the shard's live population and raising on
a mismatch.  When the synopsis is also registered in a caching
:class:`~repro.serving.engine.ServingEngine`, drop the engine's cached
results after router-applied updates (``engine.invalidate(name)``) — only
updates applied through the engine invalidate its cache automatically.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
        normalized by its build-time population).
    population:
        The shard's current tuple count.
    sketch_staleness:
        The shard's QUANTILE / COUNT_DISTINCT sketch drift: deletions the
        mergeable sketches could not absorb, normalized by the build-time
        population (see :attr:`repro.core.updates.DynamicPASS.sketch_staleness`).
        A rebuild reconstructs the sketches and resets it to 0.0.
    extrema_staleness:
        The shard's extremum-delete drift: deletions that hit a partition
        MIN / MAX (leaving the bound conservative), normalized by the
        build-time population (see
        :attr:`repro.core.updates.DynamicPASS.extrema_staleness`).  A
        rebuild retightens the bounds and resets it to 0.0.
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
        The sharded synopsis to maintain; every shard must be a
        :class:`DynamicPASS` (build with ``dynamic=True``).
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
        self._locks = [threading.RLock() for _ in range(sharded.n_shards)]
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
                ).set_function(self._gauge_reader(index, "staleness"))
                registry.gauge(
                    "repro_shard_extrema_staleness",
                    "Per-shard extremum-delete drift at scrape time.",
                    {"shard": str(index)},
                ).set_function(self._gauge_reader(index, "extrema_staleness"))

    def _gauge_reader(self, index: int, gauge: str) -> Callable[[], float]:
        """Reads shard ``index``'s drift gauge at scrape time (after swaps)."""
        return lambda: getattr(self._sharded.shards[index], gauge)

    @property
    def sharded(self) -> ShardedSynopsis:
        """The maintained sharded synopsis."""
        return self._sharded

    @property
    def rebuild_threshold(self) -> float | None:
        """Staleness ratio that triggers an automatic per-shard rebuild."""
        return self._rebuild_threshold

    def add_swap_listener(
        self, listener: Callable[[int, DynamicPASS], None]
    ) -> None:
        """Invoke ``listener(shard_index, replacement)`` after each rebuild.

        Listeners fire right after the atomic :meth:`~repro.distributed.
        sharded.ShardedSynopsis.replace_shard` swap, still under the
        rebuilding shard's lock, so they observe swaps in order and never
        see a torn shard.  This is how the shared-memory publisher
        (:meth:`repro.serving.shm.SynopsisPublisher.watch_router`)
        republishes a rebuilt shard to the worker pool.  Listener
        exceptions propagate to the updater that triggered the rebuild.
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
        return self._apply(row, "insert")

    def delete(self, row: Mapping[str, float]) -> int:
        """Delete one tuple from its owning shard; returns the shard index."""
        return self._apply(row, "delete")

    def apply_many(
        self,
        rows: Sequence[Mapping[str, float]],
        kinds: str | Sequence[str] = "insert",
        max_workers: int | None = None,
    ) -> list[int]:
        """Apply a batch of updates with one fan-out pass per owning shard.

        This is the async tier's bulk write entry point: rows are grouped by
        owning shard first, each shard's slice is applied in arrival order
        under a *single* acquisition of that shard's lock, and — when
        ``max_workers`` asks for it — different shards apply their slices
        concurrently on a thread pool.  The per-shard locks make the fan-out
        safe to run from any thread (asyncio executor threads included), and
        per-shard ordering matches :meth:`insert` / :meth:`delete` call
        order because grouping preserves arrival order within a shard.

        Parameters
        ----------
        rows:
            The update payloads (every row must carry the shard's full
            schema, as with single-row updates).
        kinds:
            ``"insert"`` or ``"delete"`` applied to every row, or one kind
            per row.
        max_workers:
            When given (> 1), shard groups apply concurrently on a thread
            pool of at most this many workers; None applies shard groups
            sequentially in the calling thread.

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

        indices = [self._sharded.shard_for_row(row) for row in rows]
        per_shard: dict[int, list[tuple[dict[str, float], str]]] = {}
        for index, row, kind in zip(indices, rows, row_kinds):
            per_shard.setdefault(index, []).append((self._full_row(index, row), kind))

        def apply_shard(index: int) -> None:
            with self._locks[index]:
                shard = self._sharded.shards[index]
                for record, kind in per_shard[index]:
                    if kind == "insert":
                        shard.insert(record)
                        self._inserted[index].append(record)
                        self._insert_counts[index] += 1
                        self._m_inserts[index].inc()
                    else:
                        shard.delete(record)
                        self._deleted[index].append(record)
                        self._delete_counts[index] += 1
                        self._m_deletes[index].inc()
                if (
                    self._rebuild_threshold is not None
                    and shard.staleness >= self._rebuild_threshold
                ):
                    self._rebuild_locked(index)

        if max_workers is not None and max_workers > 1 and len(per_shard) > 1:
            with ThreadPoolExecutor(
                max_workers=min(max_workers, len(per_shard))
            ) as pool:
                for future in [pool.submit(apply_shard, index) for index in per_shard]:
                    future.result()
        else:
            for index in per_shard:
                apply_shard(index)
        return indices

    def _apply(self, row: Mapping[str, float], kind: str) -> int:
        index = self._sharded.shard_for_row(row)
        record = self._full_row(index, row)
        with self._locks[index]:
            shard = self._sharded.shards[index]
            if kind == "insert":
                shard.insert(record)
                self._inserted[index].append(record)
                self._insert_counts[index] += 1
                self._m_inserts[index].inc()
            else:
                shard.delete(record)
                self._deleted[index].append(record)
                self._delete_counts[index] += 1
                self._m_deletes[index].inc()
            if (
                self._rebuild_threshold is not None
                and shard.staleness >= self._rebuild_threshold
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
        with self._locks[index]:
            self._rebuild_locked(index)

    def _rebuild_locked(self, index: int) -> None:
        rebuild_start = time.perf_counter()
        shard = self._sharded.shards[index]
        snapshot = self._materialize(index)
        if snapshot.n_rows != shard.population_size:
            raise RuntimeError(
                f"shard {index}'s delta log materializes {snapshot.n_rows} rows but "
                f"the live shard holds {shard.population_size}: updates were applied "
                "outside this router (route every insert/delete through the router "
                "so rebuilds cannot lose them)"
            )
        replacement = DynamicPASS(
            snapshot,
            shard.value_column,
            shard.predicate_columns,
            config=shard.config,
            extra_sample_columns=shard.extra_sample_columns,
        )
        # Atomic swap: readers see the old shard until this assignment and
        # the fresh one after; no read on any shard ever waits for the build.
        self._sharded.replace_shard(index, replacement)
        for listener in self._swap_listeners:
            listener(index, replacement)
        self._base_tables[index] = snapshot
        self._inserted[index].clear()
        self._deleted[index].clear()
        self._rebuild_counts[index] += 1
        self._m_rebuilds[index].inc()
        self._m_rebuild_seconds.observe(time.perf_counter() - rebuild_start)

    def _materialize(self, index: int) -> Table:
        """The shard's current data: base table plus inserts minus deletes."""
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
                match &= arrays[column] == record[column]
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
        snapshots = []
        for index in range(self._sharded.n_shards):
            shard = self._sharded.shards[index]
            snapshots.append(
                ShardUpdateStats(
                    inserts=self._insert_counts[index],
                    deletes=self._delete_counts[index],
                    rebuilds=self._rebuild_counts[index],
                    staleness=shard.staleness,
                    population=shard.population_size,
                    sketch_staleness=shard.sketch_staleness,
                    extrema_staleness=shard.extrema_staleness,
                )
            )
        return snapshots
