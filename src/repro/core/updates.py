"""Dynamic maintenance of a PASS synopsis (Section 4.5).

Insertions and deletions are applied, without rebuilding, to the synopsis
itself — a :class:`DynamicPASS` is the :class:`~repro.core.soa.FlatSynopsis`
it maintains, and its arrays are the one mutable copy:

* the tuple is routed to its leaf over the leaf rows' bounds
  (``leaf_for_point``);
* SUM / COUNT / MIN / MAX of every row on the leaf's memoised leaf-to-root
  ``parent`` chain are updated in O(height) time (``add_value`` /
  ``remove_value``);
* the leaf's stratified sample — its CSR rows, stored nowhere else — is kept
  by reservoir sampling (:func:`~repro.sampling.reservoir.reservoir_slot`),
  so it stays a uniform sample of the leaf's (growing) population; only the
  reservoirs' ``capacity`` / ``seen`` counters live here.  Every leaf owns
  ``capacity`` sample *slots*, reserved when the synopsis is adopted or
  loaded (``reserve_sample_slots``): an accepted insert writes its one row
  in place (``put_sample_row``) and a delete shifts the rows of its own leaf
  only (``drop_sample_row``).  Exports stay compact, so neither the saved
  bytes nor ``storage_bytes`` see the slack;
* the leaf's distinct-count sketch absorbs the value with one scalar hash
  and one ``searchsorted`` insert.

An update therefore costs O(depth + one leaf), independent of the number of
leaves and of the other leaves' samples.

After many updates the partitioning may drift away from the optimum the
builder found; :meth:`DynamicPASS.updates_since_build` and the normalized
:attr:`DynamicPASS.staleness` ratio let callers decide when to trigger a
re-optimization (the paper leaves the split/merge variant as future work).

Known limitation — stale MIN / MAX after deletions
--------------------------------------------------
Deleting a tuple cannot tighten the MIN / MAX statistics of the nodes on its
root-to-leaf path without rescanning the raw data, so those bounds are kept
*conservative*: they remain valid (the true extremum is always inside them)
but may become loose.  Concretely, after deleting the current minimum or
maximum of a partition, MIN / MAX query estimates and the hard bounds derived
from node statistics can be wider than a fresh build would produce.  The
first deletion that can cause this emits a :class:`StaleExtremaWarning`, and
:attr:`DynamicPASS.minmax_possibly_stale` reports the condition;
:meth:`DynamicPASS.rebuild` clears it.  SUM / COUNT / AVG statistics are
maintained exactly and are never affected.

Known limitation — sketches under deletions
-------------------------------------------
The per-leaf QUANTILE / COUNT_DISTINCT sketches absorb every *insert*
exactly (they are mergeable stream summaries), but a linear sketch cannot
un-see a value: deletions leave the sketches summarizing a slightly larger
multiset than the live data.  Instead of silently drifting, the synopsis
counts ignored deletions and reports the normalized drift as
:attr:`DynamicPASS.sketch_staleness` — the certified quantile rank bounds
and the distinct-count envelope remain *valid for the inserted multiset*,
and the answer for the live data is off by at most the deleted mass.
Serving layers use the ratio the same way as :attr:`DynamicPASS.staleness`:
to decide when a shard is due for a :meth:`DynamicPASS.rebuild`, which
reconstructs the sketches from the current data and resets the counter.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Mapping, Sequence

import numpy as np

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.data.table import Table
from repro.query.predicate import Box
from repro.sampling.reservoir import reservoir_slot

__all__ = ["DynamicPASS", "StaleExtremaWarning"]


class StaleExtremaWarning(UserWarning):
    """Warns that deletions may have left MIN / MAX node statistics loose."""


class DynamicPASS(PASSSynopsis):
    """A PASS synopsis that accepts streaming inserts and deletes.

    It is the synopsis it maintains: the build's arrays are adopted by
    reference and :meth:`insert` / :meth:`delete` rewrite them in place.  It
    adds the reservoir counters, the update counters behind the drift
    gauges and the build parameters :meth:`rebuild` reuses.

    Parameters
    ----------
    table:
        Initial table the synopsis is built from.
    value_column / predicate_columns / config:
        Passed through to :func:`~repro.core.builder.build_pass`.
    reservoir_capacity:
        Per-leaf reservoir capacity; defaults to each leaf's initial sample
        size (so storage stays constant under inserts); a larger built
        sample is cut to it, by the reservoir rule, at construction.
    extra_sample_columns:
        Additional columns retained in the samples and reservoirs (see
        :func:`~repro.core.builder.build_leaf_samples`).
    """

    def __init__(
        self,
        table: Table,
        value_column: str,
        predicate_columns: Sequence[str],
        config: PASSConfig | None = None,
        reservoir_capacity: int | None = None,
        rng: np.random.Generator | int | None = 0,
        extra_sample_columns: Sequence[str] | None = None,
    ) -> None:
        self._predicate_columns = list(predicate_columns)
        self._config = config or PASSConfig()
        self._extra_sample_columns = list(extra_sample_columns or [])
        if reservoir_capacity is not None and reservoir_capacity < 0:
            raise ValueError(
                "reservoir capacity must not be negative "
                "(None or 0: each leaf's built sample size)"
            )
        self._reservoir_capacity = reservoir_capacity
        # Become the built synopsis: its attributes, arrays included, are
        # taken over by reference.
        built = build_pass(
            table,
            value_column,
            predicate_columns,
            self._config,
            extra_sample_columns=self._extra_sample_columns,
        )
        vars(self).update(vars(built))
        self._rng = np.random.default_rng(rng)
        self.leaf_sketches()  # unpacked now: inserts update the objects
        counts = self.sample_counts
        self._capacity = np.maximum(1, counts)
        if reservoir_capacity:
            self._capacity[:] = reservoir_capacity
        for leaf in np.flatnonzero(counts > self._capacity).tolist():
            # Offer the built sample, row by row, to the smaller reservoir.
            capacity = int(self._capacity[leaf])
            kept = list(range(capacity))
            for offered in range(capacity, int(counts[leaf])):
                slot = reservoir_slot(capacity, capacity, offered + 1, self._rng)
                if slot is not None:
                    kept[slot] = offered
            rows = {c: v[kept] for c, v in self.leaf_sample(leaf).items()}
            self.replace_leaf_sample(leaf, rows)
        self.reserve_sample_slots(self._capacity)
        # A reservoir seeded with a sample has "seen" the leaf's population:
        # acceptance probabilities are relative to it, not to the sample.
        self._seen = np.maximum(self.leaf_populations(), counts)
        self._updates_since_build = 0
        self._build_population = self.population_size
        self._minmax_possibly_stale = False
        self._sketch_stale_deletes = 0
        self._extrema_stale_deletes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def synopsis(self) -> "DynamicPASS":
        """This synopsis (updated in place; kept as an alias)."""
        return self

    @property
    def predicate_columns(self) -> list[str]:
        """The predicate columns updates are routed on."""
        return list(self._predicate_columns)

    @property
    def config(self) -> PASSConfig:
        """The build configuration (reused by per-shard rebuilds)."""
        return self._config

    @property
    def extra_sample_columns(self) -> list[str]:
        """Extra columns retained in the samples beyond value / predicate."""
        return list(self._extra_sample_columns)

    @property
    def updates_since_build(self) -> int:
        """Number of inserts and deletes applied since the last (re)build."""
        return self._updates_since_build

    @property
    def staleness(self) -> float:
        """Updates applied since the last build, normalized by the build size.

        ``updates_since_build / max(1, build population)`` — a rough drift
        measure: 0.0 right after a (re)build, 1.0 once as many updates have
        been applied as there were tuples at build time.  Serving layers use
        it to decide when a synopsis is due for re-optimization.
        """
        return self._updates_since_build / max(1, self._build_population)

    @property
    def minmax_possibly_stale(self) -> bool:
        """True when deletions may have left MIN / MAX node stats loose."""
        return self._minmax_possibly_stale

    @property
    def sketch_staleness(self) -> float:
        """Deletions the sketches could not absorb, normalized by build size.

        QUANTILE / COUNT_DISTINCT sketches absorb inserts exactly but cannot
        remove deleted values; this ratio (``ignored deletes / max(1, build
        population)``) bounds how far sketch answers can drift from the live
        data.  0.0 right after a (re)build and while the workload is
        insert-only.
        """
        return self._sketch_stale_deletes / max(1, self._build_population)

    @property
    def extrema_stale_deletes(self) -> int:
        """Deletions that hit a partition extremum since the last (re)build."""
        return self._extrema_stale_deletes

    @property
    def extrema_staleness(self) -> float:
        """Extremum-hitting deletions, normalized by the build population.

        The gauge form of :class:`StaleExtremaWarning`: every delete of a
        value at a partition's MIN / MAX leaves the bound conservative, and
        this ratio (``extremum deletes / max(1, build population)``) makes
        the accumulated looseness visible to scorecards and dashboards
        without anyone capturing warnings.  0.0 right after a (re)build.
        """
        return self._extrema_stale_deletes / max(1, self._build_population)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, row: Mapping[str, float]) -> Box:
        """Insert one tuple: update path statistics, sketches, and the reservoir.

        Returns the box of the leaf the tuple landed in (serving layers
        invalidate the cached results overlapping it).
        """
        leaf, value, sample_row = self._locate(row)
        self.add_value(leaf, value)
        sketches = self.leaf_sketches()
        if sketches is not None and not np.isnan(value):
            sketches[leaf].quantile.update(value)
            sketches[leaf].distinct.update(value)
        self._seen[leaf] += 1
        held = int(self._sample_counts[leaf])
        slot = reservoir_slot(
            held, int(self._capacity[leaf]), int(self._seen[leaf]), self._rng
        )
        if slot is not None:
            # Appended while there is room (slot == held), else overwritten.
            self.put_sample_row(leaf, slot, sample_row)
        self._updates_since_build += 1
        return self.leaf_boxes[leaf]

    def delete(self, row: Mapping[str, float]) -> Box:
        """Delete one tuple: update path statistics and drop it from the sample.

        MIN / MAX bounds become conservative (they are not tightened on
        deletion); SUM / COUNT / AVG stay exact.  Returns the leaf's box
        (see :meth:`insert`).  ``ValueError``, before any write, when the
        leaf is empty or the value lies outside its [MIN, MAX] (outer bounds
        under deletes too, so no such tuple is in the leaf).
        """
        leaf, value, sample_row = self._locate(row)
        stats = self.leaf_stats(leaf)
        if stats.count == 0:
            raise ValueError("cannot delete from an empty partition")
        if value < stats.min or value > stats.max:
            raise ValueError(
                f"cannot delete value {value!r}: leaf {leaf} holds values in "
                f"[{stats.min!r}, {stats.max!r}] only"
            )
        if value <= stats.min or value >= stats.max:
            # The deleted tuple may have been the partition's extremum; the
            # MIN / MAX bounds on the whole path are now only conservative.
            if not self._minmax_possibly_stale:
                warnings.warn(
                    "deleted a partition extremum: MIN/MAX node statistics are "
                    "now conservative (valid but possibly loose) until rebuild()",
                    StaleExtremaWarning,
                    stacklevel=2,
                )
            self._minmax_possibly_stale = True
            self._extrema_stale_deletes += 1
        self.remove_value(leaf, value)
        if self.has_sketches and not np.isnan(value):
            # Sketches cannot un-see a value; track the drift instead (see
            # the module docstring and sketch_staleness).
            self._sketch_stale_deletes += 1
        # Drop the first sampled row equal to the tuple, if any: the rest is
        # a uniform sample of the survivors only approximately, which
        # Section 4.5 accepts until a rebuild.  NaN matches NaN (a NaN-valued
        # tuple's row is its own, though NaN != NaN).
        matches = [
            np.isnan(values) if math.isnan(sample_row[c]) else values == sample_row[c]
            for c, values in self.leaf_sample(leaf).items()
        ]
        hits = np.flatnonzero(np.logical_and.reduce(matches))
        if hits.shape[0]:
            self.drop_sample_row(leaf, int(hits[0]))
        self._updates_since_build += 1
        return self.leaf_boxes[leaf]

    def rebuild(self, table: Table) -> None:
        """Re-optimize the synopsis from a fresh table snapshot."""
        self.__init__(
            table,
            self.value_column,
            self._predicate_columns,
            config=self._config,
            reservoir_capacity=self._reservoir_capacity,
            rng=self._rng,
            extra_sample_columns=self._extra_sample_columns,
        )

    # ------------------------------------------------------------------
    # Persistence (flat buffers)
    # ------------------------------------------------------------------
    def export_buffers(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The synopsis' ``(header, arrays)`` plus the update state.

        On top of :meth:`FlatSynopsis.export_buffers`: the per-leaf reservoir
        ``seen`` / ``capacity`` arrays, and in the header ``kind:
        "dynamic"``, the build parameters and the update counters.  The
        sample rows round-trip exactly (so a reloaded instance answers
        queries identically); the reservoir RNG state is not persisted, so
        post-reload insertions make different (but equally valid) eviction
        choices.
        """
        header, arrays = super().export_buffers()
        arrays["seen"] = self._seen.copy()
        arrays["capacity"] = self._capacity.copy()
        config = dataclasses.asdict(self._config)
        config["agg_template"] = self._config.agg_template.value
        header.update(
            {
                "kind": "dynamic",
                "predicate_columns": list(self._predicate_columns),
                "extra_sample_columns": list(self._extra_sample_columns),
                "config": config,
                "reservoir_capacity": self._reservoir_capacity,
                "updates_since_build": self._updates_since_build,
                "build_population": self._build_population,
                "minmax_possibly_stale": self._minmax_possibly_stale,
                "sketch_stale_deletes": self._sketch_stale_deletes,
                "extrema_stale_deletes": self._extrema_stale_deletes,
            }
        )
        return header, arrays

    @classmethod
    def from_buffers(
        cls,
        header: Mapping,
        arrays: Mapping[str, np.ndarray],
        rng: np.random.Generator | int | None = 0,
    ) -> "DynamicPASS":
        """Rebuild an instance from :meth:`export_buffers` (no re-build).

        Every array is copied, so the instance owns writable state even when
        ``arrays`` are read-only views of a mapped file.
        """
        arrays = {key: np.array(value) for key, value in arrays.items()}
        instance = cls.__new__(cls)
        PASSSynopsis.__init__(instance, header, arrays)
        instance._predicate_columns = list(header["predicate_columns"])
        instance._extra_sample_columns = list(header["extra_sample_columns"])
        instance._config = PASSConfig(**header["config"])
        instance._reservoir_capacity = header["reservoir_capacity"]
        instance._rng = np.random.default_rng(rng)
        instance.leaf_sketches()
        instance._capacity = arrays["capacity"]
        instance.reserve_sample_slots(instance._capacity)
        instance._seen = arrays["seen"]
        instance._updates_since_build = int(header["updates_since_build"])
        instance._build_population = int(header["build_population"])
        instance._minmax_possibly_stale = bool(header["minmax_possibly_stale"])
        instance._sketch_stale_deletes = int(header["sketch_stale_deletes"])
        instance._extrema_stale_deletes = int(header["extrema_stale_deletes"])
        return instance

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _locate(
        self, row: Mapping[str, float]
    ) -> tuple[int, float, dict[str, float]]:
        """``(leaf index, value, sample-column values)`` of an update row.

        Everything that can reject the row happens here, before any write.
        """
        if not any(column in row for column in self._predicate_columns):
            raise KeyError(
                f"row must provide the predicate columns {self._predicate_columns}"
            )
        sample_row = {column: float(row[column]) for column in self._samples.columns}
        leaf = self.leaf_for_point(row)
        return leaf, float(row[self._value_column]), sample_row
