"""Dynamic maintenance of a PASS synopsis (Section 4.5).

Insertions and deletions are handled without rebuilding the structure:

* the tuple is routed to its leaf partition by walking the tree;
* the SUM / COUNT / MIN / MAX statistics of every node on the root-to-leaf
  path are updated in O(height) time;
* the leaf's stratified sample is maintained with reservoir sampling, so it
  stays a uniform sample of the leaf's (growing) population.

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
import warnings
from typing import Mapping, Sequence

import numpy as np

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.tree import PartitionNode
from repro.data.table import Table
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.sampling.reservoir import ReservoirSample
from repro.sampling.stratified import Stratum

__all__ = ["DynamicPASS", "StaleExtremaWarning"]


class StaleExtremaWarning(UserWarning):
    """Warns that deletions may have left MIN / MAX node statistics loose."""


class DynamicPASS:
    """A PASS synopsis that accepts streaming inserts and deletes.

    Parameters
    ----------
    table:
        Initial table the synopsis is built from.
    value_column / predicate_columns / config:
        Passed through to :func:`~repro.core.builder.build_pass`.
    reservoir_capacity:
        Per-leaf reservoir capacity; defaults to each leaf's initial sample
        size (so storage stays constant under inserts).
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
        self._value_column = value_column
        self._predicate_columns = list(predicate_columns)
        self._config = config or PASSConfig()
        self._extra_sample_columns = list(extra_sample_columns or [])
        self._synopsis = build_pass(
            table,
            value_column,
            predicate_columns,
            self._config,
            extra_sample_columns=self._extra_sample_columns,
        )
        generator = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )
        self._sample_columns = (
            list(self._synopsis.leaf_samples[0].sample_columns.keys())
            if self._synopsis.leaf_samples
            else [value_column]
        )

        # Seed one reservoir per leaf from the builder's stratified sample so
        # the initial state matches the static synopsis exactly.
        self._reservoirs: list[ReservoirSample] = []
        for stratum in self._synopsis.leaf_samples:
            capacity = reservoir_capacity or max(1, stratum.sample_size)
            reservoir = ReservoirSample(capacity, rng=generator)
            for row_index in range(stratum.sample_size):
                row = {
                    column: float(values[row_index])
                    for column, values in stratum.sample_columns.items()
                }
                reservoir.offer(row)
            # The reservoir has now "seen" only its own sample; record the
            # true leaf population so acceptance probabilities stay unbiased.
            reservoir.rebase_seen(max(stratum.size, len(reservoir)))
            self._reservoirs.append(reservoir)
        self._updates_since_build = 0
        self._build_population = self.population_size
        self._minmax_possibly_stale = False
        self._sketch_stale_deletes = 0
        self._extrema_stale_deletes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def synopsis(self) -> PASSSynopsis:
        """The underlying PASS synopsis (stats updated in place)."""
        return self._synopsis

    @property
    def value_column(self) -> str:
        """The aggregation column the synopsis answers queries about."""
        return self._value_column

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
    def population_size(self) -> int:
        """Current number of tuples summarized."""
        return self._synopsis.tree.root.stats.count

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
    def insert(self, row: Mapping[str, float]) -> None:
        """Insert one tuple: update path statistics, sketches, and the reservoir."""
        leaf = self._route(row)
        value = float(row[self._value_column])
        path = self._synopsis.tree.path_to_leaf(leaf)
        for node in path:
            node.stats = node.stats.add_value(value)
        self._synopsis.notify_stats_mutated(path)
        if self._synopsis.has_sketches and not np.isnan(value):
            sketches = self._synopsis.leaf_sketches_at(leaf.leaf_index)
            sketches.quantile.update(value)
            sketches.distinct.update(value)
        reservoir = self._reservoirs[leaf.leaf_index]
        reservoir.offer({column: float(row[column]) for column in self._sample_columns})
        self._refresh_leaf_sample(leaf)
        self._updates_since_build += 1

    def delete(self, row: Mapping[str, float]) -> None:
        """Delete one tuple: update path statistics and drop it from the sample.

        MIN / MAX bounds become conservative (they are not tightened on
        deletion); SUM / COUNT / AVG stay exact.
        """
        leaf = self._route(row)
        value = float(row[self._value_column])
        if leaf.stats.count == 0:
            raise ValueError("cannot delete from an empty partition")
        if value <= leaf.stats.min or value >= leaf.stats.max:
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
        path = self._synopsis.tree.path_to_leaf(leaf)
        for node in path:
            node.stats = node.stats.remove_value(value)
        self._synopsis.notify_stats_mutated(path)
        if self._synopsis.has_sketches and not np.isnan(value):
            # Sketches cannot un-see a value; track the drift instead (see
            # the module docstring and sketch_staleness).
            self._sketch_stale_deletes += 1
        reservoir = self._reservoirs[leaf.leaf_index]
        reservoir.discard(
            {column: float(row[column]) for column in self._sample_columns}
        )
        self._refresh_leaf_sample(leaf)
        self._updates_since_build += 1

    def query(self, query: AggregateQuery, lam: float | None = None) -> AQPResult:
        """Answer a query from the (updated) synopsis."""
        return self._synopsis.query(query, lam=lam)

    def rebuild(self, table: Table) -> None:
        """Re-optimize the synopsis from a fresh table snapshot."""
        self.__init__(
            table,
            self._value_column,
            self._predicate_columns,
            config=self._config,
            extra_sample_columns=self._extra_sample_columns,
        )

    # ------------------------------------------------------------------
    # Persistence (array export / import)
    # ------------------------------------------------------------------
    def to_arrays(self) -> tuple[dict[str, np.ndarray], dict]:
        """Export synopsis, reservoirs, and update counters as flat arrays.

        The reservoir *contents* round-trip exactly (so a reloaded instance
        answers queries identically); the reservoir RNG state is not
        persisted, so post-reload insertions make different (but equally
        valid) eviction choices.
        """
        arrays, header = self._synopsis.to_arrays()
        lengths = [len(reservoir) for reservoir in self._reservoirs]
        arrays["reservoir/offsets"] = np.concatenate([[0], np.cumsum(lengths)]).astype(
            np.int64
        )
        arrays["reservoir/seen"] = np.array(
            [reservoir.seen for reservoir in self._reservoirs], dtype=np.int64
        )
        arrays["reservoir/capacity"] = np.array(
            [reservoir.capacity for reservoir in self._reservoirs], dtype=np.int64
        )
        for column in self._sample_columns:
            parts = [reservoir.column(column) for reservoir in self._reservoirs]
            arrays[f"reservoir/column/{column}"] = (
                np.concatenate(parts) if parts else np.zeros(0, dtype=float)
            )
        config = dataclasses.asdict(self._config)
        config["agg_template"] = self._config.agg_template.value
        header.update(
            {
                "kind": "dynamic",
                "predicate_columns": list(self._predicate_columns),
                "extra_sample_columns": list(self._extra_sample_columns),
                "config": config,
                "updates_since_build": self._updates_since_build,
                "build_population": self._build_population,
                "minmax_possibly_stale": self._minmax_possibly_stale,
                "sketch_stale_deletes": self._sketch_stale_deletes,
                "extrema_stale_deletes": self._extrema_stale_deletes,
            }
        )
        return arrays, header

    @classmethod
    def from_arrays(
        cls,
        arrays: Mapping[str, np.ndarray],
        header: Mapping,
        rng: np.random.Generator | int | None = 0,
    ) -> "DynamicPASS":
        """Rebuild an instance exported with :meth:`to_arrays` (no re-build)."""
        synopsis = PASSSynopsis.from_arrays(dict(arrays), dict(header))
        generator = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )
        instance = cls.__new__(cls)
        instance._value_column = str(header["value_column"])
        instance._predicate_columns = list(header["predicate_columns"])
        instance._extra_sample_columns = list(header.get("extra_sample_columns", []))
        # Archives written while PASSConfig had an ``execution`` field still
        # carry it.
        config = {k: v for k, v in header["config"].items() if k != "execution"}
        instance._config = PASSConfig(**config)
        instance._synopsis = synopsis
        instance._sample_columns = list(header["sample_columns"])
        offsets = np.asarray(arrays["reservoir/offsets"], dtype=np.int64)
        seen = np.asarray(arrays["reservoir/seen"], dtype=np.int64)
        capacity = np.asarray(arrays["reservoir/capacity"], dtype=np.int64)
        columns = {
            column: np.asarray(arrays[f"reservoir/column/{column}"], dtype=float)
            for column in instance._sample_columns
        }
        instance._reservoirs = []
        for i in range(len(seen)):
            reservoir = ReservoirSample(int(capacity[i]), rng=generator)
            for row_index in range(int(offsets[i]), int(offsets[i + 1])):
                reservoir.offer(
                    {
                        column: float(values[row_index])
                        for column, values in columns.items()
                    }
                )
            reservoir.rebase_seen(max(int(seen[i]), len(reservoir)))
            instance._reservoirs.append(reservoir)
        instance._updates_since_build = int(header["updates_since_build"])
        instance._build_population = int(header["build_population"])
        instance._minmax_possibly_stale = bool(header["minmax_possibly_stale"])
        instance._sketch_stale_deletes = int(header.get("sketch_stale_deletes", 0))
        instance._extrema_stale_deletes = int(header.get("extrema_stale_deletes", 0))
        return instance

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _route(self, row: Mapping[str, float]) -> PartitionNode:
        point = {
            column: float(row[column])
            for column in self._predicate_columns
            if column in row
        }
        if not point:
            raise KeyError(
                f"row must provide the predicate columns {self._predicate_columns}"
            )
        return self._synopsis.tree.leaf_for_point(point)

    def _refresh_leaf_sample(self, leaf: PartitionNode) -> None:
        """Rebuild the leaf's Stratum view from its reservoir contents."""
        reservoir = self._reservoirs[leaf.leaf_index]
        old = self._synopsis.leaf_samples[leaf.leaf_index]
        new_stratum = Stratum(
            box=old.box,
            size=leaf.stats.count,
            sample_columns=reservoir.as_columns(self._sample_columns),
        )
        self._synopsis.replace_leaf_sample(leaf.leaf_index, new_stratum)
