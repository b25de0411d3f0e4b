"""The synopsis catalog: named synopses plus query routing.

Production AQP engines (VerdictDB being the canonical example) separate the
*synopsis store* from query execution: synopses are built once, registered
under a name with the metadata needed to decide which queries they can
answer, and a planner routes each incoming query to the best-matching
synopsis — falling back to the exact engine when nothing matches.  This
module is that store and planner for PASS synopses.

The routing rule itself is :func:`route_query`, the one function every
serving tier calls: among the synopses that can answer a query it prefers
the tightest fit (extra partitioning dimensions dilute the partition
budget) and, tie-breaking, the one with more leaf partitions (finer
partitions skip more data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, TypeVar

from repro.core.pass_synopsis import PASSSynopsis
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.sharded import ShardedSynopsis
from repro.obs.quality import QualityScorecard, QualityStore
from repro.query.aggregates import SKETCH_AGGREGATES
from repro.query.query import AggregateQuery, ExactEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.obs.metrics import Counter, NullCounter
    from repro.obs.quality import QualityThresholds

__all__ = ["CatalogEntry", "SynopsisCatalog", "route_query"]


C = TypeVar("C")


def route_query(
    candidates: Iterable[C], query: AggregateQuery, table_name: str | None = None
) -> C | None:
    """The best-matching candidate for a query, or None: THE routing rule.

    Every tier routes through this function — :meth:`SynopsisCatalog.route`
    over its :class:`CatalogEntry` objects, the pool workers over the
    manifest's :class:`~repro.serving.shm.PublishedEntry` records — so they
    pick the same synopsis by construction.  A candidate is anything with
    the five attributes read below.  It answers the query when it
    summarizes the requested table (a ``table_name`` of None on either side
    is a wildcard: an unnamed request, or a synopsis published without a
    table), aggregates the query's value column, partitions on a superset
    of the constrained predicate columns, and — for QUANTILE /
    COUNT_DISTINCT — carries per-leaf sketches.  The best is the tightest
    fit: fewest surplus partitioning columns, then the most leaf
    partitions, then first in iteration (registration / publication) order.
    """
    constrained = {column for column, _, _ in query.predicate.canonical_key()}
    needs_sketches = query.agg in SKETCH_AGGREGATES
    best: C | None = None
    best_score: tuple[int, int] | None = None
    for candidate in candidates:
        if table_name is not None and candidate.table_name not in (None, table_name):
            continue
        if query.value_column != candidate.value_column:
            continue
        if needs_sketches and not candidate.supports_sketches:
            continue
        columns = set(candidate.predicate_columns)
        if not constrained <= columns:
            continue
        surplus = len(columns) - len(constrained)
        score = (-surplus, candidate.n_partitions)
        if best_score is None or score > best_score:
            best, best_score = candidate, score
    return best


@dataclass(frozen=True)
class CatalogEntry:
    """One registered synopsis and its routing metadata.

    Sizes and drift gauges read straight off the synopsis, one object of
    any kind (a static synopsis reports 0.0 drift).

    Attributes
    ----------
    name:
        Unique catalog name of the synopsis.
    synopsis:
        The registered :class:`PASSSynopsis` (a :class:`DynamicPASS` when it
        accepts updates) or
        :class:`~repro.distributed.sharded.ShardedSynopsis`.
    table_name:
        Name of the table the synopsis summarizes.
    value_column:
        The aggregation column the synopsis answers queries about.
    predicate_columns:
        The columns the synopsis partitions on, i.e. the predicate columns it
        can route on.
    """

    name: str
    synopsis: PASSSynopsis | ShardedSynopsis
    table_name: str
    value_column: str
    predicate_columns: tuple[str, ...]

    @property
    def is_dynamic(self) -> bool:
        """True when the entry accepts streaming updates."""
        if isinstance(self.synopsis, ShardedSynopsis):
            return self.synopsis.supports_updates
        return isinstance(self.synopsis, DynamicPASS)

    @property
    def is_sharded(self) -> bool:
        """True when the entry answers queries by scatter-gather over shards."""
        return isinstance(self.synopsis, ShardedSynopsis)

    @property
    def pass_synopsis(self) -> PASSSynopsis:
        """The entry's single synopsis (static or dynamic).

        Sharded entries have no single synopsis; use :attr:`synopsis` (and
        its scatter-gather methods) instead.
        """
        if isinstance(self.synopsis, ShardedSynopsis):
            raise TypeError(
                f"synopsis {self.name!r} is sharded; query it through "
                "entry.synopsis.query / query_batch"
            )
        return self.synopsis

    @property
    def n_partitions(self) -> int:
        """Leaf partitions of the entry (summed across shards when sharded)."""
        return self.synopsis.n_partitions

    @property
    def staleness(self) -> float:
        """Update drift of the entry (0.0 for static synopses)."""
        return self.synopsis.staleness

    @property
    def sketch_staleness(self) -> float:
        """Sketch update drift of the entry (0.0 for static synopses)."""
        return self.synopsis.sketch_staleness

    @property
    def extrema_staleness(self) -> float:
        """Fraction of deletes that may have stranded a partition extremum.

        0.0 for static synopses; for sharded entries, the worst shard.
        """
        return self.synopsis.extrema_staleness

    @property
    def supports_sketches(self) -> bool:
        """True when the entry can answer QUANTILE / COUNT_DISTINCT queries."""
        if isinstance(self.synopsis, ShardedSynopsis):
            return self.synopsis.supports_sketches
        return self.synopsis.has_sketches


class SynopsisCatalog:
    """A registry of named synopses with planner-style query routing.

    Synopses are registered under unique names together with the (table,
    value column, predicate columns) they serve; tables may be registered
    alongside to provide an exact-scan fallback for queries no synopsis can
    answer.  The catalog itself is a passive store — thread safety and result
    caching live in :class:`repro.serving.engine.ServingEngine`.
    """

    def __init__(self) -> None:
        self._entries: dict[str, CatalogEntry] = {}
        self._exact_engines: dict[str, ExactEngine] = {}
        self._obs: "Observability | None" = None
        self._route_counters: dict[str, "Counter | NullCounter"] = {}
        # Private until bind_obs migrates it into the enabled context's
        # registry-backed store, so audits recorded early are never lost.
        self._quality = QualityStore(None)

    def bind_obs(self, obs: "Observability") -> None:
        """Attach an observability context: routing-decision counters.

        Called by :class:`~repro.serving.engine.ServingEngine` when it is
        constructed with an enabled context; binds sharded entries too, so
        shard-pruning counters land in the same registry, and migrates the
        quality scorecards into the context's registry-backed store so they
        flow through the Prometheus exposition.  Idempotent.
        """
        if not obs.enabled or self._obs is obs:
            return
        self._obs = obs
        self._route_counters.clear()
        obs.quality.merge_from(self._quality)
        self._quality = obs.quality
        for entry in self._entries.values():
            if entry.is_sharded:
                entry.synopsis.bind_obs(obs)
            self._register_entry_gauges(entry)

    def _register_entry_gauges(self, entry: CatalogEntry) -> None:
        """Scrape-time staleness gauges for one entry (enabled obs only).

        ``repro_synopsis_extrema_staleness`` in particular makes stranded
        extrema visible without capturing ``StaleExtremaWarning``.
        """
        if self._obs is None:
            return
        registry = self._obs.metrics
        labels = {"synopsis": entry.name}
        registry.gauge(
            "repro_synopsis_staleness",
            "Unmerged-update fraction of each registered synopsis.",
            labels,
        ).set_function(lambda: entry.staleness)
        registry.gauge(
            "repro_synopsis_sketch_staleness",
            "Unmerged-update fraction of each synopsis' sketches.",
            labels,
        ).set_function(lambda: entry.sketch_staleness)
        registry.gauge(
            "repro_synopsis_extrema_staleness",
            "Fraction of deletes that may have stranded a partition extremum.",
            labels,
        ).set_function(lambda: entry.extrema_staleness)

    def _count_route(self, target: str, n: int = 1) -> None:
        if self._obs is None:
            return
        counter = self._route_counters.get(target)
        if counter is None:
            counter = self._obs.metrics.counter(
                "repro_catalog_route_total",
                "Routing decisions by target synopsis "
                "(__exact__ = fallback scan, __none__ = unanswerable).",
                {"target": target},
            )
            self._route_counters[target] = counter
        counter.inc(float(n))

    def count_routes(self, tally: Mapping[str, int]) -> None:
        """Record many routing decisions in one pass (batch hot path).

        Batch executors route every miss up front and already hold the
        per-synopsis grouping, so they report the whole window here instead
        of paying one counter update per query (see ``route``'s ``record``
        parameter).
        """
        for target, n in tally.items():
            self._count_route(target, n)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        synopsis: PASSSynopsis | ShardedSynopsis,
        table_name: str = "table",
        predicate_columns: Sequence[str] | None = None,
    ) -> CatalogEntry:
        """Register a synopsis under a unique name.

        ``predicate_columns`` defaults to the columns the synopsis' node
        boxes bound (the columns it was partitioned on) — for sharded
        synopses, the union of the shards' partitioning columns plus the
        shard column; the value column is always read from the synopsis
        itself.
        """
        if name in self._entries:
            raise ValueError(f"synopsis {name!r} is already registered")
        if not isinstance(synopsis, (PASSSynopsis, ShardedSynopsis)):
            raise TypeError(
                "expected a PASSSynopsis, DynamicPASS, or ShardedSynopsis, "
                f"got {type(synopsis)!r}"
            )
        if predicate_columns is None:
            if isinstance(synopsis, ShardedSynopsis):
                columns = {synopsis.shard_column}
                for shard in synopsis.shards:
                    columns.update(shard.columns)
            else:
                columns = set(synopsis.columns)
            predicate_columns = tuple(sorted(columns))
        entry = CatalogEntry(
            name=name,
            synopsis=synopsis,
            table_name=table_name,
            value_column=synopsis.value_column,
            predicate_columns=tuple(predicate_columns),
        )
        self._entries[name] = entry
        if self._obs is not None:
            if entry.is_sharded:
                entry.synopsis.bind_obs(self._obs)
            self._register_entry_gauges(entry)
        return entry

    def register_table(self, table: Table, name: str | None = None) -> ExactEngine:
        """Register a table as the exact-scan fallback for its queries."""
        table_name = name or table.name
        engine = ExactEngine(table)
        self._exact_engines[table_name] = engine
        return engine

    def unregister(self, name: str) -> None:
        """Remove a synopsis from the catalog."""
        if name not in self._entries:
            raise KeyError(f"no synopsis named {name!r}")
        del self._entries[name]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        """Names of the registered synopses, in registration order."""
        return list(self._entries)

    def get(self, name: str) -> CatalogEntry:
        """Look up an entry by name."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self._entries) or "<none>"
            raise KeyError(f"no synopsis named {name!r}; registered: {known}") from None

    def staleness_of(self, name: str) -> float:
        """Update drift of a registered synopsis (0.0 when unknown).

        Hot-path helper for query-log records: one dict probe, no raising.
        """
        entry = self._entries.get(name)
        return entry.staleness if entry is not None else 0.0

    # ------------------------------------------------------------------
    # Quality
    # ------------------------------------------------------------------
    @property
    def quality(self) -> QualityStore:
        """The quality scorecard store (registry-backed once obs is bound)."""
        return self._quality

    def scorecard(self, name: str) -> QualityScorecard:
        """The quality scorecard of a registered synopsis.

        Created on first use with live staleness providers bound from the
        entry, so scorecard snapshots always reflect the synopsis' current
        sample / sketch / extrema drift without a refresh protocol.
        """
        entry = self.get(name)
        card = self._quality.scorecard(name)
        card.bind_providers(
            staleness=lambda: entry.staleness,
            sketch_staleness=lambda: entry.sketch_staleness,
            extrema_staleness=lambda: entry.extrema_staleness,
        )
        return card

    def health(self, thresholds: "QualityThresholds | None" = None) -> dict:
        """Catalog-level quality rollup: worst synopsis state wins.

        Ensures every registered synopsis has a scorecard first, so a
        synopsis that never got audited still contributes its staleness
        signals to the rollup.
        """
        for name in self._entries:
            self.scorecard(name)
        return self._quality.health(thresholds)

    def entries(self) -> list[CatalogEntry]:
        """All registered entries, in registration order."""
        return list(self._entries.values())

    def exact_engine(self, table_name: str | None = None) -> ExactEngine | None:
        """The fallback engine for a table (or the sole registered table)."""
        if table_name is not None:
            return self._exact_engines.get(table_name)
        if len(self._exact_engines) == 1:
            return next(iter(self._exact_engines.values()))
        return None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def route(
        self,
        query: AggregateQuery,
        table_name: str | None = None,
        record: bool = True,
    ) -> CatalogEntry | None:
        """The best-matching synopsis for a query, or None
        (:func:`route_query` over the registered entries).

        ``record=False`` skips the per-decision routing counter; batch
        callers route every miss in a loop and report the grouped tally via
        :meth:`count_routes` instead.
        """
        best = route_query(self._entries.values(), query, table_name)
        if record and self._obs is not None:
            if best is not None:
                self._count_route(best.name)
            elif self.exact_engine(table_name) is not None:
                self._count_route("__exact__")
            else:
                self._count_route("__none__")
        return best
