"""The group-by planner: compile, prune, and dispatch grouped queries.

:class:`GroupByPlanner` is the serving-side front end for
:class:`~repro.query.groupby.GroupByQuery`.  It fills the three gaps between
the declarative group-by form and the single-aggregate batch executors:

1. **Distinct-value resolution** — groupings that discover their distinct
   values at compile time pull them from the catalog's registered fallback
   table.
2. **Empty-cell pruning** — before anything dispatches, each group cell's
   predicate is checked against the routed synopsis' partition-tree frontier
   statistics (a sharded entry's stitched tree included).  A cell whose
   frontier contains zero tuples is provably empty and is answered locally
   with SQL empty-group semantics, costing no mask work and no cache slots.
3. **Dispatch** — the surviving cell-major batch runs through
   :meth:`~repro.serving.engine.ServingEngine.execute_batch`, so grouped
   traffic inherits the per-group result cache (every compiled query's
   canonical cache key embeds its group cell's predicate — and, for
   QUANTILE aggregates, the quantile parameter), the shared-frontier batch
   execution, and the exact-scan fallback.  Sketch aggregates ride the same
   plan: a ``P95(value)`` spec compiles into per-cell QUANTILE queries the
   routed synopsis answers from its mergeable per-leaf sketches.

The planner is a stateless strategy object over a catalog; the thread-safe
entry point for applications is
:meth:`repro.serving.engine.ServingEngine.execute_grouped`, which holds the
engine's read lock around the pruning pass.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.query.groupby import (
    GroupByPlan,
    GroupByQuery,
    GroupedResult,
    execute_plan,
)
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.serving.catalog import CatalogEntry, SynopsisCatalog

__all__ = ["GroupByPlanner", "route_plan"]

E = TypeVar("E")


def route_plan(
    plan: GroupByPlan, route: Callable[[AggregateQuery], E | None]
) -> E | None:
    """The entry ALL of the plan's compiled queries route to, or None.

    ``route`` maps one query to its entry (anything with a ``name``).
    Group cells share predicate columns by construction, so one
    representative query per distinct value column routes the whole plan.
    When aggregates over different value columns route to different
    entries (or some route nowhere), there is no single entry and ``None``
    is returned.
    """
    live = plan.live_cells()
    if not live:
        return None
    cell = live[0][1]
    entry: E | None = None
    seen: set[str] = set()
    for spec in plan.aggregates:
        if spec.value_column in seen:
            continue
        seen.add(spec.value_column)
        routed = route(plan.cell_query(cell, spec))
        if routed is None or (entry is not None and routed.name != entry.name):
            return None
        entry = routed
    return entry


class GroupByPlanner:
    """Compile-prune-dispatch planning for grouped queries over a catalog."""

    def __init__(self, catalog: SynopsisCatalog) -> None:
        self._catalog = catalog

    @property
    def catalog(self) -> SynopsisCatalog:
        """The catalog the planner routes against."""
        return self._catalog

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, groupby: GroupByQuery, table: str | None = None) -> GroupByPlan:
        """Compile a group-by query, resolving distinct values from the catalog.

        Distinct-value discovery reads the registered fallback table for
        ``table`` (or the sole registered table).  Groupings with explicit
        bin edges or values compile without touching any data.
        """
        engine = self._catalog.exact_engine(table)
        source = engine.table if engine is not None else None
        return groupby.compile(distinct_source=source)

    # ------------------------------------------------------------------
    # Frontier-statistics pruning
    # ------------------------------------------------------------------
    def route(self, plan: GroupByPlan, table: str | None = None) -> CatalogEntry | None:
        """The catalog entry ALL of the plan's compiled queries route to
        (:func:`route_plan`).

        With ``None`` there is no single tree to consult: pruning is skipped
        and every compiled query routes individually at dispatch time.
        """
        return route_plan(plan, lambda query: self._catalog.route(query, table))

    def analyze(
        self, plan: GroupByPlan, table: str | None = None
    ) -> tuple[set[int], int]:
        """Pruned cell indices and population, routing the plan once.

        The hot-path combination of :meth:`prune_empty_cells` and
        :meth:`population` — hold the serving engine's read lock while
        calling it when updates may run concurrently.
        """
        entry = self.route(plan, table)
        pruned = self._prune_for_entry(plan, entry)
        return pruned, self._population_for_entry(entry, table)

    def prune_empty_cells(
        self, plan: GroupByPlan, table: str | None = None
    ) -> set[int]:
        """Indices of group cells that provably contain no tuples.

        Each live cell's predicate runs a flat MCF lookup
        (``FlatSynopsis.frontiers_for``, one broadcast) over the routed
        synopsis' partition tree; a frontier whose covered and partial nodes
        hold zero tuples cannot match anything.  Entries that route to the exact-scan
        fallback are never pruned — there is no tree to consult.

        Callers serving live traffic must hold the serving engine's read
        lock: the lookup walks tree statistics that dynamic updates mutate.
        """
        return self._prune_for_entry(plan, self.route(plan, table))

    def _prune_for_entry(
        self, plan: GroupByPlan, entry: CatalogEntry | None
    ) -> set[int]:
        if entry is None:
            return set()
        live = plan.live_cells()
        synopsis = entry.synopsis
        frontiers = synopsis.frontiers_for([cell.predicate for _, cell in live])
        return {
            index
            for (index, _), frontier in zip(live, frontiers)
            if not synopsis.frontier_count(frontier)
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def population(self, plan: GroupByPlan, table: str | None = None) -> int:
        """Rows the plan aggregates over (for pruned-cell skip accounting).

        Like :meth:`prune_empty_cells`, read this under the serving engine's
        lock when updates may run concurrently.
        """
        return self._population_for_entry(self.route(plan, table), table)

    def _population_for_entry(
        self, entry: CatalogEntry | None, table: str | None
    ) -> int:
        if entry is not None:
            return entry.synopsis.population_size
        engine = self._catalog.exact_engine(table)
        return engine.table.n_rows if engine is not None else 0

    def execute(
        self,
        plan: GroupByPlan,
        run_batch: Callable[[list[AggregateQuery]], Sequence[AQPResult]],
        table: str | None = None,
        pruned: set[int] | None = None,
        population: int | None = None,
    ) -> GroupedResult:
        """Dispatch a plan through a batch executor, pruning empty cells.

        ``pruned`` and ``population`` override the planner's own routing
        passes — the serving engine computes both under its read lock so the
        dispatch itself touches the catalog only through ``run_batch``;
        when ``None`` the planner computes them here (single-threaded use).
        """
        if pruned is None:
            pruned = self.prune_empty_cells(plan, table)
        if population is None:
            population = self.population(plan, table)
        return execute_plan(plan, run_batch, population=population, skip=pruned)
