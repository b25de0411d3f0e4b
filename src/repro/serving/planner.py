"""The group-by planner: compile grouped queries and route them whole.

:class:`GroupByPlanner` is the serving-side front end for
:class:`~repro.query.groupby.GroupByQuery`.  It fills the gaps between the
declarative group-by form and the executors:

1. **Distinct-value resolution** — groupings that discover their distinct
   values at compile time pull them from the catalog's registered fallback
   table.
2. **Whole-plan routing** — :func:`route_plan` finds the one catalog entry
   every compiled (cell, aggregate) query routes to, if there is one.  The
   serving engine answers such a plan with one
   :func:`~repro.core.batching.grouped_query` call on that entry: one
   frontier broadcast, which also proves cells empty (a cell whose covered
   and partial nodes hold zero tuples is answered with SQL empty-group
   semantics, costing no mask work and no cache slots), then one shared
   moment pass and one sketch union per (cell, sketch kind).  A plan with
   no single entry dispatches query by query through
   :meth:`~repro.serving.engine.ServingEngine.execute_batch`.

Either way every (group cell, aggregate) pair keeps its own canonical cache
key — for QUANTILE aggregates carrying the quantile parameter — so grouped
traffic shares the engine's per-group result cache.

The planner is a stateless strategy object over a catalog; the thread-safe
entry point for applications is
:meth:`repro.serving.engine.ServingEngine.execute_grouped`, which holds the
engine's read lock around routing and answering.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.query.aggregates import SKETCH_AGGREGATES
from repro.query.groupby import GroupByPlan, GroupByQuery
from repro.query.query import AggregateQuery
from repro.serving.catalog import CatalogEntry, SynopsisCatalog

__all__ = ["GroupByPlanner", "plan_population", "route_plan"]

E = TypeVar("E")


def _representatives(plan: GroupByPlan) -> list[AggregateQuery]:
    """One query per distinct (value column, sketch-ness) of the plan.

    Group cells share predicate columns by construction, so these queries,
    over the first live cell, route the whole plan.
    """
    live = plan.live_cells()
    if not live:
        return []
    cell = live[0][1]
    queries: dict[tuple[str, bool], AggregateQuery] = {}
    for spec in plan.aggregates:
        kind = (spec.value_column, spec.agg in SKETCH_AGGREGATES)
        if kind not in queries:
            queries[kind] = plan.cell_query(cell, spec)
    return list(queries.values())


def route_plan(
    plan: GroupByPlan, route: Callable[[AggregateQuery], E | None]
) -> E | None:
    """The entry ALL of the plan's compiled queries route to, or None.

    ``route`` maps one query to its entry (anything with a ``name``).  One
    representative query per distinct (value column, sketch-ness) routes
    the whole plan: a QUANTILE / COUNT_DISTINCT query only routes to an
    entry carrying sketches, which a SUM over the same column may pass
    over.  When those representatives route to different entries (or some
    route nowhere), there is no single entry and ``None`` is returned.
    """
    entry: E | None = None
    for query in _representatives(plan):
        routed = route(query)
        if routed is None or (entry is not None and routed.name != entry.name):
            return None
        entry = routed
    return entry


def plan_population(
    plan: GroupByPlan,
    route: Callable[[AggregateQuery], E | None],
    population: Callable[[E], int],
) -> int:
    """The population of a plan's cells answered without a synopsis.

    A plan with no single entry answers the cells outside its base
    predicate as empty groups (:func:`~repro.query.groupby.execute_plan`);
    their ``tuples_skipped`` is the largest ``population`` of the entries
    the plan's representative queries route to, 0 when none routes.  The
    serving engine and a pool worker route over the same published state,
    so they report the same figure.
    """
    routed = (route(query) for query in _representatives(plan))
    return max(
        (population(entry) for entry in routed if entry is not None), default=0
    )


class GroupByPlanner:
    """Compilation, whole-plan routing and pruning of grouped queries over a catalog."""

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
    # Routing and frontier-statistics pruning
    # ------------------------------------------------------------------
    def route(self, plan: GroupByPlan, table: str | None = None) -> CatalogEntry | None:
        """The catalog entry ALL of the plan's compiled queries route to
        (:func:`route_plan`).

        With ``None`` there is no single tree to consult: pruning is skipped
        and every compiled query routes individually at dispatch time.
        """
        return route_plan(plan, lambda query: self._catalog.route(query, table))

    def prune_empty_cells(
        self, plan: GroupByPlan, table: str | None = None
    ) -> set[int]:
        """Indices of group cells that provably contain no tuples.

        Each live cell's predicate runs a flat MCF lookup
        (``FlatSynopsis.frontiers_for``, one broadcast) over the routed
        synopsis' partition tree; a frontier whose covered and partial nodes
        hold zero tuples cannot match anything.  Plans without a single
        routed entry are never pruned — there is no one tree to consult.
        ``ServingEngine.execute_grouped`` prunes inside its one
        ``grouped_query`` call and does not call this.

        Callers serving live traffic must hold the serving engine's read
        lock: the lookup walks tree statistics that dynamic updates mutate.
        """
        entry = self.route(plan, table)
        if entry is None:
            return set()
        live = plan.live_cells()
        synopsis = entry.synopsis
        frontiers = synopsis.frontiers_for([cell.predicate for _, cell in live])
        counts = synopsis.frontier_counts(frontiers)
        return {index for (index, _), count in zip(live, counts) if not count}
