"""Batch and grouped query execution against one PASS synopsis.

Both executors run the array-native kernels of
:class:`repro.core.soa.FlatSynopsis`; neither has an answering path of its
own.

:func:`batch_query` (:func:`compile_batch` + :meth:`BatchPlan.execute`)
answers a list of queries.  Compilation computes one MCF frontier per
*distinct* (predicate, AVG-ness) — the SUM / COUNT / MIN / MAX of one
dashboard panel, and its QUANTILE / COUNT_DISTINCT, share a frontier — and
execution feeds each query's frontier to the same kernel ``synopsis.query``
runs (:meth:`FlatSynopsis.answer` for the classic aggregates;
:meth:`FlatSynopsis.sketch_union` once per (frontier, sketch kind) for the
sketch aggregates, every quantile of a predicate assembled from the one
union), so a batch is bit-identical to sequential execution because it *is*
the same kernel minus the repeated identical work.  The serving engine's
``execute_batch`` and the distributed layer's scatter-gather path build on
it.

:func:`grouped_query` is the single-synopsis executor for compiled
:class:`~repro.query.groupby.GroupByPlan` batches.  It exploits the grouped
shape beyond what :func:`batch_query` can see: one MCF frontier per group
cell is shared by every aggregate of the cell (a G-cell, A-aggregate query
costs G index lookups and G mask passes rather than G x A), and cells whose
frontier statistics show zero matching tuples are answered as empty without
dispatching anything.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.pass_synopsis import PASSSynopsis
from repro.core.soa import FlatFrontier
from repro.obs import Observability
from repro.query.aggregates import SKETCH_AGGREGATES, AggregateType
from repro.query.groupby import (
    GroupByPlan,
    GroupedResult,
    empty_group_result,
)
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.sketches.union import shared_union_results

__all__ = [
    "BatchPlan",
    "compile_batch",
    "batch_query",
    "grouped_query",
]


class BatchPlan:
    """A compiled batch against one synopsis: queries, slots, flat frontiers.

    Compilation (:func:`compile_batch`) is separated from execution so a
    scheduler can pre-compile a micro-batch — one frontier per distinct
    predicate — and then execute the plan under whatever locking regime the
    serving layer requires.

    A plan reads node statistics and leaf samples at *execution* time, so
    compile and execute must happen within one update-free scope (the
    serving engine runs both under a single read-lock acquisition); a plan
    compiled before a dynamic update must not be executed after it.

    Attributes
    ----------
    synopsis:
        The synopsis the plan was compiled against.
    queries:
        The batch, in input order.
    slots:
        Per-query frontier-slot index into :attr:`slot_queries` /
        :attr:`slot_frontiers`.
    slot_queries:
        The first query compiled for each slot.
    slot_frontiers:
        One :class:`~repro.core.soa.FlatFrontier` per slot; queries with
        equal canonical predicates (and equal AVG-ness, see
        :func:`compile_batch`) share it.
    """

    def __init__(
        self,
        synopsis: PASSSynopsis,
        queries: list[AggregateQuery],
        slots: list[int],
        slot_queries: list[AggregateQuery],
        slot_frontiers: list[FlatFrontier],
        obs: Observability | None = None,
    ) -> None:
        self.synopsis = synopsis
        self.queries = queries
        self.slots = slots
        self.slot_queries = slot_queries
        self.slot_frontiers = slot_frontiers
        self.obs = obs if obs is not None else Observability.disabled()

    def execute(self) -> list[AQPResult]:
        """Answer every query from its slot's frontier with the flat kernel.

        Results align with the input order and are bit-identical to calling
        ``synopsis.query(query)`` per query.  Classic aggregates run
        :meth:`FlatSynopsis.answer` one by one; QUANTILE / COUNT_DISTINCT
        queries are set aside and answered together, one frontier reduction
        per (slot, sketch kind) however many quantiles ask for it
        (:func:`~repro.sketches.union.shared_union_results`).
        """
        synopsis = self.synopsis
        frontiers = self.slot_frontiers
        with self.obs.tracer.span("execute.per_query") as span:
            span.set_attribute("batch_size", len(self.queries))
            results: list[AQPResult | None] = []
            pending = None  # (position, (slot, sketch kind), query) triples
            for query, slot in zip(self.queries, self.slots):
                if query.agg in SKETCH_AGGREGATES:
                    if pending is None:
                        pending = []
                    pending.append((len(results), (slot, query.agg), query))
                    results.append(None)
                else:
                    results.append(synopsis.answer(query, frontiers[slot]))
            if pending is not None:
                for position, result in shared_union_results(
                    pending,
                    lambda position, query: synopsis.sketch_union(
                        query, frontiers[self.slots[position]]
                    ),
                    synopsis.population_size,
                ):
                    results[position] = result
            return results  # type: ignore[return-value]

    # perfbench/layers.py wraps this name and perfbench/ is frozen by
    # BENCHMARK.json; nothing else may call it.  A later `benchmark` PR
    # removes it together with the harness row.
    def execute_vectorized(self) -> list[AQPResult]:
        """Same as :meth:`execute` (kept for the frozen benchmark harness)."""
        return self.execute()


def compile_batch(
    synopsis: PASSSynopsis,
    queries: Sequence[AggregateQuery],
    obs: Observability | None = None,
) -> BatchPlan:
    """Compile a batch: one flat MCF frontier per deduplicated slot.

    Frontier slots dedupe per (canonical predicate, AVG-ness): AVG lookups
    may descend differently under the zero-variance rule (Section 3.4), so
    an AVG query never shares a frontier slot with a SUM / COUNT over the
    same predicate.

    With an enabled ``obs``, compilation emits ``plan.compile`` /
    ``frontier.descent`` spans carrying the tree statistics
    (``nodes_visited``, covered / partial leaf counts) and the plan carries
    the context into its execution span.
    """
    obs = obs if obs is not None else Observability.disabled()
    with obs.tracer.span("plan.compile") as compile_span:
        queries = list(queries)
        slots: list[int] = []
        slot_by_key: dict[tuple, int] = {}
        slot_queries: list[AggregateQuery] = []
        for query in queries:
            key = (query.predicate.canonical_key(), query.agg == AggregateType.AVG)
            slot = slot_by_key.get(key)
            if slot is None:
                slot = len(slot_queries)
                slot_by_key[key] = slot
                slot_queries.append(query)
            slots.append(slot)
        with obs.tracer.span("frontier.descent") as descent_span:
            slot_frontiers = [synopsis.query_frontier(query) for query in slot_queries]
            if obs.enabled:
                descent_span.set_attribute(
                    "nodes_visited", sum(f.nodes_visited for f in slot_frontiers)
                )
                descent_span.set_attribute(
                    "covered_nodes", sum(f.covered.shape[0] for f in slot_frontiers)
                )
                descent_span.set_attribute(
                    "partial_leaves", sum(f.partial.shape[0] for f in slot_frontiers)
                )
        compile_span.set_attribute("batch_size", len(queries))
        compile_span.set_attribute("slots", len(slot_queries))
        return BatchPlan(
            synopsis=synopsis,
            queries=queries,
            slots=slots,
            slot_queries=slot_queries,
            slot_frontiers=slot_frontiers,
            obs=obs,
        )


def batch_query(
    synopsis: PASSSynopsis,
    queries: Sequence[AggregateQuery],
    obs: Observability | None = None,
) -> list[AQPResult]:
    """Answer several queries against one synopsis with shared frontier work.

    Results align with the input order and are bit-identical to calling
    ``synopsis.query(query)`` per query.
    """
    return compile_batch(synopsis, queries, obs=obs).execute()


def grouped_query(
    synopsis: PASSSynopsis, plan: GroupByPlan, lam: float | None = None
) -> GroupedResult:
    """Answer a compiled group-by plan with vectorized grouped execution.

    The executor exploits the grouped shape beyond what :func:`batch_query`
    can see:

    * one MCF lookup per group cell is shared by every aggregate of the cell
      (G lookups instead of G x A);
    * cells whose frontier statistics show zero matching tuples are answered
      as exact empty groups without touching any sample;
    * per partially-overlapped leaf, the match masks of every cell touching
      it are evaluated in one broadcasted comparison and immediately reduced
      to sufficient statistics (matched count, value sum, sum of squares,
      extrema) with matrix products, so no per-(cell, aggregate) pass over
      sample values remains — SUM / COUNT / AVG / MIN / MAX all assemble
      from the same per-(cell, leaf) moments.

    Estimates, variances, and bounds follow the exact same stratified
    formulas as ``synopsis.query`` and agree with sequential execution up to
    floating-point summation order.  The one semantic difference: AVG reuses
    the cell's shared frontier, skipping the AVG-only zero-variance shortcut
    (Section 3.4) — answers stay valid and only partially-overlapped
    constant-valued partitions would ever notice.

    Sketch aggregates (QUANTILE / COUNT_DISTINCT) ride the same per-cell
    frontier: each surviving cell reduces to one mergeable sketch union per
    sketch kind (:meth:`PASSSynopsis.sketch_union`, the flat sketch kernel)
    over the frontier already computed for the classic aggregates, so a
    mixed plan still costs one index lookup per cell, its p50 / p95 / p99
    share one merge pass and one sorted view
    (:func:`~repro.sketches.union.shared_union_results`, the sharing every
    batching tier uses), and the sketch answers equal sequential
    ``synopsis.query`` execution bit for bit.
    """
    lam = synopsis.lam if lam is None else lam
    with_fpc = synopsis.with_fpc
    value_column = synopsis.value_column
    for spec in plan.aggregates:
        if spec.value_column != value_column:
            raise ValueError(
                f"synopsis was built for column {value_column!r}, "
                f"aggregate targets {spec.value_column!r}"
            )
    classic_slots = [
        i for i, spec in enumerate(plan.aggregates) if spec.agg not in SKETCH_AGGREGATES
    ]
    sketch_slots = [
        i for i, spec in enumerate(plan.aggregates) if spec.agg in SKETCH_AGGREGATES
    ]
    if sketch_slots and not synopsis.has_sketches:
        raise ValueError(
            "synopsis was built without sketches and cannot answer "
            "QUANTILE / COUNT_DISTINCT aggregates; rebuild with "
            "PASSConfig(with_sketches=True)"
        )
    population = synopsis.population_size
    need_extrema = any(
        plan.aggregates[i].agg in (AggregateType.MIN, AggregateType.MAX)
        for i in classic_slots
    )

    live = plan.live_cells()
    cell_frontiers = synopsis.frontiers_for([cell.predicate for _, cell in live])
    surviving = [
        (index, cell, frontier)
        for (index, cell), frontier in zip(live, cell_frontiers)
        if synopsis.frontier_count(frontier) > 0
    ]

    if classic_slots:
        moments = synopsis.grouped_leaf_moments(
            [(cell.predicate, frontier) for _, cell, frontier in surviving],
            need_extrema,
        )
    else:
        moments = {}

    classic_aggs = tuple(plan.aggregates[i].agg for i in classic_slots)
    rows: list[list[AQPResult | None]] = [
        [None] * len(plan.aggregates) for _ in surviving
    ]
    if classic_slots:
        for slot, (_, _, frontier) in enumerate(surviving):
            classic_row = synopsis.assemble_cell_row(
                classic_aggs, frontier, moments, slot, lam, with_fpc, population
            )
            for position, result in zip(classic_slots, classic_row):
                rows[slot][position] = result
    # One union per (cell, sketch kind): the reduction depends only on the
    # predicate, so p50 / p95 / p99 specs share one merge pass and one sorted
    # view and differ only in result assembly.
    pending = [
        ((slot, position), (slot, spec.agg), plan.cell_query(cell, spec))
        for slot, (_, cell, _) in enumerate(surviving)
        for position, spec in enumerate(plan.aggregates)
        if spec.agg in SKETCH_AGGREGATES
    ]
    for (slot, position), result in shared_union_results(
        pending,
        lambda target, query: synopsis.sketch_union(query, surviving[target[0]][2]),
        population,
    ):
        rows[slot][position] = result
    answers = {index: tuple(row) for (index, _, _), row in zip(surviving, rows)}

    empty = tuple(empty_group_result(spec.agg, population) for spec in plan.aggregates)
    return GroupedResult(
        group_columns=plan.group_columns,
        aggregates=plan.aggregates,
        labels=tuple(cell.labels for cell in plan.cells),
        cells=tuple(answers.get(index, empty) for index in range(plan.n_cells)),
    )


