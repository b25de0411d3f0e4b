"""Batch and grouped query execution against one PASS synopsis.

Both executors run the array-native kernels of
:class:`repro.core.soa.FlatSynopsis`; neither has an answering path of its
own.

:func:`batch_query` (:func:`compile_batch` + :meth:`BatchPlan.execute`)
answers a list of queries, doing each predicate's work once.  Compilation
computes one MCF frontier per *distinct* (predicate, AVG-ness under the
zero-variance rule) — the SUM / COUNT / MIN / MAX of one dashboard panel,
and its QUANTILE / COUNT_DISTINCT, share a frontier — all in one
:meth:`FlatSynopsis.frontiers_for` broadcast.  Execution feeds the frontiers
to the same kernels ``synopsis.query`` runs: the classic queries are one
:meth:`FlatSynopsis.answer_shared` call, a group per (predicate, frontier
rows), one moment pass and one assembly for the batch (its one-query case
is :meth:`FlatSynopsis.answer`); the sketch aggregates
take :meth:`FlatSynopsis.sketch_union` once per (frontier, sketch kind),
every quantile of a predicate assembled from the one union.  A batch is
bit-identical to sequential execution because it *is* the same kernel minus
the repeated identical work.  The serving engine's ``execute_batch`` and
``ShardedSynopsis.query_batch`` build on it.

:func:`grouped_query` answers a compiled
:class:`~repro.query.groupby.GroupByPlan` the same way: one frontier per
group cell (every aggregate of the cell shares it), provably empty cells
answered without dispatching anything, and the classic aggregates of all
the other cells in one :meth:`FlatSynopsis.answer_shared` call, handed each
cell's predicate and aggregate codes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.pass_synopsis import PASSSynopsis
from repro.core.soa import FlatFrontier
from repro.obs import Observability
from repro.query.aggregates import (
    SKETCH_AGGREGATES,
    AggregateType,
    empty_group_result,
)
from repro.query.groupby import GroupByPlan, GroupedResult
from repro.query.predicate import RectPredicate
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
        ``synopsis.query(query)`` per query.  The classic aggregates are one
        :meth:`FlatSynopsis.answer_shared` call, one group per canonical
        predicate and frontier rows (an AVG slot whose zero-variance descent
        kept other rows is a group apart): one mask and moment pass and one
        assembly for the whole batch, of which a one-query batch is
        :meth:`FlatSynopsis.answer`'s case.  QUANTILE / COUNT_DISTINCT
        queries are answered together, one frontier reduction per (slot,
        sketch kind) however many quantiles ask for it
        (:func:`~repro.sketches.union.shared_union_results`).
        """
        synopsis = self.synopsis
        queries, slots, frontiers = self.queries, self.slots, self.slot_frontiers
        slot_count = len(frontiers)
        with self.obs.tracer.span("execute.per_query") as span:
            span.set_attribute("batch_size", len(queries))
            # A slot's group is led by the first slot of its canonical
            # predicate with the same rows: slots differ only by AVG-ness,
            # and an AVG descent the zero-variance rule stopped early keeps
            # other rows.
            lead = list(range(slot_count))
            first: dict[tuple, int] = {}
            for slot, query in enumerate(self.slot_queries if slot_count > 1 else ()):
                other = first.setdefault(query.predicate.canonical_key(), slot)
                if other != slot and _same_rows(frontiers[other], frontiers[slot]):
                    lead[slot] = other
            members: dict[int, list[int]] = {}
            pending = []  # (position, (slot, sketch kind), query) triples
            for position, (query, slot) in enumerate(zip(queries, slots)):
                if query.agg in SKETCH_AGGREGATES:
                    pending.append((position, (slot, query.agg), query))
                else:
                    synopsis._check_value_column(query)
                    members.setdefault(lead[slot], []).append(position)
            results: list[AQPResult | None] = [None] * len(queries)
            groups = [
                (
                    [queries[p].predicate for p in positions],
                    [queries[p].agg for p in positions],
                    frontiers[slot],
                )
                for slot, positions in members.items()
            ]
            for positions, answers in zip(
                members.values(), synopsis.answer_shared(groups) if groups else ()
            ):
                for position, result in zip(positions, answers):
                    results[position] = result
            for position, result in shared_union_results(
                pending,
                lambda position, query: synopsis.sketch_union(
                    query, frontiers[slots[position]]
                ),
                synopsis.population_size,
            ) if pending else ():
                results[position] = result
            return results  # type: ignore[return-value]

    # perfbench/layers.py wraps this name and perfbench/ is frozen by
    # BENCHMARK.json; nothing else may call it.  A later `benchmark` PR
    # removes it together with the harness row.
    def execute_vectorized(self) -> list[AQPResult]:
        """Same as :meth:`execute` (kept for the frozen benchmark harness)."""
        return self.execute()


def _same_rows(first: FlatFrontier, second: FlatFrontier) -> bool:
    """True when two frontiers hold the same covered and partial rows."""
    same = np.array_equal
    return same(first.partial, second.partial) and same(first.covered, second.covered)


def compile_batch(
    synopsis: PASSSynopsis,
    queries: Sequence[AggregateQuery],
    obs: Observability | None = None,
) -> BatchPlan:
    """Compile a batch: one flat MCF frontier per deduplicated slot.

    Frontier slots dedupe per canonical predicate, and under the synopsis'
    zero-variance rule also per AVG-ness: AVG lookups may then descend
    differently (Section 3.4), so an AVG query gets a slot of its own
    beside a SUM / COUNT over the same predicate.  With the rule off the
    AVG frontier is the SUM / COUNT one and they share a slot.  Every
    slot's frontier comes from one :meth:`FlatSynopsis.frontiers_for`
    broadcast; an AVG slot carries the zero-variance flag, so it replays
    the descent (:meth:`FlatSynopsis.frontier`) where a partial node
    stops it.

    With an enabled ``obs``, compilation emits ``plan.compile`` /
    ``frontier.descent`` spans carrying the tree statistics
    (``nodes_visited``, covered / partial leaf counts) and the plan carries
    the context into its execution span.
    """
    obs = obs if obs is not None else Observability.disabled()
    zero_variance_rule = synopsis.zero_variance_rule
    with obs.tracer.span("plan.compile") as compile_span:
        queries = list(queries)
        if len(queries) == 1:  # one query is one slot: nothing to dedupe
            slots = [0]
            slot_queries = queries
            slot_flags = [zero_variance_rule and queries[0].agg == AggregateType.AVG]
        else:
            slots = []
            slot_by_key: dict[tuple, int] = {}
            slot_queries = []
            slot_flags = []
            for query in queries:
                flag = zero_variance_rule and query.agg == AggregateType.AVG
                key = (query.predicate.canonical_key(), flag)
                slot = slot_by_key.get(key)
                if slot is None:
                    slot = len(slot_queries)
                    slot_by_key[key] = slot
                    slot_queries.append(query)
                    slot_flags.append(flag)
                slots.append(slot)
        with obs.tracer.span("frontier.descent") as descent_span:
            slot_frontiers = synopsis.frontiers_for(
                [query.predicate for query in slot_queries], slot_flags
            )
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
    synopsis: PASSSynopsis, plan: GroupByPlan, skip: Iterable[int] = ()
) -> GroupedResult:
    """Answer a compiled group-by plan with one kernel pass over its cells.

    Every cell takes one MCF lookup, all in one
    :meth:`FlatSynopsis.frontiers_for` broadcast, and an AVG under the
    zero-variance rule its own flagged lookup, as :func:`compile_batch`
    gives it.  Cells whose frontier statistics show zero matching tuples are
    answered as exact empty groups and listed in the result's ``pruned``.
    The classic aggregates of the other cells are one
    :meth:`FlatSynopsis.answer_shared` call, one group per (cell, frontier)
    holding the cell's predicate and aggregate codes — no per-cell query
    object — whose one assembly pass builds every answer; the sketch
    aggregates take one union per (cell, sketch kind)
    (:func:`~repro.sketches.union.shared_union_results`).  Every answer is
    bit-identical to ``synopsis.query`` of its cell's query.

    Cells in ``skip`` are answered elsewhere (the serving engine's result
    cache): they take no lookup and come back as empty groups, like the
    cells :meth:`GroupByPlan.live_cells` never dispatches.
    """
    value_column = synopsis.value_column
    for spec in plan.aggregates:
        if spec.value_column != value_column:
            raise ValueError(
                f"synopsis was built for column {value_column!r}, "
                f"aggregate targets {spec.value_column!r}"
            )
    classic = [
        (position, spec)
        for position, spec in enumerate(plan.aggregates)
        if spec.agg not in SKETCH_AGGREGATES
    ]
    if len(classic) < len(plan.aggregates) and not synopsis.has_sketches:
        raise ValueError(
            "synopsis was built without sketches and cannot answer "
            "QUANTILE / COUNT_DISTINCT aggregates; rebuild with "
            "PASSConfig(with_sketches=True)"
        )
    population = synopsis.population_size

    live = plan.live_cells(skip)
    predicates = [cell.predicate for _, cell in live]
    avg_own_frontier = synopsis.zero_variance_rule and any(
        spec.agg == AggregateType.AVG for _, spec in classic
    )
    if avg_own_frontier:
        # Each predicate twice, side by side: one broadcast row, and arrays
        # shared unless a zero-variance stop cuts the AVG descent short.
        frontiers = synopsis.frontiers_for(
            [predicate for predicate in predicates for _ in range(2)],
            [False, True] * len(live),
        )
        cell_frontiers, avg_frontiers = frontiers[::2], frontiers[1::2]
    else:
        cell_frontiers = avg_frontiers = synopsis.frontiers_for(predicates)
    counts = synopsis.frontier_counts(cell_frontiers)
    surviving = [
        (index, cell, frontier, avg_frontier)
        for (index, cell), frontier, avg_frontier, count in zip(
            live, cell_frontiers, avg_frontiers, counts
        )
        if count > 0
    ]

    rows: list[list[AQPResult | None]] = [
        [None] * len(plan.aggregates) for _ in surviving
    ]
    positions = [position for position, _ in classic]
    aggs = [spec.agg for _, spec in classic]
    is_avg = [agg is AggregateType.AVG for agg in aggs]
    groups: list[tuple[list[RectPredicate], list[AggregateType], FlatFrontier]] = []
    targets: list[tuple[int, list[int]]] = []  # (cell slot, plan positions)
    for slot, (_, cell, frontier, avg_frontier) in enumerate(
        surviving if classic else ()
    ):
        # One group per (cell, frontier): an AVG descent the zero-variance
        # rule cut short keeps other rows, and is a group apart.
        parts = [(None, frontier)]
        if avg_frontier.partial is not frontier.partial:
            parts = [(False, frontier), (True, avg_frontier)]
        for avg, chosen in parts:
            picked = [i for i, flag in enumerate(is_avg) if avg in (None, flag)]
            if picked:
                group_aggs = aggs if avg is None else [aggs[i] for i in picked]
                groups.append(([cell.predicate] * len(picked), group_aggs, chosen))
                targets.append((slot, [positions[i] for i in picked]))
    for (slot, cell_positions), results in zip(
        targets, synopsis.answer_shared(groups) if groups else ()
    ):
        for position, result in zip(cell_positions, results):
            rows[slot][position] = result
    # One union per (cell, sketch kind): the reduction depends only on the
    # predicate, so p50 / p95 / p99 specs share one merge pass and one sorted
    # view and differ only in result assembly.
    pending = [
        ((slot, position), (slot, spec.agg), plan.cell_query(cell, spec))
        for slot, (_, cell, _, _) in enumerate(surviving)
        for position, spec in enumerate(plan.aggregates)
        if spec.agg in SKETCH_AGGREGATES
    ]
    for (slot, position), result in shared_union_results(
        pending,
        lambda target, query: synopsis.sketch_union(query, surviving[target[0]][2]),
        population,
    ):
        rows[slot][position] = result
    answers = {index: tuple(row) for (index, _, _, _), row in zip(surviving, rows)}

    empty = tuple(empty_group_result(spec.agg, population) for spec in plan.aggregates)
    return GroupedResult(
        group_columns=plan.group_columns,
        aggregates=plan.aggregates,
        labels=tuple(cell.labels for cell in plan.cells),
        cells=tuple(answers.get(index, empty) for index in range(plan.n_cells)),
        pruned=frozenset(index for index, _ in live if index not in answers),
    )
