"""Scatter-gather query execution over per-shard PASS synopses.

A :class:`ShardedSynopsis` answers :class:`~repro.query.query.AggregateQuery`
objects from a collection of per-shard synopses the way a distributed AQP
engine would:

1. **Prune** — shards whose key range cannot overlap the query predicate are
   skipped entirely (range shards; hash shards prune only under point
   predicates on the shard column).
2. **Scatter** — surviving shards answer the query independently; the
   per-shard work reuses the batch path of :mod:`repro.core.batching`, so
   a shard touched by several queries of a batch over one predicate runs
   their index lookup once.
3. **Gather** — per-shard unbiased estimates and variances are merged into a
   single :class:`~repro.result.AQPResult`:

   * SUM / COUNT: estimates and variances add (shard samples are drawn
     independently), and the deterministic hard bounds add as well;
   * AVG: the ratio of the *combined* SUM and COUNT estimates (delta
     method), with hard bounds merged as the extrema of per-shard AVG
     bounds (a weighted average lies between its parts);
   * MIN / MAX: extrema merge of the per-shard answers and bounds.

   The merged answer is exact iff every surviving shard's answer is exact —
   the deterministic tree components merge exactly because PASS's partition
   statistics are mergeable.

Sketch aggregates (QUANTILE / COUNT_DISTINCT) follow the same discipline
one level lower: scalar per-shard answers cannot merge (a quantile of
quantiles is meaningless), so each surviving shard reduces the query to its
mergeable *sketch union* (:meth:`PASSSynopsis.sketch_union`), the gather
phase merges the unions — sketch merges plus additive boundary slack — and
:func:`~repro.sketches.union.sketch_union_results` assembles every query
over that predicate from the merged union.  The merged certified bounds
therefore cover the same rank / count
error terms as a single synopsis over the union of the shards' data, which
is exactly the metamorphic property the hypothesis test layer asserts.

Because the shard population statistics are exact, the merged estimate of a
SUM / COUNT query equals the sum of the per-shard estimates bit for bit, and
the merged variance the sum of the per-shard variances — the property the
acceptance tests assert.

Streaming updates route to the owning shard's
:class:`~repro.core.updates.DynamicPASS`; the higher-level rebuild policy
lives in :class:`repro.distributed.router.StreamingShardRouter`.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.batching import batch_query
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.updates import DynamicPASS
from repro.distributed.planner import ShardRouting
from repro.obs import Observability
from repro.query.aggregates import SKETCH_AGGREGATES, AggregateType
from repro.query.groupby import (
    GroupByPlan,
    GroupByQuery,
    GroupedResult,
    empty_group_result,
    execute_plan,
)
from repro.query.predicate import Box, Interval
from repro.query.query import AggregateQuery
from repro.result import AQPResult, LAMBDA_99
from repro.sampling.estimators import EstimateWithVariance, ratio_estimate
from repro.sketches.union import SketchUnion, shared_union_results

if TYPE_CHECKING:
    from repro.obs.metrics import Counter, NullCounter

__all__ = ["ShardedSynopsis"]


def _pass_of(shard: PASSSynopsis | DynamicPASS) -> PASSSynopsis:
    """The underlying static synopsis of a shard."""
    return shard.synopsis if isinstance(shard, DynamicPASS) else shard


class ShardedSynopsis:
    """A horizontally sharded PASS synopsis with scatter-gather queries.

    Parameters
    ----------
    shards:
        Per-shard synopses (:class:`PASSSynopsis` for read-only shards,
        :class:`DynamicPASS` for shards accepting streaming updates), aligned
        with ``key_boxes``.
    key_boxes:
        The region of shard-column space each shard owns (from the
        :class:`~repro.distributed.planner.ShardPlan`).
    shard_column:
        The column the table was sharded on.
    strategy:
        ``"range"`` or ``"hash"`` — decides how queries are pruned and how
        streaming updates are routed.
    lam:
        Confidence-interval multiplier applied to merged variances.
    hash_modulus / hash_owners:
        Hash-routing metadata for ``strategy="hash"`` plans (see
        :class:`~repro.distributed.planner.ShardRouting`).
    build_seconds:
        Wall-clock build cost of all the shards.
    """

    def __init__(
        self,
        shards: Sequence[PASSSynopsis | DynamicPASS],
        key_boxes: Sequence[Box],
        shard_column: str,
        strategy: str = "range",
        lam: float = LAMBDA_99,
        hash_modulus: int | None = None,
        hash_owners: Sequence[int] = (),
        build_seconds: float = 0.0,
    ) -> None:
        shards = list(shards)
        key_boxes = list(key_boxes)
        if not shards:
            raise ValueError("a sharded synopsis needs at least one shard")
        if len(shards) != len(key_boxes):
            raise ValueError(
                f"{len(shards)} shards but {len(key_boxes)} key boxes were given"
            )
        value_columns = {_pass_of(shard).value_column for shard in shards}
        if len(value_columns) != 1:
            raise ValueError(
                f"shards aggregate different value columns: {sorted(value_columns)}"
            )
        if strategy == "hash" and hash_modulus is None:
            raise ValueError("hash sharding requires hash_modulus")
        self._shards = shards
        self._key_boxes = key_boxes
        self._shard_column = shard_column
        self._strategy = strategy
        self._lam = lam
        self._routing = ShardRouting(
            strategy=strategy,
            shard_column=shard_column,
            key_boxes=tuple(key_boxes),
            hash_modulus=hash_modulus,
            hash_owners=tuple(hash_owners),
        )
        self.build_seconds = build_seconds
        obs = Observability.disabled()
        self._obs = obs
        self._m_queries: "Counter | NullCounter" = obs.metrics.counter(
            "repro_sharded_queries_total", "Queries answered by scatter-gather."
        )
        self._m_pruned: "Counter | NullCounter" = obs.metrics.counter(
            "repro_sharded_shards_pruned_total",
            "Shard visits skipped by key-range pruning.",
        )

    def bind_obs(self, obs: Observability) -> None:
        """Attach an observability context (idempotent; no-op when disabled).

        Called by :meth:`~repro.serving.catalog.SynopsisCatalog.bind_obs`
        when a sharded synopsis is registered into an instrumented catalog.
        """
        if not obs.enabled or self._obs.enabled:
            return
        self._obs = obs
        self._m_queries = obs.metrics.counter(
            "repro_sharded_queries_total", "Queries answered by scatter-gather."
        )
        self._m_pruned = obs.metrics.counter(
            "repro_sharded_shards_pruned_total",
            "Shard visits skipped by key-range pruning.",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> list[PASSSynopsis | DynamicPASS]:
        """The per-shard synopses, in shard order."""
        return list(self._shards)

    @property
    def key_boxes(self) -> list[Box]:
        """The per-shard key ranges, in shard order."""
        return list(self._key_boxes)

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def shard_column(self) -> str:
        """The column the data was sharded on."""
        return self._shard_column

    @property
    def strategy(self) -> str:
        """The sharding strategy (``"range"`` or ``"hash"``)."""
        return self._strategy

    @property
    def value_column(self) -> str:
        """The aggregation column every shard answers queries about."""
        return _pass_of(self._shards[0]).value_column

    @property
    def population_size(self) -> int:
        """Total number of tuples across all shards."""
        return sum(_pass_of(shard).population_size for shard in self._shards)

    @property
    def sample_size(self) -> int:
        """Total number of stored sample tuples across all shards."""
        return sum(_pass_of(shard).sample_size for shard in self._shards)

    @property
    def n_partitions(self) -> int:
        """Total number of leaf partitions across all shards."""
        return sum(_pass_of(shard).n_partitions for shard in self._shards)

    @property
    def supports_updates(self) -> bool:
        """True when every shard accepts streaming updates."""
        return all(isinstance(shard, DynamicPASS) for shard in self._shards)

    @property
    def staleness(self) -> float:
        """Worst per-shard update drift (0.0 for all-static shards)."""
        stalenesses = self.per_shard_staleness()
        return max(stalenesses) if stalenesses else 0.0

    def per_shard_staleness(self) -> list[float]:
        """Update drift of each shard (0.0 for static shards)."""
        return [
            shard.staleness if isinstance(shard, DynamicPASS) else 0.0
            for shard in self._shards
        ]

    @property
    def supports_sketches(self) -> bool:
        """True when every shard can answer QUANTILE / COUNT_DISTINCT."""
        return all(_pass_of(shard).has_sketches for shard in self._shards)

    @property
    def sketch_staleness(self) -> float:
        """Worst per-shard sketch drift from unabsorbed deletions."""
        stalenesses = self.per_shard_sketch_staleness()
        return max(stalenesses) if stalenesses else 0.0

    def per_shard_sketch_staleness(self) -> list[float]:
        """Sketch drift of each shard (0.0 for static shards)."""
        return [
            shard.sketch_staleness if isinstance(shard, DynamicPASS) else 0.0
            for shard in self._shards
        ]

    @property
    def extrema_staleness(self) -> float:
        """Worst per-shard extrema drift from extremum-hitting deletions."""
        stalenesses = self.per_shard_extrema_staleness()
        return max(stalenesses) if stalenesses else 0.0

    def per_shard_extrema_staleness(self) -> list[float]:
        """Extrema drift of each shard (0.0 for static shards)."""
        return [
            shard.extrema_staleness if isinstance(shard, DynamicPASS) else 0.0
            for shard in self._shards
        ]

    def storage_bytes(self) -> int:
        """Total synopsis footprint across all shards."""
        return sum(_pass_of(shard).storage_bytes() for shard in self._shards)

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------
    def shard_for_value(self, value: float) -> int:
        """Index of the shard owning a shard-column value."""
        return self._routing.shard_for_value(value)

    def shard_for_row(self, row: Mapping[str, float]) -> int:
        """Index of the shard owning a row."""
        return self._routing.shard_for_row(row)

    def leaf_box(self, row: Mapping[str, float]) -> Box:
        """The box of the owning shard's leaf containing a row's point.

        Serving layers use it to invalidate exactly the cached results an
        update can affect.
        """
        synopsis = _pass_of(self._shards[self.shard_for_row(row)])
        return synopsis.leaf_boxes[synopsis.flat.leaf_for_point(row)]

    def surviving_shards(self, query: AggregateQuery) -> list[int]:
        """Shards whose key range may contain tuples matching the query.

        Range shards are pruned by interval geometry; hash shards only under
        a point predicate on the shard column (one bucket owns the key).
        """
        predicate = query.predicate
        if self._strategy == "hash":
            interval = predicate.interval(self._shard_column)
            if interval.low == interval.high:
                return [self.shard_for_value(interval.low)]
            return list(range(self.n_shards))
        return [
            index
            for index, box in enumerate(self._key_boxes)
            if predicate.overlaps_box(box)
        ]

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------
    def insert(self, row: Mapping[str, float]) -> int:
        """Insert one tuple into the owning shard; returns the shard index."""
        index = self.shard_for_row(row)
        shard = self._shards[index]
        if not isinstance(shard, DynamicPASS):
            raise TypeError(
                f"shard {index} is static; build the sharded synopsis with "
                "dynamic=True to accept streaming updates"
            )
        shard.insert(row)
        return index

    def delete(self, row: Mapping[str, float]) -> int:
        """Delete one tuple from the owning shard; returns the shard index."""
        index = self.shard_for_row(row)
        shard = self._shards[index]
        if not isinstance(shard, DynamicPASS):
            raise TypeError(
                f"shard {index} is static; build the sharded synopsis with "
                "dynamic=True to accept streaming updates"
            )
        shard.delete(row)
        return index

    def replace_shard(self, index: int, shard: PASSSynopsis | DynamicPASS) -> None:
        """Atomically swap one shard's synopsis (per-shard rebuild support).

        The swap is a single reference assignment, so concurrent readers see
        either the old or the new shard — never a mixture — and reads on the
        other shards are never paused.
        """
        if not 0 <= index < len(self._shards):
            raise IndexError(f"shard index {index} out of range")
        if _pass_of(shard).value_column != self.value_column:
            raise ValueError(
                f"replacement shard aggregates {_pass_of(shard).value_column!r}, "
                f"expected {self.value_column!r}"
            )
        self._shards[index] = shard

    # ------------------------------------------------------------------
    # Scatter-gather query execution
    # ------------------------------------------------------------------
    def query(self, query: AggregateQuery, lam: float | None = None) -> AQPResult:
        """Answer one query by scatter-gather over the surviving shards."""
        return self.query_batch([query], lam=lam)[0]

    def query_batch(
        self, queries: Sequence[AggregateQuery], lam: float | None = None
    ) -> list[AQPResult]:
        """Answer a batch of queries; results align with the input order.

        The scatter phase groups the per-shard work of the whole batch: each
        shard answers its deduplicated subqueries through one
        :func:`~repro.core.batching.batch_query` call, so per shard every
        classic answer carries the same bits as that shard's
        ``synopsis.query`` (AVG queries fan out into SUM / COUNT / AVG
        subqueries whose combined estimates and bounds are merged in the
        gather phase).  Sketch
        aggregates (QUANTILE / COUNT_DISTINCT) gather per-shard *sketch
        unions* instead of scalar answers (see the module docstring), once
        per distinct (predicate, sketch kind) of the batch: one frontier and
        one union per surviving shard, one merge chain, and every quantile
        of the predicate assembled from the merged union
        (:func:`~repro.sketches.union.shared_union_results`) against the
        population snapshot the classic gather uses.
        """
        queries = list(queries)
        lam = self._lam if lam is None else lam
        for query in queries:
            if query.value_column != self.value_column:
                raise ValueError(
                    f"sharded synopsis aggregates {self.value_column!r}, "
                    f"query aggregates {query.value_column!r}"
                )

        # Scatter planning: per shard, the deduplicated subquery list.
        # Sketch aggregates take the union-merging gather path instead.
        survivors: list[list[int]] = [self.surviving_shards(q) for q in queries]
        if self._obs.enabled:
            pruned = sum(self.n_shards - len(indices) for indices in survivors)
            self._m_queries.inc(float(len(queries)))
            if pruned:
                self._m_pruned.inc(float(pruned))
            ambient = self._obs.tracer.current()
            if ambient is not None:
                ambient.set_attribute("shards", self.n_shards)
                ambient.set_attribute("shards_pruned", pruned)
        shard_slots: list[dict[tuple, int]] = [{} for _ in self._shards]
        shard_queries: list[list[AggregateQuery]] = [[] for _ in self._shards]

        def enqueue(shard_index: int, subquery: AggregateQuery) -> None:
            slots = shard_slots[shard_index]
            key = subquery.cache_key()
            if key not in slots:
                slots[key] = len(shard_queries[shard_index])
                shard_queries[shard_index].append(subquery)

        for query, shard_indices in zip(queries, survivors):
            if query.agg in SKETCH_AGGREGATES:
                continue
            for sub in self._subqueries(query):
                for shard_index in shard_indices:
                    enqueue(shard_index, sub)

        # Scatter execution: one batch per surviving shard.
        shard_answers: list[list[AQPResult]] = [
            batch_query(_pass_of(self._shards[i]), subs) if subs else []
            for i, subs in enumerate(shard_queries)
        ]

        def answer(shard_index: int, subquery: AggregateQuery) -> AQPResult:
            slot = shard_slots[shard_index][subquery.cache_key()]
            return shard_answers[shard_index][slot]

        # Gather: merge the per-shard parts of each query.  Populations are
        # snapshotted once for the whole batch (the read path is hot).
        populations = [_pass_of(shard).population_size for shard in self._shards]
        total_population = sum(populations)
        results: list[AQPResult | None] = []
        pending = []  # (position, (predicate, sketch kind), query) triples
        for query, shard_indices in zip(queries, survivors):
            if query.agg not in SKETCH_AGGREGATES:
                pruned_population = total_population - sum(
                    populations[i] for i in shard_indices
                )
                results.append(
                    self._gather(query, shard_indices, answer, lam, pruned_population)
                )
            elif shard_indices:
                key = (query.predicate.canonical_key(), query.agg)
                pending.append((len(results), key, query))
                results.append(None)
            else:
                # Every shard pruned: the predicate region is provably empty.
                results.append(empty_group_result(query.agg, total_population))
        for position, result in shared_union_results(
            pending,
            lambda position, query: self._gather_union(query, survivors[position]),
            total_population,
        ):
            results[position] = result
        return results  # type: ignore[return-value]

    def query_grouped(
        self, groupby: GroupByQuery | GroupByPlan, lam: float | None = None
    ) -> GroupedResult:
        """Answer a group-by query by scatter-gather over the shards.

        The compiled cell-major batch runs through :meth:`query_batch`, so
        per shard the aggregates of one group cell share one index lookup,
        shard pruning applies per cell, and the
        per-group SUM / COUNT / AVG / MIN / MAX answers merge across shards
        with the exact mergeable gather math of single-aggregate queries.

        A :class:`~repro.query.groupby.GroupByQuery` is compiled here when
        its groupings are explicit (bin edges or listed values);
        distinct-value discovery needs a table, so compile such queries
        first (see :meth:`GroupByQuery.compile`).
        """
        plan = groupby.compile() if isinstance(groupby, GroupByQuery) else groupby
        return execute_plan(
            plan,
            lambda queries: self.query_batch(queries, lam=lam),
            population=self.population_size,
        )

    # ------------------------------------------------------------------
    # Gather math
    # ------------------------------------------------------------------
    def _gather_union(
        self, query: AggregateQuery, shard_indices: Sequence[int]
    ) -> SketchUnion:
        """The merged sketch union of a QUANTILE / COUNT_DISTINCT query.

        Each surviving shard reduces the query to its mergeable sketch union
        along its own flat frontier, and the unions merge exactly (sketch
        merges plus additive boundary slack) — the same algebra a single
        synopsis over the union of the shards' data would run, which keeps
        sharded and single-synopsis estimates within each other's certified
        bounds.  Called once per distinct (predicate, sketch kind) of a batch.
        """
        union = None
        for index in shard_indices:
            shard_union = _pass_of(self._shards[index]).sketch_union(query)
            union = shard_union if union is None else union.merge(shard_union)
        return union

    @staticmethod
    def _subqueries(query: AggregateQuery) -> list[AggregateQuery]:
        """The per-shard subqueries a query fans out into.

        AVG needs the combined SUM and COUNT estimates (the merged answer is
        their ratio) plus the per-shard AVG answers (their bounds merge into
        the deterministic AVG bounds).
        """
        if query.agg == AggregateType.AVG:
            return [
                replace(query, agg=AggregateType.SUM),
                replace(query, agg=AggregateType.COUNT),
                query,
            ]
        return [query]

    def _gather(
        self,
        query: AggregateQuery,
        shard_indices: Sequence[int],
        answer,
        lam: float,
        pruned_population: int,
    ) -> AQPResult:
        agg = query.agg
        if agg in (AggregateType.MIN, AggregateType.MAX):
            parts = [answer(i, query) for i in shard_indices]
            return self._merge_extremum(agg, parts, pruned_population)
        if agg == AggregateType.AVG:
            sums = [
                answer(i, replace(query, agg=AggregateType.SUM)) for i in shard_indices
            ]
            counts = [
                answer(i, replace(query, agg=AggregateType.COUNT))
                for i in shard_indices
            ]
            avgs = [answer(i, query) for i in shard_indices]
            return self._merge_avg(sums, counts, avgs, lam, pruned_population)
        parts = [answer(i, query) for i in shard_indices]
        return self._merge_additive(parts, lam, pruned_population)

    @staticmethod
    def _combine(parts: Sequence[AQPResult]) -> EstimateWithVariance:
        """Sum of independent per-shard estimates: estimates and variances add."""
        estimate = sum(part.estimate for part in parts)
        if any(math.isnan(part.variance) for part in parts):
            variance = float("nan")
        else:
            variance = sum(part.variance for part in parts)
        return EstimateWithVariance(float(estimate), float(variance))

    def _merge_additive(
        self, parts: Sequence[AQPResult], lam: float, pruned_population: int
    ) -> AQPResult:
        """Merged SUM / COUNT answer: everything adds (pruned shards add 0)."""
        combined = self._combine(parts) if parts else EstimateWithVariance(0.0, 0.0)
        exact = all(part.exact for part in parts)
        if exact:
            half_width, variance = 0.0, 0.0
        elif math.isnan(combined.variance):
            half_width, variance = float("nan"), float("nan")
        else:
            variance = combined.variance
            half_width = lam * math.sqrt(max(variance, 0.0))
        return AQPResult(
            estimate=combined.estimate,
            ci_half_width=half_width,
            variance=variance,
            hard_lower=sum(part.hard_lower for part in parts) if parts else 0.0,
            hard_upper=sum(part.hard_upper for part in parts) if parts else 0.0,
            tuples_processed=sum(part.tuples_processed for part in parts),
            tuples_skipped=sum(part.tuples_skipped for part in parts)
            + pruned_population,
            exact=exact,
        )

    def _merge_avg(
        self,
        sums: Sequence[AQPResult],
        counts: Sequence[AQPResult],
        avgs: Sequence[AQPResult],
        lam: float,
        pruned_population: int,
    ) -> AQPResult:
        """Merged AVG: ratio of the combined SUM and COUNT estimates.

        The deterministic bounds are the extrema of the per-shard AVG bounds:
        the overall average is a weighted average of the per-shard averages,
        so it lies between the loosest of their bounds.
        """
        combined_sum = self._combine(sums) if sums else EstimateWithVariance(0.0, 0.0)
        combined_count = (
            self._combine(counts) if counts else EstimateWithVariance(0.0, 0.0)
        )
        exact = all(part.exact for part in sums) and all(part.exact for part in counts)
        if combined_count.estimate == 0:
            estimate = EstimateWithVariance(float("nan"), float("nan"))
        elif exact:
            estimate = EstimateWithVariance(
                combined_sum.estimate / combined_count.estimate, 0.0
            )
        else:
            estimate = ratio_estimate(combined_sum, combined_count)

        lowers = [part.hard_lower for part in avgs if not math.isnan(part.hard_lower)]
        uppers = [part.hard_upper for part in avgs if not math.isnan(part.hard_upper)]
        if exact:
            half_width, variance = 0.0, 0.0
        elif math.isnan(estimate.variance):
            half_width, variance = float("nan"), float("nan")
        else:
            variance = estimate.variance
            half_width = lam * math.sqrt(max(variance, 0.0))
        return AQPResult(
            estimate=estimate.estimate,
            ci_half_width=half_width,
            variance=variance,
            hard_lower=min(lowers) if lowers else float("nan"),
            hard_upper=max(uppers) if uppers else float("nan"),
            tuples_processed=sum(part.tuples_processed for part in avgs),
            tuples_skipped=sum(part.tuples_skipped for part in avgs)
            + pruned_population,
            exact=exact,
        )

    @staticmethod
    def _merge_extremum(
        agg: AggregateType, parts: Sequence[AQPResult], pruned_population: int
    ) -> AQPResult:
        """Merged MIN / MAX answer: extrema of estimates and of bounds."""
        pick = max if agg == AggregateType.MAX else min
        estimates = [part.estimate for part in parts if not math.isnan(part.estimate)]
        estimate = float(pick(estimates)) if estimates else float("nan")
        exact = all(part.exact for part in parts)
        # The merged extremum of valid per-shard bounds is itself a valid
        # bound (infinities are dominated whenever any shard has a finite one).
        lowers = [part.hard_lower for part in parts if not math.isnan(part.hard_lower)]
        uppers = [part.hard_upper for part in parts if not math.isnan(part.hard_upper)]
        return AQPResult(
            estimate=estimate,
            ci_half_width=0.0 if exact else float("nan"),
            variance=0.0 if exact else float("nan"),
            hard_lower=float(pick(lowers)) if lowers else float("nan"),
            hard_upper=float(pick(uppers)) if uppers else float("nan"),
            tuples_processed=sum(part.tuples_processed for part in parts),
            tuples_skipped=sum(part.tuples_skipped for part in parts)
            + pruned_population,
            exact=exact,
        )

    # ------------------------------------------------------------------
    # Persistence (flat buffers)
    # ------------------------------------------------------------------
    def export_buffers(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Every shard's ``(header, arrays)`` plus the routing metadata.

        Shard arrays are namespaced under ``shard<i>/``, their headers listed
        under ``shard_headers`` and the key boxes (a few floats per shard)
        kept in the header.  The round trip through :meth:`from_buffers` is
        exact per shard, so a reloaded sharded synopsis returns bit-identical
        merged estimates.
        """
        arrays: dict[str, np.ndarray] = {}
        shard_headers: list[dict] = []
        for i, shard in enumerate(self._shards):
            shard_header, shard_arrays = shard.export_buffers()
            for key, value in shard_arrays.items():
                arrays[f"shard{i}/{key}"] = value
            shard_headers.append(shard_header)
        header = {
            "kind": "sharded",
            "value_column": self.value_column,
            "shard_column": self._shard_column,
            "strategy": self._strategy,
            "lam": self._lam,
            "hash_modulus": self._routing.hash_modulus,
            "hash_owners": list(self._routing.hash_owners),
            "build_seconds": self.build_seconds,
            "key_boxes": [
                {
                    column: [interval.low, interval.high]
                    for column, interval in box.intervals.items()
                }
                for box in self._key_boxes
            ],
            "shard_headers": shard_headers,
        }
        return header, arrays

    @classmethod
    def from_buffers(
        cls, header: Mapping, arrays: Mapping[str, np.ndarray]
    ) -> "ShardedSynopsis":
        """Rebuild a sharded synopsis exported with :meth:`export_buffers`.

        Static shards take their arrays by reference, dynamic ones copy.
        """
        shards: list[PASSSynopsis | DynamicPASS] = []
        for i, shard_header in enumerate(header["shard_headers"]):
            prefix = f"shard{i}/"
            shard_arrays = {
                key[len(prefix) :]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }
            dynamic = shard_header.get("kind") == "dynamic"
            shards.append(
                (DynamicPASS if dynamic else PASSSynopsis).from_buffers(
                    shard_header, shard_arrays
                )
            )
        return cls(
            shards=shards,
            key_boxes=[
                Box({column: Interval(*bounds) for column, bounds in box.items()})
                for box in header["key_boxes"]
            ],
            shard_column=str(header["shard_column"]),
            strategy=str(header["strategy"]),
            lam=float(header["lam"]),
            hash_modulus=header["hash_modulus"],
            hash_owners=tuple(header["hash_owners"]),
            build_seconds=float(header["build_seconds"]),
        )
