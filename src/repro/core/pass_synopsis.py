"""The PASS synopsis: a partition tree of aggregates plus leaf samples.

Query processing follows Section 3.3 exactly:

1. **Index lookup** — run MCF over the partition tree to split the relevant
   partitions into fully covered nodes and partially overlapped leaves.
2. **Partial aggregation** — covered nodes contribute their precomputed
   aggregates exactly.
3. **Sample estimation** — each partially overlapped leaf contributes an
   estimate from its stratified sample (Section 2.2 formulas).
4. **Results** — the exact and sampled parts add up; only the sampled part
   carries variance, giving the CLT confidence interval.
5. **Hard bounds** — the known extrema and cardinalities of the partitions
   also give deterministic bounds on the answer (Section 2.3), reported
   alongside the CLT interval.

All seven aggregates execute over the array-native engine
(:class:`repro.core.soa.FlatSynopsis`, see ``docs/ARCHITECTURE.md``):
:meth:`PASSSynopsis.query` and :meth:`PASSSynopsis.sketch_union` are its
in-process entry points.  The per-node object implementation below
(:meth:`PASSSynopsis.query_object`, with :meth:`PASSSynopsis.lookup`) is the
bit-identical oracle the flat engine is property-tested against; nothing
calls it at runtime.  For QUANTILE / COUNT_DISTINCT the two differ only in
how they find the covered leaves and matched sample values they hand to the
one pair of merge loops in :mod:`repro.sketches.union`.

Once the flat engine exists its arrays are the one mutable state
(:class:`~repro.core.updates.DynamicPASS` writes them).  The object tree and
strata — what the builder produced, what the oracle and the npz export read
— follow them through :meth:`PASSSynopsis._refresh_objects`, on access only.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.aggregation.strat_agg import hard_bounds
from repro.query.predicate import Box
from repro.core.tree import (
    MCFResult,
    PartitionNode,
    PartitionTree,
    boxes_from_arrays,
    boxes_to_arrays,
)
from repro.query.aggregates import SKETCH_AGGREGATES, AggregateType
from repro.query.query import AggregateQuery
from repro.result import AQPResult, LAMBDA_99
from repro.sampling.estimators import (
    EstimateWithVariance,
    ratio_estimate,
    stratum_count_contribution,
    stratum_sum_contribution,
)
from repro.core.soa import FlatFrontier, FlatSynopsis
from repro.sampling.stratified import Stratum
from repro.sketches.union import (
    DistinctSketchUnion,
    LeafSketches,
    PartialLeaf,
    QuantileSketchUnion,
    frontier_union,
    sketch_union_result,
)

__all__ = ["PASSSynopsis"]


class PASSSynopsis:
    """Precomputation-Assisted Stratified Sampling synopsis.

    Parameters
    ----------
    tree:
        Partition tree whose leaves align 1:1 with ``leaf_samples``.
    leaf_samples:
        One :class:`~repro.sampling.stratified.Stratum` per tree leaf, in
        leaf-index order.
    value_column:
        The aggregation column the synopsis answers queries about.
    lam:
        Default confidence-interval multiplier.
    zero_variance_rule:
        Enable the AVG-only MCF shortcut of Section 3.4.
    with_fpc:
        Apply finite-population corrections to per-leaf estimates.
    build_seconds:
        Wall-clock construction cost recorded by the builder (reported in the
        cost tables).
    effective_partitioner:
        The partitioner the builder actually ran (which may differ from the
        configured one — 1-D optimizers fall back to ``"kd"`` on
        multi-dimensional inputs), ``"precomputed"`` when the leaf boxes were
        supplied, or ``None`` for hand-assembled synopses.
    leaf_sketches:
        Optional mergeable per-leaf sketches (:class:`LeafSketches`, aligned
        with the tree leaves) enabling QUANTILE / COUNT_DISTINCT queries;
        ``None`` for synopses built without sketch support.
    """

    def __init__(
        self,
        tree: PartitionTree,
        leaf_samples: Sequence[Stratum],
        value_column: str,
        lam: float = LAMBDA_99,
        zero_variance_rule: bool = True,
        with_fpc: bool = False,
        build_seconds: float = 0.0,
        effective_partitioner: str | None = None,
        leaf_sketches: Sequence[LeafSketches] | None = None,
    ) -> None:
        if tree.n_leaves != len(leaf_samples):
            raise ValueError(
                f"tree has {tree.n_leaves} leaves "
                f"but {len(leaf_samples)} samples were given"
            )
        if leaf_sketches is not None and len(leaf_sketches) != tree.n_leaves:
            raise ValueError(
                f"tree has {tree.n_leaves} leaves "
                f"but {len(leaf_sketches)} leaf sketches were given"
            )
        self._tree = tree
        self._leaf_samples = list(leaf_samples)
        self._leaf_sketches = None if leaf_sketches is None else list(leaf_sketches)
        self._value_column = value_column
        self._lam = lam
        self._zero_variance_rule = zero_variance_rule
        self._with_fpc = with_fpc
        self.build_seconds = build_seconds
        self.effective_partitioner = effective_partitioner
        self._leaf_boxes = tuple(leaf.box for leaf in tree.leaves)
        self._flat: FlatSynopsis | None = None
        #: ``FlatSynopsis.mutations`` the object tree and strata reflect.
        self._objects_at = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tree(self) -> PartitionTree:
        """The partition tree of precomputed aggregates."""
        self._refresh_objects()
        return self._tree

    @property
    def leaf_boxes(self) -> tuple[Box, ...]:
        """The leaves' boxes in leaf-index order (immutable geometry)."""
        return self._leaf_boxes

    @property
    def zero_variance_rule(self) -> bool:
        """Whether AVG lookups apply the zero-variance descent rule (3.4)."""
        return self._zero_variance_rule

    @property
    def flat(self) -> FlatSynopsis:
        """The lazily-built structure-of-arrays engine over this synopsis.

        Built on first access from the object tree and strata; from then on
        its arrays are the mutable state and the objects follow them.
        """
        flat = self._flat
        if flat is None:
            flat = FlatSynopsis(self)
            self._flat = flat
        return flat

    @property
    def leaf_samples(self) -> list[Stratum]:
        """The stratified samples attached to the leaves (leaf-index order)."""
        self._refresh_objects()
        return list(self._leaf_samples)

    @property
    def leaf_sketches(self) -> list[LeafSketches] | None:
        """The per-leaf sketches (leaf-index order), or None when absent."""
        return None if self._leaf_sketches is None else list(self._leaf_sketches)

    @property
    def has_sketches(self) -> bool:
        """True when the synopsis can answer QUANTILE / COUNT_DISTINCT."""
        return self._leaf_sketches is not None

    @property
    def value_column(self) -> str:
        """The aggregation column."""
        return self._value_column

    @property
    def lam(self) -> float:
        """Default confidence-interval multiplier."""
        return self._lam

    @property
    def with_fpc(self) -> bool:
        """Whether per-leaf estimates apply finite-population corrections."""
        return self._with_fpc

    @property
    def n_partitions(self) -> int:
        """Number of leaf partitions."""
        return self._tree.n_leaves

    @property
    def population_size(self) -> int:
        """Number of tuples summarized by the synopsis.

        The root's COUNT, read from the flat arrays once they exist (they
        are what :class:`~repro.core.updates.DynamicPASS` maintains).
        """
        if self._flat is not None:
            return self._flat.population_size
        return self._tree.root.stats.count

    @property
    def sample_size(self) -> int:
        """Total number of stored sample tuples across all leaves."""
        return sum(stratum.sample_size for stratum in self.leaf_samples)

    def storage_bytes(self) -> int:
        """Approximate footprint: tree aggregates, leaf samples, and sketches."""
        samples = sum(stratum.storage_bytes() for stratum in self.leaf_samples)
        sketches = sum(
            sketches.storage_bytes() for sketches in self._leaf_sketches or ()
        )
        return self._tree.storage_bytes() + samples + sketches

    # ------------------------------------------------------------------
    # Persistence (array export / import)
    # ------------------------------------------------------------------
    def to_arrays(self) -> tuple[dict[str, np.ndarray], dict]:
        """Export the synopsis as flat numpy arrays plus a JSON-safe header.

        The arrays carry the partition tree, the stratum boxes/sizes, and the
        per-leaf sample columns (concatenated, with an offsets array); the
        header carries the scalar configuration.  The round trip through
        :meth:`from_arrays` is exact: a reloaded synopsis returns bit-identical
        estimates.
        """
        self._refresh_objects()
        arrays: dict[str, np.ndarray] = {}
        for key, value in self._tree.to_arrays().items():
            arrays[f"tree/{key}"] = value

        strata = self._leaf_samples
        sample_columns = list(strata[0].sample_columns) if strata else []
        for stratum in strata:
            if list(stratum.sample_columns) != sample_columns:
                raise ValueError("leaf samples must share the same column set")
        lengths = [stratum.sample_size for stratum in strata]
        arrays["strata/sizes"] = np.array([s.size for s in strata], dtype=np.int64)
        arrays["strata/offsets"] = np.concatenate(
            [[0], np.cumsum(lengths)]
        ).astype(np.int64)
        for key, value in boxes_to_arrays([s.box for s in strata]).items():
            arrays[f"strata/box_{key}"] = value
        for column in sample_columns:
            parts = [np.asarray(s.sample_columns[column], dtype=float) for s in strata]
            arrays[f"samples/{column}"] = (
                np.concatenate(parts) if parts else np.zeros(0, dtype=float)
            )

        if self._leaf_sketches is not None:
            for i, sketches in enumerate(self._leaf_sketches):
                for key, value in sketches.to_arrays().items():
                    arrays[f"sketches/{i}/{key}"] = value

        header = {
            "format": 1,
            "value_column": self._value_column,
            "lam": self._lam,
            "zero_variance_rule": self._zero_variance_rule,
            "with_fpc": self._with_fpc,
            "build_seconds": self.build_seconds,
            "effective_partitioner": self.effective_partitioner,
            "sample_columns": sample_columns,
            "with_sketches": self._leaf_sketches is not None,
        }
        return arrays, header

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], header: dict) -> "PASSSynopsis":
        """Rebuild a synopsis exported with :meth:`to_arrays`.

        Archives written while the ``execution`` switch existed carry an
        ``"execution"`` header key; it is ignored.
        """
        tree = PartitionTree.from_arrays(
            {
                key[len("tree/") :]: value
                for key, value in arrays.items()
                if key.startswith("tree/")
            }
        )
        boxes = boxes_from_arrays(
            {
                key[len("strata/box_") :]: value
                for key, value in arrays.items()
                if key.startswith("strata/box_")
            }
        )
        sizes = np.asarray(arrays["strata/sizes"], dtype=np.int64)
        offsets = np.asarray(arrays["strata/offsets"], dtype=np.int64)
        sample_columns = list(header["sample_columns"])
        strata = []
        for i, box in enumerate(boxes):
            start, stop = int(offsets[i]), int(offsets[i + 1])
            strata.append(
                Stratum(
                    box=box,
                    size=int(sizes[i]),
                    sample_columns={
                        column: np.asarray(
                            arrays[f"samples/{column}"][start:stop], dtype=float
                        )
                        for column in sample_columns
                    },
                )
            )
        leaf_sketches = None
        if header.get("with_sketches"):
            # One pass over the archive: bucket "sketches/<i>/<rest>" keys by
            # leaf index instead of rescanning all keys once per leaf.
            buckets: dict[int, dict[str, np.ndarray]] = {}
            for key, value in arrays.items():
                if not key.startswith("sketches/"):
                    continue
                index, _, rest = key[len("sketches/") :].partition("/")
                buckets.setdefault(int(index), {})[rest] = value
            leaf_sketches = [
                LeafSketches.from_arrays(buckets[i]) for i in range(tree.n_leaves)
            ]
        return cls(
            tree=tree,
            leaf_samples=strata,
            value_column=str(header["value_column"]),
            lam=float(header["lam"]),
            zero_variance_rule=bool(header["zero_variance_rule"]),
            with_fpc=bool(header["with_fpc"]),
            build_seconds=float(header["build_seconds"]),
            effective_partitioner=header.get("effective_partitioner"),
            leaf_sketches=leaf_sketches,
        )

    # ------------------------------------------------------------------
    # Query processing (Section 3.3)
    # ------------------------------------------------------------------
    def query(self, query: AggregateQuery, lam: float | None = None) -> AQPResult:
        """Answer an aggregate query from the synopsis.

        Every aggregate runs the flat kernel (:meth:`FlatSynopsis.query`).
        ``lam`` optionally overrides the confidence-interval multiplier.
        """
        return self.flat.query(query, lam=lam)

    def sketch_union(
        self, query: AggregateQuery, frontier: FlatFrontier | None = None
    ) -> QuantileSketchUnion | DistinctSketchUnion:
        """Reduce a sketch-aggregate query to its mergeable frontier union.

        The in-process entry to :meth:`FlatSynopsis.sketch_union` for
        callers that need the union rather than the answer: the batch and
        grouped executors share one union among a predicate's percentiles
        (and pass the ``frontier`` they already computed), the sharded
        gather merges one union per shard.
        """
        flat = self.flat
        if frontier is None:
            frontier = flat.query_frontier(query)
        return flat.sketch_union(query, frontier)

    def skip_rate(self, query: AggregateQuery) -> float:
        """Fraction of dataset tuples whose contribution never touches samples."""
        return self.flat.skip_rate(query)

    # ------------------------------------------------------------------
    # The object-path oracle (no runtime caller)
    # ------------------------------------------------------------------
    def _refresh_objects(self) -> None:
        """Bring the object tree and strata up to date with the flat arrays.

        A no-op unless the arrays were written since the last refresh: then
        every node object (the same objects) gets its row's statistics and
        every stratum is rebuilt from its CSR rows.  Only readers of the
        objects call it — ``tree``, ``leaf_samples``, ``storage_bytes``,
        ``to_arrays``, the oracle below — never an update or a query.
        """
        flat = self._flat
        if flat is None or flat.mutations == self._objects_at:
            return
        self._objects_at = flat.mutations
        for node, stats in zip(self._tree.geometry().nodes, flat.node_stats()):
            node.stats = stats
        self._leaf_samples = [
            Stratum(
                box=stratum.box,
                size=leaf.stats.count,
                sample_columns={c: v.copy() for c, v in flat.leaf_sample(i).items()},
            )
            for i, (leaf, stratum) in enumerate(
                zip(self._tree.leaves, self._leaf_samples)
            )
        ]

    def lookup(self, query: AggregateQuery) -> MCFResult:
        """Run the object MCF index lookup for a query (oracle only)."""
        use_zero_variance = (
            self._zero_variance_rule and query.agg == AggregateType.AVG
        )
        return self.tree.minimal_coverage_frontier(
            query.predicate, zero_variance_rule=use_zero_variance
        )

    def query_object(
        self, query: AggregateQuery, lam: float | None = None
    ) -> AQPResult:
        """Answer a query over the per-node object path (the oracle).

        Same semantics as :meth:`query`, traversing the Python object graph;
        the array path is property-tested bit-identical against this
        implementation.
        """
        if query.value_column != self._value_column:
            raise ValueError(
                f"synopsis was built for column {self._value_column!r}, "
                f"query aggregates {query.value_column!r}"
            )
        lam = self._lam if lam is None else lam
        if query.agg in SKETCH_AGGREGATES:
            return sketch_union_result(
                query, self.sketch_union_object(query), self.population_size
            )
        frontier = self.lookup(query)
        covered_stats = [node.stats for node in frontier.covered]
        partial_nodes = list(frontier.partial)
        partial_stats = [node.stats for node in partial_nodes]
        bounds = hard_bounds(query.agg, covered_stats, partial_stats)

        processed = sum(
            self._leaf_samples[node.leaf_index].sample_size for node in partial_nodes
        )
        partial_population = sum(node.size for node in partial_nodes)
        skipped = self.population_size - partial_population

        agg = query.agg
        if agg in (AggregateType.MIN, AggregateType.MAX):
            return self._extremum_answer(
                agg, query, frontier, bounds, processed, skipped
            )
        if agg == AggregateType.AVG:
            estimate = self._avg_estimate(query, frontier)
        else:
            estimate = self._sum_count_estimate(agg, query, frontier)

        exact = frontier.is_exact
        if exact:
            half_width = 0.0
            variance = 0.0
        elif math.isnan(estimate.variance):
            half_width = float("nan")
            variance = float("nan")
        else:
            variance = estimate.variance
            half_width = lam * math.sqrt(max(variance, 0.0))
        return AQPResult(
            estimate=estimate.estimate,
            ci_half_width=half_width,
            variance=variance,
            hard_lower=bounds.lower,
            hard_upper=bounds.upper,
            tuples_processed=processed,
            tuples_skipped=skipped,
            exact=exact,
        )

    def sketch_union_object(
        self, query: AggregateQuery
    ) -> QuantileSketchUnion | DistinctSketchUnion:
        """:meth:`sketch_union` over the object frontier (the oracle).

        Walks node objects and strata to produce what the flat engine reads
        off its arrays — covered leaf indices and per-partial-leaf matched
        sample values — and hands them to the same merge loops.
        """
        frontier = self.lookup(query)
        covered_leaves = [
            node.leaf_index
            for covered in frontier.covered
            for node in covered.iter_subtree()
            if node.is_leaf
        ]

        def partial_leaves() -> Iterator[PartialLeaf]:
            for node in frontier.partial:
                if node.size == 0:
                    continue
                stratum = self._leaf_samples[node.leaf_index]
                matched = np.zeros(0, dtype=float)
                if stratum.sample_size:
                    matched = stratum.sample_values(self._value_column)[
                        stratum.match_mask(query)
                    ]
                yield (
                    node.leaf_index,
                    node.size,
                    node.stats.min,
                    node.stats.max,
                    stratum.sample_size,
                    matched,
                )

        return frontier_union(
            query.agg, self._leaf_sketches, covered_leaves, partial_leaves()
        )

    # ------------------------------------------------------------------
    # Estimation pieces
    # ------------------------------------------------------------------
    def _covered_sum_count(
        self, agg: AggregateType, covered: Sequence[PartitionNode]
    ) -> float:
        if agg == AggregateType.SUM:
            return sum(node.stats.sum for node in covered)
        return float(sum(node.stats.count for node in covered))

    def _partial_contribution(
        self,
        agg: AggregateType,
        query: AggregateQuery,
        node: PartitionNode,
    ) -> EstimateWithVariance:
        if node.size == 0:
            # An empty partition (possible for k-d leaves over sparse regions)
            # contributes exactly nothing.
            return EstimateWithVariance(0.0, 0.0)
        stratum = self._leaf_samples[node.leaf_index]
        match_mask = stratum.match_mask(query)
        if agg == AggregateType.SUM:
            return stratum_sum_contribution(
                stratum.sample_values(self._value_column),
                match_mask,
                node.size,
                with_fpc=self._with_fpc,
            )
        return stratum_count_contribution(
            match_mask, node.size, with_fpc=self._with_fpc
        )

    def _sum_count_estimate(
        self,
        agg: AggregateType,
        query: AggregateQuery,
        frontier: MCFResult,
    ) -> EstimateWithVariance:
        exact_part = self._covered_sum_count(agg, frontier.covered)
        total = EstimateWithVariance(exact_part, 0.0)
        for node in frontier.partial:
            contribution = self._partial_contribution(agg, query, node)
            if math.isnan(contribution.variance):
                # A partial leaf without samples: its contribution is unknown;
                # fall back to half of its hard-bound width as a conservative
                # point estimate with unknown variance.
                stats = node.stats
                midpoint = 0.5 * (
                    stats.sum if agg == AggregateType.SUM else stats.count
                )
                total = EstimateWithVariance(total.estimate + midpoint, float("nan"))
                continue
            total = total + contribution
        return total

    def _avg_estimate(
        self,
        query: AggregateQuery,
        frontier: MCFResult,
    ) -> EstimateWithVariance:
        """AVG as the ratio of the SUM and COUNT estimates (delta method)."""
        numerator = self._sum_count_estimate(AggregateType.SUM, query, frontier)
        denominator = self._sum_count_estimate(AggregateType.COUNT, query, frontier)
        if denominator.estimate == 0:
            return EstimateWithVariance(float("nan"), float("nan"))
        if frontier.is_exact:
            return EstimateWithVariance(numerator.estimate / denominator.estimate, 0.0)
        return ratio_estimate(numerator, denominator)

    def _extremum_answer(
        self,
        agg: AggregateType,
        query: AggregateQuery,
        frontier: MCFResult,
        bounds,
        processed: int,
        skipped: int,
    ) -> AQPResult:
        """MIN / MAX: exact over covered nodes, sample-refined over partial leaves."""
        candidates: list[float] = []
        for node in frontier.covered:
            value = node.stats.max if agg == AggregateType.MAX else node.stats.min
            if not math.isinf(value):
                candidates.append(value)
        for node in frontier.partial:
            stratum = self._leaf_samples[node.leaf_index]
            matched = stratum.sample_values(self._value_column)[
                stratum.match_mask(query)
            ]
            if matched.shape[0]:
                candidates.append(
                    float(matched.max() if agg == AggregateType.MAX else matched.min())
                )
        if candidates:
            estimate = max(candidates) if agg == AggregateType.MAX else min(candidates)
        else:
            estimate = float("nan")
        exact = frontier.is_exact
        return AQPResult(
            estimate=estimate,
            ci_half_width=0.0 if exact else float("nan"),
            variance=0.0 if exact else float("nan"),
            hard_lower=bounds.lower,
            hard_upper=bounds.upper,
            tuples_processed=processed,
            tuples_skipped=skipped,
            exact=exact,
        )
