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

All of it runs on flat arrays: a :class:`PASSSynopsis` *is* a
:class:`repro.core.soa.FlatSynopsis` (see ``docs/ARCHITECTURE.md``) over the
``(header, arrays)`` pair :func:`~repro.core.builder.build_pass` emits or a
loaded file holds (:meth:`PASSSynopsis.from_buffers`), and
:class:`~repro.core.updates.DynamicPASS` is a :class:`PASSSynopsis` that
takes updates.  The class adds no state: it is the static kind, whose drift
gauges are 0.0.  The per-node object implementation the flat kernels are
property-tested against, and the object build they are held to, live in
``tests/oracle.py``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.soa import FlatFrontier, FlatSynopsis
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.sketches.union import DistinctSketchUnion, QuantileSketchUnion

__all__ = ["PASSSynopsis"]


class PASSSynopsis(FlatSynopsis):
    """Precomputation-Assisted Stratified Sampling synopsis.

    Constructed like :class:`FlatSynopsis`, over a ``(header, arrays)``
    pair whose header may carry the build facts ``build_seconds`` and
    ``effective_partitioner``.
    """

    #: Drift gauges of a synopsis no update has touched (see
    #: :class:`~repro.core.updates.DynamicPASS`, which tracks them).
    staleness = sketch_staleness = extrema_staleness = 0.0

    @classmethod
    def from_buffers(
        cls, header: Mapping, arrays: Mapping[str, np.ndarray]
    ) -> "PASSSynopsis":
        """A synopsis over the ``(header, arrays)`` of :meth:`export_buffers`.

        The arrays are taken by reference (see :class:`FlatSynopsis`): over a
        read-only mapping the synopsis is read-only.
        """
        return cls(header, arrays)

    @property
    def flat(self) -> "PASSSynopsis":
        """This synopsis (the arrays are the synopsis; kept as an alias)."""
        return self

    # perfbench/layers.py (frozen by BENCHMARK.json) wraps the next two names
    # on this class and reads their spans around FlatSynopsis.query's; a later
    # `benchmark` PR removes them together with the harness rows.
    def query(self, query: AggregateQuery, lam: float | None = None) -> AQPResult:
        """Answer an aggregate query from the synopsis.

        Every aggregate runs the flat kernel (:meth:`FlatSynopsis.query`).
        ``lam`` optionally overrides the confidence-interval multiplier.
        """
        return super().query(query, lam=lam)

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
        return super().sketch_union(query, frontier)
