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

All of it runs on flat arrays: a :class:`PASSSynopsis` is a
:class:`repro.core.soa.FlatSynopsis` (see ``docs/ARCHITECTURE.md``) plus the
two facts about its build the arrays do not carry (how long it took, which
partitioner ran).  It is constructed over a ``(header, arrays)`` pair only:
the one :func:`~repro.core.builder.build_pass` emits, a loaded file, a shard
built in another process (:meth:`PASSSynopsis.from_buffers`, the entry
persistence and the parallel builder dispatch on).  The per-node object
implementation the flat kernels are property-tested against, and the object
build they are held to, live in ``tests/oracle.py``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.soa import FlatFrontier, FlatSynopsis
from repro.query.predicate import Box
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.sketches.union import (
    DistinctSketchUnion,
    LeafSketches,
    QuantileSketchUnion,
)

__all__ = ["PASSSynopsis"]


class PASSSynopsis:
    """Precomputation-Assisted Stratified Sampling synopsis.

    Parameters
    ----------
    header / arrays:
        The :class:`FlatSynopsis` pair, whose header may also carry the two
        build facts: ``build_seconds`` (the wall-clock construction cost the
        builder records, reported in the cost tables; 0.0 when absent) and
        ``effective_partitioner`` (the partitioner the builder actually ran,
        which may differ from the configured one — 1-D optimizers fall back
        to ``"kd"`` on multi-dimensional inputs — ``"precomputed"`` when the
        leaf boxes were supplied, ``None`` when absent).
    """

    def __init__(self, header: Mapping, arrays: Mapping[str, np.ndarray]) -> None:
        self._flat = FlatSynopsis(header, arrays)
        self.build_seconds = float(header.get("build_seconds", 0.0))
        self.effective_partitioner = header.get("effective_partitioner")
        self._leaf_boxes: tuple[Box, ...] | None = None

    @classmethod
    def from_buffers(
        cls, header: Mapping, arrays: Mapping[str, np.ndarray]
    ) -> "PASSSynopsis":
        """A synopsis over the ``(header, arrays)`` of :meth:`export_buffers`.

        The arrays are taken by reference (see :class:`FlatSynopsis`): over a
        read-only mapping the synopsis is read-only.
        """
        return cls(header, arrays)

    def export_buffers(self) -> tuple[dict, dict[str, np.ndarray]]:
        """:meth:`FlatSynopsis.export_buffers` plus the two build facts."""
        header, arrays = self._flat.export_buffers()
        header["build_seconds"] = self.build_seconds
        header["effective_partitioner"] = self.effective_partitioner
        return header, arrays

    # ------------------------------------------------------------------
    # Introspection (read off the arrays)
    # ------------------------------------------------------------------
    @property
    def flat(self) -> FlatSynopsis:
        """The flat arrays and kernels this synopsis is."""
        return self._flat

    @property
    def leaf_boxes(self) -> tuple[Box, ...]:
        """The leaves' boxes in leaf-index order (immutable geometry)."""
        if self._leaf_boxes is None:
            self._leaf_boxes = self._flat.leaf_boxes()
        return self._leaf_boxes

    @property
    def zero_variance_rule(self) -> bool:
        """Whether AVG lookups apply the zero-variance descent rule (3.4)."""
        return self._flat.zero_variance_rule

    @property
    def leaf_sketches(self) -> list[LeafSketches] | None:
        """The per-leaf sketches (leaf-index order), or None when absent."""
        sketches = self._flat.leaf_sketches()
        return None if sketches is None else list(sketches)

    @property
    def has_sketches(self) -> bool:
        """True when the synopsis can answer QUANTILE / COUNT_DISTINCT."""
        return self._flat.has_sketches

    @property
    def value_column(self) -> str:
        """The aggregation column."""
        return self._flat.value_column

    @property
    def lam(self) -> float:
        """Default confidence-interval multiplier."""
        return self._flat.lam

    @property
    def with_fpc(self) -> bool:
        """Whether per-leaf estimates apply finite-population corrections."""
        return self._flat.with_fpc

    @property
    def n_partitions(self) -> int:
        """Number of leaf partitions."""
        return int(self._flat.sample_counts.shape[0])

    @property
    def population_size(self) -> int:
        """Number of tuples summarized by the synopsis (the root's COUNT)."""
        return self._flat.population_size

    @property
    def sample_size(self) -> int:
        """Total number of stored sample tuples across all leaves."""
        return self._flat.sample_size

    def storage_bytes(self) -> int:
        """Approximate footprint: tree aggregates, leaf samples, and sketches."""
        return self._flat.storage_bytes()

    # ------------------------------------------------------------------
    # Query processing (Section 3.3)
    # ------------------------------------------------------------------
    def query(self, query: AggregateQuery, lam: float | None = None) -> AQPResult:
        """Answer an aggregate query from the synopsis.

        Every aggregate runs the flat kernel (:meth:`FlatSynopsis.query`).
        ``lam`` optionally overrides the confidence-interval multiplier.
        """
        return self._flat.query(query, lam=lam)

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
        if frontier is None:
            frontier = self._flat.query_frontier(query)
        return self._flat.sketch_union(query, frontier)

    def skip_rate(self, query: AggregateQuery) -> float:
        """Fraction of dataset tuples whose contribution never touches samples."""
        return self._flat.skip_rate(query)
