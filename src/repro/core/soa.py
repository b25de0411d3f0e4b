"""The PASS synopsis as flat arrays: its one state and its one executor.

A built synopsis *is* the handful of contiguous buffers described below
(:class:`FlatSynopsis`): :func:`repro.core.builder.build_pass` emits them
directly from one leaf-assignment pass over the table, and a fresh build, a
file loaded by ``mmap``, a pool worker's attachment of a published file and
a shard shipped across a process boundary all construct the same object from
the same ``(header, arrays)`` pair.  The hot kernels (frontier descent,
predicate mask evaluation, moment and extremum reductions) run over those
arrays with zero Python-object traversal: the partial-leaf kernels gather the
whole frontier's sample rows through one index, a 0.0 lead slot before each
leaf's rows, and reduce every leaf with one zero-led ``np.add.reduceat`` per
sum — numpy's pairwise sum of each leaf's slice, the summation contract, with
no per-leaf Python (:meth:`FlatSynopsis._frontier_gather`).  It is the only
executor of all seven aggregates:
SUM / COUNT / AVG / MIN / MAX reduce sample moments, QUANTILE /
COUNT_DISTINCT reduce the per-leaf sketches along the same frontier
(:meth:`FlatSynopsis.sketch_union`).

Layout (the array keys of :meth:`FlatSynopsis.export_buffers`; specified
normatively, with the file / segment framing, in ``docs/ARCHITECTURE.md``):

* **Node order** — every per-node array is indexed by the tree's *geometry
  order*: the stack-pop order of the sequential MCF descent (root first,
  children pushed left-to-right and popped in reverse).  Ascending row order
  therefore *is* the reference descent's visit order, which is what makes
  frontier extraction order-preserving.
* **Stats** — ``node_sum`` / ``node_min`` / ``node_max`` (float64) and
  ``node_count`` (int64); an insert / delete rewrites them along the
  ``parent`` chain (:meth:`FlatSynopsis.add_value` / ``remove_value``).
* **Topology** — ``parent`` / ``parent0`` (the root pointing at itself),
  ``is_leaf``, ``leaf_of_row`` and ``depth``.
* **Bounds** — ``col_lows`` / ``col_highs``: one contiguous float64 row *per
  predicate column* (±inf where a node's box does not constrain the column).
* **Samples** — CSR: ``sample_offsets`` (int64, ``n_leaves + 1``) into one
  concatenated float64 ``sample/<column>`` array per sample column; leaf
  ``i`` owns ``column[offsets[i]:offsets[i + 1]]``.  That is the exported
  (compact) form.  In memory the offsets are *slot* starts and the per-leaf
  ``sample_counts`` are kept beside them: leaf ``i``'s rows are the first
  ``counts[i]`` of its slots, and the kernels read exactly those.  Only a
  writable synopsis a :class:`~repro.core.updates.DynamicPASS` owns reserves
  spare slots (:meth:`FlatSynopsis.reserve_sample_slots`), so that a
  reservoir insert writes its one row in place and a delete shifts rows
  inside its own leaf; a static synopsis' slots are its rows.
* **Shards** — a sharded synopsis (:mod:`repro.distributed.sharded`) is one
  stitched tree whose root's children are the shards' subtrees; its header
  carries the routing (``sharding``) and ``shard_rows`` (int64, ``n_shards
  x 2``) each shard's contiguous node-row range.  Hash shards overlap in key
  space, so a point predicate on the shard column keeps only its owning
  shard's rows of the frontier (:meth:`FlatSynopsis.frontier`).
* **Sketches** — ragged-packed under ``sketch/<key>``
  (:func:`repro.sketches.union.pack_leaf_sketches`) and unpacked into
  ``LeafSketches`` objects on the first sketch query or update; from then on
  the objects are the sketches' state (``DynamicPASS`` updates them) and an
  export packs them again.

An instance is read-only iff its arrays are (views over a read-only mapping);
:class:`~repro.core.updates.DynamicPASS` copies a mapping's arrays to get
writable ones.  It routes a tuple over the leaf rows' bounds
(:meth:`FlatSynopsis.leaf_for_point`), adds or removes its value along the
leaf's memoised ``parent`` chain and writes or drops one row of the leaf's
slots (:meth:`FlatSynopsis.put_sample_row` / ``drop_sample_row``), all in
place: an update costs O(depth + one leaf), whatever the synopsis' size.

Equivalence contract: every answer produced here is **bit-identical** to the
reference object descent in ``tests/oracle.py`` run over the node / stratum
objects the same arrays decode to — same covered/partial order, same
floating-point summation order, same sketch merge order, same
``nodes_visited`` — enforced by ``tests/test_soa_equivalence.py``.

The frontier uses a closed form instead of replaying the descent: box
nesting means a predicate that covers (or misses) a node also covers
(misses) all of its descendants, so — absent zero-variance stops — a node
is *visited* iff its parent is partially overlapped, making the MCF
``covered = cover & partial[parent]`` and ``partial = partial & is_leaf``
with no level-by-level loop.  When the AVG zero-variance rule could stop
the descent early (some partially-overlapped node has ``min == max``), the
code falls back to an exact level-order replay of the descent
(:meth:`FlatSynopsis._replay_frontier`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.aggregation.partition import PartitionStats
from repro.data.hashing import splitmix64_scalar
from repro.aggregation.strat_agg import HardBounds
from repro.query.aggregates import AggregateType, empty_group_result
from repro.query.predicate import Box, Interval, RectPredicate
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.sampling.estimators import (
    EstimateWithVariance,
    finite_population_correction,
    ratio_estimate,
)
from repro.sketches.union import (
    DistinctSketchUnion,
    LeafSketches,
    PartialLeaf,
    QuantileSketchUnion,
    frontier_union,
    pack_leaf_sketches,
    sketch_union_result,
    unpack_leaf_sketches,
)

__all__ = ["FlatFrontier", "FlatSamples", "FlatSynopsis"]

_NO_VALUES = np.zeros(0, dtype=float)

#: Frontiers with at most this many partial leaves — every frontier of a 1-D
#: synopsis — are answered leaf by leaf with the scalar replicas below: a
#: frontier gather cannot amortise anything over three leaves or fewer.  A
#: property of the input, not an option (measurement in
#: ``docs/ARCHITECTURE.md``); both partial-leaf kernels branch on it.
_SCALAR_FRONTIER_LEAVES = 3

#: :meth:`FlatSynopsis.frontiers_for` broadcasts at most this many
#: (predicate, node) cells at a time: a handful of boolean matrices of this
#: size are its only temporaries, whatever the batch size.
_BROADCAST_CELLS = 1 << 18

_READ_ONLY = (
    "this FlatSynopsis views read-only buffers: update the instance that owns them"
)

#: The array keys every ``(header, arrays)`` pair carries (``sample/<column>``
#: and ``sketch/<key>`` follow the header's name lists).
_KERNEL_ARRAYS = (
    "node_sum",
    "node_count",
    "node_min",
    "node_max",
    "parent",
    "parent0",
    "is_leaf",
    "leaf_of_row",
    "depth",
    "col_lows",
    "col_highs",
    "sample_offsets",
)


def _fast_mean(values: np.ndarray) -> float:
    """``float(values.mean())`` without the ``np.mean`` dispatch overhead.

    ``ndarray.mean`` reduces with ``umr_sum`` — the very ufunc reachable as
    ``np.add.reduce`` (same pairwise summation) — then divides by the count,
    so this replica is bit-identical while skipping ~10µs of numpy dispatch
    per call.  The caller guarantees ``values`` is non-empty float64.
    """
    return float(np.add.reduce(values) / values.shape[0])


def _fast_var(values: np.ndarray) -> float:
    """``float(np.var(values))`` (ddof=0) as raw ufunc calls, bit-identical.

    Mirrors numpy's ``_var``: mean via ``umr_sum / n``, squared deviations
    in place, reduced by the same pairwise sum.  The caller guarantees at
    least two float64 elements.  ``values`` is not modified.
    """
    n = values.shape[0]
    mean = np.add.reduce(values) / n
    deviations = values - mean
    np.multiply(deviations, deviations, out=deviations)
    return float(np.add.reduce(deviations) / n)


def _row_index(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(loc, index)``: the slots of ``counts[i]`` rows from ``starts[i]``.

    ``index`` lists every leaf's row slots, leaf after leaf, so
    ``column.take(index)`` concatenates the leaves' rows; leaf ``i`` owns
    positions ``loc[i]:loc[i + 1]`` of it.  Built with ``cumsum`` /
    ``repeat`` / ``arange``.
    """
    loc = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=loc[1:])
    index = np.arange(loc[-1])
    index += np.repeat(starts - loc[:-1], counts)
    return loc, index


def _row_nonzeros(mask: np.ndarray) -> list[np.ndarray]:
    """``np.flatnonzero`` of each row of a 2-D boolean matrix.

    One ``flatnonzero`` over the whole matrix, cut at the row starts: on a
    wide matrix several times cheaper than a 2-D ``np.nonzero``.
    """
    n_rows, width = mask.shape
    flat = np.flatnonzero(mask)
    cuts = flat.searchsorted(np.arange(n_rows + 1) * width).tolist()
    columns = flat % width
    return [columns[start:stop] for start, stop in zip(cuts, cuts[1:])]


def _stratum_contribution(
    data: np.ndarray, size: int, with_fpc: bool
) -> tuple[float, float]:
    """One partial leaf's SUM / COUNT contribution ``(estimate, variance)``.

    ``data`` is the leaf's non-empty float64 sample of ``Predicate * a`` (SUM)
    or ``Predicate`` (COUNT).  Bit-identical replica of
    :func:`repro.sampling.estimators.stratum_sum_contribution` /
    ``stratum_count_contribution`` minus the defensive ``asarray`` casts.
    """
    sample_size = data.shape[0]
    estimate = _fast_mean(data) * size
    sample_variance = 0.0 if sample_size <= 1 else _fast_var(data)
    variance = (size**2) * sample_variance / sample_size
    if with_fpc:
        variance *= finite_population_correction(size, sample_size)
    return estimate, variance


class _RowBounds:
    """:func:`~repro.aggregation.strat_agg.hard_bounds` of one frontier's rows.

    Faithful replication — Python-scalar ``sum`` / ``min`` / ``max`` in row
    order after dropping empty partitions, sums started at ``0.0`` so a
    bound is a float even over no non-empty row — so every bound is
    bit-identical to that function's over the same statistics.  ``partial``
    holds the partial rows' counts and sums (the lists the estimators read);
    every other per-row list is built on first use, and all are kept, so the
    SUM, COUNT and AVG of one frontier share them.  ``empty`` is true when
    no covered or partial row holds a tuple.
    """

    __slots__ = ("_flat", "_rows", "_partial_sums", "_counts", "_lists", "empty")

    def __init__(
        self,
        flat: FlatSynopsis,
        covered_rows: np.ndarray,
        partial_rows: np.ndarray,
        partial: tuple[list[int], list[float], list[int]],
    ) -> None:
        self._flat = flat
        # Indexed by ``covered``: the partial rows, then the covered.
        self._rows = (partial_rows, covered_rows)
        self._partial_sums = partial[1]
        self._counts = (partial[0], flat._node_count[covered_rows].tolist())
        self._lists: dict[tuple[str, bool], list[float]] = {}
        self.empty = not (any(self._counts[0]) or any(self._counts[1]))

    def _values(self, stats: str, covered: bool) -> list[float]:
        """Node array ``stats`` over the non-empty covered (or partial) rows."""
        key = (stats, covered)
        values = self._lists.get(key)
        if values is None:
            if stats == "_node_sum" and not covered:
                column = self._partial_sums
            else:
                column = getattr(self._flat, stats)[self._rows[covered]].tolist()
            counts = self._counts[covered]
            values = self._lists[key] = (
                column
                if all(counts)
                else [value for value, count in zip(column, counts) if count]
            )
        return values

    def bounds(self, agg: AggregateType) -> HardBounds:
        """The hard bounds of ``agg`` over the frontier."""
        values = self._values
        counts_par, counts_cov = self._counts
        if agg == AggregateType.SUM:
            covered_total = sum(values("_node_sum", True), 0.0)
            partial_total = sum(values("_node_sum", False), 0.0)
            return HardBounds(
                lower=covered_total, upper=covered_total + partial_total
            )
        if agg == AggregateType.COUNT:
            covered_total = sum((float(n) for n in counts_cov if n), 0.0)
            partial_total = sum((float(n) for n in counts_par if n), 0.0)
            return HardBounds(
                lower=covered_total, upper=covered_total + partial_total
            )

        if agg == AggregateType.AVG:
            has_partial = any(counts_par)
            if has_partial:
                partial_max = max(values("_node_max", False))
                partial_min = min(values("_node_min", False))
            if any(counts_cov):
                covered_avg = sum(values("_node_sum", True)) / sum(counts_cov)
                if has_partial:
                    return HardBounds(
                        lower=min(covered_avg, partial_min),
                        upper=max(covered_avg, partial_max),
                    )
                return HardBounds(lower=covered_avg, upper=covered_avg)
            if has_partial:
                return HardBounds(lower=partial_min, upper=partial_max)
            return HardBounds(lower=math.nan, upper=math.nan)

        if agg in (AggregateType.MAX, AggregateType.MIN):
            has_covered = any(counts_cov)
            if not has_covered and not any(counts_par):
                return HardBounds(lower=math.nan, upper=math.nan)
            if agg == AggregateType.MAX:
                covered_max = max(values("_node_max", True), default=-math.inf)
                partial_max = max(values("_node_max", False), default=-math.inf)
                lower = covered_max if has_covered else -math.inf
                return HardBounds(lower=lower, upper=max(covered_max, partial_max))
            covered_min = min(values("_node_min", True), default=math.inf)
            partial_min = min(values("_node_min", False), default=math.inf)
            upper = covered_min if has_covered else math.inf
            return HardBounds(lower=min(covered_min, partial_min), upper=upper)

        raise ValueError(f"unsupported aggregate: {agg!r}")


@dataclass(frozen=True)
class FlatFrontier:
    """An MCF result as geometry-order node rows instead of node objects.

    ``covered`` / ``partial`` hold ascending node-row indices; because
    geometry order equals the reference descent's visit order, iterating
    them reproduces its covered/partial order exactly.
    """

    covered: np.ndarray
    partial: np.ndarray
    nodes_visited: int

    @property
    def is_exact(self) -> bool:
        """True when no partially-overlapped leaf remains (exact answer)."""
        return self.partial.shape[0] == 0


@dataclass
class FlatSamples:
    """CSR leaf samples: per-column concatenated values plus slot offsets.

    ``offsets`` has ``n_leaves + 1`` entries; leaf ``i`` owns the slots
    ``columns[c][offsets[i]:offsets[i + 1]]`` of every sample column ``c``,
    and its sample is the first ``sample_counts[i]`` of them (the counts
    live on :class:`FlatSynopsis`).  The slots beyond a leaf's rows are
    *slack*: reserved for a :class:`~repro.core.updates.DynamicPASS` by
    :meth:`FlatSynopsis.reserve_sample_slots`, never read by a kernel, and
    dropped by :meth:`FlatSynopsis.export_buffers`, whose offsets are always
    compact.  A static synopsis has no slack.
    """

    offsets: np.ndarray
    columns: dict[str, np.ndarray]


class FlatSynopsis:
    """A PASS synopsis: structure-of-arrays state plus the kernels over it.

    Constructed over a ``(header, arrays)`` pair — the builder's for a
    fresh build, :meth:`export_buffers`' of another instance, or views parsed
    out of a mapped file — taking every kernel array
    *by reference*: no sample or statistic array is copied, so a reader
    serves queries over a mapping without duplicating the synopsis.  Derived
    index structures (descent levels from the depth array, per-leaf sample
    counts from the CSR offsets) are the only allocations, both O(nodes); the
    packed sketches are unpacked into sketch objects (the one copy) on the
    first sketch query, and the update path's leaf index (leaf rows, their
    bounds, memoised root paths) is built on the first update.

    The arrays are the synopsis' one mutable state, written only by
    :meth:`add_value`, :meth:`remove_value`, :meth:`put_sample_row`,
    :meth:`drop_sample_row`, :meth:`replace_leaf_sample` and
    :meth:`reserve_sample_slots`; over read-only arrays those raise
    ``TypeError`` — writers update their own instance and publish or save it
    afresh.  :meth:`query` /
    :meth:`answer` return answers bit-identical to the reference object
    descent for all seven aggregates (see the module docstring for the
    contract); the grouped kernels agree with it up to floating-point
    summation order.

    Parameters
    ----------
    header:
        The scalar configuration (value column, lambda, zero-variance rule,
        FPC flag) plus the ordered predicate-column, sample-column and
        sketch-key name lists that give the anonymous arrays meaning
        (``sketch_keys`` is empty for a synopsis without sketches), and the
        two build facts every export writes back: ``build_seconds`` (0.0
        when absent) and ``effective_partitioner`` (the partitioner the
        builder ran, e.g. ``"kd"`` for a 1-D optimizer given several
        columns, ``"precomputed"`` for supplied boxes; ``None`` if absent).
    arrays:
        The buffers listed in the module docstring.  ``ValueError`` when a
        kernel array the header implies is missing, or when the samples or
        sketches are not one per leaf.
    """

    def __init__(self, header: Mapping, arrays: Mapping[str, np.ndarray]) -> None:
        sample_columns = [str(column) for column in header["sample_columns"]]
        sketch_keys = [str(key) for key in header["sketch_keys"]]
        packed_keys = ["lengths", *sketch_keys] if sketch_keys else []
        missing = [
            key
            for key in (
                *_KERNEL_ARRAYS,
                *(f"sample/{column}" for column in sample_columns),
                *(f"sketch/{key}" for key in packed_keys),
            )
            if key not in arrays
        ]
        sharding = header.get("sharding")
        if sharding is not None and "shard_rows" not in arrays:
            missing.append("shard_rows")
        if missing:
            raise ValueError(f"synopsis buffers lack the arrays {missing}")
        #: A sharded synopsis' routing and shard row ranges (see the module
        #: docstring); None / None for any other synopsis.
        self._sharding = sharding
        self._shard_rows = arrays["shard_rows"] if sharding is not None else None
        self._value_column = str(header["value_column"])
        self._lam = float(header["lam"])
        self._zero_variance_rule = bool(header["zero_variance_rule"])
        self._with_fpc = bool(header["with_fpc"])
        self.build_seconds = float(header.get("build_seconds", 0.0))
        self.effective_partitioner = header.get("effective_partitioner")

        self._node_sum = arrays["node_sum"]
        self._node_count = arrays["node_count"]
        self._node_min = arrays["node_min"]
        self._node_max = arrays["node_max"]
        n = int(self._node_sum.shape[0])
        self._n_nodes = n
        self._zv_cache: np.ndarray | None = None

        self._parent = arrays["parent"]
        self._parent0 = arrays["parent0"]
        self._is_leaf = arrays["is_leaf"]
        self._leaf_of_row = arrays["leaf_of_row"]
        self._depth = arrays["depth"]
        self._levels = tuple(
            np.flatnonzero(self._depth == level_depth)
            for level_depth in range(int(self._depth.max()) + 1 if n else 0)
        )
        columns = [str(column) for column in header["columns"]]
        self._column_index = {column: c for c, column in enumerate(columns)}
        #: Bounds as ``(n_columns, n_nodes)`` matrices (the export and the
        #: leaf index read them) and as one contiguous row per column (the
        #: frontier kernels, :meth:`frontier` and :meth:`frontiers_for`).
        self._bounds = (arrays["col_lows"], arrays["col_highs"])
        self._col_lows = tuple(self._bounds[0][c] for c in range(len(columns)))
        self._col_highs = tuple(self._bounds[1][c] for c in range(len(columns)))

        offsets = arrays["sample_offsets"]
        n_leaves = int(np.count_nonzero(self._is_leaf))
        per_leaf = {"leaf samples": offsets.shape[0] - 1}
        if sketch_keys:
            per_leaf["leaf sketches"] = arrays["sketch/lengths"].shape[0]
        for kind, rows in per_leaf.items():
            if rows != n_leaves:
                raise ValueError(f"the tree has {n_leaves} leaves but {rows} {kind}")
        self._samples = FlatSamples(
            offsets=offsets,
            columns={column: arrays[f"sample/{column}"] for column in sample_columns},
        )
        self._sample_counts = np.diff(offsets)
        #: Per-leaf ``(MIN, MAX)`` of the value column's sample rows, derived
        #: and never exported: built on the first MIN / MAX that can prune
        #: (:meth:`_leaf_sample_extrema`), then kept by the sample writers.
        self._sample_extrema: tuple[np.ndarray, np.ndarray] | None = None
        #: The update path's index, built on first use: the leaves' node rows
        #: in leaf-index order, the leaf rows' bounds in geometry order, and
        #: one memoised leaf-to-root row path per updated leaf.
        self._leaf_row_index: np.ndarray | None = None
        self._leaf_boxes: tuple[Box, ...] | None = None
        self._leaf_bounds: tuple[np.ndarray, ...] | None = None
        self._leaf_paths: dict[int, np.ndarray] = {}

        self._leaf_sketches: list[LeafSketches] | None = None
        #: ``(sketch keys, arrays)`` until the first sketch use unpacks them.
        self._packed_sketches: tuple[list[str], Mapping[str, np.ndarray]] | None = (
            (sketch_keys, arrays) if sketch_keys else None
        )
        self._leaf_spans: tuple[list[int], np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Export and introspection
    # ------------------------------------------------------------------
    def export_buffers(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Export the synopsis state as ``(header, arrays)`` flat buffers.

        The returned arrays are exactly the contiguous buffers the query
        kernels read — node statistics, descent topology, column-major bound
        rows, and the CSR samples — plus the per-leaf sketches ragged-packed
        under ``sketch/<key>``, with the build facts in the header, so
        constructing a :class:`FlatSynopsis` over them (or over
        byte-identical copies, e.g. views into a mapped file) gives an
        engine whose answers are bit-identical to this one.

        Arrays holding mutable state (node stats, samples, sketches) are
        snapshot copies, so later dynamic updates to this instance do not
        mutate the export; the immutable topology and bounds are shared.
        The samples are exported compact — slack slots dropped, offsets the
        running sum of ``sample_counts`` — so the bytes do not depend on
        whether an updater reserved slots.
        """
        samples = self._compact_samples()
        header = {
            "value_column": self._value_column,
            "lam": self._lam,
            "zero_variance_rule": self._zero_variance_rule,
            "with_fpc": self._with_fpc,
            "columns": list(self._column_index),
            "sample_columns": list(samples.columns),
            "sketch_keys": [],
            "build_seconds": self.build_seconds,
            "effective_partitioner": self.effective_partitioner,
        }
        arrays: dict[str, np.ndarray] = {
            "node_sum": self._node_sum.copy(),
            "node_count": self._node_count.copy(),
            "node_min": self._node_min.copy(),
            "node_max": self._node_max.copy(),
            "parent": self._parent,
            "parent0": self._parent0,
            "is_leaf": self._is_leaf,
            "leaf_of_row": self._leaf_of_row,
            "depth": self._depth,
            "col_lows": self._bounds[0],
            "col_highs": self._bounds[1],
            "sample_offsets": samples.offsets,
        }
        for column, values in samples.columns.items():
            arrays[f"sample/{column}"] = values
        if self._sharding is not None:
            header["sharding"] = self._sharding
            arrays["shard_rows"] = self._shard_rows
        if self._packed_sketches is not None:
            keys, packed = self._packed_sketches
            header["sketch_keys"] = list(keys)
            arrays["sketch/lengths"] = packed["sketch/lengths"]
            arrays.update((f"sketch/{key}", packed[f"sketch/{key}"]) for key in keys)
        elif self._leaf_sketches is not None:
            header["sketch_keys"], packed = pack_leaf_sketches(self._leaf_sketches)
            arrays.update(packed)
        return header, arrays

    @property
    def value_column(self) -> str:
        """The aggregation column."""
        return self._value_column

    @property
    def lam(self) -> float:
        """Default confidence-interval multiplier."""
        return self._lam

    @property
    def zero_variance_rule(self) -> bool:
        """Whether AVG lookups apply the zero-variance descent rule (3.4)."""
        return self._zero_variance_rule

    @property
    def with_fpc(self) -> bool:
        """Whether per-leaf estimates apply finite-population corrections."""
        return self._with_fpc

    @property
    def columns(self) -> list[str]:
        """The predicate columns the node boxes bound, in bound-array order."""
        return list(self._column_index)

    @property
    def has_sketches(self) -> bool:
        """True when the synopsis can answer QUANTILE / COUNT_DISTINCT."""
        return self._leaf_sketches is not None or self._packed_sketches is not None

    @property
    def sample_size(self) -> int:
        """Total number of stored sample tuples across all leaves."""
        return int(self._sample_counts.sum())

    def _leaf_rows(self) -> np.ndarray:
        """The leaves' node rows in leaf-index order (memoised)."""
        rows = self._leaf_row_index
        if rows is None:
            rows = np.flatnonzero(self._is_leaf)
            rows = rows[np.argsort(self._leaf_of_row[rows])]
            self._leaf_row_index = rows
        return rows

    def leaf_populations(self) -> np.ndarray:
        """Per-leaf tuple counts (the leaf rows' COUNT) in leaf-index order."""
        return self._node_count[self._leaf_rows()]

    @property
    def leaf_boxes(self) -> tuple[Box, ...]:
        """The leaves' boxes in leaf-index order (decoded once, immutable)."""
        if self._leaf_boxes is None:
            rows = self._leaf_rows()
            lows, highs = (bounds[:, rows].T.tolist() for bounds in self._bounds)
            self._leaf_boxes = tuple(
                Box(
                    {
                        column: Interval(low[c], high[c])
                        for column, c in self._column_index.items()
                    }
                )
                for low, high in zip(lows, highs)
            )
        return self._leaf_boxes

    @property
    def n_partitions(self) -> int:
        """Number of leaf partitions."""
        return int(self._sample_counts.shape[0])

    def storage_bytes(self) -> int:
        """Approximate footprint: node aggregates and bounds, samples, sketches.

        Four 8-byte statistics plus a low / high pair per predicate column
        for every node, the sample rows' bytes (rows, not slots: the compact
        export's), and the retained items of the per-leaf sketches.
        """
        nodes = self._n_nodes * (4 * 8 + 2 * 8 * len(self._column_index))
        samples = self.sample_size * sum(
            values.itemsize for values in self._samples.columns.values()
        )
        sketches = sum(leaf.storage_bytes() for leaf in self.leaf_sketches() or ())
        return nodes + samples + sketches

    # ------------------------------------------------------------------
    # Updates (driven by repro.core.updates.DynamicPASS)
    # ------------------------------------------------------------------
    @property
    def population_size(self) -> int:
        """Number of tuples summarized (the root's COUNT)."""
        return int(self._node_count[0])

    @property
    def sample_counts(self) -> np.ndarray:
        """Per-leaf sample sizes in leaf-index order (a read-only view)."""
        counts = self._sample_counts.view()
        counts.flags.writeable = False
        return counts

    def leaf_for_point(self, point: Mapping[str, float]) -> int:
        """Index of the leaf whose box contains ``point`` — the one routing.

        Only the columns the geometry knows are tested, so ``point`` may be a
        whole row or name a subset of the predicate columns.  Of several
        containing leaves (shared closed bounds, partial points) the first in
        the tree's left-to-right order wins: the *last* containing leaf row,
        geometry order being right to left.  ``KeyError`` when none does (a
        NaN coordinate is inside no interval).  Only the leaf rows' bounds
        are tested.
        """
        return self._leaf_among(point, 0, self._n_nodes)

    def _leaf_among(self, point: Mapping[str, float], start: int, stop: int) -> int:
        """:meth:`leaf_for_point` over the leaves in node rows ``[start, stop)``."""
        bounds = self._leaf_bounds
        if bounds is None:
            rows = np.flatnonzero(self._is_leaf)
            bounds = (
                rows,
                self._leaf_of_row[rows],
                self._bounds[0][:, rows],
                self._bounds[1][:, rows],
            )
            self._leaf_bounds = bounds
        rows, leaves, lows, highs = bounds
        if start or stop < self._n_nodes:
            first, last = rows.searchsorted([start, stop]).tolist()
            leaves = leaves[first:last]
            lows, highs = lows[:, first:last], highs[:, first:last]
        inside = np.ones(leaves.shape[0], dtype=bool)
        for column, c in self._column_index.items():
            if column in point:
                value = point[column]
                inside &= lows[c] <= value
                inside &= value <= highs[c]
        hits = np.flatnonzero(inside)
        if not hits.shape[0]:
            raise KeyError(f"no leaf contains point {dict(point)!r}")
        return int(leaves[hits[-1]])

    def node_stats(
        self, rows: np.ndarray | slice = slice(None)
    ) -> list[PartitionStats]:
        """:class:`PartitionStats` of node ``rows`` (default: all, row order)."""
        columns = (self._node_sum, self._node_count, self._node_min, self._node_max)
        return [
            PartitionStats(*stats)
            for stats in zip(*(column[rows].tolist() for column in columns))
        ]

    def leaf_stats(self, leaf: int) -> PartitionStats:
        """The current SUM / COUNT / MIN / MAX of leaf ``leaf``."""
        return self.node_stats(self._leaf_rows()[leaf : leaf + 1])[0]

    def _leaf_path(self, leaf: int) -> np.ndarray:
        """Node rows from leaf ``leaf`` up the ``parent`` chain to the root.

        Memoised per leaf: the topology never changes.
        """
        path = self._leaf_paths.get(leaf)
        if path is None:
            if not 0 <= leaf < self._sample_counts.shape[0]:
                raise IndexError(f"leaf index {leaf} out of range")
            rows = [int(self._leaf_rows()[leaf])]
            while rows[-1]:
                rows.append(int(self._parent[rows[-1]]))
            path = self._leaf_paths[leaf] = np.array(rows)
        return path

    def _begin_stats_write(self, leaf: int) -> np.ndarray:
        """:meth:`_leaf_path` of a leaf whose statistics are about to change."""
        if not self._node_sum.flags.writeable:
            raise TypeError(_READ_ONLY)
        self._zv_cache = None
        return self._leaf_path(leaf)

    def add_value(self, leaf: int, value: float) -> None:
        """``PartitionStats.add_value`` on leaf ``leaf`` and every ancestor.

        The same IEEE operations: ``sum + value``, ``count + 1``, and MIN /
        MAX move only when ``value`` compares strictly beyond them (a NaN
        never becomes an extremum).
        """
        rows = self._begin_stats_write(leaf)
        self._node_sum[rows] += value
        self._node_count[rows] += 1
        mins, maxs = self._node_min[rows], self._node_max[rows]
        self._node_min[rows] = np.where(value < mins, value, mins)
        self._node_max[rows] = np.where(value > maxs, value, maxs)

    def remove_value(self, leaf: int, value: float) -> None:
        """``PartitionStats.remove_value`` on leaf ``leaf`` and every ancestor.

        ``sum - value`` and ``count - 1`` with MIN / MAX kept (conservative);
        a node left without tuples gets the empty statistics.
        """
        rows = self._begin_stats_write(leaf)
        if not self._node_count[rows[0]]:
            raise ValueError("cannot remove a value from an empty partition")
        self._node_sum[rows] -= value
        self._node_count[rows] -= 1
        emptied = rows[self._node_count[rows] == 0]
        self._node_sum[emptied] = 0.0
        self._node_min[emptied] = np.inf
        self._node_max[emptied] = -np.inf

    def leaf_sample(self, leaf: int) -> dict[str, np.ndarray]:
        """Leaf ``leaf``'s sample rows: one read-only CSR view per column.

        The views alias the synopsis' slots, so a later update to the leaf
        shows through them; copy what must outlive one.
        """
        start = int(self._samples.offsets[leaf])
        stop = start + int(self._sample_counts[leaf])
        views = {c: values[start:stop] for c, values in self._samples.columns.items()}
        for view in views.values():
            view.flags.writeable = False
        return views

    def _begin_sample_write(self, leaf: int) -> tuple[int, int, int]:
        """``(first slot, rows, slots)`` of a leaf whose rows are about to change."""
        samples = self._samples
        if not samples.offsets.flags.writeable:
            raise TypeError(_READ_ONLY)
        if not 0 <= leaf < self._sample_counts.shape[0]:
            raise IndexError(f"leaf index {leaf} out of range")
        start, stop = samples.offsets[leaf : leaf + 2].tolist()
        return start, int(self._sample_counts[leaf]), stop - start

    def replace_leaf_sample(
        self, leaf: int, columns: Mapping[str, np.ndarray]
    ) -> None:
        """Replace leaf ``leaf``'s sample rows with exactly ``columns``.

        ``columns`` carries every CSR sample column, all of one length, and
        becomes the leaf's rows *and* slots: a length equal to the leaf's
        slot count is written in place; otherwise the columns are spliced
        and the slot starts after the leaf shifted, so every other leaf
        keeps its rows and slots bit for bit.  The one-row updates of a
        reserved synopsis go through :meth:`put_sample_row` /
        :meth:`drop_sample_row` instead.
        """
        start, _, slots = self._begin_sample_write(leaf)
        samples = self._samples
        rows = {c: np.asarray(columns[c], dtype=float) for c in samples.columns}
        length = next(iter(rows.values())).shape[0]
        if any(values.shape != (length,) for values in rows.values()):
            raise ValueError("sample columns must be 1-D and of one length")
        if length == slots:
            for column, values in samples.columns.items():
                values[start : start + slots] = rows[column]
        else:
            offsets = samples.offsets.copy()
            offsets[leaf + 1 :] += length - slots
            self._samples = FlatSamples(
                offsets,
                {
                    c: np.concatenate(
                        [values[:start], rows[c], values[start + slots :]]
                    )
                    for c, values in samples.columns.items()
                },
            )
        self._sample_counts[leaf] = length
        self._refresh_sample_extrema(leaf)

    def put_sample_row(
        self, leaf: int, position: int, row: Mapping[str, float]
    ) -> None:
        """Write ``row`` as leaf ``leaf``'s sample row ``position``.

        ``position`` is an existing row (overwritten) or the leaf's row count
        (appended).  An append into a free slot, like an overwrite, writes
        one value per column in place; a leaf without a free slot grows its
        slots by a :meth:`replace_leaf_sample` splice.
        """
        start, count, slots = self._begin_sample_write(leaf)
        if not 0 <= position <= count:
            raise IndexError(f"sample row {position} out of range")
        if position == slots:
            grown = {
                c: np.append(values, row[c])
                for c, values in self.leaf_sample(leaf).items()
            }
            self.replace_leaf_sample(leaf, grown)
            return
        for column, values in self._samples.columns.items():
            values[start + position] = row[column]
        if position == count:
            self._sample_counts[leaf] = count + 1
        self._refresh_sample_extrema(leaf)

    def drop_sample_row(self, leaf: int, position: int) -> None:
        """Remove leaf ``leaf``'s sample row ``position``, keeping row order.

        The rows after it shift down one slot inside the leaf; the freed
        last slot becomes slack.
        """
        start, count, _ = self._begin_sample_write(leaf)
        if not 0 <= position < count:
            raise IndexError(f"sample row {position} out of range")
        first, stop = start + position, start + count
        for values in self._samples.columns.values():
            values[first : stop - 1] = values[first + 1 : stop]
        self._sample_counts[leaf] = count - 1
        self._refresh_sample_extrema(leaf)

    def reserve_sample_slots(self, slots: np.ndarray) -> None:
        """Give leaf ``i`` at least ``slots[i]`` sample slots (one relayout).

        Each leaf keeps its rows and gets ``max(slots[i], rows)`` slots, so
        that :meth:`put_sample_row` appends in place up to that many rows.
        The columns and offsets are new arrays owned by this instance; the
        slack slots hold zeros and are never read.  No leaf's rows change,
        so neither do its sample extrema.
        """
        samples = self._samples
        if not samples.offsets.flags.writeable:
            raise TypeError(_READ_ONLY)
        counts = self._sample_counts
        offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.maximum(slots, counts), out=offsets[1:])
        _, source = _row_index(samples.offsets[:-1], counts)
        _, target = _row_index(offsets[:-1], counts)
        columns = {}
        for column, values in samples.columns.items():
            slotted = np.zeros(int(offsets[-1]))
            slotted[target] = values.take(source)
            columns[column] = slotted
        self._samples = FlatSamples(offsets, columns)

    def _leaf_sample_extrema(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-leaf ``(MIN, MAX)`` of the value column's sample rows.

        NaN-propagating like ``np.minimum.reduce`` / ``np.maximum.reduce``
        (a leaf whose sample holds a NaN has NaN extrema), ``(inf, -inf)``
        for an empty sample.  Built over every leaf on first use; from then
        on each sample writer refreshes its own leaf
        (:meth:`_refresh_sample_extrema`).  Derived state: new arrays owned
        by this instance, also over read-only buffers, and never exported.
        """
        extrema = self._sample_extrema
        if extrema is None:
            counts = self._sample_counts
            lows = np.full(counts.shape[0], np.inf)
            highs = np.full(counts.shape[0], -np.inf)
            sampled = np.flatnonzero(counts)
            if sampled.shape[0]:
                loc, index = _row_index(
                    self._samples.offsets[sampled], counts[sampled]
                )
                rows = self._samples.columns[self._value_column].take(index)
                lows[sampled] = np.minimum.reduceat(rows, loc[:-1])
                highs[sampled] = np.maximum.reduceat(rows, loc[:-1])
            extrema = self._sample_extrema = (lows, highs)
        return extrema

    def _refresh_sample_extrema(self, leaf: int) -> None:
        """Recompute leaf ``leaf``'s sample extrema once they are built."""
        if self._sample_extrema is None:
            return
        lows, highs = self._sample_extrema
        start = int(self._samples.offsets[leaf])
        stop = start + int(self._sample_counts[leaf])
        rows = self._samples.columns[self._value_column][start:stop]
        if rows.shape[0]:
            lows[leaf] = np.minimum.reduce(rows)
            highs[leaf] = np.maximum.reduce(rows)
        else:
            lows[leaf], highs[leaf] = np.inf, -np.inf

    def _compact_samples(self) -> FlatSamples:
        """The samples without slack, as new arrays (the export's form)."""
        samples = self._samples
        counts = self._sample_counts
        offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if np.array_equal(offsets, samples.offsets):
            return FlatSamples(
                offsets, {c: values.copy() for c, values in samples.columns.items()}
            )
        _, index = _row_index(samples.offsets[:-1], counts)
        return FlatSamples(
            offsets, {c: values.take(index) for c, values in samples.columns.items()}
        )

    def _zv_flags(self) -> np.ndarray:
        """Per-node ``stats.has_zero_variance`` flags, cached until stats change."""
        flags = self._zv_cache
        if flags is None:
            flags = (self._node_count > 0) & (self._node_min == self._node_max)
            self._zv_cache = flags
        return flags

    # ------------------------------------------------------------------
    # Frontier kernels
    # ------------------------------------------------------------------
    def frontier(
        self, predicate: RectPredicate, zero_variance: bool = False
    ) -> FlatFrontier:
        """Run the MCF index lookup over the bound arrays (Algorithm 1).

        Identical to the sequential stack descent over node objects (the
        reference in ``tests/oracle.py``) — covered / partial order and
        ``nodes_visited`` included — via the closed form
        described in the module docstring, with a level-order replay
        fallback when ``zero_variance`` stops could fire.  On a hash-sharded
        synopsis a point predicate on the shard column keeps only its owning
        shard's rows (:meth:`_owner_only`).
        """
        n = self._n_nodes
        disjoint: np.ndarray | None = None
        cover: np.ndarray | None = None
        never_covers = False
        column_index = self._column_index
        for column, low, high in predicate.canonical_key():
            c = column_index.get(column)
            if c is None:
                never_covers = True
                continue
            node_lows = self._col_lows[c]
            node_highs = self._col_highs[c]
            dis = np.greater(low, node_highs)
            np.logical_or(dis, np.greater(node_lows, high), out=dis)
            if disjoint is None:
                disjoint = dis
            else:
                np.logical_or(disjoint, dis, out=disjoint)
            cov = np.less_equal(low, node_lows)
            np.logical_and(cov, np.less_equal(node_highs, high), out=cov)
            if cover is None:
                cover = cov
            else:
                np.logical_and(cover, cov, out=cover)
        if disjoint is None:
            disjoint = np.zeros(n, dtype=bool)
        if never_covers:
            cover = np.zeros(n, dtype=bool)
        elif cover is None:
            # No geometry column constrained: containment is vacuously true
            # for every node (the predicate region is the whole space).
            cover = np.ones(n, dtype=bool)
        partial = np.logical_or(cover, disjoint)
        np.logical_not(partial, out=partial)

        if zero_variance:
            zv = self._zv_flags()
            if bool(np.any(np.logical_and(partial, zv))):
                frontier = self._replay_frontier(cover, partial, zv)
                if self._sharding is None:
                    return frontier
                return self._owner_only(frontier, predicate)

        reached = partial[self._parent0]
        reached[0] = True
        covered_rows = np.flatnonzero(np.logical_and(cover, reached))
        partial_mask = np.logical_and(partial, reached)
        np.logical_and(partial_mask, self._is_leaf, out=partial_mask)
        partial_rows = np.flatnonzero(partial_mask)
        frontier = FlatFrontier(
            covered=covered_rows,
            partial=partial_rows,
            nodes_visited=int(np.count_nonzero(reached)),
        )
        if self._sharding is None:
            return frontier
        return self._owner_only(frontier, predicate)

    def _owner_only(
        self, frontier: FlatFrontier, predicate: RectPredicate
    ) -> FlatFrontier:
        """``frontier`` kept to the one hash shard ``predicate`` can match.

        Hash shards overlap in key space, so the descent cannot tell them
        apart; a point predicate on the shard column still names its owner
        (``hash_owners[splitmix64(key) % hash_modulus]``, the router's rule),
        and no other shard holds a row with that key.  Any other predicate,
        or a range-sharded synopsis, keeps the whole frontier.
        """
        sharding = self._sharding
        interval = predicate.interval(sharding["shard_column"])
        if sharding["strategy"] != "hash" or interval.low != interval.high:
            return frontier
        bucket = splitmix64_scalar(float(interval.low)) % sharding["hash_modulus"]
        start, stop = self._shard_rows[sharding["hash_owners"][bucket]].tolist()

        def kept(rows: np.ndarray) -> np.ndarray:
            return rows[(rows == 0) | ((rows >= start) & (rows < stop))]

        return FlatFrontier(
            kept(frontier.covered), kept(frontier.partial), frontier.nodes_visited
        )

    def _replay_frontier(
        self, cover: np.ndarray, partial: np.ndarray, zv: np.ndarray
    ) -> FlatFrontier:
        """Level-order descent replay for the AVG zero-variance shortcut.

        Identical to the sequential descent: a node is visited iff
        its parent was reached, partially overlapped, not stopped by a cover
        / zero-variance hit, and not a leaf.
        """
        stops = np.logical_and(partial, zv)
        np.logical_or(stops, cover, out=stops)
        internal_partial = partial & ~stops & ~self._is_leaf
        n = self._n_nodes
        reached = np.zeros(n, dtype=bool)
        descends = np.zeros(n, dtype=bool)
        for level in self._levels:
            if level[0] == 0:
                reached[0] = True
            else:
                reached[level] = descends[self._parent[level]]
            descends[level] = reached[level] & internal_partial[level]
        covered_rows = np.flatnonzero(reached & stops)
        partial_rows = np.flatnonzero(
            reached & partial & ~stops & self._is_leaf
        )
        return FlatFrontier(
            covered=covered_rows,
            partial=partial_rows,
            nodes_visited=int(reached.sum()),
        )

    def frontiers_for(
        self,
        predicates: Sequence[RectPredicate],
        zero_variance: Sequence[bool] | None = None,
    ) -> list[FlatFrontier]:
        """:meth:`frontier` of every predicate, in broadcasted passes.

        ``zero_variance[j]`` is :meth:`frontier`'s flag for ``predicates[j]``
        (all off when omitted): the batch compiler and the grouped executor
        set it for AVG lookups under the zero-variance rule, the planner
        leaves it off.  Each returned frontier is identical to :meth:`frontier` on
        the same predicate and flag — and therefore to the sequential object
        descent: the closed form runs over a ``(predicates, nodes)`` matrix,
        one constrained column at a time, and a flagged predicate with a
        zero-variance partial node replays its descent
        (:meth:`_replay_frontier`) as :meth:`frontier` does.  The predicate
        axis is cut into chunks of at most :data:`_BROADCAST_CELLS` matrix
        cells, so the temporaries stay bounded however many predicates come.
        One predicate is :meth:`frontier` itself: with nothing to amortise,
        its broadcast costs about twice as much.  A predicate object listed
        more than once in a chunk — an AVG lookup beside the SUM / COUNT one
        — takes one broadcast row, and its entries' frontiers share their
        ``covered`` / ``partial`` arrays unless a zero-variance stop makes the
        flagged descent differ.
        """
        if len(predicates) == 1:
            flag = bool(zero_variance) and bool(zero_variance[0])
            return [self.frontier(predicates[0], zero_variance=flag)]
        chunk = max(1, _BROADCAST_CELLS // max(self._n_nodes, 1))
        frontiers: list[FlatFrontier] = []
        for first in range(0, len(predicates), chunk):
            frontiers.extend(
                self._frontier_chunk(
                    predicates[first : first + chunk],
                    None
                    if zero_variance is None
                    else zero_variance[first : first + chunk],
                )
            )
        if self._sharding is not None:
            frontiers = [
                self._owner_only(frontier, predicate)
                for frontier, predicate in zip(frontiers, predicates)
            ]
        return frontiers

    def _frontier_chunk(
        self,
        predicates: Sequence[RectPredicate],
        zero_variance: Sequence[bool] | None,
    ) -> list[FlatFrontier]:
        """:meth:`frontiers_for` of one chunk, before the hash-shard filter."""
        row_of: dict[int, int] = {}
        distinct: list[RectPredicate] = []
        rows = []
        for predicate in predicates:
            row = row_of.setdefault(id(predicate), len(distinct))
            if row == len(distinct):
                distinct.append(predicate)
            rows.append(row)
        n_queries = len(distinct)
        column_index = self._column_index
        # Per constrained column, every predicate's (low, high); one that
        # leaves the column unconstrained gets (-inf, inf), which covers and
        # misses exactly what the column's absence from its key does.
        bounds: dict[int, tuple[list[float], list[float]]] = {}
        never_covers: list[int] = []
        for j, predicate in enumerate(distinct):
            for column, low, high in predicate.canonical_key():
                c = column_index.get(column)
                if c is None:
                    never_covers.append(j)
                    continue
                if c not in bounds:
                    bounds[c] = ([-math.inf] * n_queries, [math.inf] * n_queries)
                bounds[c][0][j] = low
                bounds[c][1][j] = high
        cover: np.ndarray | None = None
        disjoint: np.ndarray | None = None
        for c, (lows, highs) in bounds.items():
            low = np.array(lows)[:, None]
            high = np.array(highs)[:, None]
            node_lows = self._col_lows[c]
            node_highs = self._col_highs[c]
            dis = np.greater(low, node_highs)
            np.logical_or(dis, np.greater(node_lows, high), out=dis)
            cov = np.less_equal(low, node_lows)
            np.logical_and(cov, np.less_equal(node_highs, high), out=cov)
            if cover is None:
                cover, disjoint = cov, dis
            else:
                np.logical_and(cover, cov, out=cover)
                np.logical_or(disjoint, dis, out=disjoint)
        if cover is None:
            # No geometry column constrained: containment is vacuously true
            # for every node, and nothing is disjoint.
            cover = np.ones((n_queries, self._n_nodes), dtype=bool)
            disjoint = np.zeros((n_queries, self._n_nodes), dtype=bool)
        if never_covers:
            cover[never_covers] = False
        partial = np.logical_or(cover, disjoint)
        np.logical_not(partial, out=partial)

        reached = np.take(partial, self._parent0, axis=1)
        reached[:, 0] = True
        covered_mask = np.logical_and(cover, reached)
        partial_mask = np.logical_and(partial, reached)
        np.logical_and(partial_mask, self._is_leaf, out=partial_mask)
        covered_rows = _row_nonzeros(covered_mask)
        partial_rows = _row_nonzeros(partial_mask)
        visited = np.add.reduce(reached, axis=1).tolist()
        frontiers = [
            FlatFrontier(
                covered=covered_rows[row],
                partial=partial_rows[row],
                nodes_visited=visited[row],
            )
            for row in rows
        ]
        if zero_variance is None or not any(zero_variance):
            return frontiers
        zv = self._zv_flags()
        if not zv.any():
            # No zero-variance node: no flagged descent stops early.
            return frontiers
        flagged = [j for j, flag in enumerate(zero_variance) if flag]
        flagged_rows = [rows[j] for j in flagged]
        stops = np.logical_or.reduce(np.logical_and(partial[flagged_rows], zv), axis=1)
        for j, row, stop in zip(flagged, flagged_rows, stops.tolist()):
            if stop:
                frontiers[j] = self._replay_frontier(cover[row], partial[row], zv)
        return frontiers

    def frontier_count(self, frontier: FlatFrontier) -> int:
        """Tuples inside the frontier's covered + partial nodes (exact)."""
        counts = self._node_count
        return int(
            np.add.reduce(counts[frontier.covered])
            + np.add.reduce(counts[frontier.partial])
        )

    def skip_rate(self, query: AggregateQuery) -> float:
        """Fraction of dataset tuples whose contribution never touches samples."""
        population = int(self._node_count[0])
        if population == 0:
            return 1.0
        partial_rows = self.query_frontier(query).partial
        return 1.0 - int(self._node_count[partial_rows].sum()) / population

    # ------------------------------------------------------------------
    # Predicate mask evaluation over CSR slices
    # ------------------------------------------------------------------
    def _mask_constraints(
        self, predicate: RectPredicate
    ) -> list[tuple[np.ndarray, float, float]]:
        """Per-column ``(values, low, high)`` triples for CSR mask slicing.

        Raises the same ``KeyError`` as ``Stratum.match_mask`` when the
        predicate constrains a column the samples do not carry — callers
        must only invoke this when at least one partial leaf exists, which
        is exactly when ``Stratum.match_mask`` would evaluate (and raise).
        """
        columns = self._samples.columns
        for column in predicate.columns:
            if column not in columns:
                raise KeyError(f"column {column!r} not provided for mask evaluation")
        return [
            (columns[column], low, high)
            for column, low, high in predicate.canonical_key()
        ]

    @staticmethod
    def _leaf_mask(
        constraints: Sequence[tuple[np.ndarray, float, float]],
        start: int,
        stop: int,
    ) -> np.ndarray:
        """Boolean match mask for one leaf's CSR slice.

        Conjunction of per-column range tests — identical bools to
        ``RectPredicate.mask`` on a ``Stratum``'s sample (boolean AND is exact,
        so dropping the unbounded intervals the canonical key omits cannot
        change the result).
        """
        mask: np.ndarray | None = None
        for values, low, high in constraints:
            window = values[start:stop]
            column_mask = np.greater_equal(window, low)
            np.logical_and(column_mask, np.less_equal(window, high), out=column_mask)
            if mask is None:
                mask = column_mask
            else:
                np.logical_and(mask, column_mask, out=mask)
        if mask is None:
            return np.ones(stop - start, dtype=bool)
        return mask

    # ------------------------------------------------------------------
    # Single-query answering (Section 3.3)
    # ------------------------------------------------------------------
    def query(self, query: AggregateQuery, lam: float | None = None) -> AQPResult:
        """Answer any aggregate query over the flat arrays.

        Bit-identical to the reference object descent (``tests/oracle.py``)
        for all seven aggregates.
        """
        return self.answer(query, self.query_frontier(query), lam=lam)

    def query_frontier(self, query: AggregateQuery) -> FlatFrontier:
        """The MCF frontier :meth:`query` answers ``query`` from.

        Only AVG descends under the zero-variance rule (Section 3.4), so an
        AVG frontier may differ from the SUM / COUNT frontier of the same
        predicate.
        """
        return self.frontier(
            query.predicate,
            zero_variance=self._zero_variance_rule
            and query.agg == AggregateType.AVG,
        )

    def answer(
        self,
        query: AggregateQuery,
        frontier: FlatFrontier,
        lam: float | None = None,
    ) -> AQPResult:
        """Answer an aggregate from its precomputed frontier.

        ``frontier`` must be :meth:`query_frontier` of ``query`` (or of a
        query with the same predicate and AVG-ness) on the current synopsis
        state; :meth:`query` ends here, and a classic aggregate is the
        one-query case of :meth:`answer_shared`, which the batch executor
        runs — what makes a batch bit-identical to sequential execution.
        ``lam`` scales the CLT interval, which QUANTILE / COUNT_DISTINCT
        answers do not have (their bounds are the union's certified ones).
        """
        if query.agg in (AggregateType.QUANTILE, AggregateType.COUNT_DISTINCT):
            self._check_value_column(query)
            return sketch_union_result(
                query, self._frontier_union(query, frontier), int(self._node_count[0])
            )
        return self.answer_shared((((query,), (frontier,)),), lam)[0][0]

    def answer_shared(
        self,
        groups: Sequence[tuple[Sequence[AggregateQuery], Sequence[FlatFrontier]]],
        lam: float | None = None,
    ) -> list[list[AQPResult]]:
        """Answer SUM / COUNT / AVG / MIN / MAX queries, one predicate per group.

        Each group is ``(queries, frontiers)``: the queries share a canonical
        predicate, ``frontiers[i]`` is ``queries[i]``'s :meth:`query_frontier`,
        and all of them hold the same partial rows (an AVG frontier may still
        differ in its covered rows, Section 3.4).  One mask and moment pass
        (:meth:`_batched_partial_moments`) serves every group, and each query
        assembles its answer from its group's per-leaf pairs in the scalar
        accumulation order of the reference.  The pairs are the bits a single
        query's pass yields, so every answer — returned per group, in query
        order — is bit-identical to :meth:`answer`, the one-query case.
        """
        need_sum = need_count = False
        for queries, _ in groups:
            for query in queries:
                self._check_value_column(query)
                agg = query.agg
                if agg is AggregateType.SUM:
                    need_sum = True
                elif agg is AggregateType.COUNT:
                    need_count = True
                elif agg is AggregateType.AVG:
                    need_sum = need_count = True
        lam = self._lam if lam is None else lam
        partials = [frontiers[0].partial for _, frontiers in groups]
        partial_rows = partials[0] if len(partials) == 1 else np.concatenate(partials)
        leaves = self._leaf_of_row[partial_rows]
        partial = (
            self._node_count[partial_rows].tolist(),
            self._node_sum[partial_rows].tolist(),
            self._sample_counts[leaves].tolist(),
        )
        spans: list[tuple[list[tuple[np.ndarray, float, float]], int]] = []
        stop = 0
        for (queries, _), rows in zip(groups, partials):
            stop += rows.shape[0]
            spans.append((self._group_constraints(queries, rows), stop))
        group_pairs: list[tuple[list, list]] = [([], [])] * len(groups)
        if need_sum or need_count:
            group_pairs = self._batched_partial_moments(
                (partial[0], leaves.tolist(), partial[2]), spans, need_sum, need_count
            )
        if len(groups) == 1:  # the single-predicate call: nothing to cut
            (queries, frontiers), (constraints, _) = groups[0], spans[0]
            answer = self._answer_group(
                queries, frontiers, leaves, constraints, partial, group_pairs[0], lam
            )
            return [answer]
        answers = []
        start = 0
        for (queries, frontiers), (constraints, stop), pairs in zip(
            groups, spans, group_pairs
        ):
            answers.append(
                self._answer_group(
                    queries,
                    frontiers,
                    leaves[start:stop],
                    constraints,
                    tuple(column[start:stop] for column in partial),
                    pairs,
                    lam,
                )
            )
            start = stop
        return answers

    def _group_constraints(
        self, queries: Sequence[AggregateQuery], partial_rows: np.ndarray
    ) -> list[tuple[np.ndarray, float, float]]:
        """The mask constraints of a group's predicate (none without partial rows).

        Every query's own predicate is checked: one that spells out an
        unbounded column the samples lack raises, as it would alone.
        """
        if not partial_rows.shape[0]:
            return []
        predicate = queries[0].predicate
        constraints = self._mask_constraints(predicate)
        for query in queries[1:]:
            if query.predicate is not predicate:
                self._mask_constraints(query.predicate)
        return constraints

    def _answer_group(
        self,
        queries: Sequence[AggregateQuery],
        frontiers: Sequence[FlatFrontier],
        leaves: np.ndarray,
        constraints: Sequence[tuple[np.ndarray, float, float]],
        partial: tuple[list[int], list[float], list[int]],
        pairs: tuple[list[tuple[float, float]], list[tuple[float, float]]],
        lam: float,
    ) -> list[AQPResult]:
        """One group's answers from its SUM and COUNT ``pairs``, in reference order.

        ``leaves`` / ``partial`` are the group's partial rows' leaf indices
        and ``(sizes, node sums, sample counts)`` lists.  Hard bounds and the
        [SUM, COUNT] totals are kept per covered rows: an AVG divides the two
        of its frontier, and an AVG descent the zero-variance rule stopped
        early covers other rows.  A frontier whose rows hold no tuple is an
        exact empty group (:func:`~repro.query.aggregates.empty_group_result`).
        """
        population = int(self._node_count[0])
        processed = sum(partial[2])
        skipped = population - sum(partial[0])
        shared: list[tuple[np.ndarray, _RowBounds, list]] = []
        results = []
        for query, frontier in zip(queries, frontiers):
            agg = query.agg
            for covered, row_bounds, totals in shared:
                if covered is frontier.covered:
                    break
            else:
                covered, totals = frontier.covered, [None, None]
                row_bounds = _RowBounds(self, covered, frontiers[0].partial, partial)
                shared.append((covered, row_bounds, totals))
            if row_bounds.empty:
                results.append(empty_group_result(agg, population))
                continue
            bounds = row_bounds.bounds(agg)
            if agg is AggregateType.MIN or agg is AggregateType.MAX:
                results.append(
                    self._extremum_answer(
                        agg, frontier, leaves, constraints, bounds, processed, skipped
                    )
                )
                continue
            want_sum = agg is not AggregateType.COUNT and totals[0] is None
            want_count = agg is not AggregateType.SUM and totals[1] is None
            if want_sum or want_count:
                self._sum_count_totals(
                    frontier, partial, pairs, totals, want_sum, want_count
                )
            if agg is AggregateType.AVG:
                estimate, variance = self._avg_estimate(frontier, *totals)
            else:
                estimate, variance = totals[agg is AggregateType.COUNT]

            exact = frontier.is_exact
            if exact:
                half_width = 0.0
                variance = 0.0
            elif math.isnan(variance):
                half_width = float("nan")
                variance = float("nan")
            else:
                half_width = lam * math.sqrt(max(variance, 0.0))
            results.append(
                AQPResult(
                    estimate=estimate,
                    ci_half_width=half_width,
                    variance=variance,
                    hard_lower=bounds.lower,
                    hard_upper=bounds.upper,
                    tuples_processed=processed,
                    tuples_skipped=skipped,
                    exact=exact,
                )
            )
        return results

    def _check_value_column(self, query: AggregateQuery) -> None:
        """``ValueError`` unless ``query`` aggregates the synopsis' column."""
        if query.value_column != self._value_column:
            raise ValueError(
                f"synopsis was built for column {self._value_column!r}, "
                f"query aggregates {query.value_column!r}"
            )

    def _frontier_gather(
        self, leaves: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The zero-led frontier gather ``(counts, loc, index)`` of ``leaves``.

        :func:`_row_index` of the leaves' rows, in the given leaf order, with
        one *lead slot* reserved before each leaf's rows: leaf ``i`` owns
        positions ``loc[i]:loc[i + 1]`` of ``index``, the first of them its
        lead slot and the ``counts[i]`` after it its rows.  A lead slot reads
        the slot before the leaf's first (the last one, for the leaf at
        offset 0): some valid row whose value the kernels never use — the
        mask is False there and every summand is forced to exactly 0.0, so
        ``np.add.reduceat(x, loc[:-1])`` is 0.0 plus numpy's pairwise sum of
        each leaf's rows, the bits of ``np.add.reduce`` over its slice.
        Every leaf must be sampled.  Built per frontier and dropped with it —
        nothing is cached or stored.
        """
        counts = self._sample_counts[leaves]
        loc, index = _row_index(self._samples.offsets[leaves] - 1, counts + 1)
        return counts, loc, index

    def _gathered_mask(
        self,
        spans: Sequence[tuple[Sequence[tuple[np.ndarray, float, float]], int]],
        row_group: np.ndarray | None,
        index: np.ndarray,
        leads: np.ndarray,
    ) -> np.ndarray:
        """:meth:`_leaf_mask` over the gathered rows, False at the ``leads``.

        ``spans`` as in :meth:`_batched_partial_moments`.  With several
        groups, gathered row ``i`` is tested against the bounds of group
        ``row_group[i]``, spread per column over the rows; NaN bounds — no
        :class:`~repro.query.predicate.Interval` has them — mark a group that
        leaves the column unconstrained, whose rows pass whatever they hold.
        """
        if len(spans) == 1:
            mask = self._leaf_mask(
                [(values.take(index), low, high) for values, low, high in spans[0][0]],
                0,
                index.shape[0],
            )
            mask[leads] = False
            return mask
        unset = [math.nan] * len(spans)
        stacked: dict[int, tuple[np.ndarray, list[float], list[float]]] = {}
        for g, (constraints, _) in enumerate(spans):
            for values, low, high in constraints:
                _, lows, highs = stacked.setdefault(
                    id(values), (values, unset.copy(), unset.copy())
                )
                lows[g], highs[g] = low, high
        mask = np.ones(index.shape[0], dtype=bool)
        for values, lows, highs in stacked.values():
            window = values.take(index)
            low = np.array(lows).take(row_group)
            column_mask = np.greater_equal(window, low)
            column_mask &= np.less_equal(window, np.array(highs).take(row_group))
            column_mask |= np.isnan(low)
            mask &= column_mask
        mask[leads] = False
        return mask

    def _batched_partial_moments(
        self,
        partial: tuple[list[int], list[int], list[int]],
        spans: Sequence[tuple[Sequence[tuple[np.ndarray, float, float]], int]],
        need_sum: bool,
        need_count: bool,
    ) -> list[tuple[list[tuple[float, float]], list[tuple[float, float]]]]:
        """Stratified ``(estimate, variance)`` pairs for sampled partial leaves.

        ``partial`` holds :meth:`answer_shared`'s per-partial-row ``(sizes,
        leaf indices, sample counts)``, the groups' rows one after another;
        ``spans`` one ``(constraints, stop)`` per group: its mask constraints
        and the end of its rows.  Per group, one pair per row with ``size >
        0`` and a non-empty sample, in frontier order.  The mask and squared
        deviations are evaluated once over the zero-led frontier gather — one
        segment per (group, leaf), under its group's bounds — and every
        segment reduces with one ``np.add.reduceat`` per sum: the pairwise
        summation of the per-leaf scalar path, so every pair is bit-identical
        to :func:`_stratum_contribution` on its leaf.
        """
        sizes, leaves, sample_counts = partial
        samples = self._samples
        if len(leaves) <= _SCALAR_FRONTIER_LEAVES:
            offsets = samples.offsets
            values_column = (
                samples.columns[self._value_column] if need_sum else None
            )
            group_pairs = []
            first = 0
            for constraints, stop in spans:
                sum_pairs: list[tuple[float, float]] = []
                count_pairs: list[tuple[float, float]] = []
                for size, leaf, n_sample in zip(
                    sizes[first:stop], leaves[first:stop], sample_counts[first:stop]
                ):
                    if size == 0 or n_sample == 0:
                        continue
                    start = int(offsets[leaf])
                    end = start + n_sample
                    data = self._leaf_mask(constraints, start, end).astype(float)
                    if need_count:
                        count_pairs.append(
                            _stratum_contribution(data, size, self._with_fpc)
                        )
                    if need_sum:
                        np.multiply(data, values_column[start:end], out=data)
                        sum_pairs.append(
                            _stratum_contribution(data, size, self._with_fpc)
                        )
                group_pairs.append((sum_pairs, count_pairs))
                first = stop
            return group_pairs
        all_sizes = np.array(sizes, dtype=np.int64)
        sampled = (all_sizes > 0) & (np.array(sample_counts, dtype=np.int64) > 0)
        strata_sizes = all_sizes[sampled].astype(float)
        counts, loc, index = self._frontier_gather(
            np.array(leaves, dtype=np.int64)[sampled]
        )
        leads = loc[:-1]
        row_group = None
        if len(spans) > 1:
            stops = [0] + [stop for _, stop in spans]
            segment_group = np.repeat(np.arange(len(spans)), np.diff(stops))[sampled]
            row_group = np.repeat(segment_group, counts + 1)
        indicator = self._gathered_mask(spans, row_group, index, leads).astype(float)
        sum_pairs = count_pairs = []
        if need_sum:
            contributions = samples.columns[self._value_column].take(index)
            # Zeroed, not masked: a lead slot's row may hold an inf, and
            # 0 x inf is NaN.
            contributions[leads] = 0.0
            np.multiply(indicator, contributions, out=contributions)
            sum_pairs = self._segment_pairs(
                contributions, leads, counts, strata_sizes
            )
        if need_count:
            count_pairs = self._segment_pairs(indicator, leads, counts, strata_sizes)
        if len(spans) == 1:
            return [(sum_pairs, count_pairs)]
        # Group g's pairs are those of the sampled rows among its rows.
        cuts = np.concatenate(([0], np.cumsum(sampled)))[stops].tolist()
        return [(sum_pairs[a:b], count_pairs[a:b]) for a, b in zip(cuts, cuts[1:])]

    def _segment_pairs(
        self,
        data: np.ndarray,
        leads: np.ndarray,
        counts: np.ndarray,
        strata_sizes: np.ndarray,
    ) -> list[tuple[float, float]]:
        """Per-segment stratified ``(estimate, variance)`` over ``data``.

        Segment ``i`` is the zero-led span of :meth:`_frontier_gather` from
        ``leads[i]``: a 0.0 lead slot and ``counts[i]`` rows, scaled to
        stratum size ``strata_sizes[i]`` (float64).  Sums are one zero-led
        ``np.add.reduceat`` each, and means and squared deviations follow
        the exact ufunc sequence of :func:`_fast_mean` / :func:`_fast_var`;
        the mean division, ``size**2 * var / k``, the ``k <= 1`` rule and the
        finite-population correction run as whole-frontier float64 array
        operations — the same IEEE operations in the same order as the scalar
        replicas, on integers float64 holds exactly, so the same bits.
        """
        sample_sizes = counts.astype(float)
        means = np.add.reduceat(data, leads) / sample_sizes
        deviations = data - np.repeat(means, counts + 1)
        np.multiply(deviations, deviations, out=deviations)
        deviations[leads] = 0.0
        sample_variances = np.add.reduceat(deviations, leads) / sample_sizes
        sample_variances[counts <= 1] = 0.0
        estimates = means * strata_sizes
        variances = strata_sizes * strata_sizes * sample_variances / sample_sizes
        if self._with_fpc:
            # finite_population_correction: 1.0 for a stratum of one row,
            # else (N - K) / (N - 1) clamped at zero.
            correction = np.divide(
                strata_sizes - sample_sizes,
                strata_sizes - 1.0,
                out=np.ones_like(strata_sizes),
                where=strata_sizes > 1.0,
            )
            variances *= np.maximum(correction, 0.0)
        return list(zip(estimates.tolist(), variances.tolist()))

    def _sum_count_totals(
        self,
        frontier: FlatFrontier,
        partial: tuple[list[int], list[float], list[int]],
        pairs: tuple[list[tuple[float, float]], list[tuple[float, float]]],
        totals: list,
        want_sum: bool,
        want_count: bool,
    ) -> None:
        """SUM and / or COUNT ``(estimate, variance)`` into ``totals``, one loop.

        ``partial`` holds the frontier's per-partial-row ``(sizes, node sums,
        sample counts)`` lists, and ``pairs`` its sampled partial leaves' SUM
        and COUNT pairs of :meth:`_batched_partial_moments`; ``totals[0]`` /
        ``totals[1]`` receive the SUM / COUNT total when asked for.  Covered
        nodes contribute exactly (Python-scalar sums in row order); each
        sampled partial leaf adds its stratified contribution; an unsampled
        one adds the hard-bound midpoint and poisons the variance with NaN —
        for each total, exactly the reference accumulation in
        ``tests/oracle.py``; an AVG walks the partial rows once for both.
        """
        covered = frontier.covered
        sum_est = sum(self._node_sum[covered].tolist()) if want_sum else 0.0
        count_est = (
            float(sum(self._node_count[covered].tolist())) if want_count else 0.0
        )
        sum_var = count_var = 0.0
        sum_pairs, count_pairs = pairs
        next_pair = 0
        for size, node_sum, n_sample in zip(*partial):
            if size == 0:
                sum_est += 0.0
                sum_var += 0.0
                count_est += 0.0
                count_var += 0.0
            elif n_sample == 0:
                sum_est += 0.5 * node_sum
                count_est += 0.5 * size
                sum_var = count_var = float("nan")
            else:
                if want_sum:
                    part_est, part_var = sum_pairs[next_pair]
                    sum_est += part_est
                    sum_var += part_var
                if want_count:
                    part_est, part_var = count_pairs[next_pair]
                    count_est += part_est
                    count_var += part_var
                next_pair += 1
        if want_sum:
            totals[0] = (sum_est, sum_var)
        if want_count:
            totals[1] = (count_est, count_var)

    @staticmethod
    def _avg_estimate(
        frontier: FlatFrontier,
        numerator: tuple[float, float],
        denominator: tuple[float, float],
    ) -> tuple[float, float]:
        """AVG as the delta-method ratio of SUM and COUNT over its frontier.

        ``numerator`` / ``denominator`` are :meth:`_sum_count_totals`'s
        SUM and COUNT over the AVG's own frontier — the two accumulations
        the reference divides, so an AVG shares them with a SUM / COUNT of
        the same frontier.
        """
        num, num_var = numerator
        den, den_var = denominator
        if den == 0:
            return float("nan"), float("nan")
        if frontier.is_exact:
            return num / den, 0.0
        combined = ratio_estimate(
            EstimateWithVariance(num, num_var), EstimateWithVariance(den, den_var)
        )
        return combined.estimate, combined.variance

    def _extremum_answer(
        self,
        agg: AggregateType,
        frontier: FlatFrontier,
        leaves: np.ndarray,
        constraints: Sequence[tuple[np.ndarray, float, float]],
        bounds: HardBounds,
        processed: int,
        skipped: int,
    ) -> AQPResult:
        """MIN / MAX: exact over covered rows, sample-refined over partial leaves.

        ``leaves`` are the partial rows' leaf indices.  The covered rows'
        node extrema, infinities dropped, are the first candidates; then
        every leaf with a matched sample row contributes its matched
        extremum, in row order.

        A leaf that cannot change ``max(candidates)`` is dropped before
        either branch gathers or masks its rows: for MAX, one whose whole
        sample's MAX is below the best covered candidate (for MIN, whose
        sample MIN is above it).  Its matched extremum could only come after
        that candidate and compare below it, so the estimate keeps its bits;
        a NaN extremum never compares below, so such a leaf stays.  The test
        reads the sample's extrema (:meth:`_leaf_sample_extrema`), not the
        node's: node extrema ignore inserted NaNs, and
        :meth:`replace_leaf_sample` can write values outside them.  The hard
        bounds, ``exact`` and ``tuples_processed`` (every partial leaf's
        sample count) are computed by the caller and do not move.
        """
        is_max = agg == AggregateType.MAX
        stats_values = (self._node_max if is_max else self._node_min)[
            frontier.covered
        ]
        candidates = stats_values[~np.isinf(stats_values)].tolist()
        if candidates and leaves.shape[0]:
            lows, highs = self._leaf_sample_extrema()
            if is_max:
                beaten = highs.take(leaves) < max(candidates)
            else:
                beaten = lows.take(leaves) > min(candidates)
            leaves = leaves[~beaten]
        values_column = self._samples.columns.get(self._value_column)
        if leaves.shape[0] <= _SCALAR_FRONTIER_LEAVES:
            offsets = self._samples.offsets
            counts = self._sample_counts
            extremum = (np.maximum if is_max else np.minimum).reduce
            for leaf in leaves.tolist():
                start = int(offsets[leaf])
                stop = start + int(counts[leaf])
                if stop == start:
                    continue
                mask = self._leaf_mask(constraints, start, stop)
                matched = values_column[start:stop][mask]
                if matched.shape[0]:
                    candidates.append(float(extremum(matched)))
        else:
            _, loc, index = self._frontier_gather(
                leaves[self._sample_counts[leaves] > 0]
            )
            # Compacting keeps each leaf's matched values contiguous and in
            # sample order — the very array the per-leaf path reduces — and
            # the leaf boundaries inside it are where the (sorted) matched
            # positions cross ``loc``; a lead slot is never matched.
            spans = [(constraints, leaves.shape[0])]
            matched_rows = np.flatnonzero(
                self._gathered_mask(spans, None, index, loc[:-1])
            )
            cuts = matched_rows.searchsorted(loc)
            starts = cuts[:-1][cuts[1:] > cuts[:-1]]
            if starts.shape[0]:
                matched = values_column.take(index.take(matched_rows))
                candidates.extend(
                    (np.maximum if is_max else np.minimum)
                    .reduceat(matched, starts)
                    .tolist()
                )
        if candidates:
            estimate = max(candidates) if is_max else min(candidates)
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

    # ------------------------------------------------------------------
    # Sketch aggregates (QUANTILE / COUNT_DISTINCT)
    # ------------------------------------------------------------------
    def sketch_union(
        self, query: AggregateQuery, frontier: FlatFrontier | None = None
    ) -> QuantileSketchUnion | DistinctSketchUnion:
        """Reduce a sketch-aggregate query to its mergeable frontier union.

        ``frontier`` is the query's :meth:`query_frontier`, computed when not
        given (the batch and grouped executors pass the one they already
        hold, so a predicate's percentiles share it).  Fully covered
        frontier nodes contribute the pre-built sketches of the leaves under
        them; partially overlapped leaves contribute through their
        stratified sample — the CSR values the predicate mask keeps — plus
        their population as *boundary weight* widening the certified bounds
        (:func:`repro.sketches.union.frontier_union`).  Leaves and matched
        values reach the merge loops in the oracle's order (covered nodes in
        row order, each node's leaves in the object tree's pre-order, then
        partial leaves in row order), so every merge happens in the same
        sequence and the union is bit-identical to the reference's.

        :func:`~repro.sketches.union.sketch_union_result` turns the union
        into an :class:`~repro.result.AQPResult`.
        """
        self._check_value_column(query)
        if frontier is None:
            frontier = self.query_frontier(query)
        return self._frontier_union(query, frontier)

    def _frontier_union(
        self, query: AggregateQuery, frontier: FlatFrontier
    ) -> QuantileSketchUnion | DistinctSketchUnion:
        """:meth:`sketch_union`'s kernel, for a query already checked.

        Every sketch answer passes here: a frontier holding no tuple is the
        union of no leaves (covered leaves' sketches may still hold deleted
        values), which assembles to ``empty_group_result``.
        """
        counts = self._node_count
        if not (
            any(counts[frontier.covered].tolist())
            or any(counts[frontier.partial].tolist())
        ):
            return frontier_union(query.agg, self.leaf_sketches(), (), ())
        return frontier_union(
            query.agg,
            self.leaf_sketches(),
            self._covered_leaves(frontier.covered),
            self._partial_leaves(query.predicate, frontier.partial),
        )

    def leaf_sketches(self) -> list[LeafSketches] | None:
        """The per-leaf sketches (None without), unpacked on first use.

        The returned objects are the sketches' state from here on:
        :class:`~repro.core.updates.DynamicPASS` updates them in place.
        """
        if self._leaf_sketches is None and self._packed_sketches is not None:
            self._leaf_sketches = unpack_leaf_sketches(*self._packed_sketches)
            self._packed_sketches = None
        return self._leaf_sketches

    def _covered_leaves(self, covered_rows: np.ndarray) -> list[int]:
        """Leaf indices under the covered rows, in the oracle's merge order.

        The reference walks each covered node's subtree in pre-order,
        children left to right.  Geometry order is the same walk with the
        children reversed, so a node's subtree is the contiguous row range
        ``[row, row + subtree size)`` and its leaves in left-to-right order
        are that range's leaf rows backwards — one slice of the tree's
        left-to-right leaf sequence per covered row.
        """
        spans = self._leaf_spans
        if spans is None:
            n = self._n_nodes
            subtree = np.ones(n, dtype=np.int64)
            for level in reversed(self._levels[1:]):
                np.add.at(subtree, self._parent[level], subtree[level])
            leaves_before = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(self._is_leaf, out=leaves_before[1:])
            n_leaves = int(leaves_before[-1])
            spans = (
                self._leaf_of_row[self._is_leaf][::-1].tolist(),
                n_leaves - leaves_before[np.arange(n) + subtree],
                n_leaves - leaves_before[:-1],
            )
            self._leaf_spans = spans
        left_to_right, starts, stops = spans
        leaves: list[int] = []
        for start, stop in zip(
            starts[covered_rows].tolist(), stops[covered_rows].tolist()
        ):
            leaves.extend(left_to_right[start:stop])
        return leaves

    def _partial_leaves(
        self, predicate: RectPredicate, partial_rows: np.ndarray
    ) -> Iterator[PartialLeaf]:
        """The non-empty partial leaves as the sketch merge loops read them."""
        samples = self._samples
        offsets = samples.offsets
        constraints = (
            self._mask_constraints(predicate) if partial_rows.shape[0] else []
        )
        values = samples.columns.get(self._value_column, _NO_VALUES)
        leaves = self._leaf_of_row[partial_rows]
        starts = offsets[leaves]
        for leaf, size, low, high, start, stop in zip(
            leaves.tolist(),
            self._node_count[partial_rows].tolist(),
            self._node_min[partial_rows].tolist(),
            self._node_max[partial_rows].tolist(),
            starts.tolist(),
            (starts + self._sample_counts[leaves]).tolist(),
        ):
            if size == 0:
                continue
            matched = _NO_VALUES
            if stop > start:
                matched = values[start:stop][
                    self._leaf_mask(constraints, start, stop)
                ]
            yield leaf, size, low, high, stop - start, matched
