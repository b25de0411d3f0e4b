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

import itertools
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
from repro.sampling.estimators import finite_population_correction
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

#: A moment pass over at most this many partial rows — one query's frontier
#: on a 1-D synopsis — and an extremum over at most this many leaves are
#: reduced leaf by leaf with the scalar replicas below: a frontier gather
#: cannot amortise anything over three leaves or fewer.  A property of the
#: input, not an option (measurement in ``docs/ARCHITECTURE.md``); both
#: partial-leaf kernels branch on it.
_SCALAR_FRONTIER_LEAVES = 3

#: :meth:`FlatSynopsis.frontiers_for` broadcasts at most this many
#: (predicate, node) cells at a time: a handful of boolean matrices of this
#: size are its only temporaries, whatever the batch size.
_BROADCAST_CELLS = 1 << 18

#: The aggregates :meth:`FlatSynopsis._extremum_answer` answers.
_EXTREMA = frozenset((AggregateType.MIN, AggregateType.MAX))
#: The aggregates whose hard bounds read the node MIN / MAX.
_MIN_BOUNDS = frozenset((AggregateType.MIN, AggregateType.AVG))
_MAX_BOUNDS = frozenset((AggregateType.MAX, AggregateType.AVG))
#: The aggregates that read the SUM and the COUNT totals.
_SUM_TERMS = frozenset((AggregateType.SUM, AggregateType.AVG))
_COUNT_TERMS = frozenset((AggregateType.COUNT, AggregateType.AVG))

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


def _fast_var(values: np.ndarray, mean: float | None = None) -> float:
    """``float(np.var(values))`` (ddof=0) as raw ufunc calls, bit-identical.

    Mirrors numpy's ``_var``: mean via ``umr_sum / n`` (or ``mean``, the
    caller's :func:`_fast_mean` of the same values), squared deviations in
    place, reduced by the same pairwise sum.  The caller guarantees at
    least two float64 elements.  ``values`` is not modified.
    """
    n = values.shape[0]
    if mean is None:
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
    mean = _fast_mean(data)
    estimate = mean * size
    sample_variance = 0.0 if sample_size <= 1 else _fast_var(data, mean)
    variance = (size**2) * sample_variance / sample_size
    if with_fpc:
        variance *= finite_population_correction(size, sample_size)
    return estimate, variance


def _stacked_rows(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """``(rows, lengths)``: the row arrays end to end, and each one's length."""
    lengths = [rows.shape[0] for rows in arrays]
    if len(arrays) == 1:
        return arrays[0], lengths
    return np.concatenate(arrays or [np.zeros(0, dtype=np.intp)]), lengths


def _widened(terms: list, kept: list[bool]) -> list:
    """``terms`` of the ``kept`` rows spread over all rows, zeros elsewhere."""
    kept_terms = iter(terms)
    return [next(kept_terms) if keep else (0.0, 0.0) for keep in kept]


def _total(estimate: float, terms: list[list[float]]) -> tuple[float, float]:
    """A SUM or COUNT ``(estimate, variance)``: the covered rows' ``estimate``,
    then each partial row's ``[estimate, variance]`` term added in order (an
    unsampled row's NaN variance makes the total's NaN)."""
    variance = 0.0
    for term, term_variance in terms:
        estimate += term
        variance += term_variance
    return estimate, variance


def _full(rows: list[list], column: int) -> list:
    """Column ``column`` of ``rows`` over the rows that hold tuples."""
    values, counts = rows[column], rows[1]
    return values if all(counts) else [v for v, n in zip(values, counts) if n]


def _hard_bounds(
    agg: AggregateType, covered: list[list], partial: list[list]
) -> tuple[float, float]:
    """:func:`~repro.aggregation.strat_agg.hard_bounds` of a group's rows.

    ``covered`` / ``partial`` hold the rows' ``[sums, counts, mins, maxs]``
    lists (the extrema only when ``agg`` reads them).  The same Python
    ``sum`` / ``min`` / ``max`` in row order over the rows that hold tuples,
    so the same bits.  The caller answers a group without tuples.
    """
    if agg is AggregateType.SUM:
        lower = sum(_full(covered, 0), 0.0)
        return lower, lower + sum(_full(partial, 0), 0.0)
    if agg is AggregateType.COUNT:
        lower = sum((float(n) for n in covered[1] if n), 0.0)
        return lower, lower + sum((float(n) for n in partial[1] if n), 0.0)
    has_covered, has_partial = any(covered[1]), any(partial[1])
    if agg is AggregateType.AVG:
        if has_partial:
            partial_min, partial_max = min(_full(partial, 2)), max(_full(partial, 3))
        if not has_covered:
            return partial_min, partial_max
        average = sum(_full(covered, 0)) / sum(covered[1])
        if has_partial:
            return min(average, partial_min), max(average, partial_max)
        return average, average
    if agg is AggregateType.MAX:
        covered_max = max(_full(covered, 3), default=-math.inf)
        partial_max = max(_full(partial, 3), default=-math.inf)
        lower = covered_max if has_covered else -math.inf
        return lower, max(covered_max, partial_max)
    covered_min = min(_full(covered, 2), default=math.inf)
    partial_min = min(_full(partial, 2), default=math.inf)
    upper = covered_min if has_covered else math.inf
    return min(covered_min, partial_min), upper


def _interval(variance: float, exact: bool, lam: float) -> tuple[float, float]:
    """``(half width, variance)`` of a CLT interval: 0 when exact, NaN unknown."""
    if exact:
        return 0.0, 0.0
    if math.isnan(variance):
        return math.nan, math.nan
    return lam * math.sqrt(max(variance, 0.0)), variance


def _ratio(
    num: float, num_var: float, den: float, den_var: float, exact: bool
) -> tuple[float, float]:
    """AVG ``(estimate, variance)`` as the ratio of its SUM and COUNT totals.

    An exact AVG divides its exact totals; otherwise this is
    :func:`~repro.sampling.estimators.ratio_estimate` (the delta method) on
    plain floats.
    """
    if den == 0:
        return math.nan, math.nan
    if exact:
        return num / den, 0.0
    if math.isnan(den):
        return math.nan, math.nan
    ratio = num / den
    if math.isnan(num_var) or math.isnan(den_var):
        return ratio, math.nan
    return ratio, (num_var + ratio**2 * den_var) / den**2


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
        return self.frontier_counts([frontier])[0]

    def frontier_counts(self, frontiers: Sequence[FlatFrontier]) -> list[int]:
        """:meth:`frontier_count` of every frontier, in one gather."""
        rows, lengths = _stacked_rows(
            [rows for f in frontiers for rows in (f.covered, f.partial)]
        )
        owner = np.repeat(np.arange(len(lengths)) // 2, lengths)
        counts = np.zeros(len(frontiers), dtype=np.int64)
        np.add.at(counts, owner, self._node_count[rows])
        return counts.tolist()

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
        one-group case of :meth:`answer_shared`, which the batch and grouped
        executors run — what makes them bit-identical to sequential
        execution.  ``lam`` scales the CLT interval, which QUANTILE /
        COUNT_DISTINCT answers do not have (their bounds are the union's
        certified ones).
        """
        self._check_value_column(query)
        if query.agg in (AggregateType.QUANTILE, AggregateType.COUNT_DISTINCT):
            return sketch_union_result(
                query, self._frontier_union(query, frontier), int(self._node_count[0])
            )
        group = ((query.predicate,), (query.agg,), frontier)
        return self.answer_shared((group,), lam)[0][0]

    def answer_shared(
        self,
        groups: Sequence[
            tuple[Sequence[RectPredicate], Sequence[AggregateType], FlatFrontier]
        ],
        lam: float | None = None,
    ) -> list[list[AQPResult]]:
        """Answer SUM / COUNT / AVG / MIN / MAX, one frontier per group.

        Each group is ``(predicates, aggs, frontier)``: its answer ``i`` is
        aggregate ``aggs[i]`` of the value column over ``predicates[i]``.
        The predicates of a group share a canonical key, and ``frontier`` is
        their :meth:`query_frontier` (an AVG whose zero-variance descent
        differs is a group of its own).  Each distinct predicate object is
        checked against the sample columns, as a query alone would be; the
        caller checks the value column.

        One mask and moment pass (:meth:`_batched_partial_moments`) serves
        every group.  Then one assembly pass runs over all groups: the node
        statistics of every group's rows and the per-row moments are
        converted to Python floats once, and each group's totals, hard
        bounds (:func:`_hard_bounds`), delta-method AVG (:func:`_ratio`)
        and CI half-width (:func:`_interval`) are computed once for all its
        aggregates, in the reference's arithmetic and summation order —
        covered rows by ``sum``, then the partial rows' terms one by one.
        The :class:`AQPResult` objects are built at the end; MIN / MAX
        refine their bounds in :meth:`_extremum_answer`.  Every answer —
        returned per group, in order — is bit-identical to :meth:`answer`,
        the one-query case.
        """
        lam = self._lam if lam is None else lam
        frontiers = [frontier for _, _, frontier in groups]
        covered_rows, covered_lengths = _stacked_rows([f.covered for f in frontiers])
        partial_rows, lengths = _stacked_rows([f.partial for f in frontiers])
        leaves = self._leaf_of_row[partial_rows]
        sizes = self._node_count[partial_rows]
        sample_counts = self._sample_counts[leaves]
        partial_sums = self._node_sum[partial_rows]
        constraints = [
            self._group_constraints(predicates) if length else []
            for (predicates, _, _), length in zip(groups, lengths)
        ]
        wanted = {agg for _, aggs, _ in groups for agg in aggs}
        need_sum = not wanted.isdisjoint(_SUM_TERMS)
        need_count = not wanted.isdisjoint(_COUNT_TERMS)
        moments: tuple[list | None, ...] = (None, None)
        if (need_sum or need_count) and partial_rows.shape[0]:
            rows = (sizes, leaves, sample_counts, partial_sums)
            kept = None
            stops = itertools.accumulate(lengths)
            if not _EXTREMA.isdisjoint(wanted):
                # Only the groups asking for a SUM / COUNT / AVG are gathered.
                asks = [not _EXTREMA.issuperset(aggs) for _, aggs, _ in groups]
                kept = np.repeat(asks, lengths)
                rows = tuple(column[kept] for column in rows)
                stops = itertools.accumulate(
                    length if ask else 0 for length, ask in zip(lengths, asks)
                )
            moments = self._batched_partial_moments(
                rows, list(zip(constraints, stops)), need_sum, need_count
            )
            if kept is not None:
                moments = tuple(
                    None if terms is None else _widened(terms, kept.tolist())
                    for terms in moments
                )

        # Every group's rows' [sums, counts, mins, maxs], as wanted, as
        # Python floats, converted once.
        node_stats = (
            self._node_sum if need_sum else None,
            self._node_count,
            self._node_min if not wanted.isdisjoint(_MIN_BOUNDS) else None,
            self._node_max if not wanted.isdisjoint(_MAX_BOUNDS) else None,
        )
        covered, partial = (
            [None if stats is None else stats[rows].tolist() for stats in node_stats]
            for rows in (covered_rows, partial_rows)
        )
        terms = [[] if column is None else column for column in moments]
        processed = sample_counts.tolist()
        population = int(self._node_count[0])
        answers = []
        covered_start = partial_start = 0
        for g, ((_, aggs, frontier), covered_length, length) in enumerate(
            zip(groups, covered_lengths, lengths)
        ):
            covered_stop = covered_start + covered_length
            partial_stop = partial_start + length
            group_covered = [
                column and column[covered_start:covered_stop] for column in covered
            ]
            group_partial = [
                column and column[partial_start:partial_stop] for column in partial
            ]
            if not (any(group_covered[1]) or any(group_partial[1])):
                # A frontier holding no tuple is an exact empty group.
                answers.append([empty_group_result(agg, population) for agg in aggs])
            else:
                sampled = sum(processed[partial_start:partial_stop])
                skipped = population - sum(group_partial[1])
                exact = not length
                totals = [
                    _total(sum(group_covered[0]), terms[0][partial_start:partial_stop])
                    if need_sum
                    else None,
                    _total(
                        float(sum(group_covered[1])),
                        terms[1][partial_start:partial_stop],
                    )
                    if need_count
                    else None,
                ]
                row = []
                for agg in aggs:
                    lower, upper = _hard_bounds(agg, group_covered, group_partial)
                    if agg in _EXTREMA:
                        row.append(
                            self._extremum_answer(
                                agg,
                                frontier,
                                leaves[partial_start:partial_stop],
                                constraints[g],
                                HardBounds(lower, upper),
                                sampled,
                                skipped,
                            )
                        )
                        continue
                    if agg is AggregateType.AVG:
                        estimate, variance = _ratio(*totals[0], *totals[1], exact)
                    else:
                        estimate, variance = totals[agg is AggregateType.COUNT]
                    row.append(
                        AQPResult(
                            estimate,
                            *_interval(variance, exact, lam),
                            lower,
                            upper,
                            sampled,
                            skipped,
                            exact,
                        )
                    )
                answers.append(row)
            covered_start, partial_start = covered_stop, partial_stop
        return answers

    def _group_constraints(
        self, predicates: Sequence[RectPredicate]
    ) -> list[tuple[np.ndarray, float, float]]:
        """The mask constraints of a group's predicate, for its partial rows.

        Every distinct predicate object is checked: one that spells out an
        unbounded column the samples lack raises, as it would alone.
        """
        predicate = predicates[0]
        constraints = self._mask_constraints(predicate)
        for other in predicates[1:]:
            if other is not predicate:
                self._mask_constraints(other)
        return constraints

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
        partial: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        spans: Sequence[tuple[Sequence[tuple[np.ndarray, float, float]], int]],
        need_sum: bool,
        need_count: bool,
    ) -> tuple[list | None, list | None]:
        """Each partial row's SUM and COUNT term ``(estimate, variance)``.

        ``partial`` holds the partial rows' ``(sizes, leaf indices, sample
        counts, node sums)`` arrays, the groups' rows one after another;
        ``spans`` one ``(constraints, stop)`` per group: its mask constraints
        and the end of its rows.  Returns the SUM and the COUNT terms (None
        when not asked for) as one pair of floats per row: the stratified
        pair of a row with ``size > 0`` and a non-empty sample, the
        hard-bound midpoint (half its sum or size) with NaN variance for an
        unsampled one, zeros for an empty one.  At most
        :data:`_SCALAR_FRONTIER_LEAVES` rows are reduced leaf by leaf;
        otherwise the mask and squared deviations are evaluated once over
        the zero-led frontier gather — one segment per (group, leaf), under
        its group's bounds — and every segment reduces with one
        ``np.add.reduceat`` per sum: the pairwise summation of the per-leaf
        path, so every pair is bit-identical to :func:`_stratum_contribution`
        on its leaf.
        """
        sizes, leaves, sample_counts, node_sums = partial
        samples = self._samples
        values_column = samples.columns[self._value_column] if need_sum else None
        if sizes.shape[0] <= _SCALAR_FRONTIER_LEAVES:
            offsets = samples.offsets
            sum_terms: list[tuple[float, float]] = []
            count_terms: list[tuple[float, float]] = []
            rows = zip(*(column.tolist() for column in partial))
            first = 0
            for constraints, stop in spans:
                for size, leaf, n_sample, node_sum in itertools.islice(
                    rows, stop - first
                ):
                    if size == 0:
                        sum_terms.append((0.0, 0.0))
                        count_terms.append((0.0, 0.0))
                    elif n_sample == 0:
                        sum_terms.append((0.5 * node_sum, math.nan))
                        count_terms.append((0.5 * size, math.nan))
                    else:
                        start = int(offsets[leaf])
                        end = start + n_sample
                        data = self._leaf_mask(constraints, start, end).astype(float)
                        if need_count:
                            count_terms.append(
                                _stratum_contribution(data, size, self._with_fpc)
                            )
                        if need_sum:
                            np.multiply(data, values_column[start:end], out=data)
                            sum_terms.append(
                                _stratum_contribution(data, size, self._with_fpc)
                            )
                first = stop
            return (
                sum_terms if need_sum else None,
                count_terms if need_count else None,
            )
        full = sizes > 0
        sampled = np.flatnonzero(full & (sample_counts > 0))
        unsampled = np.flatnonzero(full & (sample_counts == 0))
        strata_sizes = sizes[sampled].astype(float)
        counts, loc, index = self._frontier_gather(leaves[sampled])
        leads = loc[:-1]
        row_group = None
        if len(spans) > 1:
            stops = [0] + [stop for _, stop in spans]
            segment_group = np.repeat(np.arange(len(spans)), np.diff(stops))[sampled]
            row_group = np.repeat(segment_group, counts + 1)
        indicator = self._gathered_mask(spans, row_group, index, leads).astype(float)
        data: list[np.ndarray | None] = [None, indicator if need_count else None]
        if need_sum:
            contributions = values_column.take(index)
            # Zeroed, not masked: a lead slot's row may hold an inf, and
            # 0 x inf is NaN.
            contributions[leads] = 0.0
            data[0] = np.multiply(indicator, contributions, out=contributions)
        terms: list[list | None] = []
        for values, totals in zip(data, (node_sums, sizes)):
            if values is None:
                terms.append(None)
                continue
            pairs = self._segment_pairs(values, leads, counts, strata_sizes)
            if sampled.shape[0] < sizes.shape[0]:  # empty or unsampled rows
                full = np.zeros((2, sizes.shape[0]))
                full[:, sampled] = pairs
                full[0, unsampled] = 0.5 * totals[unsampled]
                full[1, unsampled] = math.nan
                pairs = full
            terms.append(list(zip(pairs[0].tolist(), pairs[1].tolist())))
        return terms[0], terms[1]

    def _segment_pairs(
        self,
        data: np.ndarray,
        leads: np.ndarray,
        counts: np.ndarray,
        strata_sizes: np.ndarray,
    ) -> np.ndarray:
        """Per-segment stratified estimates and variances (two rows) over ``data``.

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
        return np.array((estimates, variances))

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
