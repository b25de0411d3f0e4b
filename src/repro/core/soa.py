"""The PASS synopsis as flat arrays: its one state and its one executor.

A built synopsis *is* the handful of contiguous buffers described below
(:class:`FlatSynopsis`): :func:`repro.core.builder.build_pass` emits them
directly from one leaf-assignment pass over the table, and a fresh build, a
file loaded by ``mmap``, a shared-memory attachment and a shard shipped
across a process boundary all construct the same object from the same
``(header, arrays)`` pair.  The hot kernels (frontier descent,
predicate mask evaluation, moment and extremum reductions) run over those
arrays with zero Python-object traversal: the partial-leaf kernels gather the
whole frontier's sample rows through one index and leave per-leaf Python only
in the ``np.add.reduce`` calls the summation contract names
(:func:`_slice_sums`).  It is the only executor of all seven aggregates:
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
from repro.aggregation.strat_agg import HardBounds
from repro.query.aggregates import AggregateType
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

#: Per-(cell, leaf) masked-sample sufficient statistics of the grouped
#: executor: the number of matching samples, their value sum and sum of
#: squares, their min / max (when an extremum aggregate asked for them), and
#: the leaf's sample size.
_LeafMoments = tuple[int, float, float, float, float, float]

_NO_VALUES = np.zeros(0, dtype=float)

#: Frontiers with at most this many partial leaves — every frontier of a 1-D
#: synopsis — are answered leaf by leaf with the scalar replicas below: a
#: frontier gather cannot amortise anything over one or two leaves.  A
#: property of the input, not an option (measurement in
#: ``docs/ARCHITECTURE.md``); both partial-leaf kernels branch on it.
_SCALAR_FRONTIER_LEAVES = 2

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


def _slice_sums(data: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """``np.add.reduce`` over each ``data[bounds[i]:bounds[i + 1]]`` slice.

    This call *is* the summation contract for order-sensitive sums (value
    sums, squared deviations): numpy's pairwise reduction over one leaf's
    contiguous slice, exactly what ``ndarray.mean`` / ``np.var`` run on a
    ``Stratum``'s sample.  A segmented ``reduceat`` / ``bincount`` accumulates
    sequentially and would move the last ulp.
    """
    return np.array(
        [np.add.reduce(data[start:stop]) for start, stop in zip(bounds, bounds[1:])]
    )


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
    out of a mapped file or shared-memory segment — taking every kernel array
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
        if missing:
            raise ValueError(f"synopsis buffers lack the arrays {missing}")
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
        #: Bounds as ``(n_columns, n_nodes)`` matrices (:meth:`frontiers_for`
        #: broadcasts over their transposes) and as one contiguous row per
        #: column (:meth:`frontier`).
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
        #: The update path's index, built on first use: the leaves' node rows
        #: in leaf-index order, the leaf rows' bounds in geometry order, and
        #: one memoised leaf-to-root row path per updated leaf.
        self._leaf_row_index: np.ndarray | None = None
        self._leaf_boxes: tuple[Box, ...] | None = None
        self._leaf_bounds: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
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
        byte-identical copies, e.g. views into a mapped file or a
        shared-memory segment) gives an engine whose answers are
        bit-identical to this one.

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
        bounds = self._leaf_bounds
        if bounds is None:
            rows = np.flatnonzero(self._is_leaf)
            bounds = (
                self._leaf_of_row[rows],
                self._bounds[0][:, rows],
                self._bounds[1][:, rows],
            )
            self._leaf_bounds = bounds
        leaves, lows, highs = bounds
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

    def reserve_sample_slots(self, slots: np.ndarray) -> None:
        """Give leaf ``i`` at least ``slots[i]`` sample slots (one relayout).

        Each leaf keeps its rows and gets ``max(slots[i], rows)`` slots, so
        that :meth:`put_sample_row` appends in place up to that many rows.
        The columns and offsets are new arrays owned by this instance; the
        slack slots hold zeros and are never read.
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
        fallback when ``zero_variance`` stops could fire.
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
                return self._replay_frontier(cover, partial, zv)

        reached = partial[self._parent0]
        reached[0] = True
        covered_rows = np.flatnonzero(np.logical_and(cover, reached))
        partial_mask = np.logical_and(partial, reached)
        np.logical_and(partial_mask, self._is_leaf, out=partial_mask)
        partial_rows = np.flatnonzero(partial_mask)
        return FlatFrontier(
            covered=covered_rows,
            partial=partial_rows,
            nodes_visited=int(np.count_nonzero(reached)),
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
        self, predicates: Sequence[RectPredicate]
    ) -> list[FlatFrontier]:
        """One MCF lookup per predicate in a single broadcasted pass.

        Used by the grouped executor (which never applies the zero-variance
        rule, so the closed form is always valid); each returned frontier is
        identical to :meth:`frontier` — and therefore to the sequential
        object descent — on the same predicate.
        """
        n_queries = len(predicates)
        if n_queries == 0:
            return []
        column_index = self._column_index
        n_cols = len(column_index)
        lows = np.full((n_queries, n_cols), -np.inf)
        highs = np.full((n_queries, n_cols), np.inf)
        never_covers = np.zeros(n_queries, dtype=bool)
        for j, predicate in enumerate(predicates):
            for column, low, high in predicate.canonical_key():
                c = column_index.get(column)
                if c is None:
                    never_covers[j] = True
                else:
                    lows[j, c] = low
                    highs[j, c] = high

        node_lows = self._bounds[0].T[:, :, None]
        node_highs = self._bounds[1].T[:, :, None]
        p_lows = lows.T[None, :, :]
        p_highs = highs.T[None, :, :]
        disjoint = ((p_lows > node_highs) | (node_lows > p_highs)).any(axis=1)
        cover = ((p_lows <= node_lows) & (node_highs <= p_highs)).all(axis=1)
        cover &= ~never_covers[None, :]
        partial = ~cover & ~disjoint

        reached = partial[self._parent0, :]
        reached[0, :] = True
        covered_mask = cover & reached
        partial_mask = partial & reached & self._is_leaf[:, None]
        visited = np.count_nonzero(reached, axis=0)
        return [
            FlatFrontier(
                covered=np.flatnonzero(covered_mask[:, j]),
                partial=np.flatnonzero(partial_mask[:, j]),
                nodes_visited=int(visited[j]),
            )
            for j in range(n_queries)
        ]

    def frontier_count(self, frontier: FlatFrontier) -> int:
        """Tuples inside the frontier's covered + partial nodes (exact)."""
        return int(
            self._node_count[frontier.covered].sum()
            + self._node_count[frontier.partial].sum()
        )

    def skip_rate(self, query: AggregateQuery) -> float:
        """Fraction of dataset tuples whose contribution never touches samples."""
        population = int(self._node_count[0])
        if population == 0:
            return 1.0
        partial_rows = self.query_frontier(query).partial
        return 1.0 - int(self._node_count[partial_rows].sum()) / population

    # ------------------------------------------------------------------
    # Hard bounds (Section 2.3) over node rows
    # ------------------------------------------------------------------
    def hard_bounds_rows(
        self,
        agg: AggregateType,
        covered_rows: np.ndarray,
        partial_rows: np.ndarray,
    ) -> HardBounds:
        """:func:`repro.aggregation.strat_agg.hard_bounds` over node rows.

        Faithful replication — Python-scalar summation in row order after
        dropping empty partitions — so the bounds are bit-identical to that
        function's over the same statistics.
        """
        counts_cov = self._node_count[covered_rows].tolist()
        counts_par = self._node_count[partial_rows].tolist()

        if agg in (AggregateType.SUM, AggregateType.COUNT):
            if agg == AggregateType.SUM:
                vals_cov = self._node_sum[covered_rows].tolist()
                vals_par = self._node_sum[partial_rows].tolist()
                covered_total = sum(
                    value for value, count in zip(vals_cov, counts_cov) if count
                )
                partial_total = sum(
                    value for value, count in zip(vals_par, counts_par) if count
                )
            else:
                covered_total = sum(float(count) for count in counts_cov if count)
                partial_total = sum(float(count) for count in counts_par if count)
            return HardBounds(
                lower=covered_total, upper=covered_total + partial_total
            )

        if agg == AggregateType.AVG:
            sums_cov = self._node_sum[covered_rows].tolist()
            covered_sum = sum(
                value for value, count in zip(sums_cov, counts_cov) if count
            )
            covered_count = sum(count for count in counts_cov if count)
            covered_avg = (
                covered_sum / covered_count if covered_count else float("nan")
            )
            maxs_par = self._node_max[partial_rows].tolist()
            mins_par = self._node_min[partial_rows].tolist()
            partial_max = max(
                (value for value, count in zip(maxs_par, counts_par) if count),
                default=-math.inf,
            )
            partial_min = min(
                (value for value, count in zip(mins_par, counts_par) if count),
                default=math.inf,
            )
            has_partial = any(counts_par)
            if covered_count and has_partial:
                return HardBounds(
                    lower=min(covered_avg, partial_min),
                    upper=max(covered_avg, partial_max),
                )
            if covered_count:
                return HardBounds(lower=covered_avg, upper=covered_avg)
            if has_partial:
                return HardBounds(lower=partial_min, upper=partial_max)
            return HardBounds(lower=math.nan, upper=math.nan)

        if agg == AggregateType.MAX:
            maxs_cov = self._node_max[covered_rows].tolist()
            maxs_par = self._node_max[partial_rows].tolist()
            covered_max = max(
                (value for value, count in zip(maxs_cov, counts_cov) if count),
                default=-math.inf,
            )
            partial_max = max(
                (value for value, count in zip(maxs_par, counts_par) if count),
                default=-math.inf,
            )
            has_covered = any(counts_cov)
            if not has_covered and not any(counts_par):
                return HardBounds(lower=math.nan, upper=math.nan)
            lower = covered_max if has_covered else -math.inf
            return HardBounds(lower=lower, upper=max(covered_max, partial_max))

        if agg == AggregateType.MIN:
            mins_cov = self._node_min[covered_rows].tolist()
            mins_par = self._node_min[partial_rows].tolist()
            covered_min = min(
                (value for value, count in zip(mins_cov, counts_cov) if count),
                default=math.inf,
            )
            partial_min = min(
                (value for value, count in zip(mins_par, counts_par) if count),
                default=math.inf,
            )
            has_covered = any(counts_cov)
            if not has_covered and not any(counts_par):
                return HardBounds(lower=math.nan, upper=math.nan)
            upper = covered_min if has_covered else math.inf
            return HardBounds(lower=min(covered_min, partial_min), upper=upper)

        raise ValueError(f"unsupported aggregate: {agg!r}")

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
        state; :meth:`query` and the batch executor both end here, which is
        what makes a batch bit-identical to sequential execution.  ``lam``
        scales the CLT interval, which QUANTILE / COUNT_DISTINCT answers do
        not have (their bounds are the union's certified ones).
        """
        if query.value_column != self._value_column:
            raise ValueError(
                f"synopsis was built for column {self._value_column!r}, "
                f"query aggregates {query.value_column!r}"
            )
        lam = self._lam if lam is None else lam
        agg = query.agg
        if agg in (AggregateType.QUANTILE, AggregateType.COUNT_DISTINCT):
            return sketch_union_result(
                query, self._frontier_union(query, frontier), int(self._node_count[0])
            )
        bounds = self.hard_bounds_rows(agg, frontier.covered, frontier.partial)

        partial_rows = frontier.partial
        leaves = self._leaf_of_row[partial_rows]
        sample_counts = self._sample_counts[leaves]
        sizes = self._node_count[partial_rows]
        processed = int(sample_counts.sum())
        skipped = int(self._node_count[0]) - int(sizes.sum())

        constraints = (
            self._mask_constraints(query.predicate)
            if partial_rows.shape[0]
            else []
        )
        if agg in (AggregateType.MIN, AggregateType.MAX):
            return self._extremum_answer(
                agg, frontier, leaves, constraints, bounds, processed, skipped
            )
        partial = (
            sizes.tolist(),
            leaves.tolist(),
            self._node_sum[partial_rows].tolist(),
            sample_counts.tolist(),
        )
        if agg == AggregateType.AVG:
            estimate, variance = self._avg_estimate(frontier, partial, constraints)
        else:
            estimate, variance = self._sum_count_estimate(
                agg, frontier, partial, constraints
            )

        exact = frontier.is_exact
        if exact:
            half_width = 0.0
            variance = 0.0
        elif math.isnan(variance):
            half_width = float("nan")
            variance = float("nan")
        else:
            half_width = lam * math.sqrt(max(variance, 0.0))
        return AQPResult(
            estimate=estimate,
            ci_half_width=half_width,
            variance=variance,
            hard_lower=bounds.lower,
            hard_upper=bounds.upper,
            tuples_processed=processed,
            tuples_skipped=skipped,
            exact=exact,
        )

    def _frontier_gather(
        self, leaves: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The frontier gather ``(counts, loc, index)`` of ``leaves``' samples.

        :func:`_row_index` of the leaves' rows, in the given leaf order:
        leaf ``i`` owns positions ``loc[i]:loc[i + 1]`` of ``index`` and
        ``counts[i]`` rows (none for an unsampled leaf).  Built per frontier
        and dropped with it — nothing is cached or stored.
        """
        counts = self._sample_counts[leaves]
        loc, index = _row_index(self._samples.offsets[leaves], counts)
        return counts, loc, index

    def _gathered_mask(
        self,
        constraints: Sequence[tuple[np.ndarray, float, float]],
        index: np.ndarray,
    ) -> np.ndarray:
        """:meth:`_leaf_mask` over the gathered rows: one ``take`` per column."""
        return self._leaf_mask(
            [(values.take(index), low, high) for values, low, high in constraints],
            0,
            index.shape[0],
        )

    def _batched_partial_moments(
        self,
        partial: tuple[list[int], list[int], list[float], list[int]],
        constraints: Sequence[tuple[np.ndarray, float, float]],
        need_sum: bool,
        need_count: bool,
    ) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
        """Stratified ``(estimate, variance)`` pairs for sampled partial leaves.

        One pair per leaf of ``partial`` (:meth:`answer`'s per-partial-row
        lists) with ``size > 0`` and a non-empty sample, in frontier order.
        Evaluates the predicate mask and the squared deviations once over the
        frontier gather of those leaves (a handful of vector ops total), then
        reduces each leaf's contiguous segment with ``np.add.reduce`` — the
        same pairwise summation over the same values in the same order as
        the per-leaf scalar path, so every returned pair is bit-identical to
        :func:`_stratum_contribution` on that leaf while amortizing the numpy
        call overhead across the whole frontier.
        """
        sizes, leaves, _, sample_counts = partial
        samples = self._samples
        sum_pairs: list[tuple[float, float]] = []
        count_pairs: list[tuple[float, float]] = []
        if len(leaves) <= _SCALAR_FRONTIER_LEAVES:
            offsets = samples.offsets
            values_column = (
                samples.columns[self._value_column] if need_sum else None
            )
            for size, leaf, n_sample in zip(sizes, leaves, sample_counts):
                if size == 0 or n_sample == 0:
                    continue
                start = int(offsets[leaf])
                stop = start + n_sample
                data = self._leaf_mask(constraints, start, stop).astype(float)
                if need_count:
                    count_pairs.append(
                        _stratum_contribution(data, size, self._with_fpc)
                    )
                if need_sum:
                    np.multiply(data, values_column[start:stop], out=data)
                    sum_pairs.append(
                        _stratum_contribution(data, size, self._with_fpc)
                    )
            return sum_pairs, count_pairs
        sampled = np.array(
            [
                (size, leaf)
                for size, leaf, n_sample in zip(sizes, leaves, sample_counts)
                if size > 0 and n_sample > 0
            ],
            dtype=np.int64,
        ).reshape(-1, 2)
        strata_sizes = sampled[:, 0].astype(float)
        counts, loc, index = self._frontier_gather(sampled[:, 1])
        indicator = self._gathered_mask(constraints, index).astype(float)
        bounds = loc.tolist()
        if need_sum:
            contributions = samples.columns[self._value_column].take(index)
            np.multiply(indicator, contributions, out=contributions)
            sum_pairs = self._segment_pairs(
                contributions,
                _slice_sums(contributions, bounds),
                bounds,
                counts,
                strata_sizes,
            )
        if need_count:
            # Sums of 0.0 / 1.0 are exact integers in any order, so the
            # sequential ``reduceat`` returns the pairwise sum's bits.
            count_pairs = self._segment_pairs(
                indicator,
                np.add.reduceat(indicator, loc[:-1]),
                bounds,
                counts,
                strata_sizes,
            )
        return sum_pairs, count_pairs

    def _segment_pairs(
        self,
        data: np.ndarray,
        segment_sums: np.ndarray,
        bounds: Sequence[int],
        counts: np.ndarray,
        strata_sizes: np.ndarray,
    ) -> list[tuple[float, float]]:
        """Per-segment stratified ``(estimate, variance)`` over ``data``.

        Segment ``i`` spans ``data[bounds[i]:bounds[i + 1]]`` (``counts[i]``
        rows), sums to ``segment_sums[i]`` and scales to stratum size
        ``strata_sizes[i]`` (float64).  Means and squared deviations follow
        the exact ufunc sequence of :func:`_fast_mean` / :func:`_fast_var`;
        the mean division, ``size**2 * var / k``, the ``k <= 1`` rule and the
        finite-population correction run as whole-frontier float64 array
        operations — the same IEEE operations in the same order as the scalar
        replicas, on integers float64 holds exactly, so the same bits.
        """
        sample_sizes = counts.astype(float)
        means = segment_sums / sample_sizes
        deviations = data - np.repeat(means, counts)
        np.multiply(deviations, deviations, out=deviations)
        sample_variances = _slice_sums(deviations, bounds) / sample_sizes
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

    def _sum_count_estimate(
        self,
        agg: AggregateType,
        frontier: FlatFrontier,
        partial: tuple[list[int], list[int], list[float], list[int]],
        constraints: Sequence[tuple[np.ndarray, float, float]],
    ) -> tuple[float, float]:
        """SUM / COUNT estimate + variance, mirroring the object accumulation.

        ``partial`` holds the per-partial-row ``(sizes, leaf indices, node
        sums, sample counts)`` lists :meth:`answer` gathered.

        Covered nodes contribute exactly (Python-scalar sums in row order);
        each sampled partial leaf adds its stratified contribution; an
        unsampled one adds the hard-bound midpoint and poisons the variance
        with NaN — exactly the reference accumulation in ``tests/oracle.py``.
        """
        is_sum = agg == AggregateType.SUM
        if is_sum:
            estimate = sum(self._node_sum[frontier.covered].tolist())
        else:
            estimate = float(sum(self._node_count[frontier.covered].tolist()))
        variance = 0.0
        sizes, _, node_sums, sample_counts = partial
        sum_pairs, count_pairs = self._batched_partial_moments(
            partial, constraints, need_sum=is_sum, need_count=not is_sum
        )
        pairs = sum_pairs if is_sum else count_pairs
        next_pair = 0
        for size, node_sum, n_sample in zip(sizes, node_sums, sample_counts):
            if size == 0:
                estimate = estimate + 0.0
                variance = variance + 0.0
                continue
            if n_sample == 0:
                midpoint = 0.5 * (node_sum if is_sum else size)
                estimate = estimate + midpoint
                variance = float("nan")
                continue
            part_est, part_var = pairs[next_pair]
            next_pair += 1
            estimate = estimate + part_est
            variance = variance + part_var
        return estimate, variance

    def _avg_estimate(
        self,
        frontier: FlatFrontier,
        partial: tuple[list[int], list[int], list[float], list[int]],
        constraints: Sequence[tuple[np.ndarray, float, float]],
    ) -> tuple[float, float]:
        """AVG as the SUM/COUNT delta-method ratio, with one mask per leaf.

        The reference runs two independent passes (SUM then COUNT), each
        re-evaluating the predicate mask; both accumulate the exact same
        per-leaf masks, so computing the mask once and feeding both
        accumulators yields bit-identical numerator and denominator.
        """
        num = sum(self._node_sum[frontier.covered].tolist())
        num_var = 0.0
        den = float(sum(self._node_count[frontier.covered].tolist()))
        den_var = 0.0
        sizes, _, node_sums, sample_counts = partial
        sum_pairs, count_pairs = self._batched_partial_moments(
            partial, constraints, need_sum=True, need_count=True
        )
        next_pair = 0
        for size, node_sum, n_sample in zip(sizes, node_sums, sample_counts):
            if size == 0:
                num = num + 0.0
                num_var = num_var + 0.0
                den = den + 0.0
                den_var = den_var + 0.0
                continue
            if n_sample == 0:
                num = num + 0.5 * node_sum
                num_var = float("nan")
                den = den + 0.5 * size
                den_var = float("nan")
                continue
            sum_est, sum_var = sum_pairs[next_pair]
            cnt_est, cnt_var = count_pairs[next_pair]
            next_pair += 1
            num = num + sum_est
            num_var = num_var + sum_var
            den = den + cnt_est
            den_var = den_var + cnt_var
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

        ``leaves`` are the partial rows' leaf indices.  Every leaf with a
        matched sample row contributes its matched extremum as one candidate,
        in row order.
        """
        is_max = agg == AggregateType.MAX
        stats_values = (self._node_max if is_max else self._node_min)[
            frontier.covered
        ].tolist()
        candidates = [value for value in stats_values if not math.isinf(value)]
        values_column = self._samples.columns.get(self._value_column)
        if leaves.shape[0] <= _SCALAR_FRONTIER_LEAVES:
            offsets = self._samples.offsets
            counts = self._sample_counts
            for leaf in leaves.tolist():
                start = int(offsets[leaf])
                stop = start + int(counts[leaf])
                if stop == start:
                    continue
                mask = self._leaf_mask(constraints, start, stop)
                matched = values_column[start:stop][mask]
                if matched.shape[0]:
                    candidates.append(
                        float(matched.max() if is_max else matched.min())
                    )
        else:
            _, loc, index = self._frontier_gather(leaves)
            # Compacting keeps each leaf's matched values contiguous and in
            # sample order — the very array the per-leaf path reduces — and
            # the leaf boundaries inside it are where the (sorted) matched
            # positions cross ``loc``; an unsampled leaf spans nothing.
            matched_rows = np.flatnonzero(self._gathered_mask(constraints, index))
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

        The union is the scatter-gather hand-off: per-shard unions merge
        with :meth:`QuantileSketchUnion.merge` /
        :meth:`DistinctSketchUnion.merge`, and
        :func:`~repro.sketches.union.sketch_union_result` turns any union
        into an :class:`~repro.result.AQPResult`.
        """
        if query.value_column != self._value_column:
            raise ValueError(
                f"synopsis was built for column {self._value_column!r}, "
                f"query aggregates {query.value_column!r}"
            )
        if frontier is None:
            frontier = self.query_frontier(query)
        return self._frontier_union(query, frontier)

    def _frontier_union(
        self, query: AggregateQuery, frontier: FlatFrontier
    ) -> QuantileSketchUnion | DistinctSketchUnion:
        """:meth:`sketch_union`'s kernel, for a query already checked."""
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

    # ------------------------------------------------------------------
    # Grouped execution kernels (driven by repro.core.batching.grouped_query)
    # ------------------------------------------------------------------
    def grouped_leaf_moments(
        self,
        items: Sequence[tuple[RectPredicate, FlatFrontier]],
        need_extrema: bool,
    ) -> dict[tuple[int, int], _LeafMoments | None]:
        """Per-(cell slot, leaf) masked-sample moments, one matrix pass per leaf.

        ``items`` holds one ``(predicate, frontier)`` pair per slot.  Per
        partially-overlapped leaf, the match masks of every cell touching it
        are evaluated in one broadcasted comparison over the leaf's CSR
        slice and reduced with matrix products.  ``None`` marks an unsampled
        leaf (the caller falls back to the hard-bound midpoint, exactly like
        the sequential estimator).
        """
        per_leaf: dict[int, list[int]] = {}
        leaf_of_row = self._leaf_of_row
        for slot, (_, frontier) in enumerate(items):
            for leaf in leaf_of_row[frontier.partial].tolist():
                per_leaf.setdefault(leaf, []).append(slot)

        moments: dict[tuple[int, int], _LeafMoments | None] = {}
        samples = self._samples
        offsets = samples.offsets
        value_values = samples.columns.get(self._value_column)
        for leaf_index, slots in per_leaf.items():
            start = int(offsets[leaf_index])
            n_samples = int(self._sample_counts[leaf_index])
            stop = start + n_samples
            if n_samples == 0:
                for slot in slots:
                    moments[(slot, leaf_index)] = None
                continue
            matrix = np.ones((len(slots), n_samples), dtype=bool)
            columns: dict[str, None] = {}
            for slot in slots:
                for column, _, _ in items[slot][0].canonical_key():
                    columns.setdefault(column, None)
            for column in columns:
                values = samples.columns[column][start:stop]
                intervals = [items[slot][0].interval(column) for slot in slots]
                lows = np.array([interval.low for interval in intervals])
                highs = np.array([interval.high for interval in intervals])
                matrix &= (values[None, :] >= lows[:, None]) & (
                    values[None, :] <= highs[:, None]
                )
            sample_values = value_values[start:stop]
            matched = matrix.sum(axis=1)
            sums = matrix @ sample_values
            sums_sq = matrix @ (sample_values * sample_values)
            if need_extrema:
                minima = np.where(matrix, sample_values[None, :], np.inf).min(axis=1)
                maxima = np.where(matrix, sample_values[None, :], -np.inf).max(
                    axis=1
                )
            else:
                minima = maxima = np.zeros(len(slots))
            for row, slot in enumerate(slots):
                moments[(slot, leaf_index)] = (
                    int(matched[row]),
                    float(sums[row]),
                    float(sums_sq[row]),
                    float(minima[row]),
                    float(maxima[row]),
                    float(n_samples),
                )
        return moments

    def _stratified_total(
        self,
        agg: AggregateType,
        frontier: FlatFrontier,
        cell_moments: Sequence[_LeafMoments | None],
        with_fpc: bool,
    ) -> tuple[float, float]:
        """SUM / COUNT estimate + variance from per-leaf moments.

        Same stratified formulas as :meth:`_sum_count_estimate`: covered
        nodes contribute exactly, sampled partial leaves contribute
        ``N_i * mean(phi)`` with variance ``N_i^2 * var(phi) / K_i``, and
        unsampled partial leaves fall back to the hard-bound midpoint with
        unknown (NaN) variance.  ``cell_moments`` aligns with
        ``frontier.partial``.
        """
        is_sum = agg == AggregateType.SUM
        if is_sum:
            estimate = sum(self._node_sum[frontier.covered].tolist())
        else:
            estimate = sum(
                float(count) for count in self._node_count[frontier.covered].tolist()
            )
        variance = 0.0
        sizes = self._node_count[frontier.partial].tolist()
        node_sums = self._node_sum[frontier.partial].tolist()
        for size, node_sum, data in zip(sizes, node_sums, cell_moments):
            if size == 0:
                continue
            if data is None:
                estimate += 0.5 * (node_sum if is_sum else size)
                variance = float("nan")
                continue
            matched, sums, sums_sq, _, _, n_samples = data
            if is_sum:
                mean = sums / n_samples
                mean_sq = sums_sq / n_samples
            else:
                mean = matched / n_samples
                mean_sq = mean
            sample_variance = (
                max(mean_sq - mean * mean, 0.0) if n_samples > 1 else 0.0
            )
            estimate += size * mean
            contribution = size * size * sample_variance / n_samples
            if with_fpc:
                contribution *= finite_population_correction(size, int(n_samples))
            variance += contribution
        return estimate, variance

    def assemble_cell_row(
        self,
        aggs: Sequence[AggregateType],
        frontier: FlatFrontier,
        moments: dict[tuple[int, int], _LeafMoments | None],
        slot: int,
        lam: float,
        with_fpc: bool,
        population: int,
    ) -> tuple[AQPResult, ...]:
        """One group cell's per-aggregate answers from rows and moments.

        The per-cell invariants (processed / skipped counts, the SUM and
        COUNT totals that AVG shares) are computed once for the whole
        aggregate list.
        """
        partial_rows = frontier.partial
        leaf_ids = self._leaf_of_row[partial_rows].tolist()
        cell_moments = [moments[(slot, leaf)] for leaf in leaf_ids]
        processed = sum(int(data[5]) for data in cell_moments if data is not None)
        partial_sizes = self._node_count[partial_rows].tolist()
        skipped = population - sum(partial_sizes)
        exact = frontier.is_exact
        totals: dict[AggregateType, tuple[float, float]] = {}

        def total(agg: AggregateType) -> tuple[float, float]:
            if agg not in totals:
                totals[agg] = self._stratified_total(
                    agg, frontier, cell_moments, with_fpc
                )
            return totals[agg]

        row = []
        for agg in aggs:
            bounds = self.hard_bounds_rows(agg, frontier.covered, partial_rows)
            if agg in (AggregateType.MIN, AggregateType.MAX):
                is_max = agg == AggregateType.MAX
                stats_values = (self._node_max if is_max else self._node_min)[
                    frontier.covered
                ].tolist()
                candidates = [
                    value for value in stats_values if not math.isinf(value)
                ]
                for data in cell_moments:
                    if data is not None and data[0] > 0:
                        candidates.append(data[4] if is_max else data[3])
                estimate = (
                    (max(candidates) if is_max else min(candidates))
                    if candidates
                    else float("nan")
                )
                row.append(
                    AQPResult(
                        estimate=estimate,
                        ci_half_width=0.0 if exact else float("nan"),
                        variance=0.0 if exact else float("nan"),
                        hard_lower=bounds.lower,
                        hard_upper=bounds.upper,
                        tuples_processed=processed,
                        tuples_skipped=skipped,
                        exact=exact,
                    )
                )
                continue

            if agg == AggregateType.AVG:
                num, num_var = total(AggregateType.SUM)
                den, den_var = total(AggregateType.COUNT)
                if den == 0:
                    estimate, variance = float("nan"), float("nan")
                elif exact:
                    estimate, variance = num / den, 0.0
                else:
                    combined = ratio_estimate(
                        EstimateWithVariance(num, num_var),
                        EstimateWithVariance(den, den_var),
                    )
                    estimate, variance = combined.estimate, combined.variance
            else:
                estimate, variance = total(agg)

            if exact:
                half_width, variance = 0.0, 0.0
            elif math.isnan(variance):
                half_width = float("nan")
            else:
                half_width = lam * math.sqrt(max(variance, 0.0))
            row.append(
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
        return tuple(row)
