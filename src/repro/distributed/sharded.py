"""A sharded synopsis: the shards' partition trees stitched under one root.

A shard is a union of partitions, so it is an internal node of one PASS
tree.  :class:`ShardedSynopsis` takes one synopsis per shard, each built on
its own rows (:func:`repro.distributed.parallel.build_sharded_from_plan`),
and *stitches* their ``export_buffers()`` into one ``(header, arrays)``
under a new root:

* each shard's subtree is a contiguous node-row range (the ``shard_rows``
  array), laid out in geometry order — the root, then the last shard's rows
  first, because children are pushed left to right and popped in reverse —
  so the stitched tree keeps every invariant of a built one;
* leaves, samples, sketches and, for dynamic shards, the reservoirs'
  ``seen`` / ``capacity`` are concatenated in shard order; every shard's
  statistics, samples and sketches are its build's, byte for byte;
* the root merges the shard roots' statistics left to right and bounds
  their boxes;
* every node of a shard is clipped to the shard's key box.  The closed-form
  frontier (``covered = cover & partial[parent]``) needs every child box
  inside its parent's, and a shard's own outer leaves reach to ±inf beyond
  its key range.  The key-box columns join ``columns`` when the shards were
  partitioned on others.

The result *is* a :class:`~repro.core.soa.FlatSynopsis`: ``batch_query``,
``grouped_query`` and ``sketch_union`` answer it with the one kernel, shard
pruning is the descent, and it saves as one file and publishes as one
segment.  Range shards are told apart by their clipped boxes.  Hash shards
overlap in key space (their key boxes are unbounded) but partition the
rows; the kernel sums across siblings, so they stay correct, and a point
predicate on the shard column keeps only its owner's rows of the frontier
(``FlatSynopsis._owner_only``).

Updates go to the stitched arrays in place: a row picks its shard by
routing (:class:`~repro.distributed.planner.ShardRouting`) first, then its
leaf among that shard's rows.  Per-shard drift counters (updates,
sketch-stale and extremum deletes, build population) live in the header,
so the worst shard's drift is the synopsis' gauge.  A per-shard rebuild
builds the replacement on its own and re-stitches that slice
(:meth:`ShardedSynopsis.replace_shard`); the higher-level policy lives in
:class:`repro.distributed.router.StreamingShardRouter`.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.batching import batch_query, grouped_query
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.planner import ShardRouting
from repro.query.groupby import GroupByPlan, GroupByQuery, GroupedResult
from repro.query.predicate import Box, Interval
from repro.query.query import AggregateQuery
from repro.result import AQPResult, LAMBDA_99

__all__ = ["ShardedSynopsis", "DynamicShardedSynopsis"]

#: Per-node arrays, stitched root first and sliced back per shard.
_NODE_STATS = ("node_sum", "node_count", "node_min", "node_max", "is_leaf")
#: Per-shard drift counters: the dynamic header fields, in ``shard_drift``
#: column order.
_DRIFT_FIELDS = (
    "updates_since_build",
    "sketch_stale_deletes",
    "extrema_stale_deletes",
)
#: Build parameters a dynamic stitch takes from its first dynamic shard.
_DYNAMIC_FIELDS = (
    "predicate_columns",
    "extra_sample_columns",
    "config",
    "reservoir_capacity",
)


def _stitch(
    pieces: Sequence[tuple[Mapping, Mapping[str, np.ndarray]]],
    routing: ShardRouting,
    lam: float,
    build_seconds: float,
) -> tuple[dict, dict[str, np.ndarray]]:
    """One ``(header, arrays)`` with the shards' trees under a new root.

    ``pieces`` are the shards' ``export_buffers()`` in shard order (compact
    samples); see the module docstring for the layout.
    """
    first = pieces[0][0]
    for header, _ in pieces:
        if header["sample_columns"] != first["sample_columns"]:
            raise ValueError("shards sample different columns")
    columns = sorted(
        {column for header, _ in pieces for column in header["columns"]}
        | {column for box in routing.key_boxes for column in box.columns}
    )
    sizes = [arrays["node_sum"].shape[0] for _, arrays in pieces]
    starts = [0] * len(pieces)
    row = 1
    for index in reversed(range(len(pieces))):
        starts[index] = row
        row += sizes[index]
    leaf_counts = [arrays["sample_offsets"].shape[0] - 1 for _, arrays in pieces]
    leaf_base = np.concatenate([[0], np.cumsum(leaf_counts)]).tolist()
    in_rows = list(reversed(range(len(pieces))))

    # The root: the shard roots' statistics merged left to right from the
    # empty partition (as the builder merges children), their bounding box.
    total, count, low, high = 0.0, 0, math.inf, -math.inf
    for _, arrays in pieces:
        total += float(arrays["node_sum"][0])
        count += int(arrays["node_count"][0])
        low = min(low, float(arrays["node_min"][0]))
        high = max(high, float(arrays["node_max"][0]))
    root = {
        "node_sum": total,
        "node_count": count,
        "node_min": low,
        "node_max": high,
        "is_leaf": False,
    }
    out: dict[str, np.ndarray] = {
        key: np.concatenate(
            [np.array([root[key]], dtype=pieces[0][1][key].dtype)]
            + [pieces[i][1][key] for i in in_rows]
        )
        for key in _NODE_STATS
    }

    def shifted(key: str, index: int, root_value: int) -> np.ndarray:
        values = pieces[index][1][key] + starts[index]
        values[0] = root_value
        return values

    out["parent"] = np.concatenate([[-1]] + [shifted("parent", i, 0) for i in in_rows])
    out["parent0"] = np.concatenate([[0]] + [shifted("parent0", i, 0) for i in in_rows])
    out["depth"] = np.concatenate([[0]] + [pieces[i][1]["depth"] + 1 for i in in_rows])
    leaves = [arrays["leaf_of_row"] for _, arrays in pieces]
    out["leaf_of_row"] = np.concatenate(
        [[-1]]
        + [np.where(leaves[i] >= 0, leaves[i] + leaf_base[i], -1) for i in in_rows]
    )

    # Bounds in the stitched column order, every node clipped to its shard's
    # key box; the root bounds the clipped shard roots.
    bounds = []
    for index, (header, arrays) in enumerate(pieces):
        lows = np.full((len(columns), sizes[index]), -np.inf)
        highs = np.full((len(columns), sizes[index]), np.inf)
        for c, column in enumerate(header["columns"]):
            lows[columns.index(column)] = arrays["col_lows"][c]
            highs[columns.index(column)] = arrays["col_highs"][c]
        for column, interval in routing.key_boxes[index].intervals.items():
            c = columns.index(column)
            np.maximum(lows[c], interval.low, out=lows[c])
            np.minimum(highs[c], interval.high, out=highs[c])
        bounds.append((lows, highs))
    for side, (key, pick) in enumerate((("col_lows", np.min), ("col_highs", np.max))):
        root_bound = pick([bound[side][:, 0] for bound in bounds], axis=0)
        out[key] = np.ascontiguousarray(
            np.concatenate(
                [root_bound[:, None]] + [bounds[i][side] for i in in_rows], axis=1
            )
        )

    offsets = [arrays["sample_offsets"] for _, arrays in pieces]
    sample_base = np.cumsum([0] + [int(offset[-1]) for offset in offsets])
    out["sample_offsets"] = np.concatenate(
        [offset[:-1] + base for offset, base in zip(offsets, sample_base)]
        + [sample_base[-1:]]
    ).astype(np.int64)
    for column in first["sample_columns"]:
        out[f"sample/{column}"] = np.concatenate(
            [arrays[f"sample/{column}"] for _, arrays in pieces]
        )
    sketch_keys = list(first["sketch_keys"])
    if sketch_keys and all(h["sketch_keys"] == sketch_keys for h, _ in pieces):
        for key in ["lengths", *sketch_keys]:
            out[f"sketch/{key}"] = np.concatenate(
                [arrays[f"sketch/{key}"] for _, arrays in pieces]
            )
    else:
        sketch_keys = []
    kinds = [header.get("kind") == "dynamic" for header, _ in pieces]
    dynamic = any(kinds)
    if dynamic:
        # A static shard's reservoirs are full (seen = capacity = its sample
        # size); no update reaches them (``ShardedSynopsis._update``).
        for key in ("seen", "capacity"):
            out[key] = np.concatenate(
                [
                    arrays[key] if is_dynamic else np.diff(arrays["sample_offsets"])
                    for (_, arrays), is_dynamic in zip(pieces, kinds)
                ]
            )
    out["shard_rows"] = np.array(
        [[start, start + size] for start, size in zip(starts, sizes)], dtype=np.int64
    )

    header = {
        "value_column": first["value_column"],
        "lam": lam,
        "zero_variance_rule": first["zero_variance_rule"],
        "with_fpc": first["with_fpc"],
        "columns": columns,
        "sample_columns": list(first["sample_columns"]),
        "sketch_keys": sketch_keys,
        "build_seconds": build_seconds,
        "effective_partitioner": first.get("effective_partitioner"),
        "sharding": {
            "strategy": routing.strategy,
            "shard_column": routing.shard_column,
            "key_boxes": [
                {column: [i.low, i.high] for column, i in box.intervals.items()}
                for box in routing.key_boxes
            ],
            "hash_modulus": routing.hash_modulus,
            "hash_owners": list(routing.hash_owners),
        },
        "kind": "sharded",
        "dynamic": dynamic,
        "shard_dynamic": kinds,
        "shard_drift": [
            [int(header.get(field, 0)) for field in _DRIFT_FIELDS]
            for header, _ in pieces
        ],
        "shard_build_population": [
            int(header.get("build_population", arrays["node_count"][0]))
            for header, arrays in pieces
        ],
        "shard_build_seconds": [
            float(header.get("build_seconds", 0.0)) for header, _ in pieces
        ],
    }
    if dynamic:
        # The build parameters of the first dynamic shard; it was built with
        # seed ``config.seed + index``, the stitch keeps the base seed.
        index = kinds.index(True)
        source = pieces[index][0]
        header.update({field: source[field] for field in _DYNAMIC_FIELDS})
        header["config"] = dict(source["config"], seed=source["config"]["seed"] - index)
        drift = np.array(header["shard_drift"]).sum(axis=0).tolist()
        header.update(zip(_DRIFT_FIELDS, drift))
        header["build_population"] = sum(header["shard_build_population"])
        header["minmax_possibly_stale"] = any(
            piece.get("minmax_possibly_stale", False) for piece, _ in pieces
        )
    return header, out


def _unstitch(
    header: Mapping, arrays: Mapping[str, np.ndarray]
) -> list[tuple[dict, dict[str, np.ndarray]]]:
    """The inverse of :func:`_stitch`: each shard's ``(header, arrays)``.

    Statistics, samples, sketches and reservoirs are the shard's slices; its
    topology is rebased to its own root and its bounds stay clipped.  Every
    shard's header carries its build facts and drift counters; a dynamic
    shard's also its build seed (``config.seed + shard index``, as
    :func:`build_sharded_from_plan` built it) and its reservoirs.
    """
    rows = arrays["shard_rows"].tolist()
    is_leaf = arrays["is_leaf"]
    leaf_base = np.cumsum([0] + [int(is_leaf[a:b].sum()) for a, b in rows]).tolist()
    offsets = arrays["sample_offsets"]
    sketch_keys = list(header["sketch_keys"])
    if sketch_keys:
        lengths = arrays["sketch/lengths"]
        sketch_ends = np.vstack(
            [np.zeros((1, lengths.shape[1]), np.int64), lengths.cumsum(0)]
        )
    common = {
        key: header[key]
        for key in (
            "value_column",
            "lam",
            "zero_variance_rule",
            "with_fpc",
            "columns",
            "sample_columns",
            "sketch_keys",
            "effective_partitioner",
        )
    }
    pieces = []
    for index, (start, stop) in enumerate(rows):
        first_leaf, last_leaf = leaf_base[index], leaf_base[index + 1]
        piece = {key: arrays[key][start:stop] for key in _NODE_STATS}
        for key in ("parent", "parent0"):
            piece[key] = arrays[key][start:stop] - start
        piece["parent"][0] = -1
        piece["parent0"][0] = 0
        piece["depth"] = arrays["depth"][start:stop] - 1
        leaf = arrays["leaf_of_row"][start:stop]
        piece["leaf_of_row"] = np.where(leaf >= 0, leaf - first_leaf, -1)
        for key in ("col_lows", "col_highs"):
            piece[key] = np.ascontiguousarray(arrays[key][:, start:stop])
        first_slot, last_slot = offsets[[first_leaf, last_leaf]].tolist()
        piece["sample_offsets"] = offsets[first_leaf : last_leaf + 1] - first_slot
        for column in header["sample_columns"]:
            piece[f"sample/{column}"] = arrays[f"sample/{column}"][first_slot:last_slot]
        if sketch_keys:
            piece["sketch/lengths"] = lengths[first_leaf:last_leaf]
            for c, key in enumerate(sketch_keys):
                low, high = sketch_ends[[first_leaf, last_leaf], c].tolist()
                piece[f"sketch/{key}"] = arrays[f"sketch/{key}"][low:high]
        drift = header["shard_drift"][index]
        piece_header = dict(
            common,
            build_seconds=header["shard_build_seconds"][index],
            build_population=header["shard_build_population"][index],
        )
        piece_header.update(zip(_DRIFT_FIELDS, drift))
        if header["shard_dynamic"][index]:
            for key in ("seen", "capacity"):
                piece[key] = arrays[key][first_leaf:last_leaf]
            config = dict(header["config"], seed=header["config"]["seed"] + index)
            piece_header.update({field: header[field] for field in _DYNAMIC_FIELDS})
            piece_header.update(
                kind="dynamic", config=config, minmax_possibly_stale=drift[2] > 0
            )
        pieces.append((piece_header, piece))
    return pieces


class ShardedSynopsis(PASSSynopsis):
    """A horizontally sharded PASS synopsis: one stitched tree.

    A stitch over static shards is a :class:`ShardedSynopsis`; one with a
    :class:`DynamicPASS` shard among them is a
    :class:`DynamicShardedSynopsis`, which accepts the updates its dynamic
    shards own.  Constructing, loading (:meth:`from_buffers`) and
    :meth:`replace_shard` pick the class from the shards.

    Parameters
    ----------
    shards:
        Per-shard synopses, aligned with ``key_boxes``, each built on its
        shard's rows.
    key_boxes:
        The region of shard-column space each shard owns (from the
        :class:`~repro.distributed.planner.ShardPlan`); every node of a
        shard is clipped to its box.
    shard_column:
        The column the table was sharded on.
    strategy:
        ``"range"`` or ``"hash"`` — decides how updates are routed and
        whether point predicates prune by hash.
    lam:
        Confidence-interval multiplier of the answers.
    hash_modulus / hash_owners:
        Hash-routing metadata for ``strategy="hash"`` plans (see
        :class:`~repro.distributed.planner.ShardRouting`).
    build_seconds:
        Wall-clock build cost of all the shards.
    """

    def __init__(
        self,
        shards: Sequence[PASSSynopsis],
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
        value_columns = {shard.value_column for shard in shards}
        if len(value_columns) != 1:
            raise ValueError(
                f"shards aggregate different value columns: {sorted(value_columns)}"
            )
        if strategy == "hash" and hash_modulus is None:
            raise ValueError("hash sharding requires hash_modulus")
        routing = ShardRouting(
            strategy=strategy,
            shard_column=shard_column,
            key_boxes=tuple(key_boxes),
            hash_modulus=hash_modulus,
            hash_owners=tuple(hash_owners),
        )
        pieces = [shard.export_buffers() for shard in shards]
        self._adopt(_stitch(pieces, routing, lam, build_seconds))

    def _adopt(self, stitched: tuple[dict, dict[str, np.ndarray]]) -> None:
        """Become the synopsis over ``stitched``, of the class its shards give.

        ``stitched`` is :func:`_stitch`'s fresh ``(header, arrays)``, so a
        dynamic stitch takes its arrays by reference instead of copying them
        as :meth:`from_buffers` does.  The reservoir RNG carries on.  Not
        atomic for concurrent readers: a served synopsis is re-stitched
        under the engine's write lock (:meth:`StreamingShardRouter.set_write_lock
        <repro.distributed.router.StreamingShardRouter.set_write_lock>`).
        """
        rng = vars(self).get("_rng", 0)
        synopsis = ShardedSynopsis._own_buffers(*stitched, rng=rng)
        self.__class__ = type(synopsis)
        self.__dict__ = vars(synopsis)

    @classmethod
    def from_buffers(
        cls,
        header: Mapping,
        arrays: Mapping[str, np.ndarray],
        rng: np.random.Generator | int | None = 0,
    ) -> "ShardedSynopsis":
        """A sharded synopsis over the ``(header, arrays)`` of :meth:`export_buffers`.

        A static stitch takes the arrays by reference (as
        :meth:`PASSSynopsis.from_buffers`); a stitch with a dynamic shard is
        a :class:`DynamicShardedSynopsis` and copies them (as
        :meth:`DynamicPASS.from_buffers`, which ``rng`` seeds).
        ``ValueError`` for the earlier per-shard layout (``shard<i>/``
        arrays): rebuild such a synopsis from its table.
        """
        if "shard_headers" in header:
            raise ValueError(
                "a sharded synopsis of the per-shard layout (shard<i>/ arrays), "
                "which this build no longer reads: rebuild it from its table"
            )
        if header["dynamic"]:
            arrays = {key: np.array(value) for key, value in arrays.items()}
        return ShardedSynopsis._own_buffers(header, arrays, rng)

    @classmethod
    def _own_buffers(
        cls,
        header: Mapping,
        arrays: Mapping[str, np.ndarray],
        rng: np.random.Generator | int | None,
    ) -> "ShardedSynopsis":
        """:meth:`from_buffers` taking ``arrays`` by reference, also when dynamic."""
        kind = DynamicShardedSynopsis if header["dynamic"] else ShardedSynopsis
        if header["dynamic"]:
            instance = super(ShardedSynopsis, kind)._own_buffers(header, arrays, rng)
        else:
            instance = kind.__new__(kind)
            PASSSynopsis.__init__(instance, header, arrays)
        sharding = header["sharding"]
        instance._routing = ShardRouting(
            strategy=str(sharding["strategy"]),
            shard_column=str(sharding["shard_column"]),
            key_boxes=tuple(
                Box({column: Interval(*bounds) for column, bounds in box.items()})
                for box in sharding["key_boxes"]
            ),
            hash_modulus=sharding["hash_modulus"],
            hash_owners=tuple(sharding["hash_owners"]),
        )
        instance._shard_dynamic = [bool(flag) for flag in header["shard_dynamic"]]
        instance._shard_drift = np.array(header["shard_drift"], dtype=np.int64)
        instance._shard_build_population = np.array(
            header["shard_build_population"], dtype=np.int64
        )
        instance._shard_build_seconds = [
            float(seconds) for seconds in header["shard_build_seconds"]
        ]
        return instance

    def export_buffers(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The stitched ``(header, arrays)`` with ``kind: "sharded"``.

        On top of :meth:`FlatSynopsis.export_buffers` (routing and
        ``shard_rows`` included): which shards are dynamic, their build
        facts and drift counters, and for a
        :class:`DynamicShardedSynopsis` :meth:`DynamicPASS.export_buffers`'
        update state.
        """
        header, arrays = super().export_buffers()
        header.update(
            kind="sharded",
            dynamic=isinstance(self, DynamicPASS),
            shard_dynamic=list(self._shard_dynamic),
            shard_drift=self._shard_drift.tolist(),
            shard_build_population=self._shard_build_population.tolist(),
            shard_build_seconds=list(self._shard_build_seconds),
        )
        return header, arrays

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> list[PASSSynopsis]:
        """Each shard's subtree as a synopsis of its own, in shard order.

        A :class:`DynamicPASS` for a dynamic shard, else a
        :class:`PASSSynopsis`; bounds stay clipped to the key boxes.  Every
        access exports and copies every shard, so take the list once: an
        update to a copy does not reach this synopsis.
        """
        shards = []
        for header, arrays in _unstitch(*self.export_buffers()):
            kind = DynamicPASS if header.get("kind") == "dynamic" else PASSSynopsis
            shards.append(kind.from_buffers(header, arrays))
        return shards

    @property
    def key_boxes(self) -> list[Box]:
        """The per-shard key ranges, in shard order."""
        return list(self._routing.key_boxes)

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self._routing.key_boxes)

    @property
    def shard_column(self) -> str:
        """The column the data was sharded on."""
        return self._routing.shard_column

    @property
    def strategy(self) -> str:
        """The sharding strategy (``"range"`` or ``"hash"``)."""
        return self._routing.strategy

    @property
    def supports_updates(self) -> bool:
        """True when every shard is dynamic.

        A stitch mixing static and dynamic shards still takes the updates
        its dynamic shards own (see :class:`DynamicShardedSynopsis`).
        """
        return all(self._shard_dynamic)

    def shard_population(self, index: int) -> int:
        """Tuples in shard ``index`` (its subtree root's COUNT)."""
        return int(self._node_count[self._shard_rows[index, 0]])

    def per_shard_drift(self) -> np.ndarray:
        """Each shard's drift since its (re)build, ``n_shards x 3``.

        Columns: updates, sketch-stale deletes and extremum-hitting deletes
        (the ``DynamicPASS`` gauges' counters), each over the shard's build
        population.
        """
        return self._shard_drift / np.maximum(1, self._shard_build_population)[:, None]

    def per_shard_staleness(self) -> list[float]:
        """Update drift of each shard since its (re)build."""
        return self.per_shard_drift()[:, 0].tolist()

    @property
    def staleness(self) -> float:
        """Worst per-shard update drift."""
        return float(self.per_shard_drift()[:, 0].max())

    @property
    def sketch_staleness(self) -> float:
        """Worst per-shard sketch drift from unabsorbed deletions."""
        return float(self.per_shard_drift()[:, 1].max())

    @property
    def extrema_staleness(self) -> float:
        """Worst per-shard extrema drift from extremum-hitting deletions."""
        return float(self.per_shard_drift()[:, 2].max())

    # ------------------------------------------------------------------
    # Routing and pruning
    # ------------------------------------------------------------------
    def shard_for_value(self, value: float) -> int:
        """Index of the shard owning a shard-column value."""
        return self._routing.shard_for_value(value)

    def shard_for_row(self, row: Mapping[str, float]) -> int:
        """Index of the shard owning a row."""
        return self._routing.shard_for_row(row)

    def leaf_for_point(self, point: Mapping[str, float]) -> int:
        """The leaf of ``point``'s shard that contains it (routing first).

        A point without the shard column searches every leaf.
        """
        column = self._routing.shard_column
        if column not in point:
            return super().leaf_for_point(point)
        start, stop = self._shard_rows[self.shard_for_value(point[column])].tolist()
        return self._leaf_among(point, start, stop)

    def surviving_shards(self, query: AggregateQuery) -> list[int]:
        """Shards whose subtree the query's descent reaches.

        Shard pruning is the descent: a range shard's clipped root is
        disjoint from a predicate outside its key range, and a hash shard
        survives a point predicate on the shard column only as its owner.
        """
        frontier = self.frontier(query.predicate)
        rows = np.concatenate([frontier.covered, frontier.partial])
        if rows.shape[0] and rows[0] == 0:
            return list(range(self.n_shards))
        return [
            index
            for index, (start, stop) in enumerate(self._shard_rows.tolist())
            if bool(np.any((rows >= start) & (rows < stop)))
        ]

    # ------------------------------------------------------------------
    # Queries: the one kernel
    # ------------------------------------------------------------------
    def query_batch(self, queries: Sequence[AggregateQuery]) -> list[AQPResult]:
        """Answer a batch through :func:`~repro.core.batching.batch_query`."""
        return batch_query(self, queries)

    def query_grouped(self, groupby: GroupByQuery | GroupByPlan) -> GroupedResult:
        """Answer a group-by through :func:`~repro.core.batching.grouped_query`.

        A :class:`~repro.query.groupby.GroupByQuery` is compiled here when
        its groupings are explicit (bin edges or listed values);
        distinct-value discovery needs a table, so compile such queries
        first (see :meth:`GroupByQuery.compile`).
        """
        plan = groupby.compile() if isinstance(groupby, GroupByQuery) else groupby
        return grouped_query(self, plan)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, row: Mapping[str, float]) -> Box:
        """Insert one tuple into its shard's leaf; returns the leaf's box."""
        return self._update(row, "insert")

    def delete(self, row: Mapping[str, float]) -> Box:
        """Delete one tuple from its shard's leaf; returns the leaf's box."""
        return self._update(row, "delete")

    def _update(self, row: Mapping[str, float], kind: str) -> Box:
        """Apply ``DynamicPASS``'s ``kind``; charge its drift to the row's shard.

        ``TypeError``, before any write, when the row's shard is static.
        """
        shard = self.shard_for_row(row)
        if not self._shard_dynamic[shard]:
            raise TypeError(
                f"shard {shard} of this sharded synopsis is static; build it "
                "with dynamic=True to accept streaming updates"
            )
        before = np.array([getattr(self, f"_{field}") for field in _DRIFT_FIELDS])
        box = getattr(DynamicPASS, kind)(self, row)
        after = np.array([getattr(self, f"_{field}") for field in _DRIFT_FIELDS])
        self._shard_drift[shard] += after - before
        return box

    def replace_shard(self, index: int, shard: PASSSynopsis) -> None:
        """Stitch ``shard`` in place of shard ``index`` (a per-shard rebuild).

        The other shards keep their statistics, samples, sketches,
        reservoirs and drift counters; the replacement's drift starts from
        its own counters.  The synopsis becomes a
        :class:`DynamicShardedSynopsis` exactly when a shard is dynamic
        afterwards.  Readers that may run concurrently (a served entry) must
        be kept out, e.g. by the serving engine's write lock.
        """
        if not 0 <= index < self.n_shards:
            raise IndexError(f"shard index {index} out of range")
        if shard.value_column != self.value_column:
            raise ValueError(
                f"replacement shard aggregates {shard.value_column!r}, "
                f"expected {self.value_column!r}"
            )
        pieces = _unstitch(*self.export_buffers())
        pieces[index] = shard.export_buffers()
        self._adopt(_stitch(pieces, self._routing, self.lam, self.build_seconds))

    def rebuild(self, table: Table) -> None:
        """Not for a sharded synopsis: rebuild one shard with :meth:`replace_shard`."""
        raise TypeError(
            "a sharded synopsis rebuilds shard by shard: replace_shard(index, "
            "shard) or StreamingShardRouter.rebuild(index)"
        )


class DynamicShardedSynopsis(ShardedSynopsis, DynamicPASS):
    """A sharded synopsis with a :class:`DynamicPASS` shard among its shards.

    It is a :class:`DynamicPASS` over the stitched arrays: an insert or
    delete routed to a dynamic shard updates that shard's leaf path in
    place, and one routed to a static shard raises ``TypeError``.  A static
    shard's reservoirs are full (``seen = capacity`` = its sample size).
    """
