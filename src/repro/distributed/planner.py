"""Splitting a table into shards on a chosen shard column.

The distributed layer scales PASS horizontally by partitioning the dataset
into disjoint *shards*, building one synopsis per shard, and stitching the
shards into one tree (:mod:`repro.distributed.sharded`).  Two sharding
strategies are supported:

* **range** — equal-depth key ranges on the shard column, the analogue of the
  1-D equal-depth partitioning the synopses themselves use.  Range shards own
  a contiguous slice of the key space, so a query whose predicate constrains
  the shard column *prunes* the shards whose range cannot overlap it — the
  descent never enters them.
* **hash** — rows are assigned by a deterministic hash of the shard-column
  value.  Hash shards balance load under skewed key distributions but own no
  contiguous range, so range pruning is impossible (point predicates on the
  shard column still route to a single shard).

Range shards jointly cover the whole real line (the first extends to ``-inf``
and the last to ``+inf``), so every future streaming insert has an owning
shard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.data.hashing import splitmix64, splitmix64_scalar
from repro.data.table import Table
from repro.query.predicate import Box, Interval

__all__ = ["ShardPlan", "ShardPlanner", "ShardRouting", "hash_assign", "STRATEGIES"]

#: Valid values of :attr:`ShardPlanner.strategy`.
STRATEGIES = ("range", "hash")

def hash_assign(values: np.ndarray, n_buckets: int) -> np.ndarray:
    """Deterministic bucket assignment for an array of key values.

    The float key's bit pattern is mixed with the shared SplitMix64
    finalizer (:func:`repro.data.hashing.splitmix64` — the same hash the
    distinct-count sketches use) so nearby keys land on unrelated buckets;
    the function is pure (no process salt), so workers, reloads, and the
    streaming router all agree on the owner of any key.
    """
    if n_buckets <= 0:
        raise ValueError("n_buckets must be positive")
    return (splitmix64(values) % np.uint64(n_buckets)).astype(np.int64)


@dataclass(frozen=True)
class ShardRouting:
    """Ownership of shard-column values — shared by plans and built synopses.

    Attributes
    ----------
    strategy:
        ``"range"`` or ``"hash"``.
    shard_column:
        The column rows are routed on.
    key_boxes:
        One :class:`~repro.query.predicate.Box` per shard; for range
        strategies the boxes are disjoint and jointly cover the real line.
    hash_modulus / hash_owners:
        For hash strategies: the hashing modulus and the owning shard index
        of *every* bucket (length ``hash_modulus``), so keys hashing to a
        bucket that was empty at plan time still have an owner — streaming
        inserts of brand-new keys never dangle.
    """

    strategy: str
    shard_column: str
    key_boxes: tuple[Box, ...]
    hash_modulus: int | None = None
    hash_owners: tuple[int, ...] = ()

    def shard_for_value(self, value: float) -> int:
        """Index of the shard owning a shard-column value."""
        value = float(value)
        if self.strategy == "hash":
            return self.hash_owners[splitmix64_scalar(value) % self.hash_modulus]
        for index, box in enumerate(self.key_boxes):
            if box.interval(self.shard_column).contains_value(value):
                return index
        raise KeyError(f"no shard owns {self.shard_column}={value!r}")

    def shard_for_row(self, row: Mapping[str, float]) -> int:
        """Index of the shard owning a row (by its shard-column value)."""
        if self.shard_column not in row:
            raise KeyError(f"row must provide the shard column {self.shard_column!r}")
        return self.shard_for_value(row[self.shard_column])


@dataclass(frozen=True)
class ShardPlan:
    """The outcome of planning: per-shard key boxes and table chunks.

    Attributes
    ----------
    strategy:
        ``"range"`` or ``"hash"``.
    shard_column:
        The column rows were sharded on.
    key_boxes:
        One :class:`~repro.query.predicate.Box` per shard describing the
        region of shard-column space the shard owns.  Range shards carry
        disjoint slices jointly covering the real line; hash shards carry
        unbounded boxes (no range pruning possible).
    tables:
        One non-empty :class:`~repro.data.table.Table` chunk per shard,
        disjoint and jointly covering the input table.
    hash_modulus / hash_owners:
        For hash plans: the modulus rows were hashed with and the owning
        shard of every bucket (buckets that received no rows at plan time
        are assigned an existing shard, so future inserts always route).
        ``None`` / ``()`` for range plans.
    """

    strategy: str
    shard_column: str
    key_boxes: tuple[Box, ...]
    tables: tuple[Table, ...]
    hash_modulus: int | None = None
    hash_owners: tuple[int, ...] = ()

    @property
    def n_shards(self) -> int:
        """Number of shards in the plan."""
        return len(self.tables)

    @property
    def routing(self) -> ShardRouting:
        """The plan's value-to-shard ownership (see :class:`ShardRouting`)."""
        return ShardRouting(
            strategy=self.strategy,
            shard_column=self.shard_column,
            key_boxes=self.key_boxes,
            hash_modulus=self.hash_modulus,
            hash_owners=self.hash_owners,
        )

    def shard_for_value(self, value: float) -> int:
        """Index of the shard owning a shard-column value."""
        return self.routing.shard_for_value(value)

    def shard_for_row(self, row: Mapping[str, float]) -> int:
        """Index of the shard owning a row (by its shard-column value)."""
        return self.routing.shard_for_row(row)


class ShardPlanner:
    """Plans the split of a table into range- or hash-sharded chunks.

    Parameters
    ----------
    n_shards:
        Number of shards to produce.  Plans may return fewer when the shard
        column has too few distinct values (range) or a hash bucket receives
        no rows (hash); every returned shard is non-empty.
    strategy:
        ``"range"`` (equal-depth key ranges, prunable) or ``"hash"``
        (deterministic hash of the key, load-balancing).
    """

    def __init__(self, n_shards: int, strategy: str = "range") -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choices: {', '.join(STRATEGIES)}"
            )
        self.n_shards = n_shards
        self.strategy = strategy

    def plan(self, table: Table, shard_column: str) -> ShardPlan:
        """Split ``table`` on ``shard_column`` into a :class:`ShardPlan`."""
        if table.n_rows == 0:
            raise ValueError("cannot shard an empty table")
        keys = table.column(shard_column).astype(float)
        if self.strategy == "hash":
            return self._plan_hash(table, shard_column, keys)
        return self._plan_range(table, shard_column, keys)

    def _plan_range(
        self, table: Table, shard_column: str, keys: np.ndarray
    ) -> ShardPlan:
        n_shards = min(self.n_shards, table.n_rows)
        sorted_keys = np.sort(keys)
        n = sorted_keys.shape[0]
        boundaries = sorted(
            {
                float(sorted_keys[min(n - 1, int(round(i * n / n_shards)))])
                for i in range(1, n_shards)
            }
        )
        slices: list[Interval] = []
        low = -math.inf
        for boundary in boundaries:
            slices.append(Interval(low, boundary))
            low = float(np.nextafter(boundary, math.inf))
        slices.append(Interval(low, math.inf))

        # Assemble shards from the non-empty slices, folding any empty slice's
        # key range into its successor so the shards still cover the whole
        # line (an insert with any key must have an owner).
        key_boxes: list[Box] = []
        tables: list[Table] = []
        carry_low = -math.inf
        for interval in slices:
            mask = interval.mask(keys)
            if not mask.any():
                continue
            key_boxes.append(Box({shard_column: Interval(carry_low, interval.high)}))
            tables.append(table.select(mask, name=f"{table.name}/shard{len(tables)}"))
            carry_low = float(np.nextafter(interval.high, math.inf))
        # Trailing empty slices: stretch the last shard's range to +inf.
        last = key_boxes[-1].interval(shard_column)
        if not math.isinf(last.high):
            key_boxes[-1] = Box({shard_column: Interval(last.low, math.inf)})
        return ShardPlan(
            strategy="range",
            shard_column=shard_column,
            key_boxes=tuple(key_boxes),
            tables=tuple(tables),
        )

    def _plan_hash(
        self, table: Table, shard_column: str, keys: np.ndarray
    ) -> ShardPlan:
        assignment = hash_assign(keys, self.n_shards)
        key_boxes: list[Box] = []
        tables: list[Table] = []
        owners = [-1] * self.n_shards
        for bucket in range(self.n_shards):
            mask = assignment == bucket
            if not mask.any():
                continue
            owners[bucket] = len(tables)
            key_boxes.append(Box({shard_column: Interval.unbounded()}))
            tables.append(table.select(mask, name=f"{table.name}/shard{len(tables)}"))
        # Buckets that received no rows still need an owner so future
        # streaming inserts of brand-new keys route somewhere: spread them
        # round-robin over the populated shards.
        for bucket, owner in enumerate(owners):
            if owner < 0:
                owners[bucket] = bucket % len(tables)
        return ShardPlan(
            strategy="hash",
            shard_column=shard_column,
            key_boxes=tuple(key_boxes),
            tables=tuple(tables),
            hash_modulus=self.n_shards,
            hash_owners=tuple(owners),
        )
