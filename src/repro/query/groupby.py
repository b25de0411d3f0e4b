"""Group-by / multi-aggregate queries and their compilation to box batches.

Real AQP workloads are dominated by ``GROUP BY`` queries computing several
aggregates at once::

    SELECT g1, g2, SUM(a), COUNT(a), AVG(a)
    FROM table
    WHERE rect-predicate(...)
    GROUP BY bin(g1), g2

PASS has no native group-by operator, but every group cell of a rectangular
grouping *is* a rectangular predicate: binning a column partitions its domain
into disjoint intervals, grouping by distinct values partitions it into
points, and the cross product of the per-column pieces tiles the grouped
space into boxes.  A :class:`GroupByQuery` therefore compiles into a batch of
canonical :class:`~repro.query.query.AggregateQuery` objects — one per
(group cell x aggregate) — that the existing batch paths execute with
shared mask work, every answer bit-identical to per-query execution:

* :func:`repro.core.batching.grouped_query` on a single synopsis (one
  moment pass over all of a plan's cells),
* :meth:`repro.serving.engine.ServingEngine.execute_grouped` through the
  serving layer (per-group result caching included), and
* :meth:`repro.distributed.sharded.ShardedSynopsis.query_grouped`, which
  is :func:`~repro.core.batching.grouped_query` over the shards' stitched
  tree.

The compiled form is deliberately dumb — plain queries over plain predicates
— so every executor, cache, and persistence layer built for single-aggregate
queries serves grouped traffic unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.query.aggregates import (
    AggregateType,
    empty_group_result,
    normalize_quantile,
)
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery
from repro.result import AQPResult

__all__ = [
    "AggregateSpec",
    "GroupingColumn",
    "GroupByQuery",
    "GroupCell",
    "GroupByPlan",
    "GroupedResult",
    "empty_group_result",
    "execute_plan",
]

#: Refuse distinct-value discovery past this cardinality: a grouping with
#: thousands of cells almost certainly wanted bins, and the compiled batch
#: would be correspondingly huge.
MAX_DISTINCT_VALUES = 1024


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate of a group-by query: ``agg(value_column)``.

    ``quantile`` is the QUANTILE parameter (default 0.5, the median) and
    must be ``None`` for every other aggregate — the same contract as
    :class:`~repro.query.query.AggregateQuery`, so specs with different
    quantiles are distinct aggregates of the same plan.
    """

    agg: AggregateType
    value_column: str
    quantile: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "agg", AggregateType.parse(self.agg))
        object.__setattr__(
            self, "quantile", normalize_quantile(self.agg, self.quantile)
        )

    @property
    def name(self) -> str:
        """SQL-ish display name, e.g. ``"SUM(value)"`` or ``"P95(value)"``."""
        if self.agg == AggregateType.QUANTILE:
            return f"P{self.quantile * 100:g}({self.value_column})"
        return f"{self.agg.value}({self.value_column})"


@dataclass(frozen=True)
class GroupingColumn:
    """One grouping dimension: a column binned by edges or split by value.

    Exactly one grouping mode applies:

    * ``edges`` — explicit bin edges ``e_0 < e_1 < ... < e_k`` producing the
      ``k`` cells ``[e_0, e_1), ..., [e_{k-1}, e_k]`` (the last cell is
      closed so the top edge belongs to a group).  Cell labels are the
      ``(low, high)`` edge pairs.
    * ``values`` — explicit distinct values, one equality cell per value.
    * neither — distinct values are discovered at compile time from a table
      (or any other distinct source handed to :meth:`GroupByQuery.compile`).
    """

    column: str
    edges: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.edges is not None and self.values is not None:
            raise ValueError(
                f"grouping column {self.column!r}: give bin edges or distinct "
                "values, not both"
            )
        if self.edges is not None:
            edges = tuple(float(edge) for edge in self.edges)
            if len(edges) < 2:
                raise ValueError(
                    f"grouping column {self.column!r} needs at least 2 bin edges"
                )
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise ValueError(
                    f"bin edges of {self.column!r} must be strictly increasing"
                )
            object.__setattr__(self, "edges", edges)
        if self.values is not None:
            values = tuple(float(value) for value in self.values)
            if not values:
                raise ValueError(
                    f"grouping column {self.column!r} needs at least one value"
                )
            if len(set(values)) != len(values):
                raise ValueError(f"distinct values of {self.column!r} repeat")
            object.__setattr__(self, "values", values)

    # -- constructors ---------------------------------------------------
    @classmethod
    def bins(cls, column: str, edges: Iterable[float]) -> "GroupingColumn":
        """Group ``column`` into the bins delimited by ``edges``."""
        return cls(column=column, edges=tuple(edges))

    @classmethod
    def distinct(
        cls, column: str, values: Iterable[float] | None = None
    ) -> "GroupingColumn":
        """Group ``column`` by distinct value (discovered when not given)."""
        return cls(column=column, values=None if values is None else tuple(values))

    # -- resolution -----------------------------------------------------
    def resolve(
        self, distinct_source: "DistinctSource | None" = None
    ) -> list[tuple[object, Interval]]:
        """The grouping's ``(label, interval)`` cells, in label order.

        Distinct-value groupings without explicit values need a
        ``distinct_source`` (see :meth:`GroupByQuery.compile`).
        """
        if self.edges is not None:
            cells: list[tuple[object, Interval]] = []
            for low, high in zip(self.edges, self.edges[1:]):
                closed_high = (
                    high
                    if high == self.edges[-1]
                    else float(np.nextafter(high, -math.inf))
                )
                cells.append(((low, high), Interval(low, closed_high)))
            return cells
        values = self.values
        if values is None:
            values = _discover_distinct(self.column, distinct_source)
        return [(value, Interval.point(value)) for value in sorted(values)]


#: Anything :meth:`GroupByQuery.compile` can pull distinct values from: a
#: Table-like object with ``column(name)``, a column-name mapping, or a
#: callable ``column -> values``.
DistinctSource = object


def _discover_distinct(column: str, source: DistinctSource | None) -> list[float]:
    """Distinct values of ``column`` pulled from a compile-time source."""
    if source is None:
        raise ValueError(
            f"grouping column {column!r} uses distinct-value discovery; pass "
            "a table (or explicit values / bin edges) when compiling"
        )
    if callable(getattr(source, "column", None)):  # Table-like
        values = source.column(column)
    elif isinstance(source, Mapping):
        values = source[column]
    elif callable(source):
        values = source(column)
    else:
        raise TypeError(
            f"cannot discover distinct values from {type(source)!r}; expected "
            "a Table, a mapping, or a callable"
        )
    unique = np.unique(np.asarray(values, dtype=float))
    unique = unique[~np.isnan(unique)]
    if unique.shape[0] > MAX_DISTINCT_VALUES:
        raise ValueError(
            f"column {column!r} has {unique.shape[0]} distinct values "
            f"(limit {MAX_DISTINCT_VALUES}); group it with explicit bin edges"
        )
    if unique.shape[0] == 0:
        raise ValueError(f"column {column!r} has no non-NaN values to group by")
    return [float(value) for value in unique]


@dataclass(frozen=True)
class GroupByQuery:
    """A group-by / multi-aggregate query over rectangular group cells.

    Attributes
    ----------
    groupings:
        The grouping dimensions; the group cells are their cross product.
    aggregates:
        The aggregates computed per group cell.
    predicate:
        Optional WHERE-style filter applied to every cell (intersected with
        the cell's grouping intervals at compile time).
    """

    groupings: tuple[GroupingColumn, ...]
    aggregates: tuple[AggregateSpec, ...]
    predicate: RectPredicate = RectPredicate.everything()

    def __post_init__(self) -> None:
        groupings = tuple(self.groupings)
        aggregates = tuple(
            spec
            if isinstance(spec, AggregateSpec)
            else AggregateSpec(
                agg=spec[0],
                value_column=spec[1],
                quantile=spec[2] if len(spec) > 2 else None,
            )
            for spec in self.aggregates
        )
        if not groupings:
            raise ValueError("a group-by query needs at least one grouping column")
        if not aggregates:
            raise ValueError("a group-by query needs at least one aggregate")
        columns = [grouping.column for grouping in groupings]
        if len(set(columns)) != len(columns):
            raise ValueError(f"grouping columns repeat: {columns}")
        if len(set(aggregates)) != len(aggregates):
            raise ValueError("aggregates repeat")
        object.__setattr__(self, "groupings", groupings)
        object.__setattr__(self, "aggregates", aggregates)

    @property
    def group_columns(self) -> tuple[str, ...]:
        """The grouping column names, in grouping order."""
        return tuple(grouping.column for grouping in self.groupings)

    @property
    def value_columns(self) -> tuple[str, ...]:
        """The distinct aggregation columns, in first-use order."""
        seen: dict[str, None] = {}
        for spec in self.aggregates:
            seen.setdefault(spec.value_column, None)
        return tuple(seen)

    def compile(self, distinct_source: DistinctSource | None = None) -> "GroupByPlan":
        """Compile the query into a :class:`GroupByPlan` of canonical boxes.

        Every group cell becomes one rectangular predicate: the cross product
        of the per-column grouping intervals, intersected with the base
        predicate.  Cells whose intersection with the base predicate is empty
        are kept with ``predicate=None`` (they are provably empty groups and
        executors answer them without dispatching anything).
        """
        resolved = [grouping.resolve(distinct_source) for grouping in self.groupings]
        base = self.predicate.intervals
        cells: list[GroupCell] = []
        for combo in product(*resolved):
            intervals = dict(base)
            empty = False
            for grouping, (_, interval) in zip(self.groupings, combo):
                prior = intervals.get(grouping.column)
                merged = interval if prior is None else prior.intersect(interval)
                if merged is None:
                    empty = True
                    break
                intervals[grouping.column] = merged
            cells.append(
                GroupCell(
                    labels=tuple(label for label, _ in combo),
                    predicate=None if empty else RectPredicate(intervals),
                )
            )
        return GroupByPlan(
            group_columns=self.group_columns,
            aggregates=self.aggregates,
            cells=tuple(cells),
        )


@dataclass(frozen=True)
class GroupCell:
    """One group cell: its per-column labels and its rectangular predicate.

    ``predicate`` is ``None`` for cells that cannot contain any tuple (their
    grouping intervals are disjoint from the query's base predicate).
    """

    labels: tuple
    predicate: RectPredicate | None


@dataclass(frozen=True)
class GroupByPlan:
    """A compiled group-by query: group cells x aggregates, in batch form.

    The plan is the hand-off between the query model and the executors: it
    owns the cell enumeration and the flat cell-major query order, so every
    executor (single synopsis, serving engine, worker pool)
    assembles its answers into an identically shaped
    :class:`GroupedResult`.
    """

    group_columns: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    cells: tuple[GroupCell, ...]

    @property
    def n_cells(self) -> int:
        """Number of group cells (including provably empty ones)."""
        return len(self.cells)

    @property
    def n_queries(self) -> int:
        """Number of compiled queries (live cells x aggregates)."""
        return len(self.live_cells()) * len(self.aggregates)

    def live_cells(self, skip: Iterable[int] = ()) -> list[tuple[int, GroupCell]]:
        """The dispatchable ``(cell_index, cell)`` pairs.

        Cells with ``predicate=None`` never dispatch; ``skip`` removes
        further cells an executor answers elsewhere (e.g. from a cache).
        """
        skipped = set(skip)
        return [
            (index, cell)
            for index, cell in enumerate(self.cells)
            if cell.predicate is not None and index not in skipped
        ]

    def cell_query(self, cell: GroupCell, spec: AggregateSpec) -> AggregateQuery:
        """The canonical query of one (cell, aggregate) pair."""
        if cell.predicate is None:
            raise ValueError("cannot build a query for a provably empty cell")
        return AggregateQuery(
            spec.agg, spec.value_column, cell.predicate, spec.quantile
        )

    def queries(self) -> list[AggregateQuery]:
        """The compiled batch, cell-major: every aggregate of cell 0, then 1, ..."""
        return [
            self.cell_query(cell, spec)
            for _, cell in self.live_cells()
            for spec in self.aggregates
        ]


def execute_plan(
    plan: GroupByPlan,
    run_batch: Callable[[list[AggregateQuery]], Sequence[AQPResult]],
    population: int = 0,
) -> "GroupedResult":
    """Dispatch a plan through a batch executor and assemble the result.

    ``run_batch`` receives the flat cell-major query batch of the live cells
    and must return aligned results.  Provably empty cells are answered
    locally with :func:`empty_group_result`.
    """
    live = plan.live_cells()
    flat = plan.queries()
    answers = list(run_batch(flat)) if flat else []
    if len(answers) != len(flat):
        raise ValueError(
            f"batch executor returned {len(answers)} results for {len(flat)} queries"
        )
    width = len(plan.aggregates)
    by_cell = {
        index: tuple(answers[slot * width : (slot + 1) * width])
        for slot, (index, _) in enumerate(live)
    }
    empty = tuple(empty_group_result(spec.agg, population) for spec in plan.aggregates)
    return GroupedResult(
        group_columns=plan.group_columns,
        aggregates=plan.aggregates,
        labels=tuple(cell.labels for cell in plan.cells),
        cells=tuple(by_cell.get(index, empty) for index in range(plan.n_cells)),
    )


@dataclass(frozen=True)
class GroupedResult:
    """The answer of a group-by query: one :class:`AQPResult` per cell x aggregate.

    Cells appear in plan order (the cross product of the resolved groupings,
    first grouping slowest); ``labels[i]`` carries cell ``i``'s per-column
    group labels.  ``pruned`` holds the indices of the live cells an
    executor answered as empty groups because the partition tree's frontier
    statistics showed them empty (:func:`repro.core.batching.grouped_query`
    fills it; it takes no part in equality).
    """

    group_columns: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    labels: tuple[tuple, ...]
    cells: tuple[tuple[AQPResult, ...], ...]
    pruned: frozenset[int] = field(default=frozenset(), compare=False)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(zip(self.labels, self.cells))

    def estimates(self) -> np.ndarray:
        """Point estimates as a ``(n_cells, n_aggregates)`` float array."""
        return np.array(
            [[result.estimate for result in row] for row in self.cells], dtype=float
        )

    def aggregate_index(self, spec_or_name: AggregateSpec | str) -> int:
        """Position of an aggregate (by spec or display name) in each row."""
        for index, spec in enumerate(self.aggregates):
            if spec == spec_or_name or spec.name == spec_or_name:
                return index
        known = ", ".join(spec.name for spec in self.aggregates)
        raise KeyError(f"no aggregate {spec_or_name!r}; available: {known}")

    def cell(self, labels: Sequence) -> tuple[AQPResult, ...]:
        """The per-aggregate results of the cell with the given labels."""
        labels = tuple(labels)
        for cell_labels, row in zip(self.labels, self.cells):
            if cell_labels == labels:
                return row
        raise KeyError(f"no group cell labeled {labels!r}")

    def to_records(self) -> list[dict]:
        """Rows of ``{group columns..., aggregate name: estimate...}``."""
        records = []
        for cell_labels, row in zip(self.labels, self.cells):
            record: dict = dict(zip(self.group_columns, cell_labels))
            for spec, result in zip(self.aggregates, row):
                record[spec.name] = result.estimate
            records.append(record)
        return records
