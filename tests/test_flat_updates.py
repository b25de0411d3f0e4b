"""Updates applied to the flat arrays: invariants, routing, isolation, no objects.

``DynamicPASS`` writes inserts and deletes straight into ``FlatSynopsis`` —
node statistics along the ``parent`` chain, one leaf's rows of the CSR sample
columns — the synopsis' only state.  These tests hold the arrays to a
recomputation from the replayed table after every step (and to the oracle
over the objects they decode to), pin the one routing function to a
left-to-right reference walk, and check that a length-changing sample update
touches nothing but its leaf and that no served operation leaves a node,
tree or stratum object behind.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import types

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from repro.aggregation.partition import PartitionStats
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.soa import FlatSynopsis
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.query.predicate import Box, Interval, RectPredicate
from repro.query.query import AggregateQuery
from repro.result import LAMBDA_99
from repro.sampling.stratified import Stratum
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine
from repro.serving.persistence import load_synopsis, save_synopsis
from repro.serving.shm import (
    EpochRegister,
    SynopsisPublisher,
    attach_flat_synopsis,
    read_published,
)
import oracle
from test_soa_equivalence import (
    ALL_KINDS,
    _batch_built,
    _constant_region_table,
    _query,
    assert_results_identical,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.core.updates.StaleExtremaWarning"
)


def _columns(n_columns: int) -> list[str]:
    return [f"c{i}" for i in range(n_columns)]


def _small_table(n_columns: int, seed: int, n_rows: int = 240) -> Table:
    rng = np.random.default_rng(100 * n_columns + seed)
    columns = {
        name: rng.uniform(0.0, 100.0, size=n_rows) for name in _columns(n_columns)
    }
    columns["value"] = np.round(rng.normal(50.0, 15.0, size=n_rows), 1)
    return Table(columns, name=f"flat_updates_{n_columns}d")


def _small_dynamic(n_columns: int, seed: int, **kwargs) -> tuple[Table, DynamicPASS]:
    table = _small_table(n_columns, seed)
    config = PASSConfig(
        n_partitions=8,
        sample_rate=0.25,
        partitioner="equal" if n_columns == 1 else "kd",
        opt_sample_size=100,
        with_sketches=True,
        seed=seed,
    )
    return table, DynamicPASS(
        table, "value", _columns(n_columns), config=config, rng=seed, **kwargs
    )


# ----------------------------------------------------------------------
# (a) the arrays against a recomputation from the replayed table
# ----------------------------------------------------------------------
def _assert_arrays_match_replay(dynamic: DynamicPASS, live: list[dict]) -> None:
    """Every flat invariant the update path must keep, from the live rows."""
    synopsis = dynamic.synopsis
    flat = synopsis.flat
    names = dynamic.predicate_columns
    points = {name: np.array([row[name] for row in live]) for name in names}
    values = np.array([row["value"] for row in live])

    stats = flat.node_stats()
    for leaf, box in enumerate(synopsis.leaf_boxes):
        inside = values[box.mask(points)] if live else values
        got = flat.leaf_stats(leaf)
        assert got.count == inside.shape[0], f"leaf {leaf} COUNT"
        if inside.shape[0] == 0:
            assert got == PartitionStats.empty(), f"leaf {leaf} emptied"
            continue
        total = float(inside.sum())
        assert (math.isnan(total) and math.isnan(got.sum)) or got.sum == pytest.approx(
            total, rel=1e-9, abs=1e-9
        ), f"leaf {leaf} SUM"
        finite = inside[~np.isnan(inside)]
        if finite.shape[0]:
            assert got.min <= finite.min() and got.max >= finite.max(), f"leaf {leaf}"
        assert not math.isnan(got.min) and not math.isnan(got.max)

    parent = flat._parent
    for row in np.flatnonzero(~flat._is_leaf).tolist():
        children = [stats[child] for child in np.flatnonzero(parent == row).tolist()]
        merged = PartitionStats.empty()
        for child in children:
            merged = merged.merge(child)
        assert stats[row].count == merged.count, f"row {row} COUNT"
        assert (
            math.isnan(merged.sum) and math.isnan(stats[row].sum)
        ) or stats[row].sum == pytest.approx(merged.sum, rel=1e-9, abs=1e-9)
        if merged.count:
            # Deletions leave extrema conservative, never too tight.
            assert stats[row].min <= merged.min and stats[row].max >= merged.max
        else:
            assert stats[row] == PartitionStats.empty()

    counts = flat.sample_counts
    _, arrays = flat.export_buffers()
    offsets = arrays["sample_offsets"]
    assert offsets[0] == 0 and np.array_equal(np.diff(offsets), counts)
    assert all(
        len(arrays[f"sample/{column}"]) == offsets[-1]
        for column in flat._samples.columns
    )
    # In memory, each leaf's rows fit inside its own slots.
    slots = flat._samples.offsets
    assert slots[0] == 0 and np.all(slots[:-1] + counts <= slots[1:])
    assert all(len(column) == slots[-1] for column in flat._samples.columns.values())
    assert np.all(counts <= dynamic._capacity)
    for leaf, box in enumerate(synopsis.leaf_boxes):
        sample = flat.leaf_sample(leaf)
        assert box.mask({name: sample[name] for name in names}).all()


def _assert_flat_matches_oracle(dynamic: DynamicPASS, rng: np.random.Generator) -> None:
    n_columns = len(dynamic.predicate_columns)
    objects = oracle.objects_of(dynamic)
    for kind in ALL_KINDS:
        fractions = [sorted(rng.uniform(0.0, 1.0, size=2)) for _ in range(n_columns)]
        predicate = RectPredicate(
            {
                name: Interval(100.0 * low, 100.0 * high)
                for name, (low, high) in zip(dynamic.predicate_columns, fractions)
            }
        )
        query = _query(kind, predicate)
        assert_results_identical(
            dynamic.synopsis.query(query),
            oracle.query_object(objects, query),
            context=f"{kind} {predicate} ",
        )


def _pop_equal(live: list[dict], row: dict) -> dict:
    return live.pop(next(i for i, other in enumerate(live) if other == row))


class TestArraysUnderRandomUpdates:
    @given(
        n_columns=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2),
        ops=st.lists(st.integers(min_value=0, max_value=6), max_size=20),
    )
    def test_every_step_matches_a_recomputation_and_the_oracle(
        self, n_columns, seed, ops
    ):
        table, dynamic = _small_dynamic(n_columns, seed)
        names = _columns(n_columns)
        flat = dynamic.synopsis.flat
        boxes = dynamic.synopsis.leaf_boxes
        live = [
            {name: float(table.column(name)[i]) for name in names + ["value"]}
            for i in range(table.n_rows)
        ]
        rng = np.random.default_rng(seed)
        _assert_arrays_match_replay(dynamic, live)

        def leaf_rows(leaf: int) -> list[dict]:
            box = boxes[leaf]
            return [
                row
                for row in live
                if all(box.interval(n).contains_value(row[n]) for n in names)
                and not math.isnan(row["value"])
            ]

        for op in ops:
            populated = [leaf for leaf in range(len(boxes)) if leaf_rows(leaf)]
            if op <= 2 or not populated:
                row = {name: float(rng.uniform(0.0, 100.0)) for name in names}
                row["value"] = float(np.round(rng.normal(50.0, 15.0), 1))
                if op == 1:
                    row["value"] = math.nan
                empty = [
                    leaf for leaf in range(len(boxes)) if not flat.leaf_stats(leaf).count
                ]
                if op == 2 and empty:
                    # Into a leaf an earlier step emptied: any point of its box.
                    for name in names:
                        interval = boxes[empty[0]].interval(name)
                        row[name] = min(max(interval.low, 0.0), interval.high)
                dynamic.insert(row)
                live.append(row)
            elif op == 3:
                candidates = [row for row in live if not math.isnan(row["value"])]
                dynamic.delete(_pop_equal(live, candidates[int(rng.integers(len(candidates)))]))
            elif op == 4:
                sampled = [leaf for leaf in populated if flat.sample_counts[leaf]]
                if not sampled:
                    continue
                sample = flat.leaf_sample(sampled[int(rng.integers(len(sampled)))])
                row = {name: float(values[0]) for name, values in sample.items()}
                if math.isnan(row["value"]):
                    continue
                dynamic.delete(_pop_equal(live, row))
            elif op == 5:
                rows = leaf_rows(populated[int(rng.integers(len(populated)))])
                dynamic.delete(_pop_equal(live, max(rows, key=lambda r: r["value"])))
            else:
                # Down to and including the last tuple of the smallest leaf.
                leaf = min(populated, key=lambda leaf: len(leaf_rows(leaf)))
                if any(
                    math.isnan(row["value"])
                    and all(boxes[leaf].interval(n).contains_value(row[n]) for n in names)
                    for row in live
                ):
                    continue
                for row in leaf_rows(leaf):
                    dynamic.delete(_pop_equal(live, row))
                assert flat.leaf_stats(leaf) == PartitionStats.empty()
            _assert_arrays_match_replay(dynamic, live)
            _assert_flat_matches_oracle(dynamic, rng)


# ----------------------------------------------------------------------
# (b) routing
# ----------------------------------------------------------------------
def test_a_write_drops_the_cached_zero_variance_flags():
    """AVG stops descending at ``min == max`` nodes; an insert can end that."""
    table = _constant_region_table(1, 0)
    dynamic = DynamicPASS(
        table,
        "value",
        ["c0"],
        config=PASSConfig(n_partitions=16, sample_rate=0.05, partitioner="equal"),
    )
    synopsis = dynamic.synopsis
    query = _query(("AVG", None), RectPredicate({"c0": Interval(3.3, 21.7)}))
    constant = synopsis.query(query)  # caches the flags
    assert constant.exact and constant.estimate == 42.0
    dynamic.insert({"c0": 20.0, "value": 1000.0})
    assert_results_identical(
        synopsis.query(query), oracle.query_object(dynamic, query)
    )
    assert not synopsis.query(query).exact


def _first_containing_leaf(tree: oracle.PartitionTree, point: dict[str, float]) -> int:
    """Reference: the first leaf, left to right, whose box contains ``point``."""
    for node in tree.root.iter_subtree():
        if node.is_leaf and all(
            node.box.interval(column).contains_value(value)
            for column, value in point.items()
            if column in node.box
        ):
            return node.leaf_index
    raise KeyError(point)


def _shared_boundary_synopsis() -> tuple[PASSSynopsis, oracle.PartitionTree]:
    """A 2 x 3 grid of *closed* boxes: edges and corners belong to several."""
    boxes = [
        Box({"x": Interval(x, x + 1.0), "y": Interval(y, y + 1.0)})
        for x in (0.0, 1.0)
        for y in (0.0, 1.0, 2.0)
    ]
    stats = [PartitionStats.from_values(np.array([float(i)])) for i in range(len(boxes))]
    tree = oracle.PartitionTree.build_from_leaves(boxes, stats, fanout=4)
    strata = [
        Stratum(
            box=box,
            size=1,
            sample_columns={column: np.zeros(0) for column in ("x", "y", "value")},
        )
        for box in boxes
    ]
    objects = oracle.SynopsisObjects(
        tree=tree,
        leaf_samples=strata,
        leaf_sketches=None,
        value_column="value",
        lam=LAMBDA_99,
        zero_variance_rule=True,
        with_fpc=False,
    )
    return objects.synopsis(), tree


class TestRouting:
    @pytest.mark.parametrize("n_columns", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_row_routes_to_the_first_containing_leaf(self, n_columns, seed):
        """Sibling boxes of a k-d tree overlap; leaves are tried left to right."""
        synopsis, objects = _batch_built(n_columns, 16, seed)
        table = _constant_region_table(n_columns, seed)
        columns = _columns(n_columns)
        rows = np.column_stack([table.column(column) for column in columns])
        for row in rows.tolist():
            point = dict(zip(columns, row))
            leaf = synopsis.flat.leaf_for_point(point)
            assert leaf == _first_containing_leaf(objects.tree, point)
            box = synopsis.leaf_boxes[leaf]
            assert all(
                box.interval(column).contains_value(value)
                for column, value in point.items()
            )
            # A partial point constrains only the columns it names.
            partial = {columns[-1]: row[-1]}
            assert synopsis.flat.leaf_for_point(partial) == _first_containing_leaf(
                objects.tree, partial
            )
        with pytest.raises(KeyError, match="no leaf contains"):
            synopsis.flat.leaf_for_point({column: math.nan for column in columns})

    def test_shared_boundaries_go_to_the_leftmost_leaf(self):
        synopsis, tree = _shared_boundary_synopsis()
        flat = synopsis.flat
        for x in (0.0, 0.5, 1.0, 1.5, 2.0):
            for y in (0.0, 1.0, 1.5, 2.0, 3.0):
                for point in ({"x": x, "y": y}, {"x": x}, {"y": y}, {"zz": 7.0}):
                    assert flat.leaf_for_point(point) == _first_containing_leaf(
                        tree, point
                    ), point
        assert flat.leaf_for_point({"x": 1.0, "y": 1.0}) == _first_containing_leaf(
            tree, {"x": 1.0, "y": 1.0}
        )
        for outside in ({"x": 2.5, "y": 0.5}, {"x": math.nan}, {"x": 0.5, "y": -0.1}):
            with pytest.raises(KeyError):
                flat.leaf_for_point(outside)

    def test_buffer_backed_engines_route_but_do_not_accept_writes(self):
        synopsis, _ = _batch_built(2, 16, 0)
        header, arrays = synopsis.flat.export_buffers()
        arrays = {key: array.copy() for key, array in arrays.items()}
        for array in arrays.values():  # what a mapping's views are
            array.flags.writeable = False
        attached = FlatSynopsis(header, arrays)
        point = {"c0": 40.0, "c1": 60.0}
        leaf = attached.leaf_for_point(point)
        assert leaf == synopsis.flat.leaf_for_point(point)
        before = attached.node_stats()
        for write in (
            lambda: attached.add_value(leaf, 1.0),
            lambda: attached.remove_value(leaf, 1.0),
            lambda: attached.replace_leaf_sample(leaf, attached.leaf_sample(leaf)),
        ):
            with pytest.raises(TypeError, match="read-only"):
                write()
        assert attached.node_stats() == before
        # Read-only is a property of the arrays, not of how they got here.
        writable = FlatSynopsis(*synopsis.flat.export_buffers())
        writable.add_value(leaf, 1.0)
        assert writable.population_size == attached.population_size + 1


# ----------------------------------------------------------------------
# (d) a length-changing sample update touches one leaf
# ----------------------------------------------------------------------
def _region_queries(boxes, columns) -> list[list[AggregateQuery]]:
    """Per leaf: every aggregate over a rectangle strictly inside its box."""
    queries = []
    for box in boxes:
        intervals = {}
        for column in columns:
            interval = box.interval(column)
            low, high = max(interval.low, 0.0), min(interval.high, 100.0)
            intervals[column] = Interval(
                low + 0.2 * (high - low), low + 0.8 * (high - low)
            )
        predicate = RectPredicate(intervals)
        queries.append([_query(kind, predicate) for kind in ALL_KINDS])
    return queries


def _snapshot(flat: FlatSynopsis) -> list[dict[str, bytes]]:
    return [
        {column: values.tobytes() for column, values in flat.leaf_sample(leaf).items()}
        for leaf in range(flat.sample_counts.shape[0])
    ]


def _assert_same_but_skipped(got, want, context) -> None:
    """Bit-identical apart from ``tuples_skipped`` (the population moved)."""
    assert_results_identical(
        got, dataclasses.replace(want, tuples_skipped=got.tuples_skipped), context
    )


class TestLengthChangingSampleUpdate:
    def test_through_the_serving_engine_with_the_result_cache_on(self):
        _, dynamic = _small_dynamic(1, 0)
        flat = dynamic.synopsis.flat
        boxes = dynamic.synopsis.leaf_boxes
        catalog = SynopsisCatalog()
        catalog.register("t", dynamic, table_name="t")
        engine = ServingEngine(catalog)
        regions = _region_queries(boxes, ["c0"])
        before = [[engine.execute(query) for query in leaf] for leaf in regions]
        rows_before = _snapshot(flat)

        target = 3
        sampled = {c: float(v[0]) for c, v in flat.leaf_sample(target).items()}
        box = engine.delete("t", sampled)
        assert box == boxes[target]
        assert flat.sample_counts[target] == len(rows_before[target]["c0"]) // 8 - 1

        rows_after = _snapshot(flat)
        for leaf, (queries, answers) in enumerate(zip(regions, before)):
            if leaf == target:
                assert rows_after[leaf] != rows_before[leaf]
                continue
            assert rows_after[leaf] == rows_before[leaf], f"leaf {leaf} rows moved"
            for query, answer in zip(queries, answers):
                # Served from the cache (the box did not overlap) ...
                assert engine.execute(query) is answer
                # ... and recomputed from the spliced arrays.
                _assert_same_but_skipped(
                    dynamic.query(query), answer, f"leaf {leaf} {query.agg.value} "
                )
        for query in regions[target]:
            assert_results_identical(
                engine.execute(query), dynamic.query(query), "invalidated "
            )

    def test_through_a_sharded_entry(self):
        table = _small_table(1, 1, n_rows=600)
        sharded = build_sharded_pass(
            table,
            "value",
            "c0",
            n_shards=3,
            config=PASSConfig(
                n_partitions=4, sample_rate=0.25, partitioner="equal", seed=2
            ),
            dynamic=True,
        )
        catalog = SynopsisCatalog()
        catalog.register("t", sharded, table_name="t")
        engine = ServingEngine(catalog)
        flats = [shard.synopsis.flat for shard in sharded.shards]
        before = [_snapshot(flat) for flat in flats]
        shard, leaf = 1, 2
        sampled = {c: float(v[0]) for c, v in flats[shard].leaf_sample(leaf).items()}
        box = engine.delete("t", sampled)
        assert box == sharded.shards[shard].synopsis.leaf_boxes[leaf]
        box = engine.insert("t", sampled)
        assert box == sharded.shards[shard].synopsis.leaf_boxes[leaf]
        after = [_snapshot(flat) for flat in flats]
        for s in range(3):
            for l in range(4):
                if (s, l) != (shard, leaf):
                    assert after[s][l] == before[s][l], f"shard {s} leaf {l} moved"
        # Deleted from the head of the leaf's rows, re-inserted at their tail.
        moved = np.frombuffer(after[shard][leaf]["c0"])
        assert moved[-1] == sampled["c0"]
        assert moved[:-1].tobytes() == before[shard][leaf]["c0"][8:]


# ----------------------------------------------------------------------
# (e) one state: no node / tree / stratum object behind a served synopsis
# ----------------------------------------------------------------------
def _reachable(root) -> list:
    """Every object reachable from ``root`` through ``gc.get_referents``."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        current = stack.pop()
        found.append(current)
        if isinstance(current, (type, types.ModuleType)):
            continue  # classes and modules reach the whole interpreter
        for referent in gc.get_referents(current):
            if id(referent) not in seen:
                seen.add(id(referent))
                stack.append(referent)
    return found


def _builder_objects(root) -> list:
    return [
        value
        for value in _reachable(root)
        if isinstance(value, (oracle.PartitionNode, oracle.PartitionTree, Stratum))
    ]


class TestNoRefreshOnTheHotPath:
    def test_a_fresh_build_keeps_no_builder_objects(self):
        synopsis, objects = _batch_built(2, 16, 0)
        assert _builder_objects(objects)  # the walk does find them where they are
        assert _builder_objects(synopsis) == []

    @pytest.mark.parametrize("sharded", [False, True])
    def test_a_thousand_served_operations_never_refresh(self, sharded):
        """There is nothing to refresh: the arrays are the only state."""
        table = _small_table(1, 2, n_rows=600)
        config = PASSConfig(
            n_partitions=4,
            sample_rate=0.25,
            partitioner="equal",
            with_sketches=True,
            seed=2,
        )
        if sharded:
            served = build_sharded_pass(
                table, "value", "c0", 3, config=config, dynamic=True
            )
            shards = served.shards
        else:
            served = DynamicPASS(table, "value", ["c0"], config=config)
            shards = [served]
        catalog = SynopsisCatalog()
        catalog.register("t", served, table_name="t")
        engine = ServingEngine(catalog)
        rng = np.random.default_rng(0)
        inserted = []
        for step in range(1000):
            if step % 5 == 1:
                row = {"c0": float(rng.uniform(0, 100)), "value": float(step)}
                inserted.append(row)
                engine.insert("t", row)
            elif step % 5 == 3:
                engine.delete("t", inserted.pop(0))
            else:
                low = float(rng.uniform(0, 80))
                kind = ALL_KINDS[step % len(ALL_KINDS)]
                engine.execute(
                    _query(kind, RectPredicate({"c0": Interval(low, low + 15.0)}))
                )
        assert _builder_objects(served) == []

        # Decoding the arrays afterwards shows every update.
        for shard in shards:
            flat = shard.synopsis.flat
            objects = oracle.objects_of(shard)
            assert objects.tree.root.stats.count == flat.population_size
            assert [
                node.stats for node in objects.tree.geometry().nodes
            ] == flat.node_stats()
            assert [s.sample_size for s in objects.leaf_samples] == list(
                flat.sample_counts
            )
            objects.tree.validate()
        assert sum(s.population_size for s in shards) == table.n_rows + len(inserted)


# ----------------------------------------------------------------------
# (g) reservoir_capacity
# ----------------------------------------------------------------------
class TestReservoirCapacity:
    def test_a_smaller_capacity_cuts_the_samples_at_construction(self):
        _, default = _small_dynamic(1, 0)
        assert default.synopsis.flat.sample_counts.min() > 5
        generator = np.random.default_rng(4)
        untouched = generator.bit_generator.state
        table = _small_table(1, 0)
        DynamicPASS(table, "value", ["c0"], config=default.config, rng=generator)
        # The default capacity is the built sample size: nothing to draw.
        assert generator.bit_generator.state == untouched

        dynamic = DynamicPASS(
            table,
            "value",
            ["c0"],
            config=default.config,
            reservoir_capacity=5,
            rng=generator,
        )
        assert generator.bit_generator.state != untouched
        flat = dynamic.synopsis.flat
        assert flat.sample_counts.tolist() == [5] * 8
        # Queries see the cut samples before any update reaches the leaf ...
        query = AggregateQuery(
            "SUM", "value", RectPredicate({"c0": Interval(10.0, 90.0)})
        )
        first = dynamic.query(query)
        assert first.tuples_processed == 10
        decoded = oracle.objects_of(dynamic).leaf_samples
        assert [stratum.sample_size for stratum in decoded] == [5] * 8
        # ... and an update leaves the other leaves' rows alone.
        rows = _snapshot(flat)
        dynamic.insert({"c0": 50.0, "value": 1.0})
        touched = flat.leaf_for_point({"c0": 50.0})
        assert [
            leaf for leaf in range(8) if _snapshot(flat)[leaf] != rows[leaf]
        ] in ([], [touched])
        # Each kept row is one of the leaf's built sample rows.
        for leaf in range(8):
            built = default.synopsis.flat.leaf_sample(leaf)["c0"].tolist()
            assert set(np.frombuffer(rows[leaf]["c0"]).tolist()) <= set(built)

    def test_rebuild_keeps_the_configured_capacity(self):
        table, dynamic = _small_dynamic(1, 0, reservoir_capacity=5)
        dynamic.insert({"c0": 1.0, "value": 2.0})
        dynamic.rebuild(table)
        _, arrays = dynamic.export_buffers()
        assert arrays["capacity"].tolist() == [5] * 8
        assert dynamic.synopsis.flat.sample_counts.tolist() == [5] * 8
        assert dynamic.updates_since_build == 0

    def test_a_loaded_archive_serves_its_reservoir_rows(self, tmp_path):
        """The cut rows are the saved rows: a load neither re-cuts nor re-draws."""
        _, dynamic = _small_dynamic(1, 0, reservoir_capacity=5)
        dynamic.insert({"c0": 50.0, "value": 1.0})
        loaded = load_synopsis(save_synopsis(dynamic, tmp_path / "cut"))
        flat = loaded.synopsis.flat
        assert flat.sample_counts.tolist() == [5] * 8
        assert _snapshot(flat) == _snapshot(dynamic.synopsis.flat)
        query = AggregateQuery(
            "SUM", "value", RectPredicate({"c0": Interval(10.0, 90.0)})
        )
        assert loaded.query(query).tuples_processed == 10
        assert_results_identical(loaded.query(query), dynamic.query(query))
        header, arrays = loaded.export_buffers()
        assert arrays["capacity"].tolist() == [5] * 8
        assert arrays["seen"].tolist() == dynamic.export_buffers()[1]["seen"].tolist()
        # The configured capacity survives the load, so a rebuild keeps it.
        assert header["reservoir_capacity"] == 5


# ----------------------------------------------------------------------
# shared-memory segments after updates
# ----------------------------------------------------------------------
def test_publish_after_updates_exports_the_compact_arrays_read_only():
    _, dynamic = _small_dynamic(1, 1)
    flat = dynamic.synopsis.flat
    sampled = {c: float(v[0]) for c, v in flat.leaf_sample(2).items()}
    dynamic.delete(sampled)
    dynamic.insert({"c0": 99.0, "value": 3.0})
    header, arrays = flat.export_buffers()
    assert arrays["sample_offsets"][-1] == arrays["sample/value"].shape[0]
    assert np.array_equal(np.diff(arrays["sample_offsets"]), flat.sample_counts)

    query = AggregateQuery("AVG", "value", RectPredicate({"c0": Interval(5.0, 95.0)}))
    with SynopsisPublisher() as publisher:
        publisher.publish("t", dynamic)
        (entry,) = read_published(EpochRegister.attach(publisher.register_name))[1]
        attached, segment = attach_flat_synopsis(entry.segment)
        try:
            assert_results_identical(attached.query(query), dynamic.query(query))
            leaf = attached.leaf_for_point({"c0": 50.0})
            with pytest.raises(TypeError, match="read-only"):
                attached.add_value(leaf, 1.0)
            with pytest.raises(ValueError, match="read-only"):
                attached._node_sum[0] = 0.0
        finally:
            segment.close()
