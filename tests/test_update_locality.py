"""An update costs O(depth + one leaf): the pieces that make it so.

* a reservoir insert or a delete writes into its leaf's reserved sample slots
  in place — no ``sample/<column>`` array is reallocated, and an insert's
  allocation peak does not grow with the synopsis' sample rows;
* a NaN-valued tuple's sample row is found and dropped by its delete;
* the scalar KMV insert is bit for bit the array insert of one value;
* the engine's broadcast cache invalidation drops exactly the keys the
  ``RectPredicate.overlaps_box`` scan over the cache drops.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.hashing import splitmix64, splitmix64_scalar
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.query.predicate import Box, Interval, RectPredicate
from repro.query.query import AggregateQuery
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine
from repro.sketches.distinct import DistinctSketch

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.core.updates.StaleExtremaWarning"
)


def _dynamic(n_rows: int, with_sketches: bool = True) -> DynamicPASS:
    rng = np.random.default_rng(5)
    table = Table(
        {
            "c0": rng.uniform(0.0, 100.0, size=n_rows),
            "value": np.round(rng.normal(50.0, 15.0, size=n_rows), 1),
        }
    )
    config = PASSConfig(
        n_partitions=8,
        sample_rate=0.1,
        partitioner="equal",
        with_sketches=with_sketches,
        seed=1,
    )
    return DynamicPASS(table, "value", ["c0"], config=config, rng=2)


def _buffers(dynamic: DynamicPASS) -> dict[str, tuple[int, int]]:
    """Every sample column's ``(data address, length)``."""
    return {
        column: (values.__array_interface__["data"][0], values.shape[0])
        for column, values in dynamic.synopsis.flat._samples.columns.items()
    }


def _sampled_rows(dynamic: DynamicPASS, leaf: int, n: int) -> list[dict]:
    sample = dynamic.synopsis.flat.leaf_sample(leaf)
    return [{c: float(v[i]) for c, v in sample.items()} for i in range(n)]


# ----------------------------------------------------------------------
# in-place sample writes
# ----------------------------------------------------------------------
class TestAnUpdateTouchesOneLeaf:
    def test_in_capacity_updates_reallocate_no_sample_column(self):
        dynamic = _dynamic(2_000)
        flat = dynamic.synopsis.flat
        before = _buffers(dynamic)
        others = {
            leaf: {c: v.copy() for c, v in flat.leaf_sample(leaf).items()}
            for leaf in range(flat.sample_counts.shape[0])
            if leaf != 3
        }
        for row in _sampled_rows(dynamic, 3, 5):
            held = int(flat.sample_counts[3])
            dynamic.delete(row)
            assert flat.sample_counts[3] == held - 1
            assert _buffers(dynamic) == before
            # The row goes back into the slot the delete freed.
            dynamic.insert(row)
            assert flat.sample_counts[3] == held
            assert _buffers(dynamic) == before
        for leaf, sample in others.items():
            for column, values in flat.leaf_sample(leaf).items():
                assert values.tobytes() == sample[column].tobytes()

    def test_insert_allocation_does_not_grow_with_the_sample_rows(self):
        peaks = {}
        for n_rows in (2_000, 20_000):
            dynamic = _dynamic(n_rows)
            rows = _sampled_rows(dynamic, 3, 6)
            peaks[dynamic.synopsis.sample_size] = peak = []
            for i, row in enumerate(rows):
                dynamic.delete(row)
                tracemalloc.start()
                dynamic.insert(row)
                if i:  # the first round warms the interpreter's own caches
                    peak.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        small, large = sorted(peaks)
        assert large >= 10 * small
        assert max(peaks[large]) <= max(peaks[small])

    def test_a_full_leaf_without_slack_grows_by_a_splice(self):
        dynamic = _dynamic(2_000, with_sketches=False)
        flat = dynamic.synopsis.flat
        sample = {c: v.copy() for c, v in flat.leaf_sample(2).items()}
        flat.replace_leaf_sample(2, sample)
        row = {c: 1.0 + i for i, c in enumerate(sample)}
        flat.put_sample_row(2, int(flat.sample_counts[2]), row)
        grown = flat.leaf_sample(2)
        for column, values in grown.items():
            assert values[:-1].tobytes() == sample[column].tobytes()
            assert values[-1] == row[column]
        _, arrays = flat.export_buffers()
        assert np.array_equal(np.diff(arrays["sample_offsets"]), flat.sample_counts)

    def test_a_loaded_synopsis_reserves_its_capacity(self, tmp_path):
        from repro.serving.persistence import load_synopsis, save_synopsis

        dynamic = _dynamic(2_000)
        for row in _sampled_rows(dynamic, 1, 4):
            dynamic.delete(row)
        loaded = load_synopsis(save_synopsis(dynamic, tmp_path / "churned"))
        slots = np.diff(loaded.synopsis.flat._samples.offsets)
        assert np.array_equal(slots, loaded._capacity)
        assert loaded.synopsis.storage_bytes() == dynamic.synopsis.storage_bytes()


# ----------------------------------------------------------------------
# NaN tuples
# ----------------------------------------------------------------------
def test_deleting_nan_valued_tuples_drops_their_sample_rows():
    dynamic = _dynamic(2_000)
    flat = dynamic.synopsis.flat
    row = {"c0": 42.0, "value": math.nan}
    leaf = flat.leaf_for_point(row)
    for _ in range(50):
        dynamic.insert(row)
    assert np.isnan(flat.leaf_sample(leaf)["value"]).any()
    for _ in range(50):
        dynamic.delete(row)
    assert not np.isnan(flat.leaf_sample(leaf)["value"]).any()


# ----------------------------------------------------------------------
# the scalar KMV insert
# ----------------------------------------------------------------------
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.25]
_values = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-40, 40).map(float),
)


def _same_sketch(got: DistinctSketch, want: DistinctSketch) -> None:
    got_arrays, want_arrays = got.to_arrays(), want.to_arrays()
    assert got_arrays["hashes"].dtype == want_arrays["hashes"].dtype
    assert got_arrays["hashes"].tobytes() == want_arrays["hashes"].tobytes()
    assert got_arrays["state"].tobytes() == want_arrays["state"].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    offset=st.sampled_from([-1, 0, 1]),
    extra=st.lists(_values, max_size=40),
    seed=st.integers(0, 2**16),
)
def test_scalar_sketch_insert_equals_the_array_insert(offset, extra, seed):
    k = 16
    # k - 1, k or k + 1 distinct values first, so the stream crosses (or
    # just misses) saturation, then specials, duplicates and free floats.
    rng = np.random.default_rng(seed)
    base = rng.permutation(np.arange(k + offset, dtype=float) * 3.5).tolist()
    stream = base + _SPECIAL + base[:3] + extra
    scalar, array = DistinctSketch(k), DistinctSketch(k)
    for value in stream:
        scalar.update(value)
        array.update_array([value])
        _same_sketch(scalar, array)


def test_scalar_hash_equals_splitmix64():
    values = _SPECIAL + [1e300, -1e-300, 5e-324, 2.0**63, 123456.789]
    for value in values:
        if math.isnan(value):
            continue
        assert splitmix64_scalar(value) == int(splitmix64(np.array([value]))[0])
    assert splitmix64_scalar(-0.0) == splitmix64_scalar(0.0)


# ----------------------------------------------------------------------
# broadcast invalidation == the overlaps_box scan
# ----------------------------------------------------------------------
def _scan_doomed(engine: ServingEngine, name: str, box: Box) -> set[tuple]:
    """The keys the per-entry ``overlaps_box`` scan drops."""
    return {
        key
        for key, (served_by, query, _) in engine._cache.items()
        if served_by == name
        and (len(query.predicate) == 0 or query.predicate.overlaps_box(box))
    }


_COLUMNS = ("a", "b", "z")
_bound = st.sampled_from([-math.inf, 0.0, 10.0, 25.0, 50.0, 75.0, 100.0, math.inf])


@st.composite
def _intervals(draw):
    low, high = sorted((draw(_bound), draw(_bound)))
    return Interval(low, high)


_regions = st.dictionaries(st.sampled_from(_COLUMNS), _intervals(), max_size=3)
_names = st.sampled_from(["s1", "s2", "__exact__"])
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _names, _regions),
        st.tuples(st.just("put"), _names, _regions),
        st.tuples(st.just("update"), _names, _regions),
        st.tuples(st.just("invalidate"), st.one_of(st.none(), _names), st.just({})),
    ),
    min_size=8,
    max_size=60,
)


def _apply(engine: ServingEngine, operations) -> None:
    """Run cache operations, checking every update against the scan."""
    for kind, name, intervals in operations:
        if kind == "put":
            query = AggregateQuery("SUM", "value", RectPredicate(intervals))
            engine._cache_put(engine._cache_key(query, None), (name, query, None))
        elif kind == "update":
            box = Box(intervals)
            expected = _scan_doomed(engine, name, box)
            before = set(engine._cache)
            assert engine._invalidate_overlapping(name, box) == len(expected)
            assert before - set(engine._cache) == expected
        else:
            engine.invalidate(name)
            assert not engine._cache if name is None else all(
                served_by != name for served_by, _, _ in engine._cache.values()
            )
        # Every synopsis' tracked bounds follow its cached keys exactly.
        for tracked, regions in engine._regions.items():
            cached = {k for k, (sb, _, _) in engine._cache.items() if sb == tracked}
            assert set(regions.keys) == cached == set(regions.row_of)
            for key, row in regions.row_of.items():
                assert regions.keys[row] == key
                lo = dict.fromkeys(regions.columns, -math.inf)
                hi = dict.fromkeys(regions.columns, math.inf)
                predicate = engine._cache[key][1].predicate
                for column, low, high in predicate.canonical_key():
                    lo[column], hi[column] = low, high
                assert regions.lo[row].tolist() == list(lo.values())
                assert regions.hi[row].tolist() == list(hi.values())


@settings(max_examples=150, deadline=None)
@given(operations=_operations)
def test_broadcast_invalidation_drops_what_the_scan_drops(operations):
    # Few distinct predicates, so keys are re-cached, possibly under another
    # synopsis, and a 4-entry cache evicts.
    _apply(ServingEngine(SynopsisCatalog(), cache_size=4), operations)


def test_broadcast_invalidation_through_eviction_and_recaching():
    a = {"a": Interval(0.0, 10.0)}
    b = {"b": Interval(50.0, 75.0)}
    z = {"z": Interval(-math.inf, 25.0)}
    free = {"a": Interval(-math.inf, math.inf)}
    both = {"a": Interval(20.0, 30.0), "b": Interval(0.0, 10.0)}
    _apply(
        ServingEngine(SynopsisCatalog(), cache_size=3),
        [
            ("put", "s1", a),
            ("put", "s1", b),
            ("put", "s1", {}),
            # Tracks s1 and drops only the empty predicate.
            ("update", "s1", {"a": Interval(90.0, 100.0), "b": Interval(90.0, 100.0)}),
            ("put", "s1", z),
            ("put", "s2", b),  # b re-cached under s2
            ("put", "s1", free),  # evicts a, the oldest
            ("update", "s2", {"b": Interval(0.0, 49.0)}),  # tracks s2, misses b
            ("update", "s1", {"b": Interval(0.0, 49.0)}),  # drops z and free
            ("put", "s1", both),
            ("put", "s1", a),
            # The box leaves b free: drops both, keeps a.
            ("update", "s1", {"a": Interval(25.0, 40.0), "c": Interval(0.0, 1.0)}),
            ("invalidate", "s2", {}),
            ("put", "s2", z),
            ("update", "s2", {"z": Interval(26.0, 30.0)}),
            ("update", "s2", {"z": Interval(25.0, 30.0)}),  # closed bounds meet
            ("put", "s1", b),
            ("invalidate", None, {}),
            ("put", "s1", a),
            ("update", "s1", {}),
        ],
    )


def test_broadcast_invalidation_on_served_updates():
    """Real entries: a single and a sharded dynamic synopsis, shard boxes."""
    rng = np.random.default_rng(3)
    table = Table(
        {
            "c0": rng.uniform(0.0, 100.0, size=1_200),
            "value": np.round(rng.normal(50.0, 15.0, size=1_200), 1),
        },
        name="t",
    )
    config = PASSConfig(n_partitions=8, sample_rate=0.1, partitioner="equal", seed=4)
    catalog = SynopsisCatalog()
    single = DynamicPASS(table, "value", ["c0"], config=config)
    sharded = build_sharded_pass(
        table, "value", "c0", n_shards=3, config=config, dynamic=True
    )
    catalog.register("single", single, table_name="single")
    catalog.register("sharded", sharded, table_name="sharded")
    engine = ServingEngine(catalog, cache_size=64)
    regions = [
        RectPredicate({"c0": Interval(low, low + width)})
        for low in range(0, 100, 9)
        for width in (3.0, 30.0)
    ]
    queries = [AggregateQuery("SUM", "value", region) for region in regions] + [
        AggregateQuery("COUNT", "value", RectPredicate.everything()),
        AggregateQuery("AVG", "value", RectPredicate.from_bounds(c0=(-math.inf, 20.0))),
    ]
    for step in range(12):
        name = ("single", "sharded")[step % 2]
        for query in queries:
            for table_name in ("single", "sharded"):
                engine.execute(query, table=table_name)
        row = {"c0": float(rng.uniform(0.0, 100.0)), "value": 1.0}
        synopsis = sharded if name == "sharded" else single
        box = synopsis.leaf_boxes[synopsis.leaf_for_point(row)]
        expected = _scan_doomed(engine, name, box)
        assert expected
        before = set(engine._cache)
        assert engine.insert(name, row) == box
        assert before - set(engine._cache) == expected
