"""Tests for the serving engine: caching, batching, concurrency, invalidation."""

from __future__ import annotations

import dataclasses
import math
import threading

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import EXACT_FALLBACK, ServingEngine
from repro.serving.locks import ReadWriteLock


def assert_identical(a, b):
    """AQPResult equality treating NaN fields as equal (NaN != NaN otherwise)."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), field.name
        else:
            assert x == y, f"{field.name}: {x!r} != {y!r}"


def make_table(n: int = 5000, seed: int = 7) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        {
            "key": np.arange(n, dtype=float),
            "value": np.abs(rng.normal(40.0, 12.0, size=n)),
        },
        name="served",
    )


def make_workload(n_queries: int, seed: int = 0) -> list[AggregateQuery]:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(n_queries):
        low, high = sorted(rng.uniform(0.0, 5000.0, size=2))
        predicate = RectPredicate.from_bounds(key=(float(low), float(high)))
        for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
            queries.append(AggregateQuery(agg, "value", predicate))
    return queries


@pytest.fixture(scope="module")
def served_setup():
    table = make_table()
    synopsis = build_pass(
        table,
        "value",
        ["key"],
        PASSConfig(n_partitions=16, partitioner="equal", sample_rate=0.02, seed=0),
    )
    catalog = SynopsisCatalog()
    catalog.register("value_by_key", synopsis, table_name="served")
    catalog.register_table(table, "served")
    return table, synopsis, catalog


class TestExecute:
    def test_matches_direct_synopsis_results(self, served_setup):
        _, synopsis, catalog = served_setup
        engine = ServingEngine(catalog)
        for query in make_workload(20):
            assert_identical(synopsis.query(query), engine.execute(query))

    def test_cache_hit_returns_same_result_and_counts(self, served_setup):
        _, _, catalog = served_setup
        engine = ServingEngine(catalog)
        query = AggregateQuery.sum(
            "value", RectPredicate.from_bounds(key=(100.0, 900.0))
        )
        first = engine.execute(query)
        second = engine.execute(query)
        assert first is second
        stats = engine.stats()["value_by_key"]
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.hit_rate == 0.5

    def test_cache_keys_are_canonical(self, served_setup):
        _, _, catalog = served_setup
        engine = ServingEngine(catalog)
        engine.execute(
            AggregateQuery.sum("value", RectPredicate.from_bounds(key=(0, 500)))
        )
        spelled_differently = AggregateQuery.sum(
            "value",
            RectPredicate({"key": Interval(0.0, 500.0), "other": Interval.unbounded()}),
        )
        engine.execute(spelled_differently)
        assert engine.stats()["value_by_key"].cache_hits == 1

    def test_exact_fallback_for_unmatched_query(self, served_setup):
        table, _, catalog = served_setup
        engine = ServingEngine(catalog)
        query = AggregateQuery.sum("key", RectPredicate.from_bounds(value=(0.0, 100.0)))
        result = engine.execute(query)
        assert result.exact
        truth = catalog.exact_engine("served").execute(query)
        assert result.estimate == truth
        assert EXACT_FALLBACK in engine.stats()

    def test_raises_without_synopsis_or_fallback(self, served_setup):
        _, synopsis, _ = served_setup
        catalog = SynopsisCatalog()
        catalog.register("only", synopsis)
        engine = ServingEngine(catalog)
        with pytest.raises(LookupError):
            engine.execute(
                AggregateQuery.sum("absent", RectPredicate.from_bounds(key=(0.0, 1.0)))
            )

    def test_lru_eviction_bounds_the_cache(self, served_setup):
        _, _, catalog = served_setup
        engine = ServingEngine(catalog, cache_size=8)
        for query in make_workload(10, seed=3):
            engine.execute(query)
        assert engine.cache_info() == {"size": 8, "capacity": 8}

    def test_cache_can_be_disabled(self, served_setup):
        _, _, catalog = served_setup
        engine = ServingEngine(catalog, cache_size=0)
        query = AggregateQuery.sum("value", RectPredicate.from_bounds(key=(0.0, 100.0)))
        engine.execute(query)
        engine.execute(query)
        stats = engine.stats()["value_by_key"]
        assert stats.cache_hits == 0
        assert stats.cache_misses == 2


class TestExecuteBatch:
    def test_batch_identical_to_direct_and_sequential(self, served_setup):
        _, synopsis, catalog = served_setup
        queries = make_workload(40, seed=5)
        direct = [synopsis.query(query) for query in queries]
        batched = ServingEngine(catalog).execute_batch(queries)
        sequential_engine = ServingEngine(catalog)
        sequential = [sequential_engine.execute(query) for query in queries]
        for d, b, s in zip(direct, batched, sequential):
            assert_identical(d, b)
            assert_identical(d, s)

    def test_duplicates_answered_once(self, served_setup):
        _, _, catalog = served_setup
        engine = ServingEngine(catalog)
        query = AggregateQuery.sum(
            "value", RectPredicate.from_bounds(key=(10.0, 400.0))
        )
        results = engine.execute_batch([query] * 5)
        assert all(result is results[0] for result in results)
        stats = engine.stats()["value_by_key"]
        assert stats.cache_misses == 1
        assert stats.cache_hits == 0

    def test_warm_cache_serves_batch_hits(self, served_setup):
        _, _, catalog = served_setup
        engine = ServingEngine(catalog)
        queries = make_workload(10, seed=9)
        engine.execute_batch(queries)
        engine.execute_batch(queries)
        stats = engine.stats()["value_by_key"]
        assert stats.cache_hits >= len(set(q.cache_key() for q in queries))

    def test_batch_mixes_synopsis_and_fallback(self, served_setup):
        _, _, catalog = served_setup
        engine = ServingEngine(catalog)
        routed = AggregateQuery.sum(
            "value", RectPredicate.from_bounds(key=(0.0, 300.0))
        )
        fallback = AggregateQuery.sum(
            "key", RectPredicate.from_bounds(value=(0.0, 50.0))
        )
        results = engine.execute_batch([routed, fallback])
        assert results[1].exact
        stats = engine.stats()
        assert "value_by_key" in stats and EXACT_FALLBACK in stats

    def test_empty_batch(self, served_setup):
        _, _, catalog = served_setup
        assert ServingEngine(catalog).execute_batch([]) == []


class TestUpdatesAndInvalidation:
    @pytest.fixture
    def dynamic_engine(self):
        table = make_table(n=2000, seed=3)
        dynamic = DynamicPASS(
            table,
            "value",
            ["key"],
            PASSConfig(n_partitions=8, partitioner="equal", sample_rate=0.05, seed=0),
        )
        catalog = SynopsisCatalog()
        catalog.register("dyn", dynamic, table_name="served")
        engine = ServingEngine(catalog)
        return dynamic, engine

    def test_insert_invalidates_overlapping_cached_results(self, dynamic_engine):
        dynamic, engine = dynamic_engine
        boxes = dynamic.synopsis.leaf_boxes
        touched_box = boxes[0]
        untouched_box = boxes[-1]
        touched = AggregateQuery.sum(
            "value", RectPredicate({"key": touched_box.interval("key")})
        )
        untouched = AggregateQuery.sum(
            "value", RectPredicate({"key": untouched_box.interval("key")})
        )
        before_touched = engine.execute(touched)
        before_untouched = engine.execute(untouched)
        assert engine.cache_info()["size"] == 2

        row_key = float(touched_box.interval("key").high)
        engine.insert("dyn", {"key": row_key, "value": 123.0})

        # The overlapping entry was dropped and recomputes against the new
        # data (the query covers the leaf exactly, so the answer is exact).
        assert engine.cache_info()["size"] == 1
        after_touched = engine.execute(touched)
        assert after_touched.estimate == pytest.approx(before_touched.estimate + 123.0)
        # The untouched entry still serves its cached result object.
        assert engine.execute(untouched) is before_untouched
        assert engine.stats()["dyn"].invalidations == 1

    def test_delete_invalidates_too(self, dynamic_engine):
        dynamic, engine = dynamic_engine
        box = dynamic.synopsis.leaf_boxes[2]
        query = AggregateQuery.count(
            "value", RectPredicate({"key": box.interval("key")})
        )
        before = engine.execute(query)
        row_key = float(box.interval("key").high)
        engine.insert("dyn", {"key": row_key, "value": 9.0})
        engine.delete("dyn", {"key": row_key, "value": 9.0})
        after = engine.execute(query)
        assert after.estimate == before.estimate

    def test_update_on_static_synopsis_rejected(self, served_setup):
        _, _, catalog = served_setup
        engine = ServingEngine(catalog)
        with pytest.raises(TypeError, match="static"):
            engine.insert("value_by_key", {"key": 1.0, "value": 1.0})

    def test_manual_invalidate(self, served_setup):
        _, _, catalog = served_setup
        engine = ServingEngine(catalog)
        for query in make_workload(4, seed=21):
            engine.execute(query)
        assert engine.cache_info()["size"] > 0
        dropped = engine.invalidate()
        assert dropped > 0
        assert engine.cache_info()["size"] == 0


class TestConcurrency:
    # Some of the writer's deletes hit a partition extremum; staleness is not
    # what this test is about.
    @pytest.mark.filterwarnings("ignore::repro.core.updates.StaleExtremaWarning")
    def test_concurrent_readers_and_writer(self):
        table = make_table(n=2000, seed=13)
        dynamic = DynamicPASS(
            table,
            "value",
            ["key"],
            PASSConfig(n_partitions=8, partitioner="equal", sample_rate=0.05, seed=0),
        )
        catalog = SynopsisCatalog()
        catalog.register("dyn", dynamic, table_name="served")
        catalog.register_table(table, "served")
        engine = ServingEngine(catalog, cache_size=64)

        errors: list[Exception] = []
        results: list[float] = []
        stop = threading.Event()

        def reader(seed: int) -> None:
            queries = make_workload(10, seed=seed)
            try:
                for _ in range(5):
                    for query in queries:
                        result = engine.execute(query)
                        if query.agg.value in ("SUM", "COUNT"):
                            results.append(result.estimate)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer() -> None:
            rng = np.random.default_rng(99)
            try:
                for i in range(60):
                    row = {
                        "key": float(rng.uniform(0.0, 1999.0)),
                        "value": float(rng.uniform(1.0, 80.0)),
                    }
                    engine.insert("dyn", row)
                    if i % 3 == 0:
                        engine.delete("dyn", row)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert all(math.isfinite(value) for value in results)
        assert engine.stats()["dyn"].queries > 0

    def test_rwlock_excludes_writers_from_readers(self):
        lock = ReadWriteLock()
        state = {"readers": 0, "writers": 0, "max_readers": 0, "violations": 0}
        guard = threading.Lock()

        def read() -> None:
            for _ in range(200):
                with lock.read_locked():
                    with guard:
                        state["readers"] += 1
                        state["max_readers"] = max(
                            state["max_readers"], state["readers"]
                        )
                        if state["writers"]:
                            state["violations"] += 1
                    with guard:
                        state["readers"] -= 1

        def write() -> None:
            for _ in range(100):
                with lock.write_locked():
                    with guard:
                        state["writers"] += 1
                        if state["readers"] or state["writers"] > 1:
                            state["violations"] += 1
                    with guard:
                        state["writers"] -= 1

        threads = [threading.Thread(target=read) for _ in range(3)]
        threads += [threading.Thread(target=write) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert state["violations"] == 0


class TestTelemetry:
    def test_latency_percentiles_populate_after_misses(self, served_setup):
        _, _, catalog = served_setup
        engine = ServingEngine(catalog)
        for query in make_workload(5, seed=31):
            engine.execute(query)
        stats = engine.stats()["value_by_key"]
        assert stats.queries == 25
        assert stats.p50_latency_ms >= 0.0
        assert stats.p99_latency_ms >= stats.p50_latency_ms
        assert stats.staleness == 0.0


class TestServedModeHarness:
    def test_evaluate_served_workload_matches_direct_metrics(self, served_setup):
        from repro.evaluation.harness import evaluate_served_workload
        from repro.evaluation.metrics import evaluate_workload
        from repro.query.query import ExactEngine

        table, synopsis, catalog = served_setup
        engine = ExactEngine(table)
        queries = make_workload(8, seed=41)
        direct = evaluate_workload(synopsis, queries, engine)
        served = evaluate_served_workload(ServingEngine(catalog), queries, engine)
        assert served.n_queries == direct.n_queries
        assert served.median_relative_error == direct.median_relative_error
        assert served.median_ci_ratio == direct.median_ci_ratio

    def test_batch_mode_produces_same_metrics(self, served_setup):
        from repro.evaluation.harness import evaluate_served_workload
        from repro.query.query import ExactEngine

        table, _, catalog = served_setup
        engine = ExactEngine(table)
        queries = make_workload(8, seed=43)
        sequential = evaluate_served_workload(ServingEngine(catalog), queries, engine)
        batched = evaluate_served_workload(
            ServingEngine(catalog), queries, engine, batch=True
        )
        assert batched.median_relative_error == sequential.median_relative_error
        assert batched.n_queries == sequential.n_queries

    def test_ground_truth_length_mismatch_rejected(self, served_setup):
        from repro.evaluation.harness import evaluate_served_workload
        from repro.query.query import ExactEngine

        table, _, catalog = served_setup
        with pytest.raises(ValueError, match="length"):
            evaluate_served_workload(
                ServingEngine(catalog),
                make_workload(2, seed=1),
                ExactEngine(table),
                ground_truth=[1.0],
            )
