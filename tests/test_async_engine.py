"""Async serving tier: coalescing, batch windows, backpressure, writes.

Covers the four tentpole guarantees of :mod:`repro.serving.async_engine`:

* **Coalescing correctness** — N concurrent identical queries execute once
  and every waiter receives the same (correct) answer; distinct queries in
  one window dispatch as one micro-batch.
* **Batch-window semantics** — the window seals by size immediately and by
  the time budget otherwise.
* **Backpressure** — past ``max_pending`` the tier rejects with a typed
  :class:`Overloaded` carrying the queue telemetry, and recovers once the
  queue drains.
* **Writer / reader linearizability** — writes serialize through the
  scheduler, atomically invalidate overlapping coalesced futures, and a
  read issued after an acknowledged write observes it; readers never see
  counts go backwards under concurrent write stress.

Everything drives real ``asyncio`` event loops through ``asyncio.run`` (no
event-loop plugin needed).
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core.batching import batch_query, compile_batch
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.evaluation.harness import arrival_offsets, evaluate_async_workload
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving import (
    AsyncServingEngine,
    Overloaded,
    ServingEngine,
    SynopsisCatalog,
)

N_ROWS = 3000


def make_table(seed: int = 77) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        {
            "key": rng.uniform(0.0, 50.0, size=N_ROWS),
            "value": np.abs(rng.normal(20.0, 5.0, size=N_ROWS)),
        },
        name="async_stress",
    )


def make_engine(
    table: Table | None = None, dynamic: bool = True, **engine_kwargs
) -> tuple[ServingEngine, SynopsisCatalog]:
    table = table if table is not None else make_table()
    config = PASSConfig(n_partitions=8, sample_rate=0.05, opt_sample_size=200, seed=3)
    if dynamic:
        synopsis = DynamicPASS(table, "value", ["key"], config)
    else:
        from repro.core.builder import build_pass

        synopsis = build_pass(table, "value", ["key"], config)
    catalog = SynopsisCatalog()
    catalog.register("async_value", synopsis, table_name="async_stress")
    catalog.register_table(table)
    return ServingEngine(catalog, **engine_kwargs), catalog


class CountingEngine(ServingEngine):
    """ServingEngine that counts executed (non-cached) queries and batches."""

    def __init__(self, *args, delay: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.executed_queries = 0
        self.executed_batches = 0
        self.delay = delay

    def execute_batch(self, queries, table=None):
        self.executed_batches += 1
        self.executed_queries += len(queries)
        if self.delay:
            time.sleep(self.delay)
        return super().execute_batch(queries, table=table)


def count_all() -> AggregateQuery:
    return AggregateQuery("COUNT", "value", RectPredicate.everything())


def sum_range(low: float, high: float) -> AggregateQuery:
    return AggregateQuery("SUM", "value", RectPredicate.from_bounds(key=(low, high)))


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
def test_concurrent_identical_queries_execute_once():
    table = make_table()
    config = PASSConfig(n_partitions=8, sample_rate=0.05, opt_sample_size=200, seed=3)
    catalog = SynopsisCatalog()
    catalog.register(
        "async_value",
        DynamicPASS(table, "value", ["key"], config),
        table_name="async_stress",
    )
    catalog.register_table(table)
    engine = CountingEngine(catalog, cache_size=0)
    reference = ServingEngine(catalog, cache_size=0).execute(count_all())

    async def main():
        async with AsyncServingEngine(engine, batch_window=0.001) as tier:
            results = await asyncio.gather(
                *(tier.execute(count_all()) for _ in range(48))
            )
            return results, tier.stats()

    results, stats = asyncio.run(main())
    assert engine.executed_queries == 1
    assert engine.executed_batches == 1
    assert stats.coalesced == 47
    assert all(r.estimate == reference.estimate for r in results)


def test_distinct_queries_share_one_micro_batch_and_match_sequential():
    engine, _ = make_engine(cache_size=0)
    queries = [sum_range(float(i), float(i + 7)) for i in range(20)]
    sequential = [engine.execute(q) for q in queries]

    async def main():
        async with AsyncServingEngine(engine, batch_window=0.002) as tier:
            results = await tier.execute_many(queries)
            return results, tier.stats()

    results, stats = asyncio.run(main())
    assert stats.scheduler.batches == 1
    assert stats.scheduler.dispatched == len(queries)
    for got, want in zip(results, sequential):
        assert np.isclose(got.estimate, want.estimate, rtol=1e-9)
        assert got.hard_lower == pytest.approx(want.hard_lower, rel=1e-9)
        assert got.hard_upper == pytest.approx(want.hard_upper, rel=1e-9)


def test_cache_hits_bypass_the_scheduler():
    engine, _ = make_engine(cache_size=128)
    query = count_all()
    warm = engine.execute(query)

    async def main():
        async with AsyncServingEngine(engine) as tier:
            result = await tier.execute(query)
            return result, tier.stats()

    result, stats = asyncio.run(main())
    assert result.estimate == warm.estimate
    assert stats.scheduler.submitted == 0


# ----------------------------------------------------------------------
# Batch-window semantics
# ----------------------------------------------------------------------
def test_window_seals_by_size_before_time():
    engine, _ = make_engine(cache_size=0)
    queries = [sum_range(float(i), float(i + 3)) for i in range(8)]

    async def main():
        # A huge time window: only the size bound can seal.
        async with AsyncServingEngine(engine, max_batch=4, batch_window=30.0) as tier:
            await tier.execute_many(queries)
            return tier.stats()

    stats = asyncio.run(main())
    assert stats.scheduler.batches == 2
    assert stats.scheduler.max_batch_size == 4


def test_window_seals_by_time_when_undersized():
    engine, _ = make_engine(cache_size=0)
    queries = [sum_range(float(i), float(i + 3)) for i in range(3)]

    async def main():
        async with AsyncServingEngine(engine, max_batch=64, batch_window=0.01) as tier:
            start = time.perf_counter()
            await tier.execute_many(queries)
            elapsed = time.perf_counter() - start
            return tier.stats(), elapsed

    stats, elapsed = asyncio.run(main())
    assert stats.scheduler.batches == 1
    assert stats.scheduler.dispatched == 3
    assert elapsed >= 0.01  # the window waited for the time budget


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_overloaded_is_typed_and_queue_recovers():
    table = make_table()
    config = PASSConfig(n_partitions=8, sample_rate=0.05, opt_sample_size=200, seed=3)
    catalog = SynopsisCatalog()
    catalog.register(
        "async_value",
        DynamicPASS(table, "value", ["key"], config),
        table_name="async_stress",
    )
    catalog.register_table(table)
    engine = CountingEngine(catalog, cache_size=0, delay=0.05)

    async def main():
        tier = AsyncServingEngine(engine, max_batch=2, batch_window=0.0, max_pending=3)
        async with tier:
            first = [
                asyncio.create_task(tier.execute(sum_range(float(i), float(i + 2))))
                for i in range(3)
            ]
            await asyncio.sleep(0)  # let the submissions land
            with pytest.raises(Overloaded) as excinfo:
                await tier.execute(sum_range(100.0, 101.0))
            rejected_at = tier.stats()
            await asyncio.gather(*first)
            # Queue drained: admission works again.
            late = await tier.execute(sum_range(30.0, 33.0))
            return excinfo.value, rejected_at, late, tier.stats()

    error, rejected_at, late, final = asyncio.run(main())
    assert error.pending == 3
    assert error.capacity == 3
    assert "retry" in str(error)
    assert rejected_at.scheduler.rejected == 1
    assert np.isfinite(late.estimate)
    assert final.scheduler.rejected == 1


def test_rejected_leader_leaves_no_stale_inflight_entry():
    engine, _ = make_engine(cache_size=0)

    async def main():
        tier = AsyncServingEngine(engine, batch_window=0.0, max_pending=1)
        async with tier:
            query = sum_range(1.0, 2.0)
            block = asyncio.create_task(tier.execute(sum_range(10.0, 20.0)))
            await asyncio.sleep(0)
            with pytest.raises(Overloaded):
                await tier.execute(query)
            assert tier.stats().inflight <= 1  # the rejected leader detached
            await block
            result = await tier.execute(query)  # works after drain
            return result

    result = asyncio.run(main())
    assert np.isfinite(result.estimate)


# ----------------------------------------------------------------------
# Writes: serialization, invalidation, linearizability
# ----------------------------------------------------------------------
def test_acknowledged_write_is_visible_to_subsequent_reads():
    engine, _ = make_engine(cache_size=256)

    async def main():
        async with AsyncServingEngine(engine, batch_window=0.001) as tier:
            before = (await tier.execute(count_all())).estimate
            await tier.insert("async_value", {"key": 10.0, "value": 5.0})
            after = (await tier.execute(count_all())).estimate
            await tier.delete("async_value", {"key": 10.0, "value": 5.0})
            restored = (await tier.execute(count_all())).estimate
            return before, after, restored

    before, after, restored = asyncio.run(main())
    assert after == before + 1
    assert restored == before


def test_write_invalidates_overlapping_coalesced_futures():
    table = make_table()
    config = PASSConfig(n_partitions=8, sample_rate=0.05, opt_sample_size=200, seed=3)
    catalog = SynopsisCatalog()
    catalog.register(
        "async_value",
        DynamicPASS(table, "value", ["key"], config),
        table_name="async_stress",
    )
    catalog.register_table(table)
    engine = CountingEngine(catalog, cache_size=0, delay=0.03)

    async def main():
        async with AsyncServingEngine(engine, batch_window=0.0) as tier:
            # Occupy the drain loop so later requests stay in flight.
            blocker = asyncio.create_task(tier.execute(sum_range(40.0, 45.0)))
            await asyncio.sleep(0)
            write = asyncio.create_task(
                tier.insert("async_value", {"key": 10.0, "value": 5.0})
            )
            await asyncio.sleep(0)
            # Admitted while the write is queued: their futures are in the
            # coalescer when the write applies, and the region overlaps.
            reads = [asyncio.create_task(tier.execute(count_all())) for _ in range(4)]
            await asyncio.sleep(0)
            await asyncio.gather(blocker, write, *reads)
            counts = [task.result().estimate for task in reads]
            return counts, tier.stats()

    counts, stats = asyncio.run(main())
    assert stats.invalidated_futures >= 1
    # The coalesced reads executed after the write: they must see it.
    assert all(count == N_ROWS + 1 for count in counts)


def test_async_stress_readers_never_see_counts_regress():
    engine, _ = make_engine(cache_size=512)
    n_inserts = 40
    n_readers = 6

    async def main():
        async with AsyncServingEngine(engine, batch_window=0.0005) as tier:
            initial = (await tier.execute(count_all())).estimate
            observations: list[list[float]] = [[] for _ in range(n_readers)]
            done = asyncio.Event()

            async def writer():
                for i in range(n_inserts):
                    await tier.insert(
                        "async_value", {"key": float(i % 50), "value": 1.0}
                    )
                done.set()

            async def reader(slot: int):
                while not done.is_set():
                    result = await tier.execute(count_all())
                    observations[slot].append(result.estimate)
                    await asyncio.sleep(0)

            await asyncio.gather(writer(), *(reader(i) for i in range(n_readers)))
            final = (await tier.execute(count_all())).estimate
            return initial, observations, final

    initial, observations, final = asyncio.run(main())
    assert final == initial + n_inserts
    for seen in observations:
        assert all(x == int(x) for x in seen), "torn read: non-integer count"
        assert all(b >= a for a, b in zip(seen, seen[1:])), "count regressed"
        assert all(initial <= x <= initial + n_inserts for x in seen)


# ----------------------------------------------------------------------
# Error propagation and lifecycle
# ----------------------------------------------------------------------
def test_unroutable_query_propagates_to_every_waiter():
    engine, _ = make_engine(cache_size=0)
    bad = AggregateQuery("SUM", "no_such_column", RectPredicate.everything())

    async def main():
        async with AsyncServingEngine(engine, batch_window=0.001) as tier:
            tasks = [asyncio.create_task(tier.execute(bad)) for _ in range(3)]
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return outcomes

    outcomes = asyncio.run(main())
    assert len(outcomes) == 3
    assert all(isinstance(outcome, LookupError) for outcome in outcomes)


def test_executor_failure_detaches_futures_so_queries_can_retry():
    from concurrent.futures import ThreadPoolExecutor

    engine, _ = make_engine(cache_size=0)
    broken = ThreadPoolExecutor(max_workers=1)
    broken.shutdown()

    async def main():
        tier = AsyncServingEngine(engine, batch_window=0.0, executor=broken)
        async with tier:
            query = sum_range(1.0, 9.0)
            with pytest.raises(RuntimeError):
                await tier.execute(query)
            # The dead future was detached: the same canonical query gets a
            # fresh execution attempt instead of the stale exception.
            assert tier.stats().inflight == 0
            tier._executor = None  # recover on the default executor
            result = await tier.execute(query)
            return result

    result = asyncio.run(main())
    assert np.isfinite(result.estimate)


def test_unstarted_engine_raises():
    engine, _ = make_engine()

    async def main():
        tier = AsyncServingEngine(engine)
        with pytest.raises(RuntimeError, match="not started"):
            await tier.execute(count_all())

    asyncio.run(main())


# ----------------------------------------------------------------------
# BatchPlan compilation
# ----------------------------------------------------------------------
def test_compile_batch_dedupes_frontier_slots():
    engine, catalog = make_engine(cache_size=0)
    synopsis = catalog.get("async_value").pass_synopsis
    predicate = RectPredicate.from_bounds(key=(5.0, 25.0))
    queries = [
        AggregateQuery(agg, "value", predicate) for agg in ("SUM", "COUNT", "AVG")
    ] * 3
    plan = compile_batch(synopsis, queries)
    # SUM and COUNT share a slot; AVG gets its own (zero-variance rule).
    assert len(plan.slot_queries) == len(plan.slot_frontiers) == 2
    assert plan.slots == [0, 0, 1] * 3
    assert plan.slot_frontiers[0] is not plan.slot_frontiers[1]
    # repr equality is NaN-aware and exact (float repr round-trips).
    assert repr(plan.execute()) == repr([synopsis.query(q) for q in queries])


def test_batch_query_matches_sequential_for_all_aggregates():
    engine, catalog = make_engine(cache_size=0)
    synopsis = catalog.get("async_value").pass_synopsis
    rng = np.random.default_rng(5)
    queries = []
    for i in range(60):
        low, high = sorted(rng.uniform(0.0, 50.0, size=2))
        queries.append(
            AggregateQuery(
                ("SUM", "COUNT", "AVG", "MIN", "MAX")[i % 5],
                "value",
                RectPredicate.from_bounds(key=(float(low), float(high))),
            )
        )
    sequential = [synopsis.query(q) for q in queries]
    for got, want in zip(batch_query(synopsis, queries), sequential):
        assert repr(got) == repr(want)


# ----------------------------------------------------------------------
# Open-loop workload harness
# ----------------------------------------------------------------------
def test_arrival_offsets_shapes_and_rates():
    rng = np.random.default_rng(0)
    poisson = arrival_offsets("poisson", 1000, 500.0, rng)
    assert poisson.shape == (1000,)
    assert np.all(np.diff(poisson) >= 0)
    assert poisson[-1] == pytest.approx(2.0, rel=0.3)  # ~n/rate seconds
    bursty = arrival_offsets("bursty", 100, 500.0, rng, burst_size=10)
    assert bursty.shape == (100,)
    # Bursts arrive back-to-back: consecutive offsets inside a burst equal.
    assert np.count_nonzero(np.diff(bursty) == 0) >= 80
    with pytest.raises(ValueError, match="unknown arrival process"):
        arrival_offsets("uniform", 10, 1.0, rng)


def test_evaluate_async_workload_poisson_completes_everything():
    engine, _ = make_engine(cache_size=0)
    queries = [sum_range(float(i), float(i + 5)) for i in range(16)]
    tier = AsyncServingEngine(engine, batch_window=0.0005)
    report = evaluate_async_workload(
        tier, queries, rate=2000.0, n_requests=200, duplicate_ratio=0.5, seed=3
    )
    assert report.n_requests == 200
    assert report.completed == 200
    assert report.rejected == 0
    assert report.coalesced >= 0
    assert np.isfinite(report.p50_latency_ms)
    assert report.p99_latency_ms >= report.p50_latency_ms
    assert report.achieved_qps > 0


def test_evaluate_async_workload_adversarial_coalesces_bursts():
    engine, _ = make_engine(cache_size=0)
    queries = [sum_range(float(i), float(i + 5)) for i in range(8)]
    tier = AsyncServingEngine(engine, batch_window=0.0005)
    report = evaluate_async_workload(
        tier,
        queries,
        rate=5000.0,
        n_requests=256,
        arrival="adversarial",
        burst_size=16,
        seed=3,
    )
    assert report.completed == 256
    # Every burst is one canonical query: most requests must coalesce.
    assert report.coalesced >= 128


def test_evaluate_async_workload_sheds_load_when_overloaded():
    table = make_table()
    config = PASSConfig(n_partitions=8, sample_rate=0.05, opt_sample_size=200, seed=3)
    catalog = SynopsisCatalog()
    catalog.register(
        "async_value",
        DynamicPASS(table, "value", ["key"], config),
        table_name="async_stress",
    )
    catalog.register_table(table)
    engine = CountingEngine(catalog, cache_size=0, delay=0.02)
    tier = AsyncServingEngine(engine, max_batch=4, batch_window=0.0, max_pending=8)
    queries = [sum_range(float(i), float(i + 1)) for i in range(64)]
    report = evaluate_async_workload(
        tier, queries, rate=50_000.0, n_requests=64, seed=1
    )
    assert report.rejected > 0
    assert report.completed + report.rejected == 64
