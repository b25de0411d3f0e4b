"""End-to-end observability integration across the serving stack.

Covers the PR's acceptance criteria and satellites:

* a single query through :class:`AsyncServingEngine` (full-fidelity
  tracing) produces one ``serve.request`` span tree covering the
  coalesce/schedule/compile/execute stages, whose stage durations sum to
  within the recorded total;
* the query appears in the structured query log with its predicate box and
  cache outcome, and the Prometheus exposition of the same run parses
  cleanly under the strict validator;
* the trace context propagates across the asyncio scheduler boundary —
  engine- and core-level spans created on the executor thread nest under
  the request's root — including for coalesced stampedes;
* :class:`ServingStats` percentiles are the latency histogram's own
  (one store), NaN before any miss;
* every snapshot type exposes the uniform ``as_dict()`` contract;
* the query log materializes raw hot-path payload tuples lazily and
  preserves coalesced traffic weight via ``coalesced_waiters``.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.obs import Observability, validate_exposition
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.querylog import QueryLog
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.serving import AsyncServingEngine, ServingEngine, SynopsisCatalog
from repro.serving.stats import ServingStats

N_ROWS = 4000


def make_engine(obs: Observability) -> ServingEngine:
    rng = np.random.default_rng(5)
    table = Table(
        {
            "key": rng.uniform(0.0, 50.0, size=N_ROWS),
            "value": np.abs(rng.normal(20.0, 5.0, size=N_ROWS)),
        },
        name="obs_table",
    )
    synopsis = DynamicPASS(
        table,
        "value",
        ["key"],
        PASSConfig(n_partitions=8, sample_rate=0.05, opt_sample_size=200, seed=3),
    )
    catalog = SynopsisCatalog()
    catalog.register("obs_value", synopsis, table_name="obs_table")
    catalog.register_table(table)
    return ServingEngine(catalog, obs=obs)


def run(coro) -> None:
    asyncio.run(coro)


class TestAcceptance:
    """The PR's acceptance path: one query, one complete span tree."""

    def test_single_query_span_tree_and_query_log(self):
        obs = Observability(trace_sample_rate=1.0)
        engine = make_engine(obs)
        predicate = RectPredicate.from_bounds(key=(10.0, 30.0))
        query = AggregateQuery("AVG", "value", predicate)

        async def one_query():
            async with AsyncServingEngine(engine, batch_window=0.001) as tier:
                return await tier.execute(query)

        run(one_query())

        roots = obs.tracer.finished()
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "serve.request"
        assert root.attributes["outcome"] == "executed"

        stages = root.stage_durations_ms()
        # Fixed per-request stages are stamped onto the root; engine-level
        # work appears as child spans under it.
        for stamped in ("cache.probe", "scheduler.submit", "queue.wait"):
            assert stamped in stages, f"stamped stage {stamped!r} missing"
        for span_name in ("serving.execute_batch", "plan.compile", "frontier.descent"):
            assert root.find(span_name) is not None, f"span {span_name!r} missing"
        # Stage durations sum to within the recorded total: the root covers
        # every stage, so their sum can never exceed its duration.
        assert sum(stages.values()) <= root.duration_ms * 1.001

        records = obs.query_log.records()
        assert len(records) == 1
        record = records[0]
        assert record.outcome == "miss"
        assert record.synopsis == "obs_value"
        assert record.agg == "AVG"
        assert record.predicate_box == predicate.canonical_key()
        assert record.trace_id == root.trace_id
        assert record.total_ms > 0.0
        assert math.isfinite(record.error_bound_half_width)

        families = validate_exposition(obs.prometheus_text())
        for family in (
            "repro_serving_cache_misses_total",
            "repro_serving_query_latency_seconds",
            "repro_scheduler_batches_total",
            "repro_catalog_route_total",
        ):
            assert family in families, f"family {family!r} missing"

    def test_cache_hit_path_recorded(self):
        obs = Observability(trace_sample_rate=1.0)
        engine = make_engine(obs)
        query = AggregateQuery(
            "SUM", "value", RectPredicate.from_bounds(key=(0.0, 25.0))
        )

        async def twice():
            async with AsyncServingEngine(engine, batch_window=0.001) as tier:
                await tier.execute(query)
                await tier.execute(query)

        run(twice())
        outcomes = [record.outcome for record in obs.query_log.records()]
        assert outcomes == ["miss", "cache_hit"]
        hit_roots = [
            root
            for root in obs.tracer.finished()
            if root.attributes.get("outcome") == "cache_hit"
        ]
        assert len(hit_roots) == 1
        assert "cache.probe" in hit_roots[0].stage_durations_ms()


class TestTracePropagation:
    """Satellite: the trace context survives the asyncio scheduler boundary."""

    def test_executor_side_spans_nest_under_the_request_root(self):
        # The root span is created in the client coroutine; plan.compile and
        # frontier.descent run on the executor thread, reached through the
        # scheduler's drain task.  Neither context inherits the client's
        # contextvars — nesting only works if the carried span is re-activated
        # on the far side.
        obs = Observability(trace_sample_rate=1.0)
        engine = make_engine(obs)
        query = AggregateQuery(
            "COUNT", "value", RectPredicate.from_bounds(key=(5.0, 45.0))
        )

        async def one_query():
            async with AsyncServingEngine(engine, batch_window=0.001) as tier:
                await tier.execute(query)

        run(one_query())
        (root,) = obs.tracer.finished()
        batch_span = root.find("serving.execute_batch")
        assert batch_span is not None
        assert batch_span.trace_id == root.trace_id
        descent = root.find("frontier.descent")
        assert descent is not None and descent.trace_id == root.trace_id

    def test_coalesced_stampede_propagates_one_leader_trace(self):
        obs = Observability(trace_sample_rate=1.0)
        engine = make_engine(obs)
        hot = AggregateQuery(
            "AVG", "value", RectPredicate.from_bounds(key=(12.0, 38.0))
        )
        n_stampede = 16

        async def stampede():
            async with AsyncServingEngine(engine, batch_window=0.005) as tier:
                results = await asyncio.gather(
                    *(tier.execute(hot) for _ in range(n_stampede))
                )
                assert len({r.estimate for r in results}) == 1

        run(stampede())
        roots = obs.tracer.finished()
        executed = [r for r in roots if r.attributes.get("outcome") == "executed"]
        coalesced = [r for r in roots if r.attributes.get("outcome") == "coalesced"]
        assert len(executed) == 1
        assert len(coalesced) == n_stampede - 1
        leader = executed[0]
        # The executor-side engine work nests under the leader; followers
        # reference the leader's trace and stamp their join wait.
        assert leader.find("serving.execute_batch") is not None
        for follower in coalesced:
            assert follower.attributes["coalesced_with"] == leader.trace_id
            assert "coalesce.join" in follower.stage_durations_ms()

        # The query log summarizes the stampede: one executed record for the
        # leader plus one "coalesced" summary carrying the joiners' count.
        records = obs.query_log.records()
        summaries = [r for r in records if r.outcome == "coalesced"]
        assert len(summaries) == 1
        assert summaries[0].coalesced_waiters == n_stampede - 1
        assert summaries[0].trace_id == leader.trace_id

    def test_head_sampling_defaults_leave_most_requests_untraced(self):
        obs = Observability(trace_sample_rate=0.25)
        engine = make_engine(obs)
        rng = np.random.default_rng(2)
        queries = []
        for _ in range(16):
            low = float(rng.uniform(0.0, 40.0))
            queries.append(
                AggregateQuery(
                    "SUM", "value", RectPredicate.from_bounds(key=(low, low + 3.0))
                )
            )

        async def serial():
            async with AsyncServingEngine(engine, batch_window=0.0) as tier:
                for query in queries:
                    await tier.execute(query)

        run(serial())
        # 1-in-4 deterministic head sampling: 4 of 16 requests got span
        # trees; every request still reached the query log.
        assert len(obs.tracer.finished()) == 4
        assert obs.query_log.total == 16
        untraced = [r for r in obs.query_log.records() if r.trace_id == 0]
        assert len(untraced) == 12


class TestServingStatsOneStore:
    """Latency percentiles have one store: the latency histogram."""

    @pytest.mark.parametrize("backed", [False, True], ids=["standalone", "registry"])
    def test_snapshot_percentiles_are_the_histogram_percentiles(self, backed):
        registry = MetricsRegistry() if backed else None
        stats = ServingStats(registry=registry, synopsis="s")
        empty = stats.snapshot()
        assert math.isnan(empty.p50_latency_ms)
        assert math.isnan(empty.p95_latency_ms)
        assert math.isnan(empty.p99_latency_ms)

        reference = Histogram("reference")
        for latency in (0.0002, 0.003, 0.050):
            stats.record_misses(1, latency)
            reference.observe(latency)
        stats.record_misses(5, 0.010)  # one update, five observations
        reference.observe_n(0.010, 5)

        snapshot = stats.snapshot()
        assert snapshot.cache_misses == 8
        assert (
            snapshot.p50_latency_ms,
            snapshot.p95_latency_ms,
            snapshot.p99_latency_ms,
        ) == tuple(p * 1e3 for p in reference.percentiles())
        if backed:
            exported = registry.histogram(
                "repro_serving_query_latency_seconds", labels={"synopsis": "s"}
            )
            assert exported.percentiles() == reference.percentiles()


class TestSnapshotContracts:
    """Satellite: the uniform as_dict() contract across snapshot types."""

    def test_every_snapshot_type_round_trips_through_as_dict(self):
        obs = Observability(trace_sample_rate=1.0)
        engine = make_engine(obs)
        query = AggregateQuery(
            "AVG", "value", RectPredicate.from_bounds(key=(8.0, 22.0))
        )

        async def workload():
            async with AsyncServingEngine(engine, batch_window=0.001) as tier:
                await tier.execute(query)
                await tier.execute(query)
                return tier.stats()

        async_stats = asyncio.run(workload())

        tier_dict = async_stats.as_dict()
        assert tier_dict["scheduler"]["batches"] >= 1
        assert set(tier_dict) == {
            "scheduler",
            "coalesced",
            "invalidated_futures",
            "inflight",
        }

        serving_dict = engine.stats()["obs_value"].as_dict()
        assert serving_dict["cache_hits"] == 1
        assert serving_dict["cache_misses"] == 1
        assert serving_dict["hit_rate"] == pytest.approx(0.5)
        assert all(isinstance(key, str) for key in serving_dict)

    def test_shard_update_stats_as_dict(self):
        from repro.distributed.parallel import build_sharded_from_plan
        from repro.distributed.planner import ShardPlanner
        from repro.distributed.router import StreamingShardRouter

        rng = np.random.default_rng(9)
        table = Table(
            {
                "key": rng.uniform(0.0, 10.0, size=800),
                "value": rng.uniform(0.0, 5.0, size=800),
            },
            name="sharded",
        )
        config = PASSConfig(
            n_partitions=4, sample_rate=0.1, opt_sample_size=100, seed=1
        )
        plan = ShardPlanner(2, "range").plan(table, "key")
        sharded = build_sharded_from_plan(
            plan, "value", ["key"], config, dynamic=True
        )
        router = StreamingShardRouter(sharded, plan.tables, rebuild_threshold=None)
        router.insert({"key": 3.0, "value": 1.0})
        shard_dicts = [snapshot.as_dict() for snapshot in router.stats()]
        assert len(shard_dicts) == 2
        assert sum(d["inserts"] for d in shard_dicts) == 1
        for d in shard_dicts:
            assert {"inserts", "deletes", "rebuilds", "staleness"} <= set(d)


class TestQueryLogPayloads:
    """The hot path appends raw tuples; reads materialize them lazily."""

    @staticmethod
    def make_payload(outcome: str = "miss", result=None, waiters: int = 0) -> tuple:
        query = AggregateQuery(
            "SUM", "value", RectPredicate.from_bounds(key=(1.0, 2.0))
        )
        return (
            1_000.0,  # timestamp
            "obs_table",
            "obs_value",
            query,
            outcome,
            4.2,  # total_ms
            {"frontier.descent": 3.0},
            result,
            0.01,  # staleness
            7,  # trace_id
            waiters,
        )

    def test_raw_payload_materializes_derived_fields(self):
        log = QueryLog(capacity=8)
        result = AQPResult(
            estimate=10.0,
            ci_half_width=0.5,
            hard_lower=8.0,
            hard_upper=12.0,
            exact=False,
        )
        log.append_raw(self.make_payload(result=result))
        (record,) = log.records()
        assert record.agg == "SUM"
        assert record.cache_key
        assert record.predicate_box == (("key", 1.0, 2.0),)
        assert record.error_bound_half_width == 0.5
        assert record.hard_bound_width == pytest.approx(4.0)
        assert record.exact is False
        assert record.trace_id == 7
        assert record.stages_ms["frontier.descent"] == 3.0

    def test_rejection_payload_carries_nan_bounds(self):
        log = QueryLog(capacity=8)
        log.append_raw(self.make_payload(outcome="rejected", result=None))
        (record,) = log.records()
        assert math.isnan(record.error_bound_half_width)
        assert math.isinf(record.hard_bound_width)
        assert record.exact is False

    def test_invalid_outcome_rejected_eagerly(self):
        log = QueryLog(capacity=8)
        with pytest.raises(ValueError, match="unknown outcome"):
            log.append_raw(self.make_payload(outcome="pancake"))
        with pytest.raises(ValueError, match="unknown outcome"):
            log.extend_raw([self.make_payload(outcome="pancake")])
        assert log.total == 0

    def test_boxes_and_outcome_counts_read_raw_payloads(self):
        log = QueryLog(capacity=8)
        log.extend_raw(
            [self.make_payload(), self.make_payload(outcome="cache_hit")]
        )
        assert log.boxes() == [(("key", 1.0, 2.0),), (("key", 1.0, 2.0),)]
        assert log.outcome_counts() == {"miss": 1, "cache_hit": 1}

    def test_eviction_keeps_total_counting(self):
        log = QueryLog(capacity=2)
        for _ in range(5):
            log.append_raw(self.make_payload())
        assert len(log) == 2
        assert log.total == 5
        assert len(log.tail(10)) == 2

    def test_coalesced_waiters_preserved_through_materialization(self):
        log = QueryLog(capacity=8)
        log.append_raw(self.make_payload(outcome="coalesced", waiters=15))
        (record,) = log.records()
        assert record.coalesced_waiters == 15
        assert record.as_dict()["coalesced_waiters"] == 15
