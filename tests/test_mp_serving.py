"""Tests for multi-process serving over published synopsis files.

The acceptance bar is bit-identity: every query answered by the worker pool
(and through its HTTP front end) must return exactly the result the
in-process :class:`~repro.serving.engine.ServingEngine` produces — including
across an epoch flip mid-stream, where workers re-attach to a freshly
published generation without ever serving a torn synopsis.

The shutdown-leak tests double as the CI leak check's unit-level mirror: a
closed pool leaves no live worker processes and a closed publisher leaves no
generation directory behind.  The kill-the-owner rows of the fault table are
``tests/test_publish_crash.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import glob
import http.client
import json
import math
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.soa import FlatSynopsis
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_from_plan
from repro.distributed.planner import ShardPlanner
from repro.distributed.router import StreamingShardRouter
from repro.evaluation.harness import evaluate_grouped_workload
from repro.obs import Observability
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery, ExactEngine
from repro.result import AQPResult
from repro.serving import (
    MPHTTPServer,
    MPServingPool,
    ServingEngine,
    SynopsisCatalog,
    SynopsisPublisher,
)
from repro.serving.coalesce import RequestCoalescer
from repro.serving.persistence import load_catalog, save_catalog
from repro.serving.scheduler import AdmissionGate, MicroBatchScheduler, Overloaded
from repro.serving.server import (
    MAX_BODY_BYTES,
    PoolBroken,
    query_from_payload,
    query_to_payload,
    result_from_payload,
    result_to_payload,
)
from repro.serving.shm import (
    EpochRegister,
    PublisherGone,
    attach_flat_synopsis,
    read_published,
)

AGGS = ("SUM", "COUNT", "AVG", "MIN", "MAX")


def assert_identical(a, b):
    """AQPResult equality treating NaN fields as equal (NaN != NaN otherwise)."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), field.name
        else:
            assert x == y, f"{field.name}: {x!r} != {y!r}"


def make_table(seed: int, n: int = 4000) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        {
            "key": rng.uniform(0.0, 50.0, size=n),
            "value": np.abs(rng.lognormal(1.2, 0.6, size=n)),
        },
        name="mp_test",
    )


def build_synopsis(seed: int):
    return build_pass(
        make_table(seed),
        "value",
        ["key"],
        PASSConfig(n_partitions=16, sample_rate=0.01, opt_sample_size=400, seed=0),
    )


def seeded_queries(seed: int, n: int) -> list[AggregateQuery]:
    rng = np.random.default_rng(seed)
    queries = []
    for index in range(n):
        low, high = sorted(rng.uniform(0.0, 50.0, size=2).tolist())
        queries.append(
            AggregateQuery(
                AGGS[index % len(AGGS)],
                "value",
                RectPredicate({"key": Interval(low, high)}),
            )
        )
    return queries


def sketch_queries() -> list[AggregateQuery]:
    """QUANTILE / COUNT_DISTINCT over a partial range and over everything."""
    ranged = RectPredicate({"key": Interval(7.5, 31.25)})
    return [
        AggregateQuery("QUANTILE", "value", ranged, quantile=0.5),
        AggregateQuery("QUANTILE", "value", ranged, quantile=0.99),
        AggregateQuery("COUNT_DISTINCT", "value", ranged),
        AggregateQuery("QUANTILE", "value", RectPredicate.everything(), quantile=0.5),
        AggregateQuery("COUNT_DISTINCT", "value", RectPredicate.everything()),
    ]


def record_outcome(outcomes: list, call, *args) -> None:
    """Thread target: append ``call(*args)``'s result, or what it raised."""
    try:
        outcomes.append(call(*args))
    except BaseException as exc:
        outcomes.append(exc)


@pytest.fixture(scope="module")
def synopses():
    return build_synopsis(seed=1), build_synopsis(seed=2)


def make_engine(synopsis) -> ServingEngine:
    catalog = SynopsisCatalog()
    catalog.register("mp_main", synopsis, table_name="mp_test")
    return ServingEngine(catalog)


class TestSegmentRoundTrip:
    def test_attach_is_zero_copy_and_bit_identical(self, synopses):
        synopsis, _ = synopses
        publisher = SynopsisPublisher()
        try:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            register = EpochRegister.attach(publisher.register_name)
            _, manifest = register.read()
            flat, attached = attach_flat_synopsis(
                manifest["entries"][0]["segment"]
            )
            assert isinstance(flat, FlatSynopsis)
            # Views point into the shared mapping and are read-only.
            for view in attached.arrays.values():
                assert not view.flags.writeable
                assert not view.flags.owndata
            for query in seeded_queries(seed=3, n=50):
                assert_identical(flat.query(query), synopsis.flat.query(query))
            attached.close()
            register.close()
        finally:
            publisher.close()

    def test_epoch_register_flips_are_atomic(self, synopses):
        synopsis, other = synopses
        publisher = SynopsisPublisher()
        try:
            first = publisher.publish("mp_main", synopsis, table_name="mp_test")
            register = EpochRegister.attach(publisher.register_name)
            epoch, manifest = register.read()
            assert epoch == first
            second = publisher.publish("mp_main", other, table_name="mp_test")
            assert second == first + 1  # one publish, one epoch
            epoch, manifest = register.read()
            assert epoch == second
            assert len(manifest["entries"]) == 1
            register.close()
        finally:
            publisher.close()

    def test_old_generation_stays_mapped_until_reader_closes(self, synopses):
        synopsis, other = synopses
        publisher = SynopsisPublisher()
        try:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            register = EpochRegister.attach(publisher.register_name)
            _, manifest = register.read()
            flat, attached = attach_flat_synopsis(
                manifest["entries"][0]["segment"]
            )
            publisher.publish("mp_main", other, table_name="mp_test")
            # The old file's name is unlinked, but this reader's mapping
            # keeps the memory alive: answers stay bit-identical to the old
            # generation, never torn.
            for query in seeded_queries(seed=4, n=20):
                assert_identical(flat.query(query), synopsis.flat.query(query))
            attached.close()
            register.close()
        finally:
            publisher.close()

class TestMPServingPool:
    def test_batch_results_bit_identical_to_in_process_engine(self, synopses):
        synopsis, _ = synopses
        engine = make_engine(synopsis)
        queries = seeded_queries(seed=5, n=60)
        with SynopsisPublisher() as publisher:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            with MPServingPool(publisher.register_name, n_workers=2) as pool:
                results = pool.execute_batch(queries, table="mp_test")
                for result, query in zip(results, queries):
                    assert_identical(result, engine.execute(query, "mp_test"))

    def test_epoch_flip_mid_stream_never_serves_a_torn_synopsis(self, synopses):
        """Property-style: random interleave of batches and epoch flips.

        Every batch must be bit-identical to the generation live at dispatch
        time — the old one before the flip, the new one after — across a
        seeded schedule of publishes.
        """
        synopsis, other = synopses
        engines = {0: make_engine(synopsis), 1: make_engine(other)}
        generations = {0: synopsis, 1: other}
        rng = np.random.default_rng(12)
        with SynopsisPublisher() as publisher:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            live = 0
            with MPServingPool(publisher.register_name, n_workers=2) as pool:
                for round_index in range(6):
                    if round_index and rng.random() < 0.5:
                        live = 1 - live
                        publisher.publish(
                            "mp_main", generations[live], table_name="mp_test"
                        )
                    queries = seeded_queries(
                        seed=100 + round_index, n=int(rng.integers(5, 25))
                    )
                    results = pool.execute_batch(queries, table="mp_test")
                    for result, query in zip(results, queries):
                        assert_identical(
                            result, engines[live].execute(query, "mp_test")
                        )

    def test_competing_published_entries_route_like_the_catalog(self):
        """Two overlapping synopses (1-D and 2-D, same value column): the
        workers call the catalog's routing function, so each query is
        answered by the synopsis the in-process engine picks for it."""
        rng = np.random.default_rng(21)
        table = Table(
            {
                "key": rng.uniform(0.0, 50.0, size=3000),
                "other": rng.uniform(0.0, 10.0, size=3000),
                "value": np.abs(rng.lognormal(1.2, 0.6, size=3000)),
            },
            name="mp_two",
        )
        config = PASSConfig(
            n_partitions=8, sample_rate=0.02, opt_sample_size=300, seed=0
        )
        catalog = SynopsisCatalog()
        catalog.register(
            "by_key", build_pass(table, "value", ["key"], config), "mp_two"
        )
        kd = config.with_overrides(partitioner="kd")
        catalog.register(
            "by_both", build_pass(table, "value", ["key", "other"], kd), "mp_two"
        )
        engine = ServingEngine(catalog)
        key, other = Interval(5.0, 30.0), Interval(2.0, 7.0)
        winners = {
            "by_key": [RectPredicate({"key": key}), RectPredicate.everything()],
            # by_key cannot answer these at all.
            "by_both": [
                RectPredicate({"other": other}),
                RectPredicate({"key": key, "other": other}),
            ],
        }
        loser_of_by_key = catalog.get("by_both").pass_synopsis
        with SynopsisPublisher() as publisher:
            publisher.publish_catalog(catalog)
            with MPServingPool(publisher.register_name, n_workers=1) as pool:
                for winner, predicates in winners.items():
                    for predicate in predicates:
                        for agg in AGGS:
                            query = AggregateQuery(agg, "value", predicate)
                            assert catalog.route(query, "mp_two").name == winner
                            answer = pool.execute(query, "mp_two")
                            assert_identical(answer, engine.execute(query, "mp_two"))
                # The 2-D synopsis could answer by_key's queries too,
                # differently: parity is not an accident of routing.
                probe = AggregateQuery("SUM", "value", RectPredicate({"key": key}))
                assert pool.execute(probe, "mp_two") != loser_of_by_key.query(probe)

    def test_execute_grouped_equals_the_engine_cell_by_cell(self, synopses):
        """Parity incl. the cell the base predicate excludes (compiled to
        ``predicate=None``): SQL empty-group answers, never dropped."""
        synopsis, _ = synopses
        groupby = GroupByQuery(
            groupings=(GroupingColumn.bins("key", [0.0, 10.0, 20.0, 30.0, 40.0]),),
            aggregates=(
                AggregateSpec("SUM", "value"),
                AggregateSpec("COUNT", "value"),
                AggregateSpec("AVG", "value"),
            ),
            predicate=RectPredicate({"key": Interval(0.0, 29.0)}),
        )
        plan = groupby.compile()
        assert [cell.predicate is None for cell in plan.cells] == [
            False, False, False, True,
        ]
        expected = make_engine(synopsis).execute_grouped(groupby, table="mp_test")
        with SynopsisPublisher() as publisher:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            with MPServingPool(publisher.register_name, n_workers=2) as pool:
                for request in (groupby, plan):
                    grouped = pool.execute_grouped(request, table="mp_test")
                    assert grouped.group_columns == expected.group_columns
                    assert grouped.aggregates == expected.aggregates
                    assert grouped.labels == expected.labels
                    assert len(grouped.cells) == len(expected.cells) == 4
                    for row, expected_row in zip(grouped.cells, expected.cells):
                        for result, reference in zip(row, expected_row):
                            assert_identical(result, reference)
                assert grouped.cells[3][1].tuples_skipped == synopsis.population_size
                # The evaluation harness duck-types on execute_grouped.
                metrics = evaluate_grouped_workload(
                    pool, groupby, ExactEngine(make_table(seed=1)), table="mp_test"
                )
                assert metrics.n_queries == 9

    def test_sketch_aggregates_carry_the_engine_bits(self, synopses):
        """The segment holds the packed sketches; a worker runs the flat
        sketch kernel over them, so the pool answers what the engine does."""
        synopsis, _ = synopses
        engine = make_engine(synopsis)
        queries = sketch_queries()
        with SynopsisPublisher() as publisher:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            with MPServingPool(publisher.register_name, n_workers=1) as pool:
                for query in queries:
                    assert_identical(
                        pool.execute(query, table="mp_test"),
                        engine.execute(query, "mp_test"),
                    )
                # Mixed into a batch with classic aggregates, too.
                mixed = queries + seeded_queries(seed=13, n=7)
                for result, query in zip(
                    pool.execute_batch(mixed, table="mp_test"), mixed
                ):
                    assert_identical(result, engine.execute(query, "mp_test"))

    def test_unanswerable_queries_raise_lookup_error(self, synopses):
        synopsis, _ = synopses
        sketchless = build_pass(
            make_table(seed=1),
            "value",
            ["key"],
            PASSConfig(
                n_partitions=16,
                sample_rate=0.01,
                opt_sample_size=400,
                seed=0,
                with_sketches=False,
            ),
        )
        with SynopsisPublisher() as publisher:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            publisher.publish("mp_bare", sketchless, table_name="mp_bare")
            with MPServingPool(publisher.register_name, n_workers=1) as pool:
                unknown = AggregateQuery(
                    "SUM", "other_column", RectPredicate.everything()
                )
                with pytest.raises(LookupError):
                    pool.execute(unknown, table="mp_test")
                # Published from with_sketches=False: classic aggregates only.
                sketch = sketch_queries()[0]
                pool.execute(seeded_queries(seed=6, n=1)[0], table="mp_bare")
                with pytest.raises(LookupError):
                    pool.execute(sketch, table="mp_bare")

    def test_pool_merges_worker_metrics_into_parent_registry(self, synopses):
        synopsis, _ = synopses
        obs = Observability()
        with SynopsisPublisher() as publisher:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            with MPServingPool(
                publisher.register_name, n_workers=1, obs=obs
            ) as pool:
                pool.execute_batch(seeded_queries(seed=6, n=10), table="mp_test")
        assert obs.metrics.counter("repro_mp_requests_total").value == 10
        assert obs.metrics.counter("repro_mp_chunks_total").value >= 1

    def test_shutdown_leaves_no_workers_or_segments(self, synopses):
        synopsis, _ = synopses
        publisher = SynopsisPublisher()
        publisher.publish("mp_main", synopsis, table_name="mp_test")
        pool = MPServingPool(publisher.register_name, n_workers=2)
        pool.execute_batch(seeded_queries(seed=7, n=5), table="mp_test")
        pool.close()
        assert multiprocessing.active_children() == []
        publisher.close()
        assert glob.glob("/dev/shm/pass-*") == []
        # Idempotent: closing again is a no-op, not an error.
        pool.close()
        publisher.close()
        with pytest.raises(RuntimeError):
            pool.execute_batch(seeded_queries(seed=7, n=1), table="mp_test")

    def test_a_closed_publisher_fails_requests_instead_of_spinning(
        self, synopses
    ):
        """A worker whose publisher is gone ships a typed error, and lives on.

        First the manifest names a generation file that is gone and stays
        put (what a publisher's removal leaves for an instant), then the
        publisher is closed.  Neither may make a worker retry forever, and
        over HTTP the error is a 503; a hung call has its worker killed, so
        the test never leaves a process behind.
        """
        synopsis, other = synopses
        query = seeded_queries(seed=14, n=1)[0]
        publisher = SynopsisPublisher()
        pool = MPServingPool(publisher.register_name, n_workers=1)

        def outcome_within_timeout():
            outcomes: list = []
            caller = threading.Thread(
                target=record_outcome,
                args=(outcomes, pool.execute, query, "mp_test"),
                daemon=True,
            )
            caller.start()
            caller.join(timeout=10.0)
            hung = caller.is_alive()
            if hung:
                for worker in multiprocessing.active_children():
                    worker.kill()
                caller.join(timeout=10.0)
            assert not hung, "execute spun on a publisher that is gone"
            return outcomes[0]

        try:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            pool.execute(query, table="mp_test")
            (worker,) = multiprocessing.active_children()
            publisher.publish("mp_main", other, table_name="mp_test")
            _, (entry,) = read_published(EpochRegister.attach(publisher.register_name))
            os.unlink(entry.segment)
            assert isinstance(outcome_within_timeout(), PublisherGone)
            publisher.close()
            outcome = outcome_within_timeout()
            assert isinstance(outcome, PublisherGone)
            assert publisher.register_name in str(outcome)
            server = MPHTTPServer(pool)
            request = urllib.request.Request(
                server.serve_in_thread() + "/query",
                data=json.dumps(query_to_payload(query, "mp_test")).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            try:
                with pytest.raises(urllib.error.HTTPError) as refused:
                    urllib.request.urlopen(request, timeout=30)
                assert refused.value.code == 503
                assert "PublisherGone" in json.loads(refused.value.read())["error"]
            finally:
                server.close()
            assert multiprocessing.active_children() == [worker]
        finally:
            pool.close()
            publisher.close()
        assert multiprocessing.active_children() == []

    def test_failed_chunk_leaves_no_stale_reply_behind(self, synopses):
        """A worker's exception arrives with its type and the pipes stay in step.

        One chunk of a fanned-out batch fails while others are in flight;
        their replies must be drained before the workers are reused, or the
        next batch would read answers to the previous one's queries.
        """
        synopsis, _ = synopses
        engine = make_engine(synopsis)
        unknown = AggregateQuery("SUM", "other_column", RectPredicate.everything())
        with SynopsisPublisher() as publisher:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            with MPServingPool(
                publisher.register_name, n_workers=2, chunk_size=1
            ) as pool:
                for round_index in range(4):
                    mixed = seeded_queries(seed=20 + round_index, n=6)
                    mixed.insert(1 + round_index, unknown)
                    with pytest.raises(LookupError, match="other_column"):
                        pool.execute_batch(mixed, table="mp_test")
                    queries = seeded_queries(seed=30 + round_index, n=9)
                    results = pool.execute_batch(queries, table="mp_test")
                    for result, query in zip(results, queries):
                        assert_identical(result, engine.execute(query, "mp_test"))

    def test_concurrent_callers_stay_bit_identical_across_an_epoch_flip(
        self, synopses
    ):
        """Stress the worker checkout: 8 caller threads over 2 workers.

        Two callers sharing a pipe, or a worker released with a reply
        owed, would hand some caller the answer to another one's query.
        """
        synopsis, other = synopses
        errors: list[BaseException] = []

        def hammer(pool, engine, seed):
            try:
                queries = seeded_queries(seed=seed, n=24)
                expected = [engine.execute(query, "mp_test") for query in queries]
                singles = [pool.execute(query, "mp_test") for query in queries]
                batch = pool.execute_batch(queries, table="mp_test")
                for got in (singles, batch):
                    for result, reference in zip(got, expected):
                        assert_identical(result, reference)
            except BaseException as exc:  # surfaced by the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SynopsisPublisher() as publisher:
                publisher.publish("mp_main", synopsis, table_name="mp_test")
                with MPServingPool(
                    publisher.register_name, n_workers=2, chunk_size=3
                ) as pool:
                    for generation in (synopsis, other):
                        publisher.publish("mp_main", generation, table_name="mp_test")
                        engine = make_engine(generation)
                        threads = [
                            threading.Thread(target=hammer, args=(pool, engine, 40 + i))
                            for i in range(8)
                        ]
                        for thread in threads:
                            thread.start()
                        for thread in threads:
                            thread.join(timeout=60.0)
                        assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_worker_killed_while_idle_breaks_the_pool_and_close_reaps(
        self, synopses
    ):
        synopsis, _ = synopses
        query = seeded_queries(seed=7, n=1)[0]
        with SynopsisPublisher() as publisher:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            register = EpochRegister.attach(publisher.register_name)
            owned = [publisher.register_name] + [
                entry["segment"] for entry in register.read()[1]["entries"]
            ]
            register.close()
            open_fds = len(os.listdir("/proc/self/fd"))
            pool = MPServingPool(publisher.register_name, n_workers=1)
            pool.execute(query, "mp_test")
            (worker,) = multiprocessing.active_children()
            os.kill(worker.pid, signal.SIGKILL)
            outcome: list = []
            caller = threading.Thread(
                target=record_outcome, args=(outcome, pool.execute, query, "mp_test")
            )
            caller.start()
            caller.join(timeout=10.0)
            assert not caller.is_alive(), "execute hung on a dead worker"
            assert isinstance(outcome[0], PoolBroken)
            with pytest.raises(PoolBroken):  # and stays broken, like BrokenProcessPool
                pool.execute(query, "mp_test")
            pool.close()
            assert multiprocessing.active_children() == []
            assert len(os.listdir("/proc/self/fd")) == open_fds
        # This stack's own directory and files (other test processes may
        # hold theirs).
        assert not [path for path in owned if os.path.exists(path)]

    def test_worker_killed_mid_chunk_fails_every_waiting_caller(self, synopses):
        synopsis, _ = synopses
        query = seeded_queries(seed=7, n=1)[0]
        with SynopsisPublisher() as publisher:
            publisher.publish("mp_main", synopsis, table_name="mp_test")
            with MPServingPool(publisher.register_name, n_workers=1) as pool:
                pool.execute(query, "mp_test")
                (worker,) = multiprocessing.active_children()
                # A stopped worker holds its chunk forever: the first caller
                # blocks on the reply, the second on the worker checkout.
                os.kill(worker.pid, signal.SIGSTOP)
                outcomes: list = []
                callers = [
                    threading.Thread(
                        target=record_outcome,
                        args=(outcomes, pool.execute, query, "mp_test"),
                    )
                    for _ in range(2)
                ]
                for caller in callers:
                    caller.start()
                time.sleep(0.2)
                assert outcomes == []
                os.kill(worker.pid, signal.SIGKILL)
                for caller in callers:
                    caller.join(timeout=10.0)
                assert not any(caller.is_alive() for caller in callers)
                assert [type(outcome) for outcome in outcomes] == [PoolBroken] * 2
            assert multiprocessing.active_children() == []

    def test_router_swap_republishes_through_the_publisher(self):
        table = make_table(seed=11, n=1500)
        plan = ShardPlanner(1, "range").plan(table, "key")
        sharded = build_sharded_from_plan(
            plan,
            "value",
            ["key"],
            PASSConfig(n_partitions=4, sample_rate=0.05, opt_sample_size=200, seed=0),
            dynamic=True,
        )
        router = StreamingShardRouter(sharded, plan.tables, rebuild_threshold=0.05)
        with SynopsisPublisher() as publisher:
            listener = publisher.watch_router(router, "stream", table_name="mp_test")
            first_epoch = publisher.epoch
            rng = np.random.default_rng(13)
            for _ in range(sharded.shards[0].population_size):
                router.insert(
                    {
                        "key": float(rng.uniform(0.0, 50.0)),
                        "value": float(rng.uniform(1.0, 20.0)),
                    }
                )
                if router.stats()[0].rebuilds:
                    # Stop at the swap so the live shard IS the published
                    # generation (later inserts would drift past it until
                    # the next rebuild republishes).
                    break
            assert router.stats()[0].rebuilds >= 1
            assert publisher.epoch > first_epoch
            # The published generation is the swapped-in shard.
            register = EpochRegister.attach(publisher.register_name)
            _, manifest = register.read()
            flat, attached = attach_flat_synopsis(
                manifest["entries"][0]["segment"]
            )
            live = sharded.shards[0]
            for query in seeded_queries(seed=14, n=15):
                assert_identical(flat.query(query), live.synopsis.flat.query(query))
            attached.close()
            register.close()
            router.remove_swap_listener(listener)

    def test_multi_shard_router_republishes_on_a_swap(self):
        """Every shard rebuild republishes the one stitched segment."""
        table = make_table(seed=15, n=1200)
        plan = ShardPlanner(2, "range").plan(table, "key")
        sharded = build_sharded_from_plan(
            plan,
            "value",
            ["key"],
            PASSConfig(n_partitions=4, sample_rate=0.05, opt_sample_size=200, seed=0),
            dynamic=True,
        )
        router = StreamingShardRouter(sharded, plan.tables, rebuild_threshold=0.05)
        with SynopsisPublisher() as publisher:
            publisher.watch_router(router, "stream")
            first_epoch = publisher.epoch
            owner = sharded.shard_for_value(45.0)
            for step in range(sharded.shard_population(owner)):
                router.insert({"key": 45.0, "value": float(step % 9)})
                if router.stats()[owner].rebuilds:
                    break
            assert router.stats()[owner].rebuilds == 1
            assert publisher.epoch > first_epoch
            register = EpochRegister.attach(publisher.register_name)
            _, manifest = register.read()
            (entry,) = manifest["entries"]
            assert entry["population_size"] == sharded.population_size
            flat, attached = attach_flat_synopsis(entry["segment"])
            for query in seeded_queries(seed=16, n=15):
                assert_identical(flat.query(query), sharded.query(query))
            attached.close()
            register.close()

    @pytest.mark.parametrize("strategy", ["range", "hash"])
    def test_a_sharded_entry_answers_like_the_engine(self, strategy):
        """``publish_catalog`` publishes a 4-shard entry as one segment, and
        the pool's answers are the engine's bit for bit — hash point
        predicates, which prune to their owning shard, included."""
        table = make_table(seed=17, n=3000)
        sharded = build_sharded_from_plan(
            ShardPlanner(4, strategy).plan(table, "key"),
            "value",
            ["key"],
            PASSConfig(
                n_partitions=4,
                sample_rate=0.05,
                opt_sample_size=200,
                with_sketches=True,
                seed=0,
            ),
        )
        catalog = SynopsisCatalog()
        catalog.register("sharded", sharded, table_name="mp_test")
        engine = ServingEngine(catalog, cache_size=0)
        points = [
            AggregateQuery(agg, "value", RectPredicate({"key": Interval(key, key)}))
            for key in table.column("key")[:4].tolist()
            for agg in ("SUM", "COUNT")
        ]
        queries = seeded_queries(seed=18, n=20) + sketch_queries() + points
        with SynopsisPublisher() as publisher:
            publisher.publish_catalog(catalog)
            register = EpochRegister.attach(publisher.register_name)
            _, manifest = register.read()
            register.close()
            assert [entry["name"] for entry in manifest["entries"]] == ["sharded"]
            with MPServingPool(publisher.register_name, n_workers=1) as pool:
                for query in queries:
                    assert_identical(
                        pool.execute(query, "mp_test"), engine.execute(query, "mp_test")
                    )
                for got, query in zip(pool.execute_batch(queries, "mp_test"), queries):
                    assert_identical(got, engine.execute(query, "mp_test"))


class TestSavedDirectories:
    """A saved catalog is a generation directory a pool serves as it is."""

    def test_a_pool_over_a_saved_directory_answers_like_the_loaded_engine(
        self, tmp_path
    ):
        """All seven aggregates, over a static, a ``DynamicPASS`` and a
        4-shard entry, each under its own table so each one routes."""
        table = make_table(seed=21, n=3000)
        config = PASSConfig(
            n_partitions=8,
            sample_rate=0.05,
            opt_sample_size=200,
            with_sketches=True,
            seed=0,
        )
        dynamic = DynamicPASS(table, "value", ["key"], config)
        rng = np.random.default_rng(22)
        for key, value in zip(rng.uniform(0.0, 50.0, 40), rng.uniform(1.0, 9.0, 40)):
            dynamic.insert({"key": float(key), "value": float(value)})
        catalog = SynopsisCatalog()
        catalog.register("static", build_pass(table, "value", ["key"], config), "s")
        catalog.register("dynamic", dynamic, "d")
        catalog.register(
            "sharded",
            build_sharded_from_plan(
                ShardPlanner(4, "range").plan(table, "key"), "value", ["key"], config
            ),
            "h",
        )
        directory = tmp_path / "saved"
        save_catalog(catalog, directory)
        loaded = load_catalog(directory)
        assert [type(entry.synopsis) for entry in loaded.entries()] == [
            type(entry.synopsis) for entry in catalog.entries()
        ]
        engine = ServingEngine(loaded, cache_size=0)
        queries = seeded_queries(seed=23, n=20) + sketch_queries()
        assert {query.agg.name for query in queries} == set(AGGS) | {
            "QUANTILE",
            "COUNT_DISTINCT",
        }
        with MPServingPool(str(directory), n_workers=1) as pool:
            for table_name in ("s", "d", "h"):
                expected = [engine.execute(query, table_name) for query in queries]
                for got, want in zip(pool.execute_batch(queries, table_name), expected):
                    assert_identical(got, want)
                for query, want in zip(queries, expected):
                    assert_identical(pool.execute(query, table_name), want)

    def test_publish_catalog_is_one_generation(self):
        """The epoch advances once per catalog, and a pool querying through
        the republish never answers one entry new and the other old."""
        rng = np.random.default_rng(24)

        def catalog(seed: int) -> SynopsisCatalog:
            """``x`` answers over ``value``, ``y`` over ``other``."""
            table = make_table(seed)
            doubled = Table(
                {"key": table.column("key"), "other": 2.0 * table.column("value")},
                name="mp_test",
            )
            config = PASSConfig(n_partitions=16, sample_rate=0.01, seed=0)
            built = SynopsisCatalog()
            for name, source, column in (
                ("x", table, "value"),
                ("y", doubled, "other"),
            ):
                synopsis = build_pass(source, column, ["key"], config)
                built.register(name, synopsis, "mp_test")
            return built

        catalogs = [catalog(31), catalog(32)]
        probe = RectPredicate({"key": Interval(3.0, 41.0)})
        queries = [
            AggregateQuery("SUM", "value", probe),
            AggregateQuery("SUM", "other", probe),
        ]
        answers = [
            [c.get(name).synopsis.query(q) for name, q in zip("xy", queries)]
            for c in catalogs
        ]
        assert answers[0][0].estimate != answers[1][0].estimate
        assert answers[0][1].estimate != answers[1][1].estimate
        with SynopsisPublisher() as publisher:
            assert publisher.publish_catalog(catalogs[0]) == 1
            with MPServingPool(publisher.register_name, n_workers=1) as pool:
                stop = threading.Event()
                seen: list = []

                def query_until_stopped() -> None:
                    while not stop.is_set():
                        record_outcome(seen, pool.execute_batch, queries, "mp_test")

                reader = threading.Thread(target=query_until_stopped)
                reader.start()
                try:
                    for round_ in range(1, 9):
                        epoch = publisher.publish_catalog(catalogs[round_ % 2])
                        assert epoch == round_ + 1
                        time.sleep(float(rng.uniform(0.0, 0.02)))
                finally:
                    stop.set()
                    reader.join()
                register = EpochRegister.attach(publisher.register_name)
                _, manifest = register.read()
                assert [entry["name"] for entry in manifest["entries"]] == ["x", "y"]
        assert seen
        for outcome in seen:
            assert not isinstance(outcome, BaseException), outcome
            estimates = [result.estimate for result in outcome]
            assert estimates in (
                [answer.estimate for answer in answers[0]],
                [answer.estimate for answer in answers[1]],
            )


class TestJSONProtocol:
    def test_query_payload_round_trip_is_canonical(self):
        query = AggregateQuery(
            "AVG", "value", RectPredicate({"key": Interval(1.5, 7.25)})
        )
        decoded, table = query_from_payload(query_to_payload(query, "mp_test"))
        assert decoded == query
        assert table == "mp_test"

    def test_result_payload_round_trip_is_exact_with_nan(self):
        result_nan = result_from_payload(
            result_to_payload(
                AQPResult(
                    estimate=3.5,
                    ci_half_width=float("nan"),
                    variance=float("nan"),
                    hard_lower=-math.inf,
                    hard_upper=math.inf,
                    tuples_processed=7,
                    tuples_skipped=2,
                    exact=False,
                )
            )
        )
        assert result_nan.estimate == 3.5
        assert math.isnan(result_nan.ci_half_width)
        assert result_nan.hard_lower == -math.inf

    def test_malformed_payload_raises_value_error(self):
        with pytest.raises(ValueError):
            query_from_payload({"value_column": "value"})


class TestHTTPFrontEnd:
    @pytest.fixture()
    def stack(self, synopses):
        synopsis, _ = synopses
        obs = Observability()
        publisher = SynopsisPublisher()
        publisher.publish("mp_main", synopsis, table_name="mp_test")
        pool = MPServingPool(publisher.register_name, n_workers=1, obs=obs)
        server = MPHTTPServer(pool, max_pending=8, obs=obs)
        base = server.serve_in_thread()
        yield base, server, synopsis
        server.close()
        pool.close()
        publisher.close()

    def post(self, url: str, payload: dict):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())

    def test_query_round_trip_matches_engine(self, stack):
        base, _, synopsis = stack
        engine = make_engine(synopsis)
        for query in seeded_queries(seed=8, n=10) + sketch_queries():
            status, payload = self.post(
                base + "/query", query_to_payload(query, "mp_test")
            )
            assert status == 200
            assert_identical(
                result_from_payload(payload["result"]),
                engine.execute(query, "mp_test"),
            )

    def test_healthz_reports_epoch_and_workers(self, stack):
        base, _, _ = stack
        with urllib.request.urlopen(base + "/healthz") as response:
            payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert payload["workers"] == 1

    def test_metrics_exposition_includes_pool_counters(self, stack):
        base, server, _ = stack
        self.post(
            base + "/query",
            query_to_payload(seeded_queries(seed=8, n=1)[0], "mp_test"),
        )
        with urllib.request.urlopen(base + "/metrics") as response:
            text = response.read().decode("utf-8")
        assert "repro_mp_requests_total" in text

    def test_groupby_fans_out_cells(self, stack):
        base, _, synopsis = stack
        engine = make_engine(synopsis)
        status, payload = self.post(
            base + "/groupby",
            {
                "groupings": [{"column": "key", "edges": [0.0, 25.0, 50.0]}],
                "aggregates": [{"agg": "AVG", "value_column": "value"}],
                "table": "mp_test",
            },
        )
        assert status == 200
        assert len(payload["cells"]) == 2
        for cell in payload["cells"]:
            low, high = cell["labels"][0]
            query = AggregateQuery(
                "AVG", "value", RectPredicate({"key": Interval(low, high)})
            )
            assert_identical(
                result_from_payload(cell["results"][0]),
                engine.execute(query, "mp_test"),
            )

    def test_bad_payload_is_a_400_not_a_crash(self, stack):
        base, _, _ = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post(base + "/query", {"value_column": "value"})
        assert excinfo.value.code == 400

    def test_one_gate_rejects_identically_in_both_tiers(self, stack):
        """The scheduler and the HTTP front end admit through one class:
        a full window raises the same ``Overloaded`` in-process and is
        rendered, field for field, as the 429 body over HTTP."""
        base, server, _ = stack
        assert type(server.gate) is AdmissionGate

        async def overload_scheduler() -> Overloaded:
            async def dispatch(requests):
                await asyncio.Event().wait()  # hold every admitted slot

            scheduler = MicroBatchScheduler(
                dispatch, batch_window=0.0, max_pending=server.max_pending
            )
            scheduler.start()
            loop = asyncio.get_running_loop()
            coalescer = RequestCoalescer()
            queries = seeded_queries(seed=8, n=server.max_pending + 1)
            requests = [coalescer.admit(q, "mp_test", loop)[0] for q in queries]
            for request in requests[:-1]:
                scheduler.submit(request)
            with pytest.raises(Overloaded) as excinfo:
                scheduler.submit(requests[-1])
            assert scheduler.snapshot().rejected == 1
            assert scheduler.snapshot().pending == server.max_pending
            return excinfo.value

        in_process = asyncio.run(overload_scheduler())

        for _ in range(server.max_pending):
            server.gate.admit()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.post(
                    base + "/query",
                    query_to_payload(seeded_queries(seed=8, n=1)[0], "mp_test"),
                )
        finally:
            server.gate.release(server.max_pending)
        assert excinfo.value.code == 429
        detail = json.loads(excinfo.value.read())
        assert detail == {
            "error": "overloaded",
            "detail": str(in_process),
            "pending": in_process.pending,
            "capacity": in_process.capacity,
        }
        assert in_process.pending == in_process.capacity == server.max_pending
        assert server.gate.pending == 0
        rejected = server.obs.metrics.counter("repro_mp_http_rejected_total")
        assert rejected.value == 1


class _RecordingSocket(socket.socket):
    """An accepted socket that logs the size of every ``send`` / ``sendall``."""

    def send(self, data, *args):
        self.sent.append(len(data))
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.sent.append(len(data))
        return super().sendall(data, *args)


class _RecordingServer(MPHTTPServer):
    """``MPHTTPServer`` handing its handlers recording sockets."""

    def get_request(self):
        accepted, address = super().get_request()
        recording = _RecordingSocket(fileno=accepted.detach())
        recording.sent = []
        self.accepted.append(recording)
        return recording, address


class TestHTTPTransport:
    """The wire contract under the JSON protocol: framing, writes, failures."""

    @pytest.fixture()
    def stack(self, synopses):
        synopsis, _ = synopses
        publisher = SynopsisPublisher()
        publisher.publish("mp_main", synopsis, table_name="mp_test")
        pool = MPServingPool(publisher.register_name, n_workers=1)
        server = _RecordingServer(pool, max_pending=4)
        server.accepted = []
        server.serve_in_thread()
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        yield connection, server, pool
        connection.close()
        server.close()
        pool.close()
        publisher.close()

    @staticmethod
    def post(connection, path, payload):
        connection.request(
            "POST",
            path,
            body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())

    @staticmethod
    def raw_exchange(server, head: bytes) -> bytes:
        """Send raw request bytes, return everything up to the server's close."""
        with socket.create_connection(server.server_address[:2], timeout=5) as raw:
            raw.sendall(head)
            received = b""
            while chunk := raw.recv(65536):
                received += chunk
        return received

    def test_early_replies_keep_a_keep_alive_connection_in_sync(self, stack):
        connection, server, _ = stack
        payload = query_to_payload(seeded_queries(seed=8, n=1)[0], "mp_test")
        for _ in range(server.max_pending):
            server.gate.admit()
        try:
            status, _ = self.post(connection, "/query", payload)
            assert status == 429
        finally:
            server.gate.release(server.max_pending)
        # The 429 body was read, so the same connection parses the next
        # request from its first byte (not from the middle of that JSON).
        status, reply = self.post(connection, "/query", payload)
        assert status == 200 and "result" in reply
        status, _ = self.post(connection, "/no-such-route", payload)
        assert status == 404
        status, reply = self.post(connection, "/query", payload)
        assert status == 200 and "result" in reply
        assert len(server.accepted) == 1  # one connection throughout

    @pytest.mark.parametrize("declared", ["-1", "banana"])
    def test_malformed_content_length_is_a_400(self, stack, declared):
        _, server, _ = stack
        reply = self.raw_exchange(
            server,
            f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}"
            "\r\n\r\n".encode(),
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in reply
        assert b"Content-Length" in reply.split(b"\r\n\r\n", 1)[1]  # the JSON error

    def test_oversized_body_is_a_413_without_reading_it(self, stack):
        _, server, _ = stack
        reply = self.raw_exchange(
            server,
            f"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: "
            f"{MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
        )
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in reply

    def test_expect_100_continue_is_answered_before_the_body(self, stack):
        _, server, _ = stack
        body = json.dumps(
            query_to_payload(seeded_queries(seed=8, n=1)[0], "mp_test")
        ).encode()
        with socket.create_connection(server.server_address[:2], timeout=5) as raw:
            raw.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(body)
            )
            # Buffered writes must not hold the interim response back.
            assert raw.recv(65536).startswith(b"HTTP/1.1 100 Continue")
            raw.sendall(body)
            received = b""
            while chunk := raw.recv(65536):
                received += chunk
        assert received.startswith(b"HTTP/1.1 200 ")

    def test_pool_failure_is_a_json_503_not_a_reset(self, stack):
        connection, _, pool = stack
        payload = query_to_payload(seeded_queries(seed=8, n=1)[0], "mp_test")
        assert self.post(connection, "/query", payload)[0] == 200
        pool.close()
        status, reply = self.post(connection, "/query", payload)
        assert status == 503
        assert "pool is closed" in reply["error"]
        # Still one live connection: the server answered, it did not drop.
        assert self.post(connection, "/no-such-route", payload)[0] == 404

    def test_each_response_is_one_send_on_a_nodelay_socket(self, stack):
        connection, server, _ = stack
        payload = query_to_payload(seeded_queries(seed=8, n=1)[0], "mp_test")
        assert self.post(connection, "/query", payload)[0] == 200
        assert self.post(connection, "/query", {"value_column": "value"})[0] == 400
        for path in ("/healthz", "/metrics", "/nowhere"):
            connection.request("GET", path)
            connection.getresponse().read()
        (accepted,) = server.accepted
        assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        assert len(accepted.sent) == 5  # five responses, five writes

    def test_keep_alive_round_trips_do_not_stall(self, stack):
        """50 sequential round trips: ~0.1 s; 2.2 s with the write-write-read stall."""
        connection, _, _ = stack
        payloads = [
            query_to_payload(query, "mp_test") for query in seeded_queries(seed=9, n=51)
        ]
        # The first request spawns the worker; keep that off the clock.
        assert self.post(connection, "/query", payloads[0])[0] == 200
        start = time.perf_counter()
        for payload in payloads[1:]:
            assert self.post(connection, "/query", payload)[0] == 200
        assert time.perf_counter() - start < 1.0
