"""The six named workloads: program set-up, generated inputs, one request.

Each workload owns the *program under test* (datasets with their own fixed
seeds, synopses, catalogs, engines, pools, servers — all built with the
library's defaults, observability disabled) and the *inputs* it is driven
with, which depend only on ``--seed``.  The program never sees the seed; it
receives generated requests.

Load is closed loop everywhere: a client sends its next request only after
the previous reply arrived.  The client count is stated per workload.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.generators import uniform_random
from repro.data.loaders import load_dataset
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.query.groupby import AggregateSpec, GroupByQuery, GroupingColumn
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery, ExactEngine
from repro.result import AQPResult
from repro.serving import (
    AsyncServingEngine,
    MPHTTPServer,
    MPServingPool,
    ServingEngine,
    SynopsisCatalog,
    SynopsisPublisher,
)
from repro.serving.server import query_to_payload, result_from_payload

from verify import Verification, verify_answers

__all__ = ["WORKLOADS", "Workload", "PassResult", "VERIFY_ANSWERS"]

AGGS = ("SUM", "COUNT", "AVG", "MIN", "MAX")
N_ROWS = 200_000

#: Answers in each workload's verification sample.
VERIFY_ANSWERS = 256

#: Hot-set shape shared by ``dashboard_1d`` and ``stream_mixed``.
HOT_SET = 512
ZIPF_EXPONENT = 1.2


@dataclass
class PassResult:
    """One timed pass: per-attempt latencies (seconds) in issue order."""

    latencies: list[float]
    elapsed: float
    failed: int
    update_latencies: list[float] = field(default_factory=list)


def closed_loop(
    call: Callable, items: Sequence, start: int, duration: float
) -> tuple[PassResult, int]:
    """One client: issue ``items`` cyclically from ``start`` for ``duration`` s.

    Latency is taken back to back — the end of one request is the start of
    the next — so the loop reads the clock once per request.
    """
    latencies: list[float] = []
    failed = 0
    index = start
    n_items = len(items)
    clock = time.perf_counter
    begin = now = clock()
    deadline = begin + duration
    while now < deadline:
        item = items[index % n_items]
        index += 1
        try:
            call(item)
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            failed += 1
        end = clock()
        latencies.append(end - now)
        now = end
    return PassResult(latencies, now - begin, failed), index


def zipf_indices(rng: np.random.Generator, n_items: int, size) -> np.ndarray:
    """Indices into a hot set drawn with probability ~ 1 / rank ** 1.2."""
    weights = 1.0 / np.arange(1, n_items + 1) ** ZIPF_EXPONENT
    return rng.choice(n_items, size=size, p=weights / weights.sum())


class Workload:
    """Base class: the pieces :mod:`run` drives, with the common defaults."""

    name = ""
    #: Requests issued by the untimed warm-up pass of every set-up.
    warmup_requests = 0

    def __init__(self) -> None:
        self.requests: list = []
        #: An enabled ``Observability`` in traced runs, where ``http_pool``
        #: reads the pool's counters from it; None (disabled) otherwise.
        self.obs = None
        #: Seconds the first ``PASSSynopsis.flat`` took (``core.soa.flatten_ms``).
        self.flatten_s = 0.0

    # -- program ---------------------------------------------------------
    def setup(self) -> None:
        """Load the dataset, build and register the synopsis, start the tier."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Close everything set-up opened (pools, publishers, servers, loops)."""

    def flatten(self, synopsis) -> None:
        """Build the flat execution arrays now, in set-up, and time it."""
        start = time.perf_counter()
        synopsis.flat  # a property: the first access builds the arrays
        self.flatten_s += time.perf_counter() - start

    def synopsis_bytes(self) -> int:
        """``storage_bytes()`` of the served synopsis."""
        raise NotImplementedError

    # -- inputs ----------------------------------------------------------
    def generate(self, seed: int) -> list:
        """The request sequence for ``seed`` (cycled when a run outlasts it)."""
        raise NotImplementedError

    # -- driving ---------------------------------------------------------
    def call(self, item):
        """Issue one request and wait for its reply."""
        raise NotImplementedError

    def warmup(self) -> None:
        """The untimed warm-up pass: fill caches, finish lazy set-up."""
        for item in self.requests[: self.warmup_requests]:
            self.call(item)

    def run_pass(
        self, start: int, duration: float, wrap: Callable | None = None
    ) -> tuple[PassResult, int]:
        """One timed pass; ``wrap`` (traced runs) decorates the request call."""
        call = wrap(self.call) if wrap else self.call
        return closed_loop(call, self.requests, start, duration)

    # -- verification ----------------------------------------------------
    def verify(self) -> Verification:
        """Re-execute the verification sample and check it (see :mod:`verify`)."""
        raise NotImplementedError


def _register(table: Table, name: str, synopsis) -> SynopsisCatalog:
    catalog = SynopsisCatalog()
    catalog.register(name, synopsis, table_name=table.name)
    catalog.register_table(table)
    return catalog


def _check(
    catalog: SynopsisCatalog,
    exact: ExactEngine,
    queries: Sequence[AggregateQuery],
    answers: Sequence[AQPResult],
    **tolerances,
) -> Verification:
    """Verify answers against the in-process reference — a fresh uncached
    ``ServingEngine.execute`` over the same synopsis state — and ``exact``."""
    reference = ServingEngine(catalog, cache_size=0)
    return verify_answers(
        answers,
        [reference.execute(query) for query in queries],
        exact.execute_many(queries),
        **tolerances,
    )


# ----------------------------------------------------------------------
# kernel_2d
# ----------------------------------------------------------------------
class Kernel2D(Workload):
    """1 client, ``ServingEngine.execute``, cache off, 2-D k-d synopsis."""

    name = "kernel_2d"
    warmup_requests = 200
    columns = ("c0", "c1")

    def setup(self) -> None:
        self.table = uniform_random(
            n_rows=N_ROWS, n_predicate_columns=len(self.columns), seed=7
        )
        config = PASSConfig(
            n_partitions=1024, sample_rate=0.02, partitioner="kd", seed=3
        )
        self.synopsis = build_pass(self.table, "value", list(self.columns), config)
        self.flatten(self.synopsis)
        self.catalog = _register(self.table, "uniform_2d", self.synopsis)
        self.engine = ServingEngine(self.catalog, cache_size=0)

    def synopsis_bytes(self) -> int:
        return self.synopsis.storage_bytes()

    def generate(self, seed: int) -> list[AggregateQuery]:
        rng = np.random.default_rng(seed)
        n_queries = 4096
        bounds = {}
        for column in self.columns:
            values = self.table.column(column)
            low, width = float(values.min()), float(values.max() - values.min())
            a = rng.uniform(0.0, 0.5, size=n_queries)
            b = a + rng.uniform(0.3, 0.5, size=n_queries)
            bounds[column] = (low + a * width, low + b * width)
        aggs = rng.integers(len(AGGS), size=n_queries)
        return [
            AggregateQuery(
                AGGS[aggs[i]],
                "value",
                RectPredicate.from_bounds(
                    **{c: (float(lo[i]), float(hi[i])) for c, (lo, hi) in bounds.items()}
                ),
            )
            for i in range(n_queries)
        ]

    def call(self, query: AggregateQuery) -> AQPResult:
        return self.engine.execute(query)

    def verify(self) -> Verification:
        sample = self.requests[:VERIFY_ANSWERS]
        return _check(
            self.catalog,
            self.catalog.exact_engine(),
            sample,
            [self.engine.execute(query) for query in sample],
        )


# ----------------------------------------------------------------------
# The 1-D intel synopsis shared by four workloads
# ----------------------------------------------------------------------
class Intel1D(Workload):
    """Base of the workloads over the 1-D ``intel`` synopsis (64 partitions)."""

    synopsis_name = "intel_1d"

    def load(self) -> None:
        self.spec = load_dataset("intel", N_ROWS)
        self.table = self.spec.table
        self.column = self.spec.default_predicate_column
        self.config = PASSConfig(n_partitions=64, sample_rate=0.005)

    def build_static(self) -> None:
        self.load()
        self.synopsis = build_pass(
            self.table, self.spec.value_column, [self.column], self.config
        )
        self.flatten(self.synopsis)
        self.catalog = _register(self.table, self.synopsis_name, self.synopsis)

    def synopsis_bytes(self) -> int:
        return self.synopsis.storage_bytes()

    def range_queries(self, rng: np.random.Generator, n_queries: int) -> list[AggregateQuery]:
        """Random range aggregates over the predicate column's domain."""
        values = self.table.column(self.column)
        bounds = np.sort(
            rng.uniform(float(values.min()), float(values.max()), size=(n_queries, 2)),
            axis=1,
        )
        aggs = rng.integers(len(AGGS), size=n_queries)
        return [
            AggregateQuery(
                AGGS[aggs[i]],
                self.spec.value_column,
                RectPredicate.from_bounds(
                    **{self.column: (float(bounds[i, 0]), float(bounds[i, 1]))}
                ),
            )
            for i in range(n_queries)
        ]

    def check(self, queries, answers, **tolerances) -> Verification:
        return _check(
            self.catalog, self.catalog.exact_engine(), queries, answers, **tolerances
        )


class Dashboard1D(Intel1D):
    """1 client, ``execute_batch`` of 32 tiles per refresh, default cache."""

    name = "dashboard_1d"
    warmup_requests = 64
    tiles = 32
    cold_pool = 20_000
    refreshes = 4096

    def setup(self) -> None:
        self.build_static()
        self.engine = ServingEngine(self.catalog)

    def generate(self, seed: int) -> list[list[AggregateQuery]]:
        rng = np.random.default_rng(seed)
        hot = self.range_queries(rng, HOT_SET)
        cold = self.range_queries(rng, self.cold_pool)
        shape = (self.refreshes, self.tiles)
        is_hot = rng.random(shape) < 0.8
        hot_picks = zipf_indices(rng, HOT_SET, shape)
        # Fresh tiles walk the cold pool in order: a cold query returns only
        # after ~20k others, long after the 4096-entry cache dropped it.
        cold_picks = (np.cumsum(~is_hot).reshape(shape) - 1) % self.cold_pool
        return [
            [
                hot[hot_picks[r, t]] if is_hot[r, t] else cold[cold_picks[r, t]]
                for t in range(self.tiles)
            ]
            for r in range(self.refreshes)
        ]

    def call(self, refresh: list[AggregateQuery]) -> list[AQPResult]:
        return self.engine.execute_batch(refresh)

    def verify(self) -> Verification:
        refreshes = self.requests[: VERIFY_ANSWERS // self.tiles]
        queries = [query for refresh in refreshes for query in refresh]
        answers = [a for refresh in refreshes for a in self.engine.execute_batch(refresh)]
        return self.check(queries, answers)


class AsyncDup50(Intel1D):
    """64 closed-loop coroutine clients through ``AsyncServingEngine``."""

    name = "async_dup50"
    clients = 64
    waves = 128
    warmup_requests = 4  # waves
    duplicate_ratio = 0.5

    def setup(self) -> None:
        self.build_static()
        self.engine = ServingEngine(self.catalog, cache_size=0, vectorized_batches=True)
        self.tier = AsyncServingEngine(self.engine)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.tier.start())

    def teardown(self) -> None:
        self.loop.run_until_complete(self.tier.stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        self.engine.close()

    def generate(self, seed: int) -> list[list[AggregateQuery]]:
        """Waves of 64 queries: each client draws the wave's hot query with
        probability 0.5 and a query of its own otherwise."""
        rng = np.random.default_rng(seed)
        pool = self.range_queries(rng, self.waves * (self.clients + 1))
        waves = []
        for w in range(self.waves):
            base = w * (self.clients + 1)
            hot = pool[base]
            duplicate = rng.random(self.clients) < self.duplicate_ratio
            waves.append(
                [hot if duplicate[c] else pool[base + 1 + c] for c in range(self.clients)]
            )
        return waves

    async def call(self, query: AggregateQuery) -> AQPResult:
        return await self.tier.execute(query)

    def warmup(self) -> None:
        for wave in self.requests[: self.warmup_requests]:
            self.loop.run_until_complete(self.tier.execute_many(wave))

    def run_pass(self, start, duration, wrap=None):
        call = wrap(self.call) if wrap else self.call
        waves = self.requests

        async def client(index: int, out: list[float]) -> int:
            clock = time.perf_counter
            wave = start
            failed = 0
            now = clock()
            deadline = now + duration
            while now < deadline:
                query = waves[wave % len(waves)][index]
                wave += 1
                try:
                    await call(query)
                except Exception:  # noqa: BLE001 - Overloaded counts as failed
                    failed += 1
                end = clock()
                out.append(end - now)
                now = end
            return failed

        async def drive():
            per_client: list[list[float]] = [[] for _ in range(self.clients)]
            begin = time.perf_counter()
            failures = await asyncio.gather(
                *(client(i, per_client[i]) for i in range(self.clients))
            )
            elapsed = time.perf_counter() - begin
            return per_client, elapsed, sum(failures)

        per_client, elapsed, failed = self.loop.run_until_complete(drive())
        latencies = [value for client_latencies in per_client for value in client_latencies]
        advanced = max(len(client_latencies) for client_latencies in per_client)
        return PassResult(latencies, elapsed, failed), start + advanced

    def verify(self) -> Verification:
        waves = self.requests[: VERIFY_ANSWERS // self.clients]
        queries = [query for wave in waves for query in wave]
        answers = [
            answer
            for wave in waves
            for answer in self.loop.run_until_complete(self.tier.execute_many(wave))
        ]
        # execute_vectorized documents summation-order freedom.
        return self.check(queries, answers, rel=1e-9)


class HttpPool(Intel1D):
    """2 keep-alive connections ``POST /query`` to ``MPHTTPServer`` -> pool."""

    name = "http_pool"
    connections = min(2, os.cpu_count() or 1)
    workers = min(2, os.cpu_count() or 1)
    warmup_requests = 16  # per connection

    def setup(self) -> None:
        self.build_static()
        self.publisher = SynopsisPublisher()
        self.publisher.publish(
            self.synopsis_name, self.synopsis, table_name=self.table.name
        )
        self.pool = MPServingPool(
            self.publisher.register_name, n_workers=self.workers, obs=self.obs
        )
        self.server = MPHTTPServer(self.pool, obs=self.obs)
        self.server.serve_in_thread()
        host, port = self.server.server_address[:2]
        self.conns = [
            http.client.HTTPConnection(host, port, timeout=60)
            for _ in range(self.connections)
        ]
        self.rejected_429 = 0
        self.captured: list[list[tuple[AggregateQuery, AQPResult]]] = [
            [] for _ in self.conns
        ]

    def teardown(self) -> None:
        for conn in self.conns:
            conn.close()
        self.server.close()
        self.pool.close()
        self.publisher.close()

    def generate(self, seed: int) -> list[AggregateQuery]:
        return self.range_queries(np.random.default_rng(seed), 4096)

    def round_trip(self, conn: http.client.HTTPConnection, query: AggregateQuery) -> AQPResult:
        """One request: client JSON encode, POST, read, client JSON decode."""
        body = json.dumps(query_to_payload(query, self.table.name))
        conn.request(
            "POST", "/query", body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            self.rejected_429 += response.status == 429
            raise RuntimeError(f"HTTP {response.status}: {data[:200]!r}")
        return result_from_payload(json.loads(data)["result"])

    def call(self, item: tuple[int, AggregateQuery]) -> AQPResult:
        index, query = item
        return self.round_trip(self.conns[index], query)

    def _on_connections(self, run: Callable[[int], object]) -> list:
        """Run ``run(connection_index)`` on one thread per connection."""
        results: list = [None] * len(self.conns)

        def target(index: int) -> None:
            results[index] = run(index)

        threads = [
            threading.Thread(target=target, args=(index,), name=f"perfbench-client-{index}")
            for index in range(len(self.conns))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def warmup(self) -> None:
        self._on_connections(
            lambda index: [
                self.call((index, query))
                for query in self.requests[index :: len(self.conns)][: self.warmup_requests]
            ]
        )

    def run_pass(self, start, duration, wrap=None):
        call = wrap(self.call) if wrap else self.call
        quota = VERIFY_ANSWERS // len(self.conns)

        def capturing(item):
            # The verification sample is the first replies of the timed
            # region: re-sending 256 requests afterwards would cost ~6 s.
            result = call(item)
            kept = self.captured[item[0]]
            if len(kept) < quota:
                kept.append((item[1], result))

        def client(index: int):
            items = [(index, query) for query in self.requests[index :: len(self.conns)]]
            return closed_loop(capturing, items, start, duration)

        begin = time.perf_counter()
        outcomes = self._on_connections(client)
        elapsed = time.perf_counter() - begin
        latencies = [value for result, _ in outcomes for value in result.latencies]
        failed = sum(result.failed for result, _ in outcomes)
        return (
            PassResult(latencies, elapsed, failed),
            max(index for _, index in outcomes),
        )

    def verify(self) -> Verification:
        pairs = [pair for kept in self.captured for pair in kept]
        return self.check(
            [query for query, _ in pairs], [answer for _, answer in pairs]
        )


class StreamMixed(Intel1D):
    """1 client over a ``DynamicPASS``: 80 % execute, 10 % insert, 10 % delete."""

    name = "stream_mixed"
    warmup_requests = 1000
    n_ops = 20_000
    #: One insert and, five operations later, one delete of the oldest
    #: inserted row in every ten operations; the rest are queries.
    pattern = "qqqqiqqqqd"

    def setup(self) -> None:
        self.load()
        self.dynamic = DynamicPASS(
            self.table, self.spec.value_column, [self.column], self.config
        )
        self.synopsis = self.dynamic.synopsis
        self.flatten(self.synopsis)
        self.catalog = _register(self.table, self.synopsis_name, self.dynamic)
        self.engine = ServingEngine(self.catalog)
        self.live: deque[dict[str, float]] = deque()
        self.updates = 0

    def generate(self, seed: int) -> list[tuple[str, object]]:
        rng = np.random.default_rng(seed)
        hot = self.range_queries(rng, HOT_SET)
        picks = zipf_indices(rng, HOT_SET, self.n_ops)
        rows = rng.integers(self.table.n_rows, size=self.n_ops)
        names = self.table.column_names
        columns = [self.table.column(name) for name in names]
        ops: list[tuple[str, object]] = []
        for i in range(self.n_ops):
            kind = self.pattern[i % len(self.pattern)]
            if kind == "q":
                ops.append((kind, hot[picks[i]]))
            elif kind == "i":
                ops.append(
                    (kind, {n: float(c[rows[i]]) for n, c in zip(names, columns)})
                )
            else:
                ops.append((kind, None))
        return ops

    def call(self, op: tuple[str, object]):
        kind, payload = op
        if kind == "q":
            return self.engine.execute(payload)
        self.updates += 1
        if kind == "i":
            self.live.append(payload)
            return self.engine.insert(self.synopsis_name, payload)
        return self.engine.delete(self.synopsis_name, self.live.popleft())

    def warmup(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StaleExtremaWarning)
            super().warmup()

    def run_pass(self, start, duration, wrap=None):
        # Start on a pattern boundary so every delete follows its insert.
        start -= start % len(self.pattern)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StaleExtremaWarning)
            result, index = super().run_pass(start, duration, wrap)
        queries, updates = [], []
        for offset, latency in enumerate(result.latencies):
            kind = self.pattern[(start + offset) % len(self.pattern)]
            (queries if kind == "q" else updates).append(latency)
        result.latencies, result.update_latencies = queries, updates
        return result, index + (-index % len(self.pattern))

    def verify(self) -> Verification:
        """Check against the benchmark's own replay of the applied updates."""
        sample = [op[1] for op in self.requests if op[0] == "q"][:VERIFY_ANSWERS]
        names = self.table.column_names
        replay = Table(
            {
                name: np.concatenate(
                    [self.table.column(name), [row[name] for row in self.live]]
                )
                for name in names
            },
            name=self.table.name,
        )
        # A cached answer for a region no update touched keeps its original
        # tuples_skipped although the population changed (engine docstring).
        return _check(
            self.catalog,
            ExactEngine(replay),
            sample,
            [self.engine.execute(query) for query in sample],
            skip=("tuples_skipped",),
        )


# ----------------------------------------------------------------------
# groupby_sketch
# ----------------------------------------------------------------------
class GroupBySketch(Workload):
    """1 client, ``execute_grouped``, cache off, single and 4-shard synopsis."""

    name = "groupby_sketch"
    warmup_requests = 5
    key_high = 1000.0
    groups = 64
    shards = 4
    classic = tuple(AggregateSpec(agg, "value") for agg in ("SUM", "COUNT", "AVG"))
    percentiles = tuple(
        AggregateSpec("QUANTILE", "value", q) for q in (0.5, 0.95, 0.99)
    )
    #: (backend, aggregates) per request, cycled.  Plans alternate classic /
    #: percentile on both backends; the single synopsis takes the classic
    #: plan twice per cycle so that the median request falls inside one
    #: latency mode instead of between two.
    cycle = (
        ("single", "classic"),
        ("single", "percentiles"),
        ("sharded", "classic"),
        ("single", "classic"),
        ("sharded", "percentiles"),
    )

    def setup(self) -> None:
        rng = np.random.default_rng(0)
        key = rng.uniform(0.0, self.key_high, size=N_ROWS)
        value = np.abs(rng.normal(50.0, 15.0, size=N_ROWS) + 0.05 * key)
        self.table = Table({"key": key, "value": value}, name="bench_groupby")
        self.single = build_pass(
            self.table, "value", ["key"], PASSConfig(n_partitions=64)
        )
        self.flatten(self.single)
        # The same 64 leaves, split over the shards.
        self.sharded = build_sharded_pass(
            self.table,
            "value",
            "key",
            n_shards=self.shards,
            config=PASSConfig(n_partitions=64 // self.shards),
        )
        self.catalogs = {
            "single": _register(self.table, "groupby_single", self.single),
            "sharded": _register(self.table, "groupby_sharded", self.sharded),
        }
        self.engines = {
            backend: ServingEngine(catalog, cache_size=0)
            for backend, catalog in self.catalogs.items()
        }

    def synopsis_bytes(self) -> int:
        return self.single.storage_bytes() + self.sharded.storage_bytes()

    def generate(self, seed: int) -> list[tuple[str, GroupByQuery]]:
        """64 equal bins over a random window of 50-70 % of the key domain."""
        rng = np.random.default_rng(seed)
        requests = []
        for i in range(200):
            backend, kind = self.cycle[i % len(self.cycle)]
            low = rng.uniform(0.0, 0.3) * self.key_high
            high = low + rng.uniform(0.5, 0.7) * self.key_high
            edges = np.linspace(low, high, self.groups + 1)
            requests.append(
                (
                    backend,
                    GroupByQuery(
                        groupings=(
                            GroupingColumn.bins("key", [float(e) for e in edges]),
                        ),
                        aggregates=getattr(self, kind),
                    ),
                )
            )
        return requests

    def call(self, item: tuple[str, GroupByQuery]):
        backend, groupby = item
        return self.engines[backend].execute_grouped(groupby)

    def verify(self) -> Verification:
        """One cycle of requests; every fourth cell of each, all aggregates."""
        references = {
            backend: ServingEngine(catalog, cache_size=0)
            for backend, catalog in self.catalogs.items()
        }
        queries, answers, expected = [], [], []
        for backend, groupby in self.requests[: len(self.cycle)]:
            grouped = self.engines[backend].execute_grouped(groupby)
            plan = groupby.compile()
            for index, cell in plan.live_cells()[::4]:
                for spec, answer in zip(plan.aggregates, grouped.cells[index]):
                    query = plan.cell_query(cell, spec)
                    queries.append(query)
                    answers.append(answer)
                    expected.append(references[backend].execute(query))
        return verify_answers(
            answers, expected, ExactEngine(self.table).execute_many(queries)
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Kernel2D, Dashboard1D, AsyncDup50, HttpPool, StreamMixed, GroupBySketch)
}
