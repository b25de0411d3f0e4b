"""Serving layer: synopsis catalog, persistence, and the concurrent query engine.

This subsystem turns the one-shot PASS library into a query-serving engine in
the style of production AQP systems: build synopses offline, persist them,
register them in a :class:`SynopsisCatalog`, and serve traffic through a
:class:`ServingEngine` that routes queries, caches results, executes batches
with shared frontier work, and applies dynamic updates under a
reader-writer lock.

For concurrent traffic, :class:`AsyncServingEngine` layers an asyncio tier
on top: in-flight request coalescing by canonical cache key, micro-batch
scheduling into the batch path, bounded-queue backpressure with
typed :class:`Overloaded` rejections, and writes serialized through the
same scheduler with atomic box-overlap invalidation of coalesced futures.

For multi-core traffic, the multi-process tier serves one copy of each
synopsis to a process-per-core worker pool: a :class:`SynopsisPublisher`
writes each generation as a ``.pass`` file named by an atomically swapped
manifest, an :class:`MPServingPool` answers queries over zero-copy views of
the mapped files, and an
:class:`MPHTTPServer` front-ends the pool with a JSON protocol behind the
same admission-control semantics.
"""

from repro.serving.async_engine import AsyncServingEngine, AsyncServingStats
from repro.serving.catalog import CatalogEntry, SynopsisCatalog
from repro.serving.coalesce import CoalescedRequest, RequestCoalescer
from repro.serving.engine import ServingEngine
from repro.serving.locks import ReadWriteLock
from repro.serving.planner import GroupByPlanner
from repro.serving.scheduler import MicroBatchScheduler, Overloaded, SchedulerStats
from repro.serving.persistence import (
    FORMAT_VERSION,
    load_catalog,
    load_catalog_workloads,
    load_synopsis,
    load_workload_fingerprint,
    save_catalog,
    save_synopsis,
    save_workload_fingerprint,
)
from repro.serving.server import MPHTTPServer, MPServingPool, PoolBroken
from repro.serving.shm import (
    EpochRegister,
    PublisherGone,
    SynopsisPublisher,
    attach_flat_synopsis,
)
from repro.serving.stats import ServingStats, StatsSnapshot

__all__ = [
    "AsyncServingEngine",
    "AsyncServingStats",
    "CatalogEntry",
    "CoalescedRequest",
    "MicroBatchScheduler",
    "Overloaded",
    "RequestCoalescer",
    "SchedulerStats",
    "SynopsisCatalog",
    "ServingEngine",
    "ReadWriteLock",
    "GroupByPlanner",
    "FORMAT_VERSION",
    "save_synopsis",
    "load_synopsis",
    "save_catalog",
    "load_catalog",
    "save_workload_fingerprint",
    "load_workload_fingerprint",
    "load_catalog_workloads",
    "ServingStats",
    "StatsSnapshot",
    "EpochRegister",
    "PublisherGone",
    "SynopsisPublisher",
    "attach_flat_synopsis",
    "MPServingPool",
    "MPHTTPServer",
    "PoolBroken",
]
