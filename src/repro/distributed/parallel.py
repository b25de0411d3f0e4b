"""Building per-shard synopses concurrently across CPU cores.

The PASS build (partitioning optimization, exact per-leaf statistics,
stratified sampling) is CPU-bound pure-Python/numpy work, so building one
synopsis per shard parallelizes cleanly across processes:

* the parent ships each worker a picklable :class:`ShardBuildSpec` (the
  shard's raw numpy columns plus the build configuration);
* the worker builds the shard synopsis and returns what it is — the
  ``(header, arrays)`` pair of :meth:`PASSSynopsis.export_buffers` /
  :meth:`DynamicPASS.export_buffers`, the same pair a saved file or a
  shared-memory segment carries — cheap to pickle and exact;
* the parent adopts each pair with the matching ``from_buffers`` and wires
  the shards into a :class:`~repro.distributed.sharded.ShardedSynopsis`.

Because every build is seeded, the result is bit-identical no matter how
many workers ran it (``executor="serial"`` exists for tests and platforms
without ``fork``), and the wall-clock cost is the per-shard critical path
instead of the sum — the speedup ``benchmarks/bench_distributed.py``
measures.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.pass_synopsis import PASSSynopsis
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.distributed.planner import ShardPlan, ShardPlanner
from repro.distributed.sharded import ShardedSynopsis

__all__ = [
    "ShardBuildSpec",
    "ParallelBuilder",
    "build_sharded_pass",
    "EXECUTORS",
    "SPAWN_CONTEXT",
]

#: Valid values of :attr:`ParallelBuilder.executor`.
EXECUTORS = ("process", "thread", "serial")

#: The one multiprocessing context every pool in this codebase uses.  The
#: platform default on Linux is ``fork``, which clones a process that may be
#: holding serving locks, metrics-registry mutexes, or the accuracy auditor's
#: daemon-thread state mid-operation — a forked child then deadlocks the
#: moment it touches one of those orphaned locks.  ``spawn`` starts workers
#: from a clean interpreter, which is safe to combine with the threaded
#: serving stack (and is the only start method the shared-memory serving
#: workers in :mod:`repro.serving.server` support).
SPAWN_CONTEXT = multiprocessing.get_context("spawn")


@dataclass(frozen=True)
class ShardBuildSpec:
    """Everything a worker needs to build one shard's synopsis (picklable).

    Attributes
    ----------
    columns:
        The shard's raw column arrays (the worker reassembles the
        :class:`~repro.data.table.Table` from them).
    table_name / value_column / predicate_columns / config:
        Passed through to :func:`~repro.core.builder.build_pass` (or
        :class:`~repro.core.updates.DynamicPASS` when ``dynamic``).
    dynamic:
        Build a streaming-updatable :class:`DynamicPASS` instead of a static
        synopsis.
    extra_sample_columns:
        Columns retained in the shard samples beyond the value / predicate
        columns — the builder passes the shard column here when it is not a
        predicate column, so shard-column predicates stay evaluable inside
        every shard.
    """

    columns: Mapping[str, np.ndarray]
    table_name: str
    value_column: str
    predicate_columns: tuple[str, ...]
    config: PASSConfig
    dynamic: bool = False
    extra_sample_columns: tuple[str, ...] = ()


def _build_shard(spec: ShardBuildSpec) -> tuple[dict, dict[str, np.ndarray]]:
    """Worker entry point: build one shard, return its ``(header, arrays)``."""
    table = Table(dict(spec.columns), name=spec.table_name)
    build = DynamicPASS if spec.dynamic else build_pass
    shard = build(
        table,
        spec.value_column,
        list(spec.predicate_columns),
        spec.config,
        extra_sample_columns=list(spec.extra_sample_columns),
    )
    return shard.export_buffers()


class ParallelBuilder:
    """Builds the shards of a :class:`ShardPlan` concurrently.

    Parameters
    ----------
    max_workers:
        Worker count for the process / thread executors (``None`` lets the
        executor pick the machine's core count).
    executor:
        ``"process"`` (multi-core, the default), ``"thread"`` (shares the
        GIL — useful only when numpy releases it), or ``"serial"`` (inline,
        for tests and platforms without cheap process spawning).
    """

    def __init__(
        self, max_workers: int | None = None, executor: str = "process"
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choices: {', '.join(EXECUTORS)}"
            )
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self.executor = executor

    def build(
        self,
        plan: ShardPlan,
        value_column: str,
        predicate_columns: Sequence[str] | None = None,
        config: PASSConfig | None = None,
        dynamic: bool = False,
    ) -> ShardedSynopsis:
        """Build one synopsis per shard of ``plan`` and assemble the result.

        Parameters
        ----------
        plan:
            The shard plan (key boxes + table chunks) from a
            :class:`~repro.distributed.planner.ShardPlanner`.
        value_column / predicate_columns / config:
            Per-shard build parameters; ``predicate_columns`` defaults to the
            shard column, and each shard's config gets a distinct seed
            (``config.seed + shard index``) so shard samples are independent.
        dynamic:
            Build every shard as a :class:`DynamicPASS` so the sharded
            synopsis accepts streaming updates.
        """
        config = config or PASSConfig()
        predicate_columns = tuple(
            predicate_columns if predicate_columns is not None else [plan.shard_column]
        )
        keep = [value_column] + [c for c in predicate_columns if c != value_column]
        extra_sample_columns: tuple[str, ...] = ()
        if plan.shard_column not in keep:
            keep.append(plan.shard_column)
            # Keep the shard column in the shard samples so predicates that
            # constrain it remain evaluable inside every shard.
            extra_sample_columns = (plan.shard_column,)
        specs = [
            ShardBuildSpec(
                columns=table.columns(keep),
                table_name=table.name,
                value_column=value_column,
                predicate_columns=predicate_columns,
                config=config.with_overrides(seed=config.seed + index),
                dynamic=dynamic,
                extra_sample_columns=extra_sample_columns,
            )
            for index, table in enumerate(plan.tables)
        ]
        start = time.perf_counter()
        exports = self._run(specs)
        build_seconds = time.perf_counter() - start
        kind = DynamicPASS if dynamic else PASSSynopsis
        shards = [kind.from_buffers(header, arrays) for header, arrays in exports]
        return ShardedSynopsis(
            shards=shards,
            key_boxes=plan.key_boxes,
            shard_column=plan.shard_column,
            strategy=plan.strategy,
            lam=config.lam,
            hash_modulus=plan.hash_modulus,
            hash_owners=plan.hash_owners,
            build_seconds=build_seconds,
        )

    def _run(
        self, specs: Sequence[ShardBuildSpec]
    ) -> list[tuple[dict, dict[str, np.ndarray]]]:
        if self.executor == "serial" or len(specs) <= 1:
            return [_build_shard(spec) for spec in specs]
        workers = self.max_workers
        if workers is not None:
            workers = min(workers, len(specs))
        if self.executor == "process":
            # Pinned to the spawn context: see SPAWN_CONTEXT.  Forked
            # children inherit whatever locks the serving threads held at
            # fork time and can deadlock the shard builds.
            pool: ProcessPoolExecutor | ThreadPoolExecutor = ProcessPoolExecutor(
                max_workers=workers, mp_context=SPAWN_CONTEXT
            )
        else:
            pool = ThreadPoolExecutor(max_workers=workers)
        with pool:
            return list(pool.map(_build_shard, specs))


def build_sharded_pass(
    table: Table,
    value_column: str,
    shard_column: str,
    n_shards: int = 4,
    strategy: str = "range",
    predicate_columns: Sequence[str] | None = None,
    config: PASSConfig | None = None,
    dynamic: bool = False,
    max_workers: int | None = None,
    executor: str = "process",
) -> ShardedSynopsis:
    """One-call convenience: plan the shards, build them in parallel.

    Equivalent to ``ShardPlanner(n_shards, strategy).plan(table, shard_column)``
    followed by :meth:`ParallelBuilder.build`.
    """
    plan = ShardPlanner(n_shards, strategy).plan(table, shard_column)
    builder = ParallelBuilder(max_workers=max_workers, executor=executor)
    return builder.build(
        plan,
        value_column,
        predicate_columns=predicate_columns,
        config=config,
        dynamic=dynamic,
    )
