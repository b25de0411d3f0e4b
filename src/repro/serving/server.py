"""Multi-process serving: a spawn-based worker pool plus an HTTP front end.

The single-process serving tier (:class:`~repro.serving.engine.ServingEngine`
and the asyncio :class:`~repro.serving.async_engine.AsyncServingEngine`) is
bounded by one interpreter's GIL: the numpy kernels release it only in
bursts, so CPU-bound query traffic cannot use more than roughly one core.
This module is the scale-out tier:

* a :class:`SynopsisPublisher` (:mod:`repro.serving.shm`) or
  :func:`~repro.serving.persistence.save_catalog` writes each generation of
  a catalog as ``.pass`` files, once, and swaps a manifest naming them;
* :class:`MPServingPool` runs one worker process per core (the ``spawn``
  start method of :data:`SPAWN_CONTEXT`);
  each worker maps the files (``mmap``) and rehydrates zero-copy
  :class:`~repro.core.soa.FlatSynopsis` views over them — no worker ever
  holds a private copy of a synopsis, so memory stays O(one synopsis) no
  matter the core count;
* workers check the publisher's epoch (one ``readlink``) on every chunk and
  re-attach when a publish moved it, so they never serve a torn synopsis;
  once the publisher is gone they answer with
  :class:`~repro.serving.shm.PublisherGone` (HTTP 503) and live on;
* dispatch is one duplex pipe per worker: a caller checks idle workers out,
  sends chunks and reads the replies on its own thread (no relay threads
  between a request and its worker);
* :class:`MPHTTPServer` is a small stdlib HTTP front end mapping a JSON
  protocol onto canonical :class:`~repro.query.query.AggregateQuery` /
  :class:`~repro.query.groupby.GroupByQuery` objects, behind an
  :class:`~repro.serving.scheduler.AdmissionGate` — the async tier's
  admission policy; its typed :class:`~repro.serving.scheduler.Overloaded`
  is rendered as HTTP 429.

A worker routes over its manifest with the engine's routing functions and
answers with the engine's kernels, under the one epoch it checked: a chunk
of queries is one :func:`~repro.core.batching.batch_query` per routed entry,
a group-by plan one :func:`~repro.core.batching.grouped_query` on one worker.
So the pool returns, for all seven aggregates, what the in-process engine
returns for the same published state.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Mapping, NamedTuple, Sequence

from repro.core import batching
from repro.obs import Observability
from repro.obs.export import prometheus_text
from repro.query.groupby import (
    GroupByPlan,
    GroupByQuery,
    GroupedResult,
    GroupingColumn,
    execute_plan,
)
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery
from repro.result import AQPResult
from repro.serving.catalog import route_query
from repro.serving.planner import plan_population, route_plan
from repro.serving.scheduler import AdmissionGate, Overloaded
from repro.serving.shm import (
    EpochRegister,
    PublisherGone,
    attach_flat_synopsis,
    read_published,
)

__all__ = [
    "MPServingPool",
    "MPHTTPServer",
    "PoolBroken",
    "query_from_payload",
    "query_to_payload",
    "result_to_payload",
    "result_from_payload",
    "SPAWN_CONTEXT",
]

#: The one multiprocessing context every pool in this codebase uses.  The
#: platform default on Linux is ``fork``, which clones a process that may be
#: holding serving locks, metrics-registry mutexes, or the accuracy auditor's
#: daemon-thread state mid-operation — a forked child then deadlocks the
#: moment it touches one of those orphaned locks.  ``spawn`` starts workers
#: from a clean interpreter, which is safe to combine with the threaded
#: serving stack (and is the only start method the multi-process serving
#: workers in :mod:`repro.serving.server` support).
SPAWN_CONTEXT = multiprocessing.get_context("spawn")


# ----------------------------------------------------------------------
# JSON protocol (the HTTP boundary; the pool itself ships pickled queries)
# ----------------------------------------------------------------------
def query_to_payload(query: AggregateQuery, table: str | None = None) -> dict:
    """Encode a canonical query as the wire-protocol JSON payload."""
    payload: dict = {
        "agg": query.agg.name,
        "value_column": query.value_column,
        "predicate": {
            column: [low, high]
            for column, low, high in query.predicate.canonical_key()
        },
    }
    if query.quantile is not None:
        payload["quantile"] = query.quantile
    if table is not None:
        payload["table"] = table
    return payload


def query_from_payload(payload: Mapping) -> tuple[AggregateQuery, str | None]:
    """Decode a wire-protocol payload into ``(query, table_name)``.

    Raises ``ValueError`` on malformed payloads (unknown aggregate, bad
    interval bounds) — the HTTP front end maps that to a 400 response.
    """
    try:
        agg = payload["agg"]
        value_column = payload["value_column"]
    except KeyError as missing:
        raise ValueError(f"query payload is missing {missing}") from None
    query = AggregateQuery(
        agg,
        str(value_column),
        _predicate_from_payload(payload),
        quantile=payload.get("quantile"),
    )
    return query, payload.get("table")


def _predicate_from_payload(payload: Mapping) -> RectPredicate:
    """The payload's ``"predicate"``: ``{column: [low, high]}``, ``null`` unbounded.

    Absent, it is everything.  A malformed one raises ``ValueError`` or
    ``TypeError`` (a 400 at the HTTP front end).
    """
    intervals = {}
    for column, bounds in dict(payload.get("predicate", {})).items():
        low, high = bounds
        intervals[str(column)] = Interval(
            float(low) if low is not None else -math.inf,
            float(high) if high is not None else math.inf,
        )
    return RectPredicate(intervals)


def result_to_payload(result: AQPResult) -> dict:
    """Encode an :class:`AQPResult` as its JSON wire form (field-exact).

    Floats pass through ``repr``-faithful JSON encoding (NaN and the
    infinities included), so decoding with :func:`result_from_payload`
    reproduces a bit-identical result.
    """
    return {
        "estimate": result.estimate,
        "ci_half_width": result.ci_half_width,
        "variance": result.variance,
        "hard_lower": result.hard_lower,
        "hard_upper": result.hard_upper,
        "tuples_processed": result.tuples_processed,
        "tuples_skipped": result.tuples_skipped,
        "exact": result.exact,
    }


def result_from_payload(payload: Mapping) -> AQPResult:
    """Decode the JSON wire form back into an :class:`AQPResult`."""
    return AQPResult(
        estimate=float(payload["estimate"]),
        ci_half_width=float(payload["ci_half_width"]),
        variance=float(payload["variance"]),
        hard_lower=float(payload["hard_lower"]),
        hard_upper=float(payload["hard_upper"]),
        tuples_processed=int(payload["tuples_processed"]),
        tuples_skipped=int(payload["tuples_skipped"]),
        exact=bool(payload["exact"]),
    )


# ----------------------------------------------------------------------
# Worker side (module-level so the spawn pickler can reach it)
# ----------------------------------------------------------------------
#: Per-worker-process state: the manifest reader, the epoch of the current
#: attachments, the manifest's entries (what the routing functions read) and,
#: by entry name, the rehydrated ``(flat engine, attachment)`` pairs.
_WORKER: dict = {}


def _worker_main(register_name: str, conn: Connection) -> None:
    """Worker process entry point: answer chunks over ``conn`` until it closes.

    One request is one pickled ``(table, work)`` chunk (see
    :func:`_worker_execute`); one reply is ``(True, (answer, stats))`` or
    ``(False, exception)`` — the exception travels with its type, so the
    parent re-raises what the worker raised.  End-of-file on the pipe (the
    pool closed it, or the parent died) is the stop signal.
    """
    _worker_init(register_name)
    while True:
        try:
            table, work = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, _worker_execute(table, work))
        except Exception as exc:  # shipped to the caller, who re-raises it
            reply = (False, exc)
        conn.send(reply)


def _worker_init(register_name: str) -> None:
    """Set up this worker process' reader of the publisher's manifest."""
    _WORKER.clear()
    _WORKER["register"] = EpochRegister.attach(register_name)
    _WORKER["epoch"] = -1
    _WORKER["entries"] = []
    _WORKER["engines"] = {}
    _WORKER["reattaches"] = 0


def _worker_refresh() -> int:
    """Re-attach to the current generation when the epoch moved.

    Returns the epoch the worker is serving under.  A publish can unlink a
    file the manifest just read names; the refresh then reads the newer
    manifest, and retries only while the epoch keeps moving.  A manifest that
    names a removed file and stays put, or no manifest at all, means the
    publisher is gone: :class:`PublisherGone`, which the caller receives.
    """
    register: EpochRegister = _WORKER["register"]
    if register.epoch() == _WORKER["epoch"]:
        return _WORKER["epoch"]
    while True:
        epoch, entries = read_published(register)
        engines = {}
        try:
            for entry in entries:
                engines[entry.name] = attach_flat_synopsis(entry.segment)
        except FileNotFoundError as missing:
            for _, attachment in engines.values():
                attachment.close()
            if register.epoch() == epoch:
                raise PublisherGone(
                    f"publisher {register.name} is gone: {missing.filename} "
                    "was removed"
                ) from None
            continue  # lost the race with a publish; read the newer manifest
        for _, old in _WORKER["engines"].values():
            old.close()
        _WORKER["entries"] = entries
        _WORKER["engines"] = engines
        _WORKER["epoch"] = epoch
        _WORKER["reattaches"] += 1
        return epoch


def _worker_answer(
    queries: Sequence[AggregateQuery], table: str | None
) -> list[AQPResult]:
    """Answer ``queries`` in input order: one ``batch_query`` per routed entry."""
    by_entry: dict[str, list[int]] = {}
    for position, query in enumerate(queries):
        entry = route_query(_WORKER["entries"], query, table)
        if entry is None:
            published = ", ".join(_WORKER["engines"]) or "<none>"
            raise LookupError(
                f"no published synopsis answers {query.agg.name} over "
                f"{query.value_column!r} (published: {published}); serve it "
                "through the in-process engine"
            )
        by_entry.setdefault(entry.name, []).append(position)
    results: list[AQPResult] = [None] * len(queries)  # type: ignore[list-item]
    for name, positions in by_entry.items():
        flat = _WORKER["engines"][name][0]
        answers = batching.batch_query(flat, [queries[p] for p in positions])
        for position, result in zip(positions, answers):
            results[position] = result
    return results


def _worker_execute(
    table: str | None, work: Sequence[AggregateQuery] | GroupByPlan
) -> tuple[list[AQPResult] | GroupedResult, tuple[int, int, int, int]]:
    """Answer one chunk: a query list, or a plan as the engine answers it.

    A plan is one :func:`~repro.core.batching.grouped_query` on the entry it
    routes to whole, else its cell-major batch through
    :func:`_worker_answer`.  The stats delta the parent merges counts the
    answers computed (a plan's pruned cells are not), the epoch, this
    worker's re-attach cycles and its pid.
    """
    epoch = _worker_refresh()
    entries = _WORKER["entries"]
    answer: list[AQPResult] | GroupedResult
    if not isinstance(work, GroupByPlan):
        answer, served = _worker_answer(work, table), len(work)
    elif entry := route_plan(work, lambda query: route_query(entries, query, table)):
        answer = batching.grouped_query(_WORKER["engines"][entry.name][0], work)
        served = (len(work.live_cells()) - len(answer.pruned)) * len(work.aggregates)
    else:
        answer = execute_plan(
            work,
            lambda queries: _worker_answer(queries, table),
            population=plan_population(
                work,
                lambda query: route_query(entries, query, table),
                lambda entry: _WORKER["engines"][entry.name][0].population_size,
            ),
        )
        served = work.n_queries
    return answer, (served, epoch, _WORKER["reattaches"], os.getpid())


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Worker(NamedTuple):
    """One pool worker: its process and the parent's end of its duplex pipe."""

    process: BaseProcess
    conn: Connection


class PoolBroken(RuntimeError):
    """A worker process died; the pool answers nothing more until re-created.

    Raised to every caller with a chunk in flight on the dead worker, to
    every caller waiting for a worker, and to every later call — never a
    hang.  ``close()`` still reaps all processes and pipes.
    """


class MPServingPool:
    """A process-per-core pool answering queries over published synopses.

    Parameters
    ----------
    register_name:
        A generation directory: a publisher's
        :attr:`SynopsisPublisher.register_name`, or a directory
        :func:`~repro.serving.persistence.save_catalog` wrote.  The pool
        never writes.
    n_workers:
        Worker process count (process-per-core; defaults to the machine's
        core count).
    chunk_size:
        Queries shipped per worker dispatch in :meth:`execute_batch`.
        ``None`` auto-sizes to roughly four chunks per worker, which
        amortizes the pickle/IPC round trip while keeping the pool busy.
    obs:
        Observability context; worker stats deltas merge into its metrics
        registry (``repro_mp_requests_total``, the answers workers computed;
        ``repro_mp_chunks_total``, ``repro_mp_reattach_total``) so one
        ``/metrics`` scrape covers the whole pool.

    Each worker owns one duplex pipe.  A caller checks idle workers out,
    sends a chunk down each pipe and blocks for the replies on its own
    thread, so a dispatch costs one pipe round trip and no relay thread;
    a worker returns to the idle list only once its reply has been read.
    An exception raised in a worker is re-raised in the caller with its
    type; a worker that dies breaks the pool (:class:`PoolBroken`).

    Workers start lazily on the first query and are shut down by
    :meth:`close` (also a context manager), which the shutdown-leak check
    in CI verifies leaves no live worker processes behind.
    """

    def __init__(
        self,
        register_name: str,
        n_workers: int | None = None,
        chunk_size: int | None = None,
        obs: Observability | None = None,
    ) -> None:
        if n_workers is not None and n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = n_workers or (os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self._register_name = register_name
        #: Guards the four fields below; waited on for an idle worker.
        self._state = threading.Condition()
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._broken: str | None = None
        self._closed = False
        self._obs = obs if obs is not None else Observability.disabled()
        registry = self._obs.metrics
        self._m_requests = registry.counter(
            "repro_mp_requests_total",
            "Answers computed by the multi-process serving pool: queries, "
            "and (cell, aggregate) pairs of group-by plans.",
        )
        self._m_chunks = registry.counter(
            "repro_mp_chunks_total",
            "Chunk dispatches to multi-process serving workers.",
        )
        self._m_reattach = registry.counter(
            "repro_mp_reattach_total",
            "Worker re-attachments observed after epoch flips.",
        )
        self._seen_reattaches: dict[int, int] = {}
        self._last_epoch = 0

    @property
    def epoch(self) -> int:
        """The latest publisher epoch reported by a worker (0 before any)."""
        return self._last_epoch

    def _spawn_workers(self) -> None:
        """Start the worker processes (caller holds ``_state``)."""
        for index in range(self.n_workers):
            parent_end, worker_end = SPAWN_CONTEXT.Pipe()
            process = SPAWN_CONTEXT.Process(
                target=_worker_main,
                args=(self._register_name, worker_end),
                name=f"mp-serving-worker-{index}",
                daemon=True,
            )
            process.start()
            # The worker now holds the only other copy: its death is our EOF.
            worker_end.close()
            worker = _Worker(process, parent_end)
            self._workers.append(worker)
            self._idle.append(worker)

    def _checkout(self, want: int) -> list[_Worker]:
        """Take 1..``want`` idle workers, blocking until at least one is."""
        with self._state:
            while True:
                if self._closed:
                    raise RuntimeError("pool is closed")
                if self._broken is not None:
                    raise PoolBroken(self._broken)
                if not self._workers:
                    self._spawn_workers()
                if self._idle:
                    taken = self._idle[-want:]
                    del self._idle[-want:]
                    return taken
                self._state.wait()

    def _release(self, worker: _Worker) -> None:
        with self._state:
            self._idle.append(worker)
            # One waiter per freed worker: callers wait here only before
            # close() starts, close() only after it woke them all.
            self._state.notify()

    def _lose(self, worker: _Worker) -> PoolBroken:
        """Break the pool over a dead worker; returns the error to raise.

        The worker still goes back to the idle list: ``close()`` reaps
        every worker from it, and the notify wakes callers waiting for a
        worker so they see the break instead of hanging.
        """
        with self._state:
            if self._broken is None:
                self._broken = (
                    f"{worker.process.name} (pid {worker.process.pid}) died, or "
                    "its reply was never read; close this pool and create a new one"
                )
            self._idle.append(worker)
            self._state.notify_all()
            return PoolBroken(self._broken)

    def _merge_stats(self, stats: tuple[int, int, int, int]) -> None:
        served, epoch, reattaches, pid = stats
        self._m_requests.inc(float(served))
        self._m_chunks.inc()
        self._last_epoch = max(self._last_epoch, epoch)
        # Reattach counts are cumulative per worker; meter the delta.
        previous = self._seen_reattaches.get(pid, 0)
        if reattaches > previous:
            self._m_reattach.inc(float(reattaches - previous))
            self._seen_reattaches[pid] = reattaches

    def execute(self, query: AggregateQuery, table: str | None = None) -> AQPResult:
        """Answer one query on a worker: :meth:`execute_batch` of one.

        Any of the seven aggregates, over the mapped buffers (QUANTILE /
        COUNT_DISTINCT unpack the file's sketches on first use).  Raises
        ``LookupError`` when no published synopsis can answer the query —
        wrong table or value column, an unpartitioned predicate column, or a
        sketch aggregate with only sketch-less synopses published — and
        :class:`~repro.serving.shm.PublisherGone` once the publisher closed.
        """
        return self.execute_batch([query], table)[0]

    def execute_batch(
        self, queries: Sequence[AggregateQuery], table: str | None = None
    ) -> list[AQPResult]:
        """Answer a batch across the pool; results align with input order.

        The batch is split into chunks dispatched concurrently to the
        workers, so wall-clock cost is the per-chunk critical path — the
        near-linear scaling ``benchmarks/bench_mp_serving.py`` measures.
        Raises what a worker raised (first failing chunk to reply), or
        :class:`PoolBroken` when a worker died.
        """
        queries = list(queries)
        if not queries:
            return []
        chunk = self.chunk_size or max(1, -(-len(queries) // (self.n_workers * 4)))
        chunks = [
            (table, queries[start : start + chunk])
            for start in range(0, len(queries), chunk)
        ]
        return [result for answer in self._dispatch(chunks) for result in answer]

    def _dispatch(self, chunks: list) -> list:
        """Run ``(table, work)`` chunks on checked-out workers; answers in order.

        Each reply's stats delta is merged into the metrics registry.  A
        worker gets the next unsent chunk as soon as its reply is read.
        After a failure nothing more is sent, but replies already owed are
        still read: a worker goes back to the idle list only with an empty
        pipe, or the next caller would read a stale reply.
        """
        replies: list = [None] * len(chunks)
        unsent = iter(enumerate(chunks))
        free = self._checkout(len(chunks))
        #: Pipes with a reply owed -> (worker, index of the chunk it holds).
        owing: dict[Connection, tuple[_Worker, int]] = {}
        failures: list[BaseException] = []
        try:
            while free or owing:
                while free:
                    worker = free.pop()
                    index, items = (
                        (None, None) if failures else next(unsent, (None, None))
                    )
                    if index is None:
                        self._release(worker)
                        continue
                    try:
                        worker.conn.send(items)
                    except OSError:
                        failures.append(self._lose(worker))
                    else:
                        owing[worker.conn] = (worker, index)
                # A single reply owed is read by blocking in recv right here;
                # a selector only pays off when several pipes are in flight.
                ready = wait(list(owing)) if len(owing) > 1 else list(owing)
                for conn in ready:
                    worker, index = owing[conn]  # type: ignore[index]
                    try:
                        ok, payload = worker.conn.recv()
                    except (EOFError, OSError):
                        del owing[worker.conn]
                        failures.append(self._lose(worker))
                        continue
                    del owing[worker.conn]
                    free.append(worker)
                    if ok:
                        replies[index], stats = payload
                        self._merge_stats(stats)
                    else:
                        failures.append(payload)
        finally:
            # Non-empty only when an interrupt cut the loop short.
            for worker in free:
                self._release(worker)
            for worker, _ in owing.values():
                self._lose(worker)
        if failures:
            raise failures[0]
        return replies

    def execute_grouped(
        self, groupby: GroupByQuery | GroupByPlan, table: str | None = None
    ) -> GroupedResult:
        """Answer a group-by query on one worker, as the engine answers it.

        A :class:`GroupByQuery` is compiled without a distinct source, so
        every grouping must carry explicit bin edges or values (the pool has
        no fallback table to discover distinct values from).  The plan goes
        whole to one worker, which routes and answers it under one epoch
        (:func:`_worker_execute`): every cell, ``pruned`` included, is what
        :meth:`ServingEngine.execute_grouped` returns for the published state.
        """
        plan = groupby.compile() if isinstance(groupby, GroupByQuery) else groupby
        return self._dispatch([(table, plan)])[0]

    def close(self) -> None:
        """Shut the worker processes down; idempotent.

        Waits for dispatches in flight (their workers come back to the
        idle list), then closes every pipe — end-of-file stops a worker —
        and reaps every process, dead ones included.
        """
        with self._state:
            self._closed = True
            self._state.notify_all()
            while len(self._idle) < len(self._workers):
                self._state.wait()
            workers, self._workers, self._idle = self._workers, [], []
        for worker in workers:
            worker.conn.close()
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # wedged, or its pipe is held elsewhere
                worker.process.kill()
                worker.process.join()
            worker.process.close()

    def __enter__(self) -> "MPServingPool":
        """Context-manager support; workers are shut down on exit."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Shut the pool down on context exit."""
        self.close()


#: Largest request body the HTTP front end reads (bytes); larger is a 413.
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Request handler mapping the JSON protocol onto the worker pool."""

    protocol_version = "HTTP/1.1"
    # One response leaves in one write: status line, headers and body
    # gather in a buffered ``wfile`` that ``handle_one_request`` flushes
    # once.  Two small writes with Nagle on stall the second behind the
    # client's delayed ACK (~40 ms a round trip); Nagle is off as well so
    # a response larger than the buffer cannot stall either.
    wbufsize = 1 << 16
    disable_nagle_algorithm = True
    server: "MPHTTPServer"

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default per-request stderr logging."""

    def handle_expect_100(self) -> bool:
        """Flush the interim ``100 Continue``: the client waits for it."""
        proceed = super().handle_expect_100()
        self.wfile.flush()
        return proceed

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        """The only writer of responses (see ``wbufsize`` above)."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reply(self, status: int, payload: dict) -> None:
        self._send(status, "application/json", json.dumps(payload).encode("utf-8"))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve ``/healthz`` and the Prometheus ``/metrics`` exposition."""
        if self.path == "/healthz":
            self._reply(
                200,
                {
                    "status": "ok",
                    "epoch": self.server.pool.epoch,
                    "workers": self.server.pool.n_workers,
                },
            )
        elif self.path == "/metrics":
            text = prometheus_text(self.server.obs.metrics)
            self._send(200, "text/plain; version=0.0.4", text.encode("utf-8"))
        else:
            self._reply(404, {"error": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve ``/query`` (one aggregate) and ``/groupby`` (one plan)."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry on.
            self.close_connection = True
            if length < 0:
                self._reply(
                    400, {"error": "Content-Length must be a non-negative integer"}
                )
            else:
                self._reply(413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"})
            return
        # Read before any reply: unread bytes on a keep-alive connection
        # would be parsed as the next request line.
        body = self.rfile.read(length)
        if self.path not in ("/query", "/groupby"):
            self._reply(404, {"error": f"no route {self.path}"})
            return
        try:
            self.server.gate.admit()
        except Overloaded as rejection:
            self._reply(
                429,
                {
                    "error": "overloaded",
                    "detail": str(rejection),
                    "pending": rejection.pending,
                    "capacity": rejection.capacity,
                },
            )
            return
        try:
            payload = json.loads(body)
            if self.path == "/query":
                query, table = query_from_payload(payload)
                result = self.server.pool.execute(query, table)
                status, reply = 200, {"result": result_to_payload(result)}
            else:
                status, reply = 200, self._groupby(payload)
        except (ValueError, KeyError, TypeError) as exc:
            status, reply = 400, {"error": str(exc)}
        except LookupError as exc:
            status, reply = 404, {"error": str(exc)}
        except Exception as exc:  # closed pool or publisher, dead worker, a bug
            status, reply = 503, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            self.server.gate.release()
        self._reply(status, reply)

    def _groupby(self, payload: Mapping) -> dict:
        groupby = GroupByQuery(
            groupings=tuple(
                GroupingColumn(
                    column=str(grouping["column"]),
                    edges=grouping.get("edges"),
                    values=grouping.get("values"),
                )
                for grouping in payload["groupings"]
            ),
            aggregates=tuple(
                (spec["agg"], spec["value_column"], spec.get("quantile"))
                for spec in payload["aggregates"]
            ),
            predicate=_predicate_from_payload(payload),
        )
        grouped = self.server.pool.execute_grouped(groupby, payload.get("table"))
        return {
            "group_columns": list(grouped.group_columns),
            "cells": [
                {"labels": list(labels), "results": [result_to_payload(r) for r in row]}
                for labels, row in grouped
            ],
            "pruned": sorted(grouped.pruned),
        }


class MPHTTPServer(ThreadingHTTPServer):
    """A JSON-over-HTTP front end for an :class:`MPServingPool`.

    Endpoints: ``POST /query`` (one aggregate query), ``POST /groupby`` (an
    explicit-binning group-by, one plan on one worker), ``GET /healthz``,
    and ``GET /metrics`` (Prometheus exposition of the pool's registry).
    Every POST holds a slot of :attr:`gate` while it runs: past
    ``max_pending`` concurrent requests the gate raises the async tier's
    :class:`~repro.serving.scheduler.Overloaded`, answered as a 429 with
    the error's ``pending`` / ``capacity`` instead of queueing unboundedly.

    Start with :meth:`serve_in_thread`; ``close`` stops the listener (the
    pool is the caller's to close — it may outlive the front end).
    """

    daemon_threads = True

    def __init__(
        self,
        pool: MPServingPool,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 64,
        obs: Observability | None = None,
    ) -> None:
        #: Admission for POST requests (before the socket, so a bad bound
        #: raises with nothing to clean up).
        self.gate = AdmissionGate(max_pending)
        super().__init__((host, port), _Handler)
        self.pool = pool
        self.obs = obs if obs is not None else Observability.disabled()
        self._thread: threading.Thread | None = None
        self.obs.metrics.counter(
            "repro_mp_http_rejected_total",
            "HTTP requests refused by admission control (429).",
        ).set_function(lambda: self.gate.rejected)

    @property
    def address(self) -> str:
        """The server's ``http://host:port`` base URL."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def max_pending(self) -> int:
        """The admission bound."""
        return self.gate.capacity

    def serve_in_thread(self) -> str:
        """Start serving on a daemon thread; returns the base URL."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="mp-http-server", daemon=True
            )
            self._thread.start()
        return self.address

    def close(self) -> None:
        """Stop the listener and join the serving thread; idempotent."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self.shutdown()
            thread.join(timeout=5.0)
        self.server_close()
