"""Shutdown-leak check for the multi-process serving tier.

Drives a full serving lifecycle — publish a synopsis as a generation file,
serve queries through an :class:`~repro.serving.server.MPServingPool` and
its HTTP front end, flip the epoch once, tear everything down — and then
asserts that teardown actually finished:

* no live worker processes (``multiprocessing.active_children()`` empty);
* no leaked generation directories or files (nothing matching ``pass-*``
  under ``/dev/shm``, nor any file inside one, that this process created);
* no background threads beyond the interpreter's bookkeeping ones (the
  auditor / HTTP serving threads must have joined).

Every resource the tier allocates is owned by exactly one ``close()``;
this script is the CI tripwire for a teardown path that quietly stops
releasing one of them.  Run from the repository root::

    python tools/check_shutdown_leaks.py
"""

from __future__ import annotations

import glob
import multiprocessing
import sys
import threading
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.table import Table
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving import MPHTTPServer, MPServingPool, SynopsisPublisher
from repro.serving.server import query_to_payload

SHM_GLOB = "/dev/shm/pass-*"


def _build(seed: int):
    rng = np.random.default_rng(seed)
    table = Table(
        {
            "key": rng.uniform(0.0, 100.0, size=5000),
            "value": np.abs(rng.lognormal(1.0, 0.6, size=5000)),
        },
        name="leakcheck",
    )
    return build_pass(
        table,
        "value",
        ["key"],
        PASSConfig(n_partitions=16, sample_rate=0.02, opt_sample_size=400, seed=0),
    )


def _queries(n: int) -> list[AggregateQuery]:
    rng = np.random.default_rng(3)
    out = []
    for _ in range(n):
        low, high = sorted(rng.uniform(0.0, 100.0, size=2))
        out.append(
            AggregateQuery(
                ("SUM", "COUNT", "AVG")[int(rng.integers(3))],
                "value",
                RectPredicate.from_bounds(key=(float(low), float(high))),
            )
        )
    return out


def _post(url: str, payload: dict) -> None:
    import json

    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        response.read()


def main() -> int:
    """Run the lifecycle, then fail on any leaked process/file/thread."""
    shm_before = set(glob.glob(SHM_GLOB))
    threads_before = {thread.name for thread in threading.enumerate()}

    with SynopsisPublisher() as publisher:
        publisher.publish("leak_main", _build(seed=1), table_name="leakcheck")
        with MPServingPool(publisher.register_name, n_workers=2) as pool:
            pool.execute_batch(_queries(64))
            server = MPHTTPServer(pool, max_pending=8)
            base = server.serve_in_thread()
            try:
                predicate = RectPredicate.from_bounds(key=(12.5, 80.0))
                for query in _queries(8) + [
                    AggregateQuery("QUANTILE", "value", predicate, quantile=0.5),
                    AggregateQuery("COUNT_DISTINCT", "value", predicate),
                ]:
                    _post(f"{base}/query", query_to_payload(query))
                # One epoch flip mid-serve: re-attach must not strand the
                # previous generation's file.
                publisher.publish("leak_main", _build(seed=2), table_name="leakcheck")
                pool.execute_batch(_queries(32))
            finally:
                server.close()

    failures = []
    children = multiprocessing.active_children()
    if children:
        failures.append(f"live worker processes after close: {children}")
    shm_leaked = set(glob.glob(SHM_GLOB)) - shm_before
    # A leaked generation directory is listed with the files left in it.
    shm_leaked |= {path for leaked in shm_leaked for path in glob.glob(f"{leaked}/*")}
    if shm_leaked:
        failures.append(f"leaked generation directories / files: {sorted(shm_leaked)}")
    threads_leaked = [
        thread.name
        for thread in threading.enumerate()
        if thread.name not in threads_before
        and thread.name not in ("QueueFeederThread",)
    ]
    if threads_leaked:
        failures.append(f"background threads still running: {threads_leaked}")

    if failures:
        for failure in failures:
            print(f"LEAK: {failure}")
        return 1
    print(
        "shutdown-leak check passed: no worker processes, no pass-* "
        "generation directories or files, no stray threads after teardown"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
