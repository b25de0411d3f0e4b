"""Multi-process serving quickstart: generation files, worker pool, HTTP.

Builds a small PASS synopsis, publishes it once as a mapped generation
file, and walks the full multi-process serving story:

1. a spawn-based worker pool answers queries over zero-copy read-only
   views — bit-identical to the in-process ``ServingEngine``;
2. the owner republishes a rebuilt synopsis; workers notice the epoch
   flip and re-attach without ever serving a torn generation;
3. a stdlib HTTP front end maps a JSON protocol onto the pool, with
   ``/healthz`` and Prometheus ``/metrics`` riding along.

Run with::

    python examples/mp_serving_quickstart.py
"""

import dataclasses
import json
import sys
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.table import Table
from repro.obs import Observability
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving import (
    MPHTTPServer,
    MPServingPool,
    ServingEngine,
    SynopsisCatalog,
    SynopsisPublisher,
)
from repro.serving.server import query_to_payload, result_from_payload


def build_synopsis(seed: int):
    rng = np.random.default_rng(seed)
    table = Table(
        {
            "time": rng.uniform(0.0, 100.0, size=40_000),
            "power": np.abs(rng.normal(40.0, 12.0, size=40_000)),
        },
        name="sensors",
    )
    return table, build_pass(
        table,
        "power",
        ["time"],
        PASSConfig(n_partitions=32, sample_rate=0.01, opt_sample_size=500, seed=0),
    )


def post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def main() -> None:
    table, synopsis = build_synopsis(seed=7)
    query = AggregateQuery(
        "AVG", "power", RectPredicate.from_bounds(time=(10.0, 30.0))
    )

    obs = Observability()
    with SynopsisPublisher() as publisher:
        # 1. Publish once; every worker maps the same generation file.
        epoch = publisher.publish("sensors_power", synopsis, table_name="sensors")
        print(f"published generation at epoch {epoch}")

        with MPServingPool(
            publisher.register_name, n_workers=2, obs=obs
        ) as pool:
            pooled = pool.execute(query)
            catalog = SynopsisCatalog()
            catalog.register("sensors_power", synopsis, table_name="sensors")
            catalog.register_table(table)
            in_process = ServingEngine(catalog, cache_size=0).execute(query)
            match = all(
                getattr(pooled, field.name) == getattr(in_process, field.name)
                for field in dataclasses.fields(pooled)
            )
            print(
                f"pool AVG {pooled.estimate:.2f} "
                f"(bit-identical to in-process: {match})"
            )

            # 2. Republish a rebuilt synopsis; workers re-attach on the
            #    next request — no restart, no torn reads.
            _, rebuilt = build_synopsis(seed=8)
            epoch = publisher.publish(
                "sensors_power", rebuilt, table_name="sensors"
            )
            fresh = pool.execute(query)
            print(
                f"after republish (epoch {epoch}): AVG {fresh.estimate:.2f}, "
                f"pool observed epoch {pool.epoch}"
            )

            # 3. The HTTP front end speaks JSON over the same pool.
            server = MPHTTPServer(pool, max_pending=16, obs=obs)
            base = server.serve_in_thread()
            try:
                answer = post(f"{base}/query", query_to_payload(query))
                result = result_from_payload(answer["result"])
                health = json.loads(
                    urllib.request.urlopen(f"{base}/healthz", timeout=30)
                    .read()
                    .decode("utf-8")
                )
                print(
                    f"HTTP AVG {result.estimate:.2f} | healthz {health} | "
                    "metrics at GET /metrics"
                )
            finally:
                server.close()


if __name__ == "__main__":
    main()
