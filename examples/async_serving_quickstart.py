"""Async serving quickstart: coalescing, micro-batching, backpressure.

Builds a small PASS synopsis, fronts it with the asyncio serving tier, and
demonstrates the three behaviors the tier adds on top of the synchronous
``ServingEngine``:

1. a stampede of concurrent identical queries coalesces onto one execution;
2. distinct concurrent queries dispatch as one vectorized micro-batch;
3. streaming updates serialize through the same scheduler, so a read issued
   after an awaited insert always observes it.

Run with::

    python examples/async_serving_quickstart.py
"""

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving import AsyncServingEngine, ServingEngine, SynopsisCatalog


def build_engine() -> ServingEngine:
    rng = np.random.default_rng(7)
    table = Table(
        {
            "time": rng.uniform(0.0, 100.0, size=50_000),
            "power": np.abs(rng.normal(40.0, 12.0, size=50_000)),
        },
        name="sensors",
    )
    synopsis = DynamicPASS(
        table,
        "power",
        ["time"],
        PASSConfig(n_partitions=32, sample_rate=0.01, opt_sample_size=500, seed=0),
    )
    catalog = SynopsisCatalog()
    catalog.register("sensors_power", synopsis, table_name="sensors")
    catalog.register_table(table)
    return ServingEngine(catalog)


async def main() -> None:
    engine = build_engine()
    hot = AggregateQuery("AVG", "power", RectPredicate.from_bounds(time=(10.0, 30.0)))

    async with AsyncServingEngine(engine, batch_window=0.002) as tier:
        # 1. A dashboard stampede: 100 concurrent copies of one query.
        results = await asyncio.gather(*(tier.execute(hot) for _ in range(100)))
        stats = tier.stats()
        print(f"stampede: {len(results)} answers, {stats.coalesced} coalesced,")
        print(
            f"  {stats.scheduler.dispatched} executed "
            f"-> AVG {results[0].estimate:.2f}"
        )

        # 2. Distinct panels batch into one vectorized pass.
        panels = [
            AggregateQuery(
                agg, "power", RectPredicate.from_bounds(time=(float(t), float(t + 20)))
            )
            for t in range(0, 80, 10)
            for agg in ("SUM", "COUNT", "AVG")
        ]
        answers = await tier.execute_many(panels)
        stats = tier.stats()
        print(
            f"panels: {len(answers)} queries in {stats.scheduler.batches} "
            f"micro-batches (largest {stats.scheduler.max_batch_size})"
        )

        # 3. Writes serialize through the scheduler and invalidate in-flight
        #    coalesced futures whose region overlaps the updated partition.
        count = AggregateQuery("COUNT", "power", RectPredicate.everything())
        before = (await tier.execute(count)).estimate
        await tier.insert("sensors_power", {"time": 20.0, "power": 55.0})
        after = (await tier.execute(count)).estimate
        print(f"write visibility: COUNT {before:.0f} -> {after:.0f}")


if __name__ == "__main__":
    asyncio.run(main())
