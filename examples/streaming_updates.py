"""Streaming updates: keep a PASS synopsis consistent under inserts and deletes.

Section 4.5 of the paper describes how PASS handles dynamic data: new tuples
are routed to their leaf partition, the aggregates on the root-to-leaf path
are updated in O(height) time, and the leaf's stratified sample is maintained
with reservoir sampling.  This example simulates a live sensor feed appending
readings to the Intel-Wireless-like table and shows that query answers track
the growing data without rebuilding the synopsis.

Run with::

    python examples/streaming_updates.py

``--check`` switches to CI mode: after the insert / delete stream every
monitored answer must lie inside its hard bounds against an exact scan of the
replayed table, the saved file must hold the samples compact (its offsets
the running sum of the per-leaf sample counts, with no spare update slots)
at an unchanged ``storage_bytes()``, and a ``save_synopsis`` /
``load_synopsis`` round trip must answer bit-identically and accept further
updates; exits non-zero otherwise.
"""

from __future__ import annotations

import argparse
import struct
import tempfile
from pathlib import Path

import numpy as np

from repro import AggregateQuery, ExactEngine, PASSConfig, RectPredicate, load_dataset
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.serving.persistence import load_synopsis, save_synopsis
from repro.serving.shm import parse_segment

N_ROWS = 50_000
N_INSERTS = 5_000


def _replayed(table: Table, rows: list[dict[str, float]]) -> Table:
    """The original table plus the inserted rows that are still live."""
    return Table(
        {
            column: np.concatenate(
                [table.column(column), np.array([row[column] for row in rows])]
            )
            for column in table.column_names
        }
    )


def check(dynamic: DynamicPASS, table: Table, live_rows: list[dict]) -> int:
    """CI mode: hard bounds against the replayed table, then a save / load."""
    predicate = RectPredicate.from_bounds(time=(0.5, 0.8))
    monitored = [
        AggregateQuery(agg, "light", region)
        for agg in ("SUM", "COUNT", "AVG", "MIN", "MAX")
        for region in (predicate, RectPredicate.from_bounds(time=(0.1, 0.65)))
    ]
    exact = ExactEngine(_replayed(table, live_rows))
    failures = []
    for query in monitored:
        result, truth = dynamic.query(query), exact.execute(query)
        slack = 1e-9 * max(1.0, abs(truth))
        if not result.hard_lower - slack <= truth <= result.hard_upper + slack:
            failures.append(
                f"{query.agg.value}: exact {truth!r} outside "
                f"[{result.hard_lower!r}, {result.hard_upper!r}]"
            )

    def bits(result) -> bytes:
        return struct.pack(
            "<5d2q",
            result.estimate,
            result.ci_half_width,
            result.variance,
            result.hard_lower,
            result.hard_upper,
            result.tuples_processed,
            result.tuples_skipped,
        )

    with tempfile.TemporaryDirectory() as directory:
        path = save_synopsis(dynamic, Path(directory) / "streaming")
        _, saved = parse_segment(path.read_bytes(), str(path))
        loaded = load_synopsis(path)
    # Updates write into spare per-leaf slots; the file holds the rows only.
    offsets = saved["sample_offsets"]
    columns = [key for key in saved if key.startswith("sample/")]
    if not np.array_equal(np.diff(offsets), dynamic.sample_counts) or any(
        saved[key].shape[0] != offsets[-1] for key in columns
    ):
        failures.append("the churned synopsis was not saved compact")
    if loaded.storage_bytes() != dynamic.storage_bytes():
        failures.append("storage_bytes changed across the save / load round trip")
    for query in monitored:
        if bits(loaded.query(query)) != bits(dynamic.query(query)):
            failures.append(f"{query.agg.value}: reloaded synopsis answers differently")
    row = dict(live_rows[0], light=123.0)
    before = loaded.population_size
    loaded.insert(row)
    loaded.delete(row)
    if loaded.population_size != before or loaded.updates_since_build != (
        dynamic.updates_since_build + 2
    ):
        failures.append("reloaded synopsis did not apply further updates")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if not failures:
        print(
            f"streaming check OK: {len(monitored)} monitored answers inside their "
            "hard bounds; saved compact; save / load round trip bit-identical "
            "and updatable"
        )
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: verify hard bounds and a save / load round trip",
    )
    options = parser.parse_args()
    dataset = load_dataset("intel", n_rows=N_ROWS)
    table = dataset.table
    rng = np.random.default_rng(7)

    dynamic = DynamicPASS(
        table,
        dataset.value_column,
        [dataset.default_predicate_column],
        config=PASSConfig(
            n_partitions=32, sample_rate=0.01, partitioner="equal", seed=0
        ),
        rng=0,
    )
    print(
        f"Initial synopsis over {dynamic.population_size} rows "
        f"({dynamic.n_partitions} partitions)."
    )

    # The monitored query: afternoon light levels.
    query = AggregateQuery.sum("light", RectPredicate.from_bounds(time=(0.5, 0.8)))
    before = dynamic.query(query)
    print(f"Before updates: estimate {before.estimate:,.0f}")

    # Simulate a stream of new afternoon readings from a bright new sensor.
    new_rows = []
    for _ in range(N_INSERTS):
        row = {
            "time": float(rng.uniform(0.5, 0.8)),
            "sensor_id": 99.0,
            "light": float(np.abs(rng.normal(700.0, 40.0))),
            "temperature": 25.0,
            "humidity": 40.0,
            "voltage": 2.6,
        }
        dynamic.insert(row)
        new_rows.append(row)
    print(
        f"Inserted {N_INSERTS} new readings "
        f"(updates since build: {dynamic.updates_since_build})."
    )

    after = dynamic.query(query)
    # Ground truth over the concatenation of the old table and the new rows.
    truth = ExactEngine(_replayed(table, new_rows)).execute(query)
    print(f"After updates : estimate {after.estimate:,.0f} (exact {truth:,.0f})")
    print(f"Relative error after streaming inserts: {after.relative_error(truth):.3%}")

    # Delete a slice of the new readings again.
    for row in new_rows[:1_000]:
        dynamic.delete(row)
    print(f"Deleted 1000 readings; population now {dynamic.population_size} rows.")
    print(
        "When updates accumulate, `DynamicPASS.rebuild(table)` re-runs the "
        "partitioning optimizer from a fresh snapshot."
    )
    if options.check:
        return check(dynamic, table, new_rows[1_000:])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
