"""A golden update stream: answers and final state pinned to recorded digests.

The *answer* digests below were recorded by running :func:`run_stream` on the
commit *before* updates moved onto the flat arrays (object tree +
list-of-dicts reservoirs + sync hooks) and have not been edited since.  The
*final-state* digests are over ``export_buffers()`` — every array, the update
counters — and were recorded on the parent of the commit that made the arrays
the synopsis (where ``FlatSynopsis.export_buffers`` already existed and the
``seen`` / ``capacity`` counters were read off the then ``to_arrays``), not
on the change itself.  The stream uses only ``DynamicPASS.insert / delete /
query`` with the default reservoir capacity, so a match means 1,500 mixed
operations leave every answer and every exported array bit-identical to
those implementations.
"""

from __future__ import annotations

import hashlib
import json
import struct
import warnings

import numpy as np
import pytest

from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS, StaleExtremaWarning
from repro.data.table import Table
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery

N_ROWS = 3000
N_OPS = 1500
AGGS = (
    ("SUM", None),
    ("COUNT", None),
    ("AVG", None),
    ("MIN", None),
    ("MAX", None),
    ("COUNT_DISTINCT", None),
    ("QUANTILE", 0.5),
    ("QUANTILE", 0.95),
)

#: ``n_columns -> (answers digest, final-state digest)``, see the docstring.
GOLDEN = {
    1: (
        "ebe876a599c3c3e4c6ebf1d97f35b77138afd7744399f1847b1817e904407f6e",
        "256906f4a8f973c2c56b0bee01346a6504244364d969f2da8b66071da7b40d03",
    ),
    2: (
        "4e3bf11791f3b37081afacd1c31f6571aac46326887bcf6d2cfda720119f289a",
        "a5d047ef70612ada702141fb44d121295d1803095d75b1c21d24bae0e3c94ed7",
    ),
}

#: The header fields of the final state that are update state (the rest is
#: build configuration, and ``build_seconds`` a wall-clock reading).
_COUNTERS = (
    "updates_since_build",
    "build_population",
    "minmax_possibly_stale",
    "sketch_stale_deletes",
    "extrema_stale_deletes",
)


def _table(n_columns: int) -> Table:
    rng = np.random.default_rng(40 + n_columns)
    columns = {
        f"c{i}": rng.uniform(0.0, 100.0, size=N_ROWS) for i in range(n_columns)
    }
    columns["value"] = np.round(rng.normal(50.0, 15.0, size=N_ROWS), 1)
    return Table(columns, name=f"golden_{n_columns}d")


def _export_digest(dynamic: DynamicPASS) -> str:
    header, arrays = dynamic.export_buffers()
    counters = {key: header[key] for key in _COUNTERS}
    digest = hashlib.sha256(json.dumps(counters, sort_keys=True).encode())
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(f"{key}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def run_stream(n_columns: int) -> tuple[str, str]:
    """Drive the fixed stream; return the answers and final export digests."""
    table = _table(n_columns)
    names = [f"c{i}" for i in range(n_columns)]
    dynamic = DynamicPASS(
        table,
        "value",
        names,
        config=PASSConfig(
            n_partitions=16,
            sample_rate=0.1,
            partitioner="equal" if n_columns == 1 else "kd",
            with_sketches=True,
            seed=3,
        ),
        rng=11,
    )
    rng = np.random.default_rng(7)
    live = [
        {name: float(table.column(name)[i]) for name in names + ["value"]}
        for i in range(N_ROWS)
    ]
    answers = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StaleExtremaWarning)
        for _ in range(N_OPS):
            kind = rng.choice(3, p=(0.35, 0.25, 0.4))
            if kind == 0:
                row = {name: float(rng.uniform(-2.0, 102.0)) for name in names}
                row["value"] = float(np.round(rng.normal(50.0, 15.0), 1))
                dynamic.insert(row)
                live.append(row)
            elif kind == 1:
                # Half of the deletes take a recent row: inserted rows are
                # often in the reservoir, so sampled tuples get deleted too.
                recent = rng.random() < 0.5
                index = len(live) - 1 - int(rng.integers(0, 50)) if recent else int(
                    rng.integers(0, len(live))
                )
                dynamic.delete(live.pop(index))
            else:
                agg, quantile = AGGS[int(rng.integers(0, len(AGGS)))]
                intervals = {}
                for name in names:
                    low = float(rng.uniform(0.0, 90.0))
                    intervals[name] = Interval(low, low + float(rng.uniform(1.0, 60.0)))
                result = dynamic.query(
                    AggregateQuery(agg, "value", RectPredicate(intervals), quantile)
                )
                answers.update(
                    struct.pack(
                        "<5d2q?",
                        result.estimate,
                        result.ci_half_width,
                        result.variance,
                        result.hard_lower,
                        result.hard_upper,
                        result.tuples_processed,
                        result.tuples_skipped,
                        result.exact,
                    )
                )
    return answers.hexdigest(), _export_digest(dynamic)


@pytest.mark.parametrize("n_columns", [1, 2])
def test_stream_matches_the_digests_recorded_before_the_move(n_columns):
    assert run_stream(n_columns) == GOLDEN[n_columns]
