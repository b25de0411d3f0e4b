"""The span contract the traced benchmark harness reads off the class chain.

``perfbench/layers.py`` wraps ``owner.__dict__[attr]`` of the entry points it
registers and derives layer rows from the spans' nesting: the dispatch cost
is ``PASSSynopsis.query``'s self time around its ``FlatSynopsis.query``
child, the moment kernels are ``FlatSynopsis.query``'s self time, a sketch
union cell is one ``PASSSynopsis.sketch_union`` span.  With ``PASSSynopsis``
a subclass of ``FlatSynopsis`` (and ``DynamicPASS`` of ``PASSSynopsis``)
those spans must still nest exactly so; an alias in place of a subclass
would flatten them while the harness' own smoke run still passes.  This test
runs the harness' recorder in-process over one query of each kind and one
update.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.query.predicate import Interval, RectPredicate
from repro.query.query import AggregateQuery

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIG = PASSConfig(n_partitions=8, sample_rate=0.05, seed=5, with_sketches=True)
PREDICATE = RectPredicate({"key": Interval(12.5, 61.0)})


@pytest.fixture(scope="module")
def harness():
    """``(layers, tracing)`` imported from the harness directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def table() -> Table:
    rng = np.random.default_rng(7)
    keys, values = rng.uniform(0.0, 100.0, 3_000), rng.normal(10.0, 2.0, 3_000)
    return Table({"key": keys, "value": values}, name="t")


def _traced(harness, run) -> list:
    """The spans one call of ``run`` records under the harness' targets."""
    layers, tracing = harness
    recorder = tracing.SpanRecorder()
    layers.register_targets(recorder)
    recorder.install()
    try:
        run()
    finally:
        recorder.uninstall()
    return recorder.spans


def _tree(spans, root_name: str) -> list[tuple[str, list]]:
    """``(name, children)`` of every span named ``root_name``, recursively."""

    def node(span):
        return (span.name, [node(s) for s in spans if s.parent == span.id])

    return [node(span) for span in spans if span.name == root_name]


def test_a_query_nests_the_flat_kernel_under_the_pass_dispatch(harness, table):
    synopsis = build_pass(table, "value", ["key"], CONFIG)
    for agg in ("SUM", "QUANTILE"):
        query = AggregateQuery(agg, "value", PREDICATE)
        spans = _traced(harness, lambda: synopsis.query(query))
        # A sketch answer reduces its union inside the kernel: no nested
        # sketch_union span would be counted as a union cell.
        assert _tree(spans, "PASSSynopsis.query") == [
            (
                "PASSSynopsis.query",
                [("FlatSynopsis.query", [("FlatSynopsis.frontier", [])])],
            )
        ], agg


def test_a_sketch_union_is_one_span_over_its_frontier(harness, table):
    synopsis = build_pass(table, "value", ["key"], CONFIG)
    query = AggregateQuery("QUANTILE", "value", PREDICATE, quantile=0.9)
    spans = _traced(harness, lambda: synopsis.sketch_union(query))
    assert _tree(spans, "PASSSynopsis.sketch_union") == [
        ("PASSSynopsis.sketch_union", [("FlatSynopsis.frontier", [])])
    ]


def test_a_dynamic_synopsis_records_its_updates_and_the_same_query_spans(
    harness, table
):
    dynamic = DynamicPASS(table, "value", ["key"], CONFIG)
    query = AggregateQuery("AVG", "value", PREDICATE)

    def run():
        dynamic.insert({"key": 30.0, "value": 10.5})
        dynamic.delete({"key": 30.0, "value": 10.5})
        dynamic.query(query)

    spans = _traced(harness, run)
    assert [span.name for span in spans if span.parent < 0] == [
        "DynamicPASS.insert",
        "DynamicPASS.delete",
        "PASSSynopsis.query",
    ]
    assert _tree(spans, "FlatSynopsis.query") == [
        ("FlatSynopsis.query", [("FlatSynopsis.frontier", [])])
    ]
