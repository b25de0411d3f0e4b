"""Property tests: audited certified bounds always contain the exact answer.

The central contract of the quality layer is that it *confirms* the paper's
hard-bound guarantee rather than merely restating it: for any box predicate
over any shard layout, the exact answer recomputed by the auditor must fall
inside the served certified bounds — coverage 1.0, zero violations.  Sketch
answers (QUANTILE / COUNT_DISTINCT) are self-certified instead: the audit
may realize rank / relative error, but the truth must stay inside the
sketch's own bounds (``sketch_misses == 0``).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.table import Table
from repro.distributed.parallel import build_sharded_pass
from repro.obs.audit import AccuracyAuditor
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery, ExactEngine
from repro.serving.catalog import SynopsisCatalog
from repro.serving.engine import ServingEngine

N_ROWS = 1500
KEY_DOMAIN = (0.0, 100.0)

CERTIFIED_AGGS = ("SUM", "COUNT", "AVG", "MIN", "MAX")


@functools.lru_cache(maxsize=None)
def _table() -> Table:
    rng = np.random.default_rng(17)
    key = rng.uniform(*KEY_DOMAIN, size=N_ROWS)
    value = np.abs(rng.normal(50.0, 15.0, size=N_ROWS) + 0.2 * key)
    return Table({"key": key, "value": value}, name="audited")


@functools.lru_cache(maxsize=None)
def _synopsis(n_shards: int):
    config = PASSConfig(n_partitions=8, sample_rate=0.05, opt_sample_size=200, seed=5)
    if n_shards == 1:
        return build_pass(_table(), "value", ["key"], config)
    return build_sharded_pass(
        _table(), "value", "key", n_shards=n_shards, config=config
    )


def _serving(n_shards: int) -> tuple[ServingEngine, SynopsisCatalog]:
    catalog = SynopsisCatalog()
    catalog.register("audited_value", _synopsis(n_shards), table_name="audited")
    catalog.register_table(_table(), "audited")
    # cache_size=0: duplicate random queries must still reach the auditor
    # (cache hits are never offered for audit).
    return ServingEngine(catalog, cache_size=0), catalog


def _bounds(draw) -> tuple[float, float]:
    low = draw(st.floats(*KEY_DOMAIN, allow_nan=False, allow_infinity=False))
    high = draw(st.floats(*KEY_DOMAIN, allow_nan=False, allow_infinity=False))
    return (low, high) if low <= high else (high, low)


@st.composite
def certified_workloads(draw):
    n_shards = draw(st.sampled_from([1, 2, 4]))
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        low, high = _bounds(draw)
        agg = draw(st.sampled_from(CERTIFIED_AGGS))
        queries.append(
            AggregateQuery(
                agg, "value", RectPredicate.from_bounds(key=(low, high))
            )
        )
    return n_shards, queries


@st.composite
def sketch_workloads(draw):
    n_shards = draw(st.sampled_from([1, 2, 4]))
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        low, high = _bounds(draw)
        predicate = RectPredicate.from_bounds(key=(low, high))
        if draw(st.booleans()):
            q = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9, 0.95]))
            queries.append(AggregateQuery.at_quantile("value", q, predicate))
        else:
            queries.append(AggregateQuery.count_distinct("value", predicate))
    return n_shards, queries


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(workload=certified_workloads())
def test_certified_bounds_cover_exact_answers(workload):
    n_shards, queries = workload
    engine, catalog = _serving(n_shards)
    exact = ExactEngine(_table())
    with AccuracyAuditor(engine, sample_every=1, max_rate=None) as auditor:
        auditable = 0
        for query in queries:
            result = engine.execute(query)
            # The audit re-derives this independently; assert it inline too
            # so a failure pinpoints the query, not just the tally.
            truth = exact.execute(query)
            if math.isnan(truth):
                # Empty selection: AVG/MIN/MAX have no exact answer and
                # the auditor skips them unless the estimate is NaN too.
                if math.isnan(result.estimate):
                    auditable += 1
                continue
            assert result.hard_lower <= truth <= result.hard_upper
            auditable += 1
        assert auditor.flush(), "auditor did not drain"
        card = catalog.scorecard("audited_value")
        assert card.audits == auditable
        assert card.bound_violations == 0
        assert card.coverage_rate() == 1.0
        assert card.health() != "violating"


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(workload=sketch_workloads())
def test_sketch_answers_stay_inside_self_certified_bounds(workload):
    n_shards, queries = workload
    engine, catalog = _serving(n_shards)
    exact = ExactEngine(_table())
    with AccuracyAuditor(engine, sample_every=1, max_rate=None) as auditor:
        auditable = 0
        for query in queries:
            result = engine.execute(query)
            truth = exact.execute(query)
            if math.isnan(truth) and not math.isnan(result.estimate):
                continue  # empty selection: auditor skips it
            auditable += 1
        assert auditor.flush(), "auditor did not drain"
        card = catalog.scorecard("audited_value")
        assert card.sketch_audits == auditable
        # Sketch paths are self-certified, never counted as hard-bound
        # violations — but the truth must respect the sketch's own bounds.
        assert card.sketch_misses == 0
        assert card.bound_violations == 0


class TestEngineCloseStopsAuditor:
    """Engine teardown owns auditor shutdown (no leaked daemon workers)."""

    def test_close_stops_and_detaches_the_auditor(self):
        engine, _ = _serving(n_shards=1)
        auditor = AccuracyAuditor(engine, sample_every=1, max_rate=None)
        assert engine.auditor is auditor
        assert auditor._worker.is_alive()

        engine.close()
        assert engine.auditor is None
        assert not auditor._worker.is_alive()
        # Idempotent: a second close (and a second stop) is a no-op.
        engine.close()
        auditor.stop()

    def test_context_manager_close_stops_the_auditor(self):
        with _serving(n_shards=1)[0] as engine:
            auditor = AccuracyAuditor(engine, sample_every=1, max_rate=None)
            engine.execute(
                AggregateQuery("SUM", "value", RectPredicate.from_bounds(key=(0, 60)))
            )
            assert auditor.flush(), "auditor did not drain"
        assert engine.auditor is None
        assert not auditor._worker.is_alive()

    def test_stop_drops_a_full_rate_limited_backlog(self):
        """stop() must not wait out the backlog: at 1 audit/s a full queue
        would take 16 s to drain and the _STOP sentinel cannot even be
        queued behind it."""
        import time
        import warnings as _warnings

        engine, _ = _serving(n_shards=1)
        auditor = AccuracyAuditor(engine, sample_every=1, max_queue=16, max_rate=1.0)
        query = AggregateQuery("SUM", "value", RectPredicate.from_bounds(key=(0, 60)))
        result = engine.execute(query)
        while auditor.offer(query, "audited", "audited_value", result):
            pass  # until admission control drops one: the queue is full
        assert auditor._queue.full()

        start = time.monotonic()
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RuntimeWarning)
            auditor.stop()
        assert time.monotonic() - start < 1.0
        assert not auditor._worker.is_alive()
        assert auditor._queue.empty()
        assert auditor.flush(timeout=0.0), "dropped audits left _pending behind"

    def test_stop_warns_when_join_times_out(self):
        """A worker stuck past the join deadline is reported, not swallowed."""
        engine, _ = _serving(n_shards=1)
        auditor = AccuracyAuditor(engine, sample_every=1, max_rate=None)
        # Simulate a wedged worker: a thread that ignores the stop signal.
        import threading
        import warnings as _warnings

        release = threading.Event()
        stuck = threading.Thread(target=release.wait, daemon=True)
        stuck.start()
        real_worker, auditor._worker = auditor._worker, stuck
        try:
            with pytest.warns(RuntimeWarning, match="did not stop"):
                auditor.stop(timeout=0.05)
        finally:
            release.set()
            stuck.join(5.0)
            # Drain the real worker too so nothing outlives the test.
            auditor._worker = real_worker
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore", RuntimeWarning)
                auditor.stop()
        assert engine.auditor is None
