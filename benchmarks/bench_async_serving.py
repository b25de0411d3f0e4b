"""Async serving tier: throughput and tail latency under concurrent load.

The async tier exists for one workload shape: many concurrent clients whose
queries overlap.  This benchmark drives exactly that shape and measures what
the tier buys over the PR-1 synchronous path:

* **Closed-loop speedup** — 64 concurrent clients issue waves of queries in
  which a fraction (``duplicate ratio``) duplicates the wave's hot query.
  The async tier (request coalescing + micro-batch scheduling into
  ``execute_batch``) is compared against sequential
  ``ServingEngine.execute`` over the same request stream; both run the same
  flat kernel with the result cache disabled, so the speedup isolates what
  coalescing and batching contribute beyond caching (about 2x is the
  ceiling when half of every wave coalesces away).  ``--check`` asserts the
  measured floor :data:`SPEEDUP_FLOOR` at duplicate ratio 0.5 with 64
  clients.
* **Observability overhead** — the same closed-loop workload with full
  instrumentation (metrics + traces + query log) vs the disabled no-op
  path, order-alternated rounds compared best-of-N; ``--check`` asserts
  **<= 5%** overhead and the ``obs_overhead_pct`` metric feeds the perf
  gate.
* **Audit overhead** — the same workload with an attached
  :class:`~repro.obs.audit.AccuracyAuditor` (head sampling + background
  exact recomputation under the shared read lock) vs no auditor, measured
  the same way; ``--check`` asserts **<= 5%** and ``audit_overhead_pct``
  feeds the perf gate.
* **Open-loop tail latency** — a Poisson arrival process at increasing
  offered load (fractions of the measured capacity), plus the adversarial
  duplicate-stampede process, measured through
  :func:`repro.evaluation.harness.evaluate_async_workload`: p50 / p99
  latency, achieved throughput, coalescing counts, and Overloaded
  rejections under the bounded queue.

Standalone modes for CI::

    python benchmarks/bench_async_serving.py --tiny --check --json OUT
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.builder import build_pass
from repro.core.config import PASSConfig
from repro.data.loaders import load_dataset
from repro.evaluation.harness import evaluate_async_workload
from repro.obs import Observability
from repro.obs.audit import AccuracyAuditor
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving import AsyncServingEngine, ServingEngine, SynopsisCatalog

N_ROWS = 60_000
N_CLIENTS = 64
N_WAVES = 24
DUPLICATE_RATIO = 0.5
AGGS = ("SUM", "COUNT", "AVG")

#: ``--check`` floor of the closed-loop speedup, derived from measurement
#: rather than hand-set: 7 ``--tiny`` runs on a 2-core box gave a median of
#: 1.73x with quartiles 1.67x / 1.77x (range 1.47x - 1.80x); the floor is
#: Tukey's outer fence ``Q1 - 3 * IQR``.  A tier whose coalescing or batching
#: broke lands below 1x, since it then only adds overhead.
SPEEDUP_FLOOR = 1.38


def _build_catalog(n_rows: int, n_partitions: int):
    spec = load_dataset("intel", n_rows)
    synopsis = build_pass(
        spec.table,
        spec.value_column,
        [spec.default_predicate_column],
        PASSConfig(
            n_partitions=n_partitions, sample_rate=0.005, opt_sample_size=1000, seed=0
        ),
    )
    catalog = SynopsisCatalog()
    catalog.register("intel_light", synopsis, table_name=spec.table.name)
    catalog.register_table(spec.table)
    return spec, catalog


def wave_workload(
    spec, n_clients: int, n_waves: int, duplicate_ratio: float, seed: int = 0
) -> list[list[AggregateQuery]]:
    """Concurrent dashboard traffic: per wave, one hot query plus cold ones.

    Each of ``n_waves`` waves has a fresh "hot" canonical query; every
    client issues the hot query with probability ``duplicate_ratio`` and a
    unique cold query otherwise, so about that fraction of each wave's
    requests are concurrent duplicates — the shape request coalescing is
    built for, and one the result cache cannot help with (every wave is
    new).
    """
    rng = np.random.default_rng(seed)
    times = spec.table.column(spec.default_predicate_column)
    low, high = float(times.min()), float(times.max())

    def random_query() -> AggregateQuery:
        a, b = sorted(rng.uniform(low, high, size=2))
        predicate = RectPredicate.from_bounds(time=(float(a), float(b)))
        return AggregateQuery(
            AGGS[int(rng.integers(len(AGGS)))], spec.value_column, predicate
        )

    waves = []
    for _ in range(n_waves):
        hot = random_query()
        waves.append(
            [
                hot if rng.random() < duplicate_ratio else random_query()
                for _ in range(n_clients)
            ]
        )
    return waves


def _sequential_seconds(catalog, waves) -> float:
    engine = ServingEngine(catalog, cache_size=0)
    start = time.perf_counter()
    for wave in waves:
        for query in wave:
            engine.execute(query)
    return time.perf_counter() - start


def _async_tier_seconds(
    catalog, waves, obs: Observability | None = None, audit: bool = False
) -> tuple[float, object]:
    async def run():
        engine = ServingEngine(catalog, cache_size=0, obs=obs)
        auditor = None
        if audit:
            # Production defaults: 1-in-16 offers audited, 50 audits/s cap.
            # The rate cap is what bounds the worker's share of the
            # interpreter regardless of offered load, so the measured
            # overhead is dominated by the hot-path offer cost.
            auditor = AccuracyAuditor(engine)
        tier = AsyncServingEngine(engine, max_batch=len(waves[0]), batch_window=0.0)

        async def client(index: int) -> None:
            for wave in waves:
                await tier.execute(wave[index])

        try:
            async with tier:
                start = time.perf_counter()
                await asyncio.gather(*(client(i) for i in range(len(waves[0]))))
                return time.perf_counter() - start, tier.stats()
        finally:
            if auditor is not None:
                auditor.stop()

    return asyncio.run(run())


def paired_speedup(catalog, waves, rounds: int = 3):
    """Interleaved sequential / async rounds; the median per-round ratio.

    Machine-state drift (frequency scaling, co-tenant load) moves both
    paths of a round together, so pairing the measurements and taking the
    median ratio is far more stable than comparing two independent
    best-of-N numbers.
    """
    n_requests = sum(len(wave) for wave in waves)
    ratios = []
    best_seq = best_async = float("inf")
    stats = None
    for _ in range(rounds):
        seq_seconds = _sequential_seconds(catalog, waves)
        async_seconds, run_stats = _async_tier_seconds(catalog, waves)
        ratios.append(seq_seconds / async_seconds)
        best_seq = min(best_seq, seq_seconds)
        if async_seconds < best_async:
            best_async, stats = async_seconds, run_stats
    return (
        float(np.median(ratios)),
        n_requests / best_seq,
        n_requests / best_async,
        stats,
    )


def obs_overhead_pct(catalog, waves, rounds: int = 6) -> float:
    """Overhead (%) of full instrumentation over the no-op path, best-of-N.

    Each round runs the same closed-loop workload through the async tier
    both ways — once on the shared disabled :class:`Observability`
    singleton (the default), once with live metrics + tracing + query
    logging — alternating which goes first so warm-up and frequency drift
    cannot systematically favor either side.  The reported figure is the
    ratio of the best instrumented round to the best plain round:
    machine noise only ever *adds* time, so best-of-N (``timeit``'s
    estimator) converges on the true cost where a median of noisy pairs
    wanders.  The committed baseline plus the perf gate's 2x threshold cap
    the acceptable overhead at ~5%.
    """
    plain_times, instrumented_times = [], []
    for round_index in range(rounds):
        first_instrumented = bool(round_index % 2)
        for instrumented in (first_instrumented, not first_instrumented):
            obs = Observability() if instrumented else None
            seconds, _ = _async_tier_seconds(catalog, waves, obs=obs)
            (instrumented_times if instrumented else plain_times).append(seconds)
    return (min(instrumented_times) / min(plain_times) - 1.0) * 100.0


def audit_overhead_pct(catalog, waves, rounds: int = 6) -> float:
    """Overhead (%) of an attached accuracy auditor, best-of-N.

    Same estimator as :func:`obs_overhead_pct`: order-alternated rounds of
    the closed-loop workload with and without an auditor attached, best
    audited round over best plain round.  The measured cost is the hot-path
    offer (one lock + integer arithmetic per miss) plus whatever read-lock
    time the background worker's exact recomputations steal from serving —
    admission control and the rate limit are what keep that bounded.
    """
    plain_times, audited_times = [], []
    for round_index in range(rounds):
        first_audited = bool(round_index % 2)
        for audited in (first_audited, not first_audited):
            seconds, _ = _async_tier_seconds(catalog, waves, audit=audited)
            (audited_times if audited else plain_times).append(seconds)
    return (min(audited_times) / min(plain_times) - 1.0) * 100.0


def open_loop_rows(catalog, spec, capacity_qps: float, tiny: bool) -> list[dict]:
    """p50 / p99 latency vs offered load (Poisson) plus the adversarial case."""
    rng = np.random.default_rng(7)
    times = spec.table.column(spec.default_predicate_column)
    low, high = float(times.min()), float(times.max())
    pool = []
    for _ in range(512 if not tiny else 192):
        a, b = sorted(rng.uniform(low, high, size=2))
        pool.append(
            AggregateQuery(
                AGGS[int(rng.integers(len(AGGS)))],
                spec.value_column,
                RectPredicate.from_bounds(time=(float(a), float(b))),
            )
        )
    n_requests = 1536 if tiny else 4096
    rows = []
    for arrival, fraction in [
        ("poisson", 0.25),
        ("poisson", 0.5),
        ("poisson", 0.9),
        ("adversarial", 0.9),
    ]:
        rate = capacity_qps * fraction
        engine = ServingEngine(catalog, cache_size=0)
        tier = AsyncServingEngine(engine, max_batch=N_CLIENTS, batch_window=0.0005)
        report = evaluate_async_workload(
            tier,
            pool,
            rate=rate,
            n_requests=n_requests,
            arrival=arrival,
            duplicate_ratio=DUPLICATE_RATIO,
            seed=11,
        )
        rows.append(
            {
                "arrival": arrival,
                "offered_qps": report.offered_qps,
                "achieved_qps": report.achieved_qps,
                "p50_ms": report.p50_latency_ms,
                "p99_ms": report.p99_latency_ms,
                "coalesced": report.coalesced,
                "rejected": report.rejected,
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=N_ROWS, help="table size")
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="CI smoke configuration: a few thousand rows, seconds of runtime",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the speedup floor and the <=5%% overheads (exit 1 on failure)",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="OUT",
        help="write perf-gate metrics (see benchmarks/perf_gate.py) to OUT",
    )
    args = parser.parse_args(argv)
    n_rows = 20_000 if args.tiny else args.rows
    n_partitions = 32 if args.tiny else 64
    n_waves = N_WAVES if args.tiny else 2 * N_WAVES

    print(f"building catalog over {n_rows:,} rows ...")
    spec, catalog = _build_catalog(n_rows, n_partitions)
    waves = wave_workload(spec, N_CLIENTS, n_waves, DUPLICATE_RATIO)

    # A short warm-up stabilizes lazy one-time costs (tree geometry, numpy
    # dispatch paths) outside the timed rounds.
    _sequential_seconds(catalog, waves[:2])
    _async_tier_seconds(catalog, waves[:2])
    speedup, seq_qps, tier_qps, stats = paired_speedup(catalog, waves)
    print(
        f"sequential execute: {seq_qps:,.0f} q/s | async tier "
        f"({N_CLIENTS} clients, dup {DUPLICATE_RATIO}): {tier_qps:,.0f} q/s | "
        f"speedup {speedup:.2f}x"
    )
    print(
        f"  coalesced {stats.coalesced} requests, "
        f"{stats.scheduler.batches} micro-batches "
        f"(mean size {stats.scheduler.mean_batch_size:.1f})"
    )

    # Overhead is a small difference between two noisy wall-clock numbers;
    # a longer request stream than the speedup rounds need makes the
    # per-run constant costs (thread-pool spin-up, first-batch warm paths)
    # negligible against the measured region.
    overhead_waves = wave_workload(spec, N_CLIENTS, 4 * N_WAVES, DUPLICATE_RATIO, seed=1)
    overhead_pct = obs_overhead_pct(catalog, overhead_waves)
    print(
        f"observability overhead (metrics + traces + query log vs no-op): "
        f"{overhead_pct:+.2f}%"
    )
    audit_pct = audit_overhead_pct(catalog, overhead_waves)
    print(
        f"accuracy-audit overhead (1-in-16 sampling, rate-capped background "
        f"exact recompute vs none): {audit_pct:+.2f}%"
    )

    print("open-loop latency (offered load as a fraction of async capacity):")
    rows = open_loop_rows(catalog, spec, tier_qps, args.tiny)
    for row in rows:
        print(
            f"  {row['arrival']:<12} offered {row['offered_qps']:>8,.0f} q/s | "
            f"achieved {row['achieved_qps']:>8,.0f} q/s | "
            f"p50 {row['p50_ms']:6.2f} ms | p99 {row['p99_ms']:6.2f} ms | "
            f"coalesced {row['coalesced']:>5} | rejected {row['rejected']}"
        )

    if args.json:
        metrics = {
            "async_serving_speedup_dup50": {"value": speedup, "direction": "higher"},
            "async_serving_tier_qps": {"value": tier_qps, "direction": "higher"},
            # Clamped at a small positive floor so the perf gate's
            # multiplicative threshold stays meaningful when a lucky run
            # measures ~0% (or negative) overhead.
            "obs_overhead_pct": {
                "value": max(overhead_pct, 0.5),
                "direction": "lower",
            },
            "audit_overhead_pct": {
                "value": max(audit_pct, 0.5),
                "direction": "lower",
            },
        }
        Path(args.json).write_text(json.dumps({"metrics": metrics}, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.check:
        failed = False
        if speedup < SPEEDUP_FLOOR:
            print(
                f"CHECK FAILED: async tier speedup {speedup:.2f}x < "
                f"{SPEEDUP_FLOOR}x "
                f"(sequential {seq_qps:,.0f} q/s, async {tier_qps:,.0f} q/s)"
            )
            failed = True
        if overhead_pct > 5.0:
            print(
                f"CHECK FAILED: observability overhead {overhead_pct:.2f}% > 5.0%"
            )
            failed = True
        if audit_pct > 5.0:
            print(f"CHECK FAILED: audit overhead {audit_pct:.2f}% > 5.0%")
            failed = True
        if failed:
            return 1
        print(
            f"check passed: {speedup:.2f}x >= {SPEEDUP_FLOOR}x, "
            f"obs overhead {overhead_pct:+.2f}% <= 5.0%, "
            f"audit overhead {audit_pct:+.2f}% <= 5.0%"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
