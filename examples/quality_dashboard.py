"""Quality dashboard: online accuracy auditing, bound calibration, and drift.

Builds a serving deployment with an :class:`~repro.obs.audit.AccuracyAuditor`
attached, serves a workload matching the build-time assumptions, then shifts
traffic to a hot corner of the key space and streams extremum deletions.
The quality layer turns all of that into numbers:

1. per-synopsis scorecards — audited relative error percentiles,
   certified-bound coverage (must stay 1.0: the bounds are *hard*),
   bound-tightness ratio, and staleness gauges;
2. workload-drift scores against the build-time fingerprint, with the hot
   ranges traffic moved into;
3. the catalog health rollup (``healthy`` / ``degraded`` / ``violating``)
   that a scraper alerts on via ``repro_quality_health``.

Run with::

    python examples/quality_dashboard.py

``--check`` switches to CI mode: no dumps, strict assertions on coverage,
drift and staleness signals, exposition validity, non-zero exit on any
violation.  ``--json PATH`` writes the full quality report (scorecards,
drift reports, health) as JSON — the nightly pipeline archives this.
"""

import argparse
import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.config import PASSConfig
from repro.core.updates import DynamicPASS
from repro.data.table import Table
from repro.obs import Observability, validate_exposition
from repro.obs.audit import AccuracyAuditor
from repro.obs.drift import WorkloadDriftDetector, WorkloadFingerprint
from repro.query.predicate import RectPredicate
from repro.query.query import AggregateQuery
from repro.serving import AsyncServingEngine, ServingEngine, SynopsisCatalog

N_ROWS = 20_000
TIME_DOMAIN = (0.0, 100.0)
N_MATCHED = 48
N_SHIFTED = 96
N_STAMPEDE = 24
DRIFT_THRESHOLD = 0.35


def build_engine(obs: Observability) -> ServingEngine:
    rng = np.random.default_rng(7)
    table = Table(
        {
            "time": rng.uniform(*TIME_DOMAIN, size=N_ROWS),
            "power": np.abs(rng.normal(40.0, 12.0, size=N_ROWS)),
        },
        name="sensors",
    )
    synopsis = DynamicPASS(
        table,
        "power",
        ["time"],
        PASSConfig(n_partitions=32, sample_rate=0.02, opt_sample_size=400, seed=0),
    )
    catalog = SynopsisCatalog()
    catalog.register("sensors_power", synopsis, table_name="sensors")
    catalog.register_table(table)
    return ServingEngine(catalog, obs=obs)


def matched_queries(rng: np.random.Generator, count: int) -> list[AggregateQuery]:
    """Broad ranges across the whole domain — the build-time traffic shape."""
    queries = []
    for _ in range(count):
        low = float(rng.uniform(0.0, 70.0))
        span = float(rng.uniform(10.0, 30.0))
        predicate = RectPredicate.from_bounds(time=(low, low + span))
        queries.append(AggregateQuery("SUM", "power", predicate))
    return queries


def shifted_queries(rng: np.random.Generator, count: int) -> list[AggregateQuery]:
    """Narrow ranges crammed into the top decile — drifted traffic."""
    queries = []
    for _ in range(count):
        low = float(rng.uniform(90.0, 98.0))
        predicate = RectPredicate.from_bounds(time=(low, low + 1.5))
        queries.append(AggregateQuery("SUM", "power", predicate))
    return queries


async def serve_workload(
    engine: ServingEngine, auditor: AccuracyAuditor
) -> WorkloadFingerprint:
    """Matched phase, then drifted phase with streaming extremum deletions."""
    rng = np.random.default_rng(11)
    matched = matched_queries(rng, N_MATCHED)
    baseline = WorkloadFingerprint.from_boxes(
        [query.predicate.canonical_key() for query in matched],
        {"time": TIME_DOMAIN},
    )
    table = engine.catalog.exact_engine("sensors").table
    times = table.column("time")
    powers = table.column("power")
    async with AsyncServingEngine(engine, batch_window=0.002) as tier:
        await asyncio.gather(*(tier.execute(q) for q in matched))
        # A stampede: the coalesced leader's offer carries the joiner weight.
        hot = matched[0]
        await asyncio.gather(*(tier.execute(hot) for _ in range(N_STAMPEDE)))
        # Drifted traffic plus deletions of the current power extrema — the
        # deletions leave MIN/MAX node stats conservative, which the
        # extrema-staleness gauge surfaces without any warning capture.
        order = np.argsort(powers)[::-1]
        for index in order[:3]:
            await tier.delete(
                "sensors_power",
                {"time": float(times[index]), "power": float(powers[index])},
            )
        await asyncio.gather(
            *(tier.execute(q) for q in shifted_queries(rng, N_SHIFTED))
        )
    auditor.flush()
    return baseline


def quality_report(
    obs: Observability, engine: ServingEngine, baseline: WorkloadFingerprint
) -> dict:
    """Scorecards + drift reports + health, JSON-ready."""
    detector = WorkloadDriftDetector(
        {"sensors_power": baseline},
        quality=obs.quality,
        threshold=DRIFT_THRESHOLD,
    )
    reports = detector.observe(obs.query_log)
    return {
        "health": engine.health(),
        "quality": obs.quality.snapshot(),
        "drift": {name: report.as_dict() for name, report in reports.items()},
    }


def check(report: dict, obs: Observability) -> int:
    """CI mode: assert every quality signal fired; 0 on success."""
    failures: list[str] = []
    card = report["quality"]["scorecards"].get("sensors_power")
    if card is None:
        failures.append("no scorecard for sensors_power")
        card = {}
    if card.get("audits", 0) <= 0:
        failures.append("auditor recorded no audits")
    if card.get("bound_violations", 0) != 0:
        failures.append(f"bound violations: {card.get('bound_violations')}")
    coverage = card.get("coverage_rate")
    if coverage != 1.0:
        failures.append(f"certified-bound coverage {coverage!r} != 1.0")
    if card.get("extrema_staleness", 0.0) <= 0.0:
        failures.append("extremum deletions did not raise extrema_staleness")
    drift = report["drift"].get("sensors_power", {})
    if drift.get("score", 0.0) < DRIFT_THRESHOLD:
        failures.append(f"drift score {drift.get('score')} below threshold")
    if not drift.get("recommend_rebuild"):
        failures.append("drifted workload did not trigger a rebuild recommendation")
    if report["health"]["status"] == "healthy":
        failures.append("health rollup stayed healthy despite drift + staleness")
    if report["health"]["status"] == "violating":
        failures.append("health rollup reports bound violations")

    try:
        families = validate_exposition(obs.prometheus_text())
    except Exception as exc:  # noqa: BLE001 - report, don't crash CI opaquely
        families = {}
        failures.append(f"exposition invalid: {exc}")
    for family in (
        "repro_quality_audits_total",
        "repro_quality_bound_violations_total",
        "repro_quality_coverage_rate",
        "repro_quality_error_p95",
        "repro_quality_drift_score",
        "repro_quality_health",
        "repro_audit_sampled_total",
        "repro_audit_rel_error",
        "repro_synopsis_staleness",
    ):
        if family not in families:
            failures.append(f"metric family missing from exposition: {family}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(
            f"quality check OK: {card['audits']} audits, coverage "
            f"{coverage}, drift {drift['score']:.3f}, "
            f"health {report['health']['status']}"
        )
    return 1 if failures else 0


def dump(report: dict) -> None:
    """Interactive mode: the quality report, human-readable."""
    print("=" * 72)
    print("Scorecards")
    print("=" * 72)
    for name, card in report["quality"]["scorecards"].items():
        print(f"{name}:")
        for key in sorted(card):
            print(f"  {key}: {card[key]}")
    print()
    print("=" * 72)
    print("Drift")
    print("=" * 72)
    for name, drift in report["drift"].items():
        print(json.dumps({name: drift}, indent=2))
    print()
    print(f"health rollup: {report['health']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: assert quality signals and exposition, exit non-zero",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the full quality report as JSON to PATH",
    )
    options = parser.parse_args()

    obs = Observability()
    engine = build_engine(obs)
    auditor = AccuracyAuditor(engine, sample_every=2, max_rate=None)
    try:
        baseline = asyncio.run(serve_workload(engine, auditor))
        report = quality_report(obs, engine, baseline)
    finally:
        auditor.stop()

    if options.json:
        Path(options.json).write_text(json.dumps(report, indent=2, default=str))
        print(f"wrote {options.json}")
    if options.check:
        return check(report, obs)
    dump(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
