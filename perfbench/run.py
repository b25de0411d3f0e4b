#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of PASS serving (contract: BENCHMARK.json).

One run measures one workload::

    python3 perfbench/run.py --workload kernel_2d --seed 0 --seconds 10 --trace 0

It sets the program up (three times; ``setup_s`` is the median), warms it,
measures a closed-loop timed region of ``--seconds`` split into five passes,
verifies a sample of the answers, tears everything down, checks that nothing
leaked, prints every metric by name with its unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` (alias ``--traced``) wraps the harness's
span recorder around the public entry points of every layer and reports the
per-layer metrics instead, writing ``perfbench/out/trace_<workload>.json``.

Without ``--workload`` the whole suite runs, one child process per workload,
and the result set (with an environment manifest) is written to ``--out``.
``--compare A.json B.json`` checks two result sets against the bounds in
BENCHMARK.json.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: BLAS / OpenMP pools pinned to one thread, before numpy is imported (spawned
#: pool workers inherit the environment).
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_PINS:
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = ROOT / "BENCHMARK.json"
if not (ROOT / "src" / "repro").is_dir() or not CONTRACT.is_file():
    sys.exit(f"perfbench: {ROOT} holds no src/repro package and BENCHMARK.json to measure")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import atexit

#: Registered before multiprocessing registers its own exit handlers, so it
#: runs after them: the last thing on every path out, a failed run included.
#: Spawned pool workers import this file as ``__mp_main__`` and skip it.
if __name__ == "__main__":
    atexit.register(lambda: stop_processes())

import argparse
import dataclasses
import gc
import glob
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import threading
import time
from multiprocessing import resource_tracker

import numpy as np

import layers
from repro.obs import Observability
from tracing import SpanRecorder
from workloads import WORKLOADS

PASSES = 5
SETUP_REPEATS = 3
OUT_DIR = HERE / "out"
SHM_GLOB = "/dev/shm/pass-*"


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _leak_state() -> tuple[set[str], set[str]]:
    return set(glob.glob(SHM_GLOB)), {thread.name for thread in threading.enumerate()}


def _child_pids() -> list[int]:
    """Processes, running or unreaped, whose parent is this one (via /proc)."""
    me = str(os.getpid())
    children = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ..."; comm may itself hold spaces and ")".
            fields = Path(stat).read_text().rpartition(")")[2].split()
        except OSError:  # the process ended while we were looking
            continue
        if fields[1] == me:
            children.append(int(stat.split("/")[2]))
    return children


def stop_processes() -> list[int]:
    """Stop and wait for every process this run started; returns survivors.

    Runs after teardown, for the leak check, and again at exit.  Teardown has
    already closed the pool; what remains is multiprocessing's resource tracker, a helper
    process started beside the first shared-memory segment or spawned worker
    that otherwise ends only once this interpreter is gone — after the
    benchmark, as an orphan nobody waits for.  With every segment unlinked it
    tracks nothing, so closing its pipe ends it and it is waited for here.
    """
    for child in multiprocessing.active_children():  # only after a failure
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()
    return _child_pids()


def _leaks(before: tuple[set[str], set[str]]) -> list[str]:
    """What outlived teardown (the standard of tools/check_shutdown_leaks.py)."""
    segments_before, threads_before = before
    found = []
    children = multiprocessing.active_children()
    if children:
        found.append(f"live child processes: {children}")
    survivors = stop_processes()
    if survivors:
        found.append(f"processes still running after the resource tracker stopped: {survivors}")
    segments = set(glob.glob(SHM_GLOB)) - segments_before
    if segments:
        found.append(f"shared-memory segments: {sorted(segments)}")
    threads = [
        thread.name
        for thread in threading.enumerate()
        if thread.name not in threads_before and thread.name != "QueueFeederThread"
    ]
    if threads:
        found.append(f"threads: {threads}")
    return found


def _set_up(cls, seed: int, trace: bool):
    """Set the program up ``SETUP_REPEATS`` times; keep the last instance.

    Generating the inputs is the benchmark's work, not the program's, and is
    kept off the set-up clock.
    """
    requests = None
    times = []
    for repeat in range(SETUP_REPEATS):
        workload = cls()
        workload.obs = Observability() if trace else None
        start = time.perf_counter()
        workload.setup()
        built = time.perf_counter()
        if requests is None:
            requests = workload.generate(seed)
        workload.requests = requests
        generated = time.perf_counter()
        workload.warmup()
        times.append((built - start) + (time.perf_counter() - generated))
        if repeat < SETUP_REPEATS - 1:
            workload.teardown()
    return workload, times


def _pass_stats(results) -> dict:
    """Medians of the per-pass throughput, p50 and p99, with the pass values.

    The machine's speed drifts between passes; a median of per-pass values
    shrugs off one slow pass where a pooled percentile would report it.
    """
    stats: dict = {}
    per_pass = {
        "throughput_qps": [len(r.latencies) / r.elapsed for r in results],
        "latency_p50_us": [float(np.percentile(r.latencies, 50)) * 1e6 for r in results],
        "latency_p99_us": [float(np.percentile(r.latencies, 99)) * 1e6 for r in results],
    }
    for name, values in per_pass.items():
        stats[name] = statistics.median(values)
        stats[f"{name}_passes"] = values
    samples = sum(len(r.latencies) for r in results)
    stats["samples"] = samples
    stats["attempted"] = samples + sum(len(r.update_latencies) for r in results)
    stats["failed"] = sum(r.failed for r in results)
    return stats


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record (see module docstring)."""
    wall_start = time.perf_counter()
    leak_state = _leak_state()
    recorder = None
    if trace:
        recorder = SpanRecorder()
        layers.register_targets(recorder)
        recorder.install()  # before set-up, so builder spans are recorded
    workload, setup_times = _set_up(WORKLOADS[name], seed, trace)
    synopsis_bytes = workload.synopsis_bytes()
    if recorder:
        recorder.uninstall()
        setup_spans = recorder.take()

    gc.collect()
    pass_seconds = seconds / PASSES
    index = 0
    results = []
    layer_values: dict[str, float] = {}
    try:
        if not trace:
            for _ in range(PASSES):
                result, index = workload.run_pass(index, pass_seconds)
                results.append(result)
            stats = _pass_stats(results)
        else:
            # One untraced pass for the overhead, three traced passes; the
            # last fifth of the budget goes to the direct measurements.
            baseline, index = workload.run_pass(index, pass_seconds)
            before = layers.counters(workload)
            recorder.install()
            for _ in range(PASSES - 2):
                result, index = workload.run_pass(index, pass_seconds, recorder.request)
                results.append(result)
            recorder.uninstall()
            stats = _pass_stats(results)
            traced = layers.TracedRun(
                recorder=recorder,
                results=results,
                untraced_qps=len(baseline.latencies) / baseline.elapsed,
                before=before,
                setup_spans=setup_spans,
                setups=SETUP_REPEATS,
                next_index=index,
                pass_seconds=pass_seconds,
                out_dir=OUT_DIR,
            )
            layer_values = layers.collect(workload, traced)
            recorder.write(
                OUT_DIR / f"trace_{name}.json", name, traced.summary, traced.setup_summary
            )
        verification = workload.verify()
    finally:
        workload.teardown()
    leaks = _leaks(leak_state)
    for leak in leaks:
        print(f"perfbench: LEAK after teardown: {leak}", file=sys.stderr)

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "throughput_qps": stats["throughput_qps"],
        "latency_p50_us": stats["latency_p50_us"],
        "ci_coverage": verification.ci_coverage,
        "synopsis_bytes": synopsis_bytes,
        "peak_rss_mb": usage / 1024.0,
    }
    layer_values.update(
        {
            "verify.answers": verification.answers,
            "verify.mismatch_count": verification.mismatch_count,
            "verify.bound_violation_count": verification.bound_violation_count,
            "verify.median_rel_error": verification.median_rel_error,
            "bench.failed_frac": stats["failed"] / stats["attempted"],
            "bench.latency_p99_us": stats["latency_p99_us"],
        }
    )
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": verification.ok and not leaks,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "values": layer_values if trace else end_to_end,
        "detail": {
            "setup_s_runs": setup_times,
            **{key: value for key, value in stats.items() if key.endswith("_passes")},
            "latency_samples": stats["samples"],
            "pass_seconds": pass_seconds,
            "verification": dataclasses.asdict(verification),
            "leaks": leaks,
            "wall_s": time.perf_counter() - wall_start,
        },
    }


def result_line(record: dict, contract: dict) -> dict:
    """The driver's JSON object: every contracted metric, by name, with its unit."""
    values = record["values"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {
                "value": values.get(metric["name"], 0.0),
                "unit": metric["unit"],
            }
            for metric in contract["per_layer" if record["trace"] else "end_to_end"]
        },
    }


def print_metrics(record: dict, line: dict) -> None:
    detail = record["detail"]
    print(
        f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"samples={detail['latency_samples']} wall={detail['wall_s']:.1f}s "
        f"correct={record['correct']} failed={record['failed']}/{record['attempted']}"
    )
    for name, metric in line["metrics"].items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    for name in ("throughput_qps", "latency_p50_us", "latency_p99_us"):
        passes = detail[f"{name}_passes"]
        print(
            f"  {name} per pass: median {statistics.median(passes):.6g} "
            f"min {min(passes):.6g} max {max(passes):.6g}"
        )
    print(f"  verification: {detail['verification']}")


# ----------------------------------------------------------------------
# Suite and comparison
# ----------------------------------------------------------------------
def manifest(args) -> dict:
    """The environment a result set was measured in."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "thread_pins": {variable: os.environ[variable] for variable in THREAD_PINS},
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": args.seconds,
        "passes": PASSES,
        "pass_seconds": args.seconds / PASSES,
        "setup_repeats": SETUP_REPEATS,
    }


def run_suite(args) -> int:
    """Every workload in its own process (so ``peak_rss_mb`` is its own)."""
    runs = []
    failed = False
    for name in WORKLOADS:
        for seed in range(args.seed, args.seed + args.repeat):
            started = time.perf_counter()
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE,
                text=True,
            )
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0 or not lines:
                print(f"perfbench: {name} seed {seed} exited with {child.returncode}")
                failed = True
                if not lines or not lines[-1].startswith("{"):
                    continue
            run = json.loads(lines[-1])
            run.update(
                workload=name,
                seed=seed,
                trace=args.trace,
                wall_s=time.perf_counter() - started,
            )
            runs.append(run)
    out = Path(args.out or OUT_DIR / ("results_traced.json" if args.trace else "results.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"manifest": manifest(args), "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


def _spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median (needs two values)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """One row per (workload, end-to-end metric): ok / regressed / unresolved.

    ``B`` regresses when its median is worse than ``A``'s by more than the
    metric's bound; a pair whose run-to-run spread exceeds the bound is
    unresolved, not unchanged.  A run that failed verification regresses.
    """
    sets = []
    for path in (path_a, path_b):
        grouped: dict[tuple[str, str], list[float]] = {}
        document = json.loads(Path(path).read_text())
        for run in document["runs"]:
            if run["trace"]:
                continue
            for name, metric in run["metrics"].items():
                grouped.setdefault((run["workload"], name), []).append(metric["value"])
        sets.append((grouped, all(run["correct"] for run in document["runs"])))
    (a, a_correct), (b, b_correct) = sets
    regressed = not (a_correct and b_correct)
    if regressed:
        print("a run failed verification (correct = false)")
    print(f"{'workload':<16} {'metric':<16} {'A median':>14} {'B median':>14} "
          f"{'change':>8} {'spread':>8} {'bound':>6}  status")
    for metric in contract["end_to_end"]:
        for workload in WORKLOADS:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            median_a, median_b = statistics.median(a[key]), statistics.median(b[key])
            worse = (median_b - median_a) / abs(median_a) if median_a else 0.0
            if metric["better"] == "higher":
                worse = -worse
            spreads = [s for s in (_spread(a[key]), _spread(b[key])) if s is not None]
            spread = max(spreads) if spreads else 0.0
            if spread > metric["bound"]:
                status = "unresolved"
            elif worse > metric["bound"]:
                status = "regressed"
                regressed = True
            else:
                status = "ok"
            print(f"{workload:<16} {metric['name']:<16} {median_a:>14.6g} {median_b:>14.6g} "
                  f"{worse:>+8.1%} {spread:>8.1%} {metric['bound']:>6.0%}  {status}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed region (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite only: runs per workload, on seeds SEED, SEED+1, ...")
    parser.add_argument("--out", default=None, help="write the result set here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    contract = json.loads(CONTRACT.read_text())
    if args.compare:
        return compare(*args.compare, contract)
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload == "all":
        return run_suite(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(record, contract)
    print_metrics(record, line)
    if args.out:
        run = {**line, "workload": args.workload, "seed": args.seed, "trace": args.trace,
               "detail": record["detail"]}
        Path(args.out).write_text(
            json.dumps({"manifest": manifest(args), "runs": [run]}, indent=1) + "\n"
        )
    print(json.dumps(line), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
