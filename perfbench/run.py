"""The repository benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ucfuzz-s-gcc --seed 3 --seconds 40 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; the workloads
themselves live in ``workloads.py``.

A run is a sequence of short campaigns (see ``workloads.py``), each in a
fresh single-threaded subprocess (``worker.py``), one at a time, with the
garbage collector on as users run it.  ``--trace 0`` runs campaigns 0, 0,
1, 2, ... until ``--seconds`` have passed (at least three) and reports:

* ``ops_per_s`` -- the median over campaigns of ops completed per second;
* ``op_p50_ms`` -- the median latency over all ops of the run;
* ``op_tail_ms`` -- over the same ops, the 95th percentile, which must have
  at least ten samples beyond it (else the highest percentile that does is
  used; the percentile and sample count are printed);
* ``peak_rss_mb`` -- the median over campaigns of the subprocess's
  ``ru_maxrss``;
* ``setup_s`` -- the median over campaigns of the time from spawning the
  subprocess to a constructed fuzzer: interpreter start, imports, registry
  population, seed generation, construction.

Times are wall-clock times scaled to a reference host speed.  This host's
speed drifts by more than a third within seconds when other tenants load
it, which swamps the differences the benchmark must resolve (unscaled, the
same seed's ops/s varied by 30% between runs).  So every 50 ms, between ops
and outside their timers, each campaign times a fixed calibration kernel
(``worker.Calibrator``), and each op's time is multiplied by ``CAL_REF_S``
divided by the kernel time around it: the op's time on a host where the
kernel takes ``CAL_REF_S``.  The unscaled rate is printed beside
``ops_per_s``.

The error rate (failed / attempted ops) is printed, and carried in the
result line's ``attempted`` and ``failed``.

``--trace 1`` runs campaigns untraced for half of ``--seconds``, then the
same campaigns again under the layer wrappers of ``tracing.py``, and
reports the per-layer metrics summed over them (unscaled wall seconds),
``trace.unattributed_share`` and ``trace.overhead_ratio`` (scaled traced
ops/s divided by scaled untraced ops/s over the same ops).  Spans are
written to ``.perfbench_out/``.

Every run checks its outcome, outside the timed ops: campaign 0 runs twice
and both runs must reach the same digest, which must also equal the one
recorded in ``digests.json`` when the seed is recorded there; for
``ucfuzz-s-gcc`` a separate subprocess also cross-checks campaign 0's first
steps against the from-scratch reference path.  A failed check marks the
run incorrect and counts every op as failed.

The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent

MIN_CAMPAIGNS = 3
TAIL_PCT = 95.0
#: The calibration kernel's time on an unloaded host (2-core x86-64 VM,
#: CPython 3.11); times are reported in seconds of a host this fast.
CAL_REF_S = 0.006
DIGESTS = HERE / "digests.json"
SPANS_DIR = ".perfbench_out"
WORKER_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail latency.

    The percentile is fixed at ``TAIL_PCT`` (nearest rank), so two commits
    are compared at the same percentile even when one completes more ops in
    the same time.  It must have at least ten samples beyond it; when it
    does not, the highest percentile that does is used instead: the
    eleventh-largest sample.  With eleven samples or fewer, the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    i = min(n - 1, math.ceil(TAIL_PCT / 100 * n) - 1)
    if n - 1 - i >= 10:
        return ordered[i], TAIL_PCT
    if n <= 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def outcome_problems(
    workload: str, seed: int, reports: list[dict], golden: dict
) -> list[str]:
    """Every way the run's campaigns differ from what they must produce."""
    problems = []
    digests = []
    for report in reports:
        if report["failed"]:
            problems.append(f"campaign {report['k']}: {report['failed']} ops raised")
        elif report["k"] == 0:
            digests.append(report["digest"])
    if any(digest != digests[0] for digest in digests):
        problems.append(f"campaign 0 replays differ: {digests}")
    recorded = golden.get(workload, {}).get(str(seed))
    if recorded is not None and digests and digests[0] != recorded:
        problems.append(f"campaign 0 digest {digests[0]} != recorded {recorded}")
    return problems


def scaled_latencies(report: dict) -> list[float]:
    """A campaign's op latencies in reference-host seconds."""
    return [
        latency * CAL_REF_S / kernel_s
        for latency, kernel_s in zip(report["latencies"], report["kernel_s"])
    ]


def end_to_end(reports: list[dict], spawned_at: list[float]) -> tuple[dict, dict]:
    """(metrics, notes) of a run's untraced campaigns, in reference seconds."""
    scaled = [scaled_latencies(r) for r in reports]
    rates = [len(lat) / sum(lat) for lat in scaled]
    latencies = [lat for campaign in scaled for lat in campaign]
    tail_s, pct = tail(latencies)
    metrics = {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "setup_s": statistics.median(
            (r["ready_at"] - t) * CAL_REF_S / r["setup_kernel_s"]
            for r, t in zip(reports, spawned_at)
        ),
    }
    unscaled = statistics.median(
        len(r["latencies"]) / sum(r["latencies"]) for r in reports
    )
    notes = {
        "ops_per_s": f"{len(reports)} campaigns; unscaled {unscaled:.2f}",
        "op_tail_ms": f"p{pct:.2f} of n={len(latencies)}, "
        f"{sum(lat > tail_s for lat in latencies)} beyond",
    }
    return metrics, notes


def _worker(args: dict) -> tuple[dict, float]:
    """Run one worker subprocess; (its report, when it was spawned)."""
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    spawned_at = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(args)],
            capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout}s: {args}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"worker failed ({proc.returncode}): {args}\n{proc.stderr[-2000:]}"
        )
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned_at


def _campaigns(base: dict, seconds: float) -> tuple[list[dict], list[float]]:
    """Run campaigns for about ``seconds``; (reports, spawn times).

    A campaign starts only while more than half of an average campaign's
    time is left, so runs end close to ``seconds``.  The campaigns are 0, 0,
    1, 2, ...: campaign 0 runs twice, so every run checks that it replays to
    the same digest.
    """
    reports, spawned = [], []
    ks = itertools.chain((0,), itertools.count())
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(reports) >= MIN_CAMPAIGNS and (
            now + (now - start) / len(reports) / 2 >= start + seconds
        ):
            return reports, spawned
        report, at = _worker({**base, "mode": "campaign", "k": next(ks)})
        reports.append(report)
        spawned.append(at)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    base = {"workload": workload, "seed": seed}
    problems = []
    if workload in workloads.REFERENCE_OPS:
        mismatch = _worker({**base, "mode": "reference"})[0]["mismatch"]
        if mismatch:
            problems.append(f"reference path: {mismatch}")
    if trace:
        plain, _ = _campaigns(base, seconds / 2)
        traced = [
            _worker({
                **base, "mode": "campaign", "k": r["k"], "trace": True,
                "spans_out": f"{SPANS_DIR}/spans-{workload}-{seed}-{i}.jsonl",
            })[0]
            for i, r in enumerate(plain)
        ]
        reports = plain + traced
        raw = tracing.merge_raw([r["raw"] for r in traced])
        values = tracing.layer_metrics(raw)
        values["trace.overhead_ratio"] = sum(
            sum(scaled_latencies(r)) for r in plain
        ) / sum(sum(scaled_latencies(r)) for r in traced)
        declared = spec["per_layer"]
        notes = {"trace.overhead_ratio": f"{raw['spans']} spans recorded"}
        missing = tracing.missing_layers(workload, raw)
        if missing:
            problems.append(f"no calls recorded in {missing}")
    else:
        reports, spawned = _campaigns(base, seconds)
        values, notes = end_to_end(reports, spawned)
        declared = spec["end_to_end"]
    golden = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    problems += outcome_problems(workload, seed, reports, golden)
    attempted = sum(len(r["latencies"]) + r["failed"] for r in reports)
    failed = attempted if problems else sum(r["failed"] for r in reports)

    print(f"{workload} seed={seed} trace={int(trace)}: {len(reports)} campaigns")
    for metric in declared:
        name = metric["name"]
        note = notes.get(name, "")
        print(f"  {name:36} {values[name]:14.6g} {metric['unit']:6} {note}")
    print(f"  {'error_rate':36} {failed / attempted:14.6g} ratio  "
          f"({failed}/{attempted} ops)")
    print(f"  outcome: campaign 0 digest {reports[0]['digest']}")
    for problem in problems:
        print(f"  OUTCOME CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        print("error: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
