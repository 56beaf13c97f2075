"""One benchmark subprocess: set up one campaign, run it, report JSON.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 perfbench/worker.py '{"mode": "campaign", "workload": ..., ...}'

Modes:

* ``campaign`` -- run campaign ``k`` of ``seed``, timing each op; with
  ``trace`` set, run it under the layer wrappers of ``tracing.py``, write
  its spans to ``spans_out`` and report the raw per-layer counts;
* ``reference`` -- cross-check campaign 0's first steps against the
  from-scratch reference path (``workloads.reference_mismatch``).

Each campaign gets a fresh process because the library memoizes across
fuzzers (registry queries, mutator helpers), so a second campaign in the
same process would run warmer than the first.

Between ops, outside their timers, the worker samples the host's speed
with a fixed calibration kernel (see :class:`Calibrator`) and reports the
kernel time around each op; ``run.py`` scales the op's time by it.

The last line of standard output is the JSON report.
"""

from __future__ import annotations

import bisect
import gc
import json
import resource
import sys
import time
from pathlib import Path

import workloads


#: Wall seconds between two calibration samples.
CALIBRATE_EVERY_S = 0.05
#: Nodes of the calibration kernel's tree: a few megabytes, so the kernel
#: feels the host's cache pressure as the fuzzers' large heaps do.
CALIBRATION_NODES = 8000


def _calibration_kernel() -> int:
    """Fixed allocation- and dict-heavy work, shaped like an AST pass."""
    nodes = [
        {"kind": i % 7, "kids": [], "name": f"n{i}"}
        for i in range(CALIBRATION_NODES)
    ]
    for i in range(1, CALIBRATION_NODES):
        nodes[(i - 1) // 3]["kids"].append(nodes[i])
    seen = set()
    stack = [nodes[0]]
    total = 0
    while stack:
        node = stack.pop()
        total += node["kind"]
        seen.add(node["name"])
        stack.extend(node["kids"])
    return total


class Calibrator:
    """Samples how long the calibration kernel takes, between ops.

    The host's speed drifts by more than a third within seconds when other
    tenants load it, for this program and for the kernel alike.  Sampling
    every ``CALIBRATE_EVERY_S`` and averaging the samples on either side of
    an op gives the speed the op ran at.  The collector is off during a
    sample, so the program's collections are neither triggered nor billed
    by it; the kernel frees what it allocates.
    """

    def __init__(self) -> None:
        #: (perf_counter at start, seconds) per sample.
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")
        _calibration_kernel()  # untimed: the first run also faults in memory

    def sample(self) -> None:
        gc.disable()
        try:
            t0 = time.perf_counter()
            _calibration_kernel()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            gc.enable()
        self._last = time.perf_counter()

    def between(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()

    def kernel_s(self, start: float) -> float:
        """The kernel time around ``start``: the mean of the samples just
        before and just after it."""
        i = max(bisect.bisect_right(self.samples, (start,)) - 1, 0)
        j = min(i + 1, len(self.samples) - 1)
        return (self.samples[i][1] + self.samples[j][1]) / 2


def run_campaign(runner, ops: int) -> dict:
    """Run one campaign's ops; an op that raises counts as failed."""
    timed: list[tuple[float, float]] = []
    failed = 0
    calibrator = Calibrator()
    calibrator.sample()
    # A MetaMut campaign is one run_unsupervised call of all its ops.
    chunk = ops if isinstance(runner, workloads.MetaMutRunner) else 1
    while len(timed) + failed < ops:
        try:
            timed.extend(runner.run(chunk, calibrator.between))
        except Exception as exc:
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += chunk
    calibrator.sample()
    return {
        "latencies": [latency for _, latency in timed],
        "kernel_s": [calibrator.kernel_s(start) for start, _ in timed],
        "setup_kernel_s": calibrator.samples[0][1],
        "failed": failed,
        "digest": runner.digest() if not failed else None,
    }


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    workload, seed = args["workload"], args["seed"]
    if args["mode"] == "reference":
        print(json.dumps({"mismatch": workloads.reference_mismatch(workload, seed)}))
        return 0
    k = args["k"]
    ops = workloads.CAMPAIGN_OPS[workload]
    runner = workloads.setup(workload, workloads.campaign_seed(workload, seed, k))
    ready_at = time.time()
    if args.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        fuzzer = getattr(runner, "fuzzer", None)
        tracing.install_library_wrappers(
            tracer, type(fuzzer) if fuzzer is not None else None
        )
        tracer.install_gc()
        try:
            report = run_campaign(runner, ops)
        finally:
            tracer.restore()
        tracer.recorder.write(Path(args["spans_out"]))
        report["raw"] = tracer.raw(runner.counters(), sum(report["latencies"]))
    else:
        report = run_campaign(runner, ops)
    report["k"] = k
    report["ready_at"] = ready_at
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
