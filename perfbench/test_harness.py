"""Tests for the benchmark's own harness.

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import gc
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["compile", 1.0, 4.0, 0, 0],
        ["lex", 2.0, 3.0, 1, 0],
        ["mutate", 5.0, 7.0, 0, 0],
        # Reaches past its parent's end: only the covered part counts.
        ["lex", 6.5, 7.5, 3, 0],
    ]
    self_s = tracing.self_times(spans)
    assert self_s["op"] == 10.0 - 3.0 - 2.0
    assert self_s["compile"] == 3.0 - 1.0
    assert self_s["mutate"] == 2.0 - 0.5
    assert self_s["lex"] == 1.0 + 1.0


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 401)]
    random.Random(0).shuffle(samples)
    # Enough samples: the fixed percentile, with 20 samples beyond it.
    assert run.tail(samples) == (380.0, run.TAIL_PCT)
    # p95 of 100 samples has only 5 beyond it: fall back to the highest
    # percentile with ten beyond.
    value, pct = run.tail(samples[:100])
    assert sum(s > value for s in samples[:100]) == 10
    assert pct == 90.0
    value, pct = run.tail([float(i) for i in range(1, 13)])
    assert (value, pct) == (2.0, 100.0 * 2 / 12)
    # Too few samples for any percentile: the maximum, at 100.
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _fake_worker(digests):
    """A stand-in for the campaign subprocess: one fake report per call."""
    calls = iter(digests)

    def worker(args):
        return {
            "k": args["k"], "latencies": [0.01] * 40,
            "kernel_s": [run.CAL_REF_S] * 40, "setup_kernel_s": run.CAL_REF_S,
            "failed": 0, "digest": next(calls), "peak_rss_mb": 30.0,
            "ready_at": 1.5,
        }, 1.0

    return worker


def test_digest_mismatch_counts_every_op_failed(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "DIGESTS", HERE / "absent.json")
    good = {"coverage": 5, "pool": 2, "crashes": []}
    bad = {"coverage": 6, "pool": 2, "crashes": []}
    # Campaign 0 runs twice; its replay disagrees.
    monkeypatch.setattr(run, "_worker", _fake_worker([good, bad, good]))
    result = run.run("csmith-clang", 1, 0.0, trace=False)
    assert result["correct"] is False
    assert result["attempted"] == run.MIN_CAMPAIGNS * 40
    assert result["failed"] == result["attempted"]

    monkeypatch.setattr(run, "_worker", _fake_worker([good] * 3))
    result = run.run("csmith-clang", 1, 0.0, trace=False)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["setup_s"]["value"] == 0.5
    assert abs(result["metrics"]["ops_per_s"]["value"] - 100.0) < 1e-9


def test_recorded_digest_mismatch_fails_the_check():
    good = {"coverage": 5, "pool": 2, "crashes": []}
    campaigns = [{"k": 0, "failed": 0, "digest": good}] * 2
    golden = {"csmith-clang": {"1": {**good, "coverage": 4}}}
    problems = run.outcome_problems("csmith-clang", 1, campaigns, golden)
    assert len(problems) == 1 and "recorded" in problems[0]
    assert run.outcome_problems("csmith-clang", 2, campaigns, golden) == []


def test_wrappers_count_calls_and_are_restored_after_a_traced_run():
    from repro.cast.lexer import Lexer
    from repro.compiler.driver import Compiler
    from repro.fuzzing.baselines.csmith import CsmithSim
    from repro.metamut import refinement, validation
    from repro.muast import mutator

    runner = workloads.setup(
        "csmith-clang", workloads.campaign_seed("csmith-clang", 3, 0)
    )
    before_classes = {
        (cls, name): vars(cls).get(name)
        for cls, name in (
            (Lexer, "tokens"), (Lexer, "tokens_best_effort"),
            (Compiler, "compile"), (CsmithSim, "step"),
        )
    }
    bindings = {
        mod: mod.apply_mutator for mod in (mutator, validation)
    }
    validate = refinement.validate_implementation
    callbacks = list(gc.callbacks)

    tracer = tracing.Tracer()
    tracing.install_library_wrappers(tracer, CsmithSim)
    tracer.install_gc()
    try:
        # By-name imports are patched in each importing module.
        assert validation.apply_mutator is not bindings[validation]
        assert refinement.validate_implementation is not validate
        runner.run(2, lambda: None)
    finally:
        tracer.restore()

    assert tracer.calls["fuzzing.step"] == 2
    assert tracer.calls["compiler.compile"] == 2
    assert tracer.calls["fuzzing.progen"] == 2
    assert tracer.calls["cast.lexer"] >= 2
    raw = tracer.raw(runner.counters(), wall_s=1.0)
    assert tracing.missing_layers("csmith-clang", raw) == []
    assert "llm.client" in tracing.missing_layers("metamut-unsupervised", raw)
    for (cls, name), original in before_classes.items():
        assert vars(cls).get(name) is original
    for mod, original in bindings.items():
        assert mod.apply_mutator is original
    assert refinement.validate_implementation is validate
    assert gc.callbacks == callbacks
