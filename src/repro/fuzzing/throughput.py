"""Fuzzing-throughput measurement: object-IR reference vs. flat-native arms.

The perf contract of the compile pipeline is measured here: the same μCFuzz
run (same compiler, seeds, RNG seed — hence an identical step sequence) is
executed three ways in one process:

* ``reference`` — the object-IR reference (``flat_native=False``), no
  front-end cache;
* ``cache_off`` — the flat-native middle end, cold: no front-end cache, no
  compile session;
* ``production`` — the warm path: flat-native with the front-end cache, the
  dirty-region front end and a persistent
  :class:`~repro.compiler.session.CompileSession` (cross-step middle-end
  memoization) behind batched per-step compilation; the object IR is never
  constructed on the hot path, gated by zero ``compiler.bridge`` decodes.

The steps/sec ratios, cache/session hit-rates, and per-stage timing
breakdown are written to ``BENCH_throughput.json`` so successive PRs
accumulate a perf trajectory.  All runs must land on identical final
coverage and pool sizes: the speedup changes no observable result.

Entry points:

* ``python benchmarks/bench_fuzzer_throughput.py`` — the full 600-step run;
* ``bench-smoke`` (``pyproject.toml`` script) / :func:`smoke_main` — a tiny
  step budget that asserts the caches are actually hitting (tier-2 CI);
* ``paranoid-smoke`` / :func:`paranoid_main` — a paranoid-mode run where
  every compile of the warm path is differentially checked against a cold
  object-IR compile; any divergence raises;
* :func:`paranoid_cold_main` — the same differential over cold,
  session-less compiles of fresh Csmith-style programs (the generator
  baselines' path), under both personalities.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import time
from pathlib import Path

#: Default step budget: the acceptance run of the ISSUE (600-step μCFuzz.s).
DEFAULT_STEPS = 600
DEFAULT_SEEDS = 40
DEFAULT_REPORT = "BENCH_throughput.json"

#: Every compile-pipeline stage any arm can hit.  Each arm's reported
#: ``stage_timings`` is zero-filled over this set so the per-arm schema is
#: uniform — an arm that never enters a stage reports 0.0 for it instead of
#: omitting the key (the historical asymmetry made cross-arm diffs fiddly).
STAGE_KEYS = (
    "lex",
    "parse",
    "sema",
    "frontend_incremental",
    "irgen",
    "opt",
    "backend",
    "session",
)


def _build_fuzzer(
    fuzzer_name: str,
    seeds: list[str],
    seed: int,
    use_cache: bool,
    *,
    flat_native: bool,
    paranoid: bool = False,
    cache_maxsize: int | None = None,
):
    # ``flat_native`` has no default: every arm names its middle end.
    import repro.mutators  # noqa: F401  (populate the registry)
    from repro.compiler.driver import Compiler, GCC_SIM
    from repro.fuzzing.mucfuzz import MuCFuzz
    from repro.muast.registry import global_registry

    compiler = Compiler(*GCC_SIM)
    mutators = (
        global_registry.unsupervised()
        if fuzzer_name == "uCFuzz.u"
        else global_registry.supervised()
    )
    return MuCFuzz(
        compiler,
        random.Random(seed),
        seeds,
        mutators,
        name=fuzzer_name,
        use_cache=use_cache,
        cache_maxsize=cache_maxsize,
        paranoid=paranoid,
        flat_native=flat_native,
    )


def _time_run(fuzzer, steps: int) -> dict:
    # GC pauses scale with total retained heap, which grows over the
    # process's lifetime — they would bill the later run for the earlier
    # run's garbage.  Collect up front, then keep GC out of the timed loop.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(steps):
            fuzzer.step()
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    stats = fuzzer.stats_snapshot()
    profile = fuzzer.profile_snapshot()
    # Uniform per-arm schema: zero-fill the full stage-key set (an arm that
    # never entered a stage reports 0.0, not a missing key).
    observed = profile["stage_timings"]
    profile["stage_timings"] = dict(
        sorted({**{stage: 0.0 for stage in STAGE_KEYS}, **observed}.items())
    )
    return {
        "steps": steps,
        "seconds": round(elapsed, 4),
        # None (not a fake 0.0) when the clock resolution swallowed the
        # run — ratio code skips it instead of dividing by a lie.
        "steps_per_sec": round(steps / elapsed, 2) if elapsed > 0 else None,
        "final_coverage": len(fuzzer.coverage),
        "pool_size": len(fuzzer.pool),
        "stats": stats,
        "profile": profile,
    }


#: The throughput arms, slowest path first: (label, use_cache, flat_native).
#: The cached arm is the warm path: dirty-region front end, compile session
#: and batched compilation.
ARMS = (
    ("reference", False, False),
    ("cache_off", False, True),
    ("production", True, True),
)


def measure_throughput(
    steps: int = DEFAULT_STEPS,
    fuzzer_name: str = "uCFuzz.s",
    n_seeds: int = DEFAULT_SEEDS,
    seed: int = 2024,
) -> dict:
    """Run the three :data:`ARMS`.

    All runs use the same RNG seed; neither the front-end cache, the
    session, nor the flat IR consumes fuzzer randomness (the batched step
    draws per attempt lazily), so they execute the identical step sequence
    and the comparison is apples-to-apples (also sanity-checked via final
    coverage and pool size, which must match exactly across all arms).
    """
    from repro.fuzzing.seedgen import generate_seeds

    seeds = generate_seeds(n_seeds)
    report: dict = {"fuzzer": fuzzer_name, "seed": seed, "n_seeds": n_seeds}
    for label, use_cache, flat_native in ARMS:
        fuzzer = _build_fuzzer(
            fuzzer_name, seeds, seed, use_cache, flat_native=flat_native
        )
        report[label] = _time_run(fuzzer, steps)
        # Read off the compiler: bridge crossings stay out of the stats.
        bridge = fuzzer.compiler.bridge
        report[label]["bridge"] = {
            "encodes": bridge.encodes, "decodes": bridge.decodes,
        }
    reference = report["reference"]
    for label, *_ in ARMS[1:]:
        assert (
            report[label]["final_coverage"] == reference["final_coverage"]
        ), f"{label} run changed fuzzing coverage"
        assert (
            report[label]["pool_size"] == reference["pool_size"]
        ), f"{label} run changed the mutant pool"

    def _ratio(a: "float | None", b: "float | None") -> "float | None":
        # None propagates: a timing too small to measure produces no ratio.
        if a is None or not b:
            return None
        return round(a / b, 3)

    for label, *_ in ARMS[1:]:
        report[f"speedup_{label}"] = _ratio(
            report[label]["steps_per_sec"], reference["steps_per_sec"]
        )
    report["speedup"] = report["speedup_production"]
    cached = report["production"]["stats"]
    report["cache_hit_rate"] = cached.get("cache_hit_rate", 0.0)
    report["incremental_hit_rate"] = _ratio(
        cached.get("cache_incremental_hits", 0),
        cached.get("cache_incremental_hits", 0)
        + cached.get("cache_incremental_fallbacks", 0),
    )
    report["session_hit_rate"] = cached.get("middle_session_hit_rate", 0.0)
    report["stage_timings"] = report["production"]["profile"]["stage_timings"]
    return report


def write_report(report: dict, path: str | Path = DEFAULT_REPORT) -> Path:
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def run(steps: int, output: str | Path, fuzzer_name: str = "uCFuzz.s") -> dict:
    report = measure_throughput(steps=steps, fuzzer_name=fuzzer_name)
    path = write_report(report, output)
    rates = " -> ".join(
        f"{report[label]['steps_per_sec']} ({label})" for label, *_ in ARMS
    )
    print(
        f"{report['fuzzer']}: {rates} steps/sec "
        f"(production speedup {report['speedup']}x over the reference, "
        f"production decodes {report['production']['bridge']['decodes']}, "
        f"cache hit-rate {report['cache_hit_rate']:.2%}, "
        f"session hit-rate {report['session_hit_rate']:.2%}) -> {path}"
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    parser.add_argument("--fuzzer", default="uCFuzz.s", choices=["uCFuzz.s", "uCFuzz.u"])
    parser.add_argument("--output", default=DEFAULT_REPORT)
    args = parser.parse_args(argv)
    run(args.steps, args.output, args.fuzzer)
    return 0


def smoke_main(argv: list[str] | None = None) -> int:
    """Tiny-budget CI smoke: the caches must be hitting on the hot path."""
    parser = argparse.ArgumentParser(description="bench-smoke")
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--output", default=DEFAULT_REPORT)
    args = parser.parse_args(argv)
    report = run(args.steps, args.output)
    if report["cache_hit_rate"] <= 0:
        raise SystemExit("bench-smoke: cache hit-rate is 0 on the hot path")
    production_stats = report["production"]["stats"]
    if production_stats.get("cache_incremental_hits", 0) <= 0:
        raise SystemExit("bench-smoke: incremental front end never hit")
    if production_stats.get("middle_session_hits", 0) <= 0:
        raise SystemExit("bench-smoke: the compile session never hit")
    # The bridge-elimination contract: a production run never decodes a
    # buffer back to object IR on the hot path.
    decodes = report["production"]["bridge"]["decodes"]
    if decodes != 0:
        raise SystemExit(
            "bench-smoke: the production arm crossed the IR bridge "
            f"({decodes} decodes)"
        )
    # Arm ordering: each layer must not make the pipeline slower.  A tiny
    # step budget is noisy, so the gate is a generous slack factor, not
    # strict monotonicity — it catches a de-optimized layer (2x
    # regressions), not jitter — and only applies once the budget is large
    # enough to amortize session/cache warmup (below ~40 steps the
    # memoizing arms legitimately trail while their stores are cold).
    slack = 0.7
    order = [label for label, *_ in ARMS]
    rates = [report[label]["steps_per_sec"] for label in order]
    if args.steps >= 40 and all(rate is not None for rate in rates):
        for i in range(1, len(order)):
            if rates[i] < rates[i - 1] * slack:
                raise SystemExit(
                    f"bench-smoke: {order[i]} arm ({rates[i]}/s) fell below "
                    f"{slack}x of the {order[i - 1]} arm ({rates[i - 1]}/s)"
                )
    return 0


def paranoid_main(argv: list[str] | None = None) -> int:
    """Differential smoke: every compile of the warm path is cross-checked.

    Runs μCFuzz with ``paranoid=True`` on the warm path — front-end cache,
    dirty-region front end, compile session and batched compilation.  Each
    compile is recompiled cold on the object-IR reference and compared
    field-for-field; any divergence raises
    :class:`~repro.cast.incremental.IncrementalDivergence` and fails the
    run.  Gating is on zero divergences, not on throughput.
    """
    parser = argparse.ArgumentParser(description="paranoid-smoke")
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)
    from repro.fuzzing.seedgen import generate_seeds

    seeds = generate_seeds(DEFAULT_SEEDS)
    fuzzer = _build_fuzzer(
        "uCFuzz.s", seeds, args.seed, True, paranoid=True, flat_native=True
    )
    for _ in range(args.steps):
        fuzzer.step()  # IncrementalDivergence propagates and fails the job
    stats = fuzzer.stats_snapshot()
    inc_hits = stats.get("cache_incremental_hits", 0)
    session_hits = stats.get("middle_session_hits", 0)
    print(
        f"paranoid-smoke: {args.steps} steps, 0 divergences, "
        f"{stats.get('cache_paranoid_checks', 0)} front-end checks, "
        f"{inc_hits} incremental front ends, "
        f"{session_hits} session replays"
    )
    if inc_hits <= 0:
        raise SystemExit(
            "paranoid-smoke: the incremental front end was never exercised"
        )
    if session_hits <= 0:
        raise SystemExit(
            "paranoid-smoke: the compile session was never exercised"
        )
    return 0


def paranoid_cold_main(argv: list[str] | None = None) -> int:
    """Differential smoke over cold generator compiles.

    Compiles ``--programs`` fresh Csmith-style programs per personality the
    way the generator baselines do — no cache, no session, the default
    buffer-native middle end — with ``paranoid=True``, so each compile is
    checked against a cold ``flat_native=False`` object-IR compile and any
    divergence raises.
    """
    parser = argparse.ArgumentParser(description="paranoid-cold-smoke")
    parser.add_argument("--programs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)
    from repro.compiler.driver import CLANG_SIM, GCC_SIM, Compiler
    from repro.fuzzing.baselines.csmith import CSMITH_POLICY
    from repro.fuzzing.progen import ProgramGenerator

    for personality in (GCC_SIM, CLANG_SIM):
        compiler = Compiler(*personality)
        if not compiler.flat_native:
            raise SystemExit("paranoid-cold-smoke: default is not flat-native")
        rng = random.Random(f"{args.seed}:{compiler.name}")
        ok = crashed = 0
        for _ in range(args.programs):
            program = ProgramGenerator(
                random.Random(rng.randrange(1 << 62)), CSMITH_POLICY
            ).generate()
            # IncrementalDivergence propagates and fails the job.
            result = compiler.compile(program, paranoid=True)
            ok += result.ok
            crashed += result.crashed
        print(
            f"paranoid-cold-smoke[{compiler.name}]: {args.programs} cold "
            f"generator compiles, 0 divergences, {ok} ok, {crashed} crashed"
        )
        if ok <= 0:
            raise SystemExit(
                f"paranoid-cold-smoke: no {compiler.name} compile reached "
                "the back end"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the bench script
    raise SystemExit(main())
