"""The benchmark's workloads, driven through the library's public API.

A run of a workload is a sequence of short, independent *campaigns*.  An
*op* is one ``Fuzzer.step`` for the fuzz workloads and one
``MetaMut.generate_one`` invocation for ``metamut-unsupervised``; a
campaign is ``CAMPAIGN_OPS`` ops from a freshly built fuzzer (or one
``MetaMut.run_unsupervised`` call).  Campaign ``k`` of seed ``s`` draws
every random choice from ``campaign_seed(workload, s, k)``: the fuzzer's
RNG stream, hence its parent picks, mutator orders, mutants, generated
programs and LLM invocations.  The same seed gives the same campaigns.

Why many short campaigns rather than one long one: a μCFuzz pool evolves
chaotically, so the cost of steps 500-600 differs between two RNG streams
by up to 2.5x, while the first hundred steps cost nearly the same.  The
median over many campaigns is steady across seeds.

The seed pools are the library's deterministic seed corpus
(``generate_seeds``), fixed like the paper's test-suite seeds; the seed
varies the campaigns run on them.

``macro-clang`` is defined here and runs like the others, but is not in
``BENCHMARK.json``: each step samples its -O level and flags, so its op
latencies are multimodal, and within the benchmark's time budget its
median and tail latency still moved by about 15% between seeds.

This module imports ``repro`` only inside functions, so the parent process
of the benchmark reads the workload names without the library.
"""

from __future__ import annotations

import random
import time

#: Workload name -> ops per campaign.
CAMPAIGN_OPS = {
    "ucfuzz-s-gcc": 50,
    "csmith-clang": 20,
    "macro-clang": 30,
    "metamut-unsupervised": 25,
}
WORKLOADS = tuple(CAMPAIGN_OPS)
#: Workloads with a from-scratch reference path -> steps of campaign 0
#: cross-checked against it.
REFERENCE_OPS = {"ucfuzz-s-gcc": 30}

UCFUZZ_POOL = 40
MACRO_POOL = 120


def production_path() -> dict:
    """The production compile path's ``make_fuzzer`` switches.

    Kept in one place: when the library makes this path its default, only
    this function changes.
    """
    return {
        "session": True,
        "fuse_passes": True,
        "flat_ir": True,
        "flat_native": True,
        "batch_compile": True,
    }


def campaign_seed(workload: str, seed: int, k: int) -> str:
    """The RNG seed of campaign ``k`` of a run with ``seed``."""
    return f"{workload}:{seed}:{k}"


class FuzzRunner:
    """Steps one fuzzer and tracks what the digest needs."""

    def __init__(self, fuzzer) -> None:
        self.fuzzer = fuzzer
        self.crash_ids: set[str] = set()

    def run(self, n: int, between) -> list[tuple[float, float]]:
        """Run ``n`` ops, calling ``between()`` before each.

        Returns each op's (start, latency) in ``perf_counter`` seconds.
        """
        timed = []
        for _ in range(n):
            between()
            t0 = time.perf_counter()
            result = self.fuzzer.step().result
            timed.append((t0, time.perf_counter() - t0))
            if result.crashed:
                bug = result.crash if result.crash is not None else result.hang
                self.crash_ids.add(bug.bug_id)
        return timed

    def digest(self) -> dict:
        return {
            "coverage": len(self.fuzzer.coverage),
            "pool": len(getattr(self.fuzzer, "pool", ())),
            "crashes": sorted(self.crash_ids),
        }

    def counters(self) -> dict:
        """The fuzzer's cache, session and compiler counters, for the trace."""
        fuzzer = self.fuzzer
        compiler = fuzzer.compiler
        cache = getattr(fuzzer, "cache", None)
        session = compiler.session
        return {
            "cache": cache.stats() if cache is not None else {},
            "session": session.stats() if session is not None else {},
            "stage_s": dict(compiler.stage_timings),
            "bridge": {
                "encodes": compiler.bridge.encodes,
                "decodes": compiler.bridge.decodes,
            },
        }


class MetaMutRunner:
    """One ``MetaMut.run_unsupervised`` campaign; each invocation is an op."""

    def __init__(self, rng: random.Random) -> None:
        from repro.metamut.pipeline import MetaMut

        self.metamut = MetaMut()
        self.seed = rng.randrange(1 << 62)
        self.campaign = None
        self._timed: list[tuple[float, float]] = []
        self._between = None
        metamut = self.metamut

        def timed(*args, **kwargs):
            self._between()
            t0 = time.perf_counter()
            try:
                # Looked up on the class per call, so a traced run's
                # wrapper sees the invocation too.
                return type(metamut).generate_one(metamut, *args, **kwargs)
            finally:
                self._timed.append((t0, time.perf_counter() - t0))

        # run_unsupervised looks generate_one up on the instance, so this
        # shim times every invocation.
        metamut.generate_one = timed

    def run(self, n: int, between) -> list[tuple[float, float]]:
        self._timed = []
        self._between = between
        self.campaign = self.metamut.run_unsupervised(invocations=n, seed=self.seed)
        return self._timed

    def digest(self) -> dict:
        campaign = self.campaign
        ledger = campaign.ledger.records
        statuses: dict[str, int] = {}
        for record in campaign.records:
            statuses[record.status] = statuses.get(record.status, 0) + 1
        return {
            "statuses": dict(sorted(statuses.items())),
            "invalid": dict(sorted(campaign.invalid_census().items())),
            "api_errors": campaign.api_errors,
            "ledger": {
                "mutators": len(ledger),
                "tokens": sum(cost.total_tokens for cost in ledger),
                "rounds": sum(cost.total_rounds for cost in ledger),
                "seconds": round(sum(cost.total_seconds for cost in ledger), 6),
            },
        }

    def counters(self) -> dict:
        return {"cache": {}, "session": {}, "stage_s": {}, "bridge": {}}


def setup(workload: str, seed: str):
    """Build one campaign's runner; ``seed`` is its ``campaign_seed``."""
    import repro.mutators  # noqa: F401  (populates the mutator registry)
    from repro.compiler.driver import CLANG_SIM, GCC_SIM, Compiler
    from repro.fuzzing.campaign import make_fuzzer
    from repro.fuzzing.macro import MacroFuzzer
    from repro.fuzzing.seedgen import generate_seeds
    from repro.muast.registry import global_registry

    rng = random.Random(seed)
    if workload == "ucfuzz-s-gcc":
        return FuzzRunner(make_fuzzer(
            "uCFuzz.s", Compiler(*GCC_SIM), generate_seeds(UCFUZZ_POOL),
            global_registry, rng, **production_path(),
        ))
    if workload == "csmith-clang":
        return FuzzRunner(make_fuzzer(
            "Csmith", Compiler(*CLANG_SIM), [], global_registry, rng,
        ))
    if workload == "macro-clang":
        return FuzzRunner(MacroFuzzer(
            Compiler(*CLANG_SIM), rng, generate_seeds(MACRO_POOL),
            list(global_registry),
        ))
    if workload == "metamut-unsupervised":
        return MetaMutRunner(rng)
    raise ValueError(f"unknown workload {workload!r}")


def reference_mismatch(workload: str, seed: int) -> str | None:
    """Cross-check campaign 0's first steps against the from-scratch path.

    For ``ucfuzz-s-gcc`` the first ``REFERENCE_OPS`` steps run on the
    production path and again with no front-end cache and no compile
    session; coverage edges and pool programs must be identical.  Returns
    the first difference, or None.
    """
    from repro.compiler.driver import GCC_SIM, Compiler
    from repro.fuzzing.mucfuzz import MuCFuzz
    from repro.fuzzing.seedgen import generate_seeds
    from repro.muast.registry import global_registry

    c_seed = campaign_seed(workload, seed, 0)
    production = setup(workload, c_seed).fuzzer
    reference = MuCFuzz(
        Compiler(*GCC_SIM), random.Random(c_seed),
        generate_seeds(UCFUZZ_POOL), global_registry.supervised(),
        name="uCFuzz.s", use_cache=False,
    )
    for _ in range(REFERENCE_OPS[workload]):
        production.step()
        reference.step()
    if production.coverage.edges != reference.coverage.edges:
        return (
            f"coverage {len(production.coverage)} != reference "
            f"{len(reference.coverage)}"
        )
    if [e.text for e in production.pool.entries] != [
        e.text for e in reference.pool.entries
    ]:
        return f"pool {len(production.pool)} != reference {len(reference.pool)}"
    return None
