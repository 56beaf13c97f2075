"""The common fuzzing loop contract.

A fuzzer produces one test program per ``step``; the campaign runner compiles
it, advances the virtual clock, feeds coverage back, and records crashes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cast.cache import DEFAULT_CACHE_SIZE, FrontendCache
from repro.compiler.driver import Compiler, CompileResult
from repro.compiler.coverage import CoverageMap
from repro.fuzzing.corpus import Corpus, ProgramEntry
from repro.fuzzing.schedule import MUTATOR_STAT_KEYS
from repro.muast.mutator import MutatorCrash, MutatorHang, apply_mutator
from repro.muast.registry import MutatorInfo
from repro.resilience.circuit import MutatorQuarantine
from repro.telemetry import TelemetrySession


@dataclass
class StepResult:
    program: str
    result: CompileResult
    #: Whether the program was added back to the pool (coverage-guided only).
    kept: bool = False
    mutator: str | None = None
    #: Per-step execution stats (mutation attempts, cache hits/misses);
    #: None for fuzzers that don't track them.
    stats: dict | None = None


class Fuzzer:
    """Base class: one compile per step, optional coverage feedback."""

    name = "fuzzer"
    #: Modeled per-program generation cost in seconds, used to extrapolate
    #: 24-hour throughput (Table 5 "Total").  Calibrated to the paper's
    #: reported totals: AFL++ ≈ 2.15M programs/24 h, μCFuzz/GrayC ≈ 1M,
    #: YARPGen ≈ 76 k, Csmith ≈ 31 k.
    step_cost: float = 0.086

    def __init__(self, compiler: Compiler, rng: random.Random) -> None:
        self.compiler = compiler
        self.rng = rng
        self.coverage = CoverageMap()
        #: The run's telemetry (sink-less by default: deterministic metrics
        #: and the wall profile only).  ``self.stats`` *is* the session
        #: registry's counter mapping, so ``stats_snapshot()`` is a view
        #: over the registry; subclasses add their own keys.
        self.telemetry = TelemetrySession()
        self.stats: dict = self.telemetry.metrics.counters
        #: Optional per-mutator circuit breaker
        #: (:class:`repro.resilience.circuit.MutatorQuarantine`); fuzzers
        #: that apply mutators consult and feed it.
        self.quarantine = None
        #: Optional evolutionary scheduler
        #: (:class:`repro.fuzzing.schedule.MutatorScheduler`); mutation
        #: fuzzers that track per-mutator yield stats feed it.
        self.scheduler = None

    def step(self) -> StepResult:
        raise NotImplementedError

    def record_mutator_yield(
        self,
        name: str,
        *,
        changed: bool = False,
        compiled: bool = False,
        crashed: bool = False,
        coverage_gain: int = 0,
    ) -> None:
        """Fold one mutation attempt into the per-mutator yield counters.

        A strict no-op unless the fuzzer zero-filled ``mutator_stats``
        (scheduler on, or ``mutator_stats=True``): recording consumes no
        randomness and never touches control flow, so tracked and
        untracked runs produce identical fuzzing results.
        """
        table = self.stats.get("mutator_stats")
        if table is None:
            return
        rec = table.get(name)
        if rec is None:  # a mutator outside the zero-filled set
            rec = table[name] = dict.fromkeys(MUTATOR_STAT_KEYS, 0)
        rec["attempts"] += 1
        if changed:
            rec["changed"] += 1
        if compiled:
            rec["compiled"] += 1
        if crashed:
            rec["crashes"] += 1
        if coverage_gain:
            rec["coverage_gain"] += coverage_gain

    def adopt_telemetry(self, session: TelemetrySession) -> None:
        """Re-home this fuzzer's metrics onto an external (sinked) session.

        Counters recorded so far carry over, the compiler's stage spans are
        routed into the session's sink/clock, and ``self.stats`` keeps being
        a registry view.  Adopting a session changes only where telemetry
        lands, never the fuzzing results.
        """
        session.metrics.counters.update(self.stats)
        session.metrics.wall.update(self.telemetry.metrics.wall)
        self.telemetry = session
        self.stats = session.metrics.counters
        session.attach_compiler(self.compiler)

    def stats_snapshot(self) -> dict:
        """The cumulative *deterministic* stats, for campaign reporting.

        Wall-clock profile data (stage timings, span durations) is excluded
        here by construction — see :meth:`profile_snapshot` — so campaign
        results can be compared across serial/parallel/incremental runs
        without any caller stripping timing keys.
        """
        snap = dict(self.stats)
        if self.quarantine is not None:
            snap.update(self.quarantine.stats())
        return snap

    def profile_snapshot(self) -> dict:
        """The wall-clock profile: real, machine-dependent, never compared."""
        profile: dict = {
            "stage_timings": {
                stage: round(seconds, 4)
                for stage, seconds in sorted(self.compiler.stage_timings.items())
            }
        }
        spans = self.telemetry.metrics.wall_snapshot()
        if spans:
            profile["spans"] = spans
        return profile

    def observe(self, step: StepResult) -> None:
        """Default coverage accounting (after the campaign recorded it)."""


class CoverageGuidedFuzzer(Fuzzer):
    """Shared Algorithm-1 style pool handling."""

    def __init__(
        self, compiler: Compiler, rng: random.Random, seeds: list[str]
    ) -> None:
        super().__init__(compiler, rng)
        self.pool = Corpus.from_texts(seeds)
        self._generation = 0

    def keep_if_new_coverage(
        self, text: str, result: CompileResult, parent: ProgramEntry, mutator: str
    ) -> bool:
        """P' joins the pool iff it covers a branch nothing in P covers."""
        if not self.coverage.new_edges(result.coverage):
            return False
        self._generation += 1
        self.pool.add(
            ProgramEntry(
                text,
                seed_id=parent.seed_id,
                generation=parent.generation + 1,
                parent=parent.seed_id,
                mutator=mutator,
            )
        )
        return True


class MutationFuzzer(CoverageGuidedFuzzer):
    """Coverage-guided fuzzing by applying μAST mutators to pool programs.

    The part μCFuzz and the macro fuzzer share: the mutator set, the
    front-end cache that mutators and compiles go through (``use_cache=
    False`` runs without one), paranoid compiles and the per-mutator
    circuit breaker, whose refusals both step loops count as
    ``quarantine_skips`` through :meth:`_allows`.
    """

    def __init__(
        self,
        compiler: Compiler,
        rng: random.Random,
        seeds: list[str],
        mutators: list[MutatorInfo],
        *,
        use_cache: bool = True,
        cache_maxsize: int | None = None,
        paranoid: bool = False,
        quarantine: MutatorQuarantine | None = None,
    ) -> None:
        super().__init__(compiler, rng, seeds)
        self.mutators = list(mutators)
        if cache_maxsize is None:
            cache_maxsize = DEFAULT_CACHE_SIZE
        self.cache = FrontendCache(cache_maxsize) if use_cache else None
        #: Cross-check every flat-native compile against a cold object-IR
        #: one.
        self.paranoid = paranoid
        self.quarantine = quarantine
        self.stats["mutator_failures"] = 0
        if quarantine is not None:
            # Zero-filled up front: a cell that never skips still carries
            # the key, so grid merge_stats summaries are schema-uniform.
            self.stats["quarantine_skips"] = 0

    def stats_snapshot(self) -> dict:
        snap = super().stats_snapshot()
        if self.cache is not None:
            snap.update(self.cache.stats())
        return snap

    def _allows(self, info: MutatorInfo) -> bool:
        """Whether the quarantine lets ``info`` run; counts each refusal."""
        if self.quarantine is None or self.quarantine.allows(info.name):
            return True
        self.stats["quarantine_skips"] += 1
        return False

    def _mutate(self, text: str, info: MutatorInfo) -> tuple[str, tuple] | None:
        """The mutated text plus its edit script, or None on failure/no-op."""
        mutator = info.create(random.Random(self.rng.randrange(1 << 62)))
        try:
            with self.telemetry.span("mutate", mutator=info.name):
                outcome = apply_mutator(mutator, text, cache=self.cache)
        except (MutatorCrash, MutatorHang, RecursionError) as exc:
            self.stats["mutator_failures"] += 1
            if self.quarantine is not None and self.quarantine.record_failure(
                info.name, type(exc).__name__
            ):
                self.telemetry.emit(
                    "quarantine", info.name, reason=type(exc).__name__
                )
            return None
        if not outcome.changed:
            # A no-op application is not a success: it must not reset the
            # breaker's consecutive-failure streak, or a mutator that
            # crashes intermittently but otherwise only no-ops would dodge
            # quarantine forever.
            return None
        if self.quarantine is not None:
            self.quarantine.record_success(info.name)
        return outcome.mutant_text, outcome.edits
