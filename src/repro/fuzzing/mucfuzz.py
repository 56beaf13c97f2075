"""μCFuzz: the paper's micro coverage-guided fuzzer (Algorithm 1).

Each iteration picks a random pool program, applies mutators in a random
order, and keeps the first mutant that covers a new branch.  No Havoc, no
mopt, no fork server, no pool culling — deliberately simple (§3.4).

Performance: all mutation attempts of one iteration target the same parent
program, so the front end (lex/parse/sema) of the parent is computed once
and shared through a :class:`~repro.cast.cache.FrontendCache`; the same
cache backs ``Compiler.compile``'s dirty-region front end for mutants and
no-op recompiles, and a :class:`~repro.compiler.session.CompileSession`
replays the mutants' clean functions in the middle end; each attempt is one
compile.  A fuzzer is either warm (cache + session, the default) or cold
(``use_cache=False``: neither); the two take identical steps.
"""

from __future__ import annotations

import random

from repro.compiler.driver import Compiler
from repro.compiler.session import CompileSession
from repro.muast.registry import MutatorInfo
from repro.resilience.circuit import MutatorQuarantine
from repro.fuzzing.base import MutationFuzzer, StepResult
from repro.fuzzing.schedule import MutatorScheduler, zero_mutator_stats

#: How many mutators of the shuffled list one iteration may try before
#: giving up (a timeslice; Algorithm 1's inner loop is unbounded).
MAX_TRIES_PER_ITERATION = 6


class MuCFuzz(MutationFuzzer):
    """μCFuzz.s / μCFuzz.u, depending on the mutator set it is given."""

    step_cost = 0.086  # ≈1M mutants / 24 h, matching GrayC-class throughput

    def __init__(
        self,
        compiler: Compiler,
        rng: random.Random,
        seeds: list[str],
        mutators: list[MutatorInfo],
        name: str = "uCFuzz",
        *,
        use_cache: bool = True,
        cache_maxsize: int | None = None,
        paranoid: bool = False,
        quarantine: MutatorQuarantine | None = None,
        session: CompileSession | None = None,
        scheduler: MutatorScheduler | None = None,
        mutator_stats: bool | None = None,
    ) -> None:
        if scheduler is not None and quarantine is None:
            # Population management (retirement) lives on the quarantine;
            # threshold=None keeps the crash breaker itself disabled.
            quarantine = MutatorQuarantine(threshold=None)
        super().__init__(
            compiler, rng, seeds, mutators, use_cache=use_cache,
            cache_maxsize=cache_maxsize, paranoid=paranoid,
            quarantine=quarantine,
        )
        self.name = name
        # The middle end is the compiler's (``Compiler(flat_native=...)``);
        # a fuzzer only reads it.
        if session is not None and not compiler.flat_native:
            raise ValueError(
                "a CompileSession serves flat-native compiles only; "
                "flat_native=False is the object-IR reference"
            )
        if session is not None and self.cache is None:
            raise ValueError(
                "a CompileSession needs the front-end cache; "
                "use_cache=False is the cold path"
            )
        #: The cross-step middle-end session every compile of this fuzzer
        #: runs against: the one passed in, else a private one whenever the
        #: fuzzer is warm (has a front-end cache) on the flat-native middle
        #: end.  Passed per call, never installed on the shared compiler.
        if session is None and self.cache is not None and compiler.flat_native:
            session = CompileSession()
        self.session = session
        #: Evolutionary outer loop: a seeded fitness-proportional bandit
        #: that reorders each step's mutator try-list from the per-mutator
        #: yield stats.  ``None`` (the default) keeps the paper's uniform
        #: Algorithm 1 ordering byte-for-byte.
        self.scheduler = scheduler
        if mutator_stats is None:
            mutator_stats = scheduler is not None
        elif not mutator_stats and scheduler is not None:
            raise ValueError("a MutatorScheduler requires mutator_stats")
        self.stats.update({"steps": 0, "attempts": 0, "unchanged": 0})
        if mutator_stats:
            self.stats["mutator_stats"] = zero_mutator_stats(
                info.name for info in self.mutators
            )
        if scheduler is not None:
            scheduler.attach(self.stats["mutator_stats"], quarantine)

    def stats_snapshot(self) -> dict:
        if self.session is not None:
            self.stats.update(self.session.stats())
        snap = super().stats_snapshot()
        steps = snap.get("steps", 0)
        snap["attempts_per_step"] = snap["attempts"] / steps if steps else 0.0
        return snap

    def step(self) -> StepResult:
        """One iteration, routed through :meth:`Compiler.compile_batch`.

        The mutation attempts are generated lazily, so a mutator only
        consumes fuzzer randomness when the batch actually reaches it; the
        first kept or crashing mutant ends the batch.  Each attempt is one
        compile (one more recompiles the parent when nothing mutated); with
        a session, an attempt's clean functions replay from whatever the
        session already holds.
        """
        self.stats["steps"] += 1
        cache_before = (
            (self.cache.hits, self.cache.misses) if self.cache is not None else (0, 0)
        )
        attempts_before = self.stats["attempts"]
        events_before = (
            len(self.quarantine.events) if self.quarantine is not None else 0
        )
        retired_before = (
            len(self.quarantine.retirements)
            if self.quarantine is not None
            else 0
        )
        parent = self.pool.random_choice(self.rng)
        order = list(self.mutators)
        # The uniform shuffle always runs (same fuzzer-RNG draws with the
        # scheduler on or off); the scheduler then reorders the shuffled
        # list using only its own seeded RNG — RNG-neutral by construction.
        self.rng.shuffle(order)
        if self.scheduler is not None:
            order = self.scheduler.order(order)
        state: dict = {}

        def requests():
            for info in order[:MAX_TRIES_PER_ITERATION]:
                if not self._allows(info):
                    continue
                self.stats["attempts"] += 1
                mutated = self._mutate(parent.text, info)
                if mutated is None or mutated[0] == parent.text:
                    self.stats["unchanged"] += 1
                    self.record_mutator_yield(info.name)
                    continue
                mutant, edits = mutated
                state["pending"] = (mutant, info)
                yield mutant, (parent.text, edits)

        def until(result) -> bool:
            mutant, info = state.pop("pending")
            kept = self.keep_if_new_coverage(mutant, result, parent, info.name)
            covered_before = len(self.coverage)
            self.coverage.merge(result.coverage)
            self.record_mutator_yield(
                info.name,
                changed=True,
                compiled=result.ok,
                crashed=result.crashed,
                coverage_gain=len(self.coverage) - covered_before,
            )
            state["last"] = StepResult(
                mutant, result, kept=kept, mutator=info.name
            )
            return kept or result.crashed

        self.compiler.compile_batch(
            requests(), cache=self.cache, paranoid=self.paranoid,
            session=self.session, until=until,
        )
        step = state.get("last")
        if step is None:
            # Nothing mutated this round; recompile the parent (a no-op
            # round).
            result = self.compiler.compile(
                parent.text, cache=self.cache, paranoid=self.paranoid,
                session=self.session,
            )
            self.coverage.merge(result.coverage)
            step = StepResult(parent.text, result, kept=False, mutator=None)
        step.stats = {"attempts": self.stats["attempts"] - attempts_before}
        if self.cache is not None:
            step.stats["cache_hits"] = self.cache.hits - cache_before[0]
            step.stats["cache_misses"] = self.cache.misses - cache_before[1]
        if self.quarantine is not None:
            step.stats["quarantined"] = [
                event.mutator
                for event in self.quarantine.events[events_before:]
            ]
            if self.scheduler is not None:
                step.stats["retired"] = [
                    event.mutator
                    for event in self.quarantine.retirements[retired_before:]
                ]
        return step
