"""The macro fuzzer: μCFuzz plus the long-campaign engineering of §3.4.

Enhancements over Algorithm 1:

1. random sampling of compiler command-line arguments (-O level and the
   ``SAMPLABLE_FLAGS``), which is what reaches flag-gated bugs like
   GCC #111820 (-O3 -fno-tree-vrp);
2. Havoc: several rounds of mutation per mutant for more diverse outputs;
3. a shared coverage map across parallel instances;
4. resource limits on mutant size (the paper limits memory/time so compiler
   bugs cannot take the host down).
"""

from __future__ import annotations

import random

from repro.compiler.coverage import CoverageMap
from repro.compiler.driver import Compiler, SAMPLABLE_FLAGS
from repro.muast.registry import MutatorInfo
from repro.resilience.circuit import MutatorQuarantine
from repro.fuzzing.base import MutationFuzzer, StepResult

MAX_MUTANT_BYTES = 64 * 1024  # resource limit (enhancement 4)
MAX_HAVOC_ROUNDS = 5


class MacroFuzzer(MutationFuzzer):
    """The bug-hunting fuzzer used for the eight-month field experiment."""

    name = "macro"
    step_cost = 0.086

    def __init__(
        self,
        compiler: Compiler,
        rng: random.Random,
        seeds: list[str],
        mutators: list[MutatorInfo],
        shared_coverage: CoverageMap | None = None,
        *,
        use_cache: bool = True,
        cache_maxsize: int | None = None,
        paranoid: bool = False,
        quarantine: MutatorQuarantine | None = None,
    ) -> None:
        # Havoc re-front-ends the intermediate mutant of every round; the
        # shared cache makes rounds after the first nearly free.
        super().__init__(
            compiler, rng, seeds, mutators, use_cache=use_cache,
            cache_maxsize=cache_maxsize, paranoid=paranoid,
            quarantine=quarantine,
        )
        if shared_coverage is not None:
            self.coverage = shared_coverage  # enhancement 3

    def sample_options(self) -> tuple[int, tuple[str, ...]]:
        """Enhancement 1: random -O level plus a random flag subset."""
        opt_level = self.rng.choice([0, 1, 2, 2, 2, 3, 3])
        n_flags = self.rng.choice([0, 0, 1, 1, 2])
        flags = tuple(self.rng.sample(SAMPLABLE_FLAGS, n_flags))
        return opt_level, flags

    def step(self) -> StepResult:
        parent = self.pool.random_choice(self.rng)
        mutant = parent.text
        applied: list[str] = []
        rounds = self.rng.randint(1, MAX_HAVOC_ROUNDS)  # enhancement 2
        events_before = (
            len(self.quarantine.events) if self.quarantine is not None else 0
        )
        # Havoc chains mutations, so the dirty-region parent of the final
        # compile is the *last* intermediate text (already front-ended into
        # the cache by apply_mutator), not the pool parent.
        base_text: str | None = None
        last_edits: tuple = ()
        for _ in range(rounds):
            info = self.mutators[self.rng.randrange(len(self.mutators))]
            if not self._allows(info):
                continue
            mutated = self._mutate(mutant, info)
            if mutated is not None and len(mutated[0]) <= MAX_MUTANT_BYTES:
                base_text = mutant
                mutant, last_edits = mutated
                applied.append(info.name)
        opt_level, flags = self.sample_options()
        edits_from = (base_text, last_edits) if base_text is not None else None
        result = self.compiler.compile(
            mutant,
            opt_level=opt_level,
            flags=flags,
            cache=self.cache,
            edits_from=edits_from,
            paranoid=self.paranoid,
        )
        kept = False
        if applied:
            kept = self.keep_if_new_coverage(
                mutant, result, parent, "+".join(applied)
            )
        self.coverage.merge(result.coverage)
        step = StepResult(
            mutant, result, kept=kept, mutator="+".join(applied) or None
        )
        if self.quarantine is not None:
            step.stats = {
                "quarantined": [
                    event.mutator
                    for event in self.quarantine.events[events_before:]
                ]
            }
        return step
