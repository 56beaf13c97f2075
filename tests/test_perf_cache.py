"""Perf subsystem correctness: front-end cache, stats, parallel campaigns.

The cache and the process pool are pure performance features — every test
here pins down that they change *nothing* observable: cached compiles are
byte-identical to uncached ones, cached mutation produces the same mutants,
and a parallel campaign equals the serial one result-for-result.
"""

import random
import zlib

import pytest

from repro.cast.cache import (
    CacheInvariantError,
    FrontendCache,
    analyze_front_end,
    source_digest,
)
from repro.fuzzing.campaign import Campaign, run_campaign
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.parallel import stable_cell_seed
from repro.fuzzing.throughput import measure_throughput
from repro.muast.mutator import apply_mutator
from repro.muast.registry import MutatorInfo, MutatorRegistry, Mutator


BROKEN = "int main( { return 0; }"
SEMA_BROKEN = "int main(void) { return x + 1; }"


class TestCompileParity:
    """A cached compile must be byte-identical to an uncached one."""

    def _assert_same_result(self, gcc, text):
        cache = FrontendCache()
        plain = gcc.compile(text)
        cold = gcc.compile(text, cache=cache)
        warm = gcc.compile(text, cache=cache)  # replay from the cache entry
        assert cache.hits >= 1
        for got in (cold, warm):
            assert got.ok == plain.ok
            assert got.diagnostics == plain.diagnostics
            assert got.coverage.edges == plain.coverage.edges
            assert got.asm == plain.asm
            assert got.features == plain.features
            assert (got.crash is None) == (plain.crash is None)
            if plain.crash is not None:
                assert got.crash.signature() == plain.crash.signature()

    def test_valid_program(self, gcc, small_seeds):
        self._assert_same_result(gcc, small_seeds[0])

    def test_parse_error(self, gcc):
        self._assert_same_result(gcc, BROKEN)

    def test_sema_error(self, gcc):
        self._assert_same_result(gcc, SEMA_BROKEN)

    def test_mutant_compile_parity(self, gcc, registry, small_seeds):
        """The actual hot path: mutants of a pool parent, cached vs. not."""
        cached = MuCFuzz(
            gcc, random.Random(7), small_seeds[:6], registry.supervised()
        )
        plain = MuCFuzz(
            gcc,
            random.Random(7),
            small_seeds[:6],
            registry.supervised(),
            use_cache=False,
        )
        assert cached.cache is not None and plain.cache is None
        for _ in range(15):
            a, b = cached.step(), plain.step()
            assert a.program == b.program
            assert a.mutator == b.mutator
            assert a.kept == b.kept
            assert a.result.coverage.edges == b.result.coverage.edges
            assert a.result.diagnostics == b.result.diagnostics
        assert cached.coverage.edges == plain.coverage.edges
        assert cached.cache.hits > 0


class TestApplyMutatorCache:
    def test_cached_mutation_matches_uncached(self, registry, small_seeds):
        text = small_seeds[1]
        cache = FrontendCache()
        for info in registry.supervised()[:20]:
            plain = apply_mutator(info.create(random.Random(11)), text)
            cached = apply_mutator(
                info.create(random.Random(11)), text, cache=cache
            )
            assert cached.changed == plain.changed
            assert cached.mutant_text == plain.mutant_text
            assert cached.error == plain.error

    def test_attempts_share_one_parse(self, registry, small_seeds):
        text = small_seeds[2]
        cache = FrontendCache()
        for info in registry.supervised()[:8]:
            apply_mutator(info.create(random.Random(3)), text, cache=cache)
        assert cache.misses == 1  # one parse, shared by every attempt
        assert cache.hits == 7

    def test_non_parsing_input(self, registry):
        info = registry.supervised()[0]
        cache = FrontendCache()
        outcome = apply_mutator(info.create(), BROKEN, cache=cache)
        assert not outcome.changed
        assert outcome.error == "input does not parse"


class TestFrontendCacheLRU:
    TEXTS = ["int a;", "int b;", "int c;"]

    def test_bounded_with_lru_eviction(self):
        cache = FrontendCache(maxsize=2)
        for text in self.TEXTS:
            cache.front_end(text)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert self.TEXTS[0] not in cache  # oldest entry went first
        assert self.TEXTS[1] in cache and self.TEXTS[2] in cache

    def test_hit_refreshes_recency(self):
        cache = FrontendCache(maxsize=2)
        cache.front_end(self.TEXTS[0])
        cache.front_end(self.TEXTS[1])
        cache.front_end(self.TEXTS[0])  # refresh: [1] is now least recent
        cache.front_end(self.TEXTS[2])
        assert self.TEXTS[0] in cache
        assert self.TEXTS[1] not in cache

    def test_counters_and_stats(self):
        cache = FrontendCache()
        cache.front_end("int a;")
        cache.front_end("int a;")
        cache.front_end("int b;")
        assert (cache.hits, cache.misses) == (1, 2)
        stats = cache.stats()
        assert stats["cache_hit_rate"] == pytest.approx(1 / 3)
        assert stats["cache_size"] == 2
        cache.clear()
        assert len(cache) == 0

    def test_entry_matches_direct_analysis(self, small_seeds):
        text = small_seeds[3]
        entry = FrontendCache().front_end(text)
        direct = analyze_front_end(text)
        assert entry.source_hash == source_digest(text)
        assert entry.compilable == direct.compilable
        assert [t.text for t in entry.token_prefix] == [
            t.text for t in direct.token_prefix
        ]

    def test_invariant_check_detects_mutation(self):
        cache = FrontendCache(maxsize=4)
        entry = cache.front_end("int a;")
        entry.source.text = "int b;"  # simulate in-place AST/source abuse
        with pytest.raises(CacheInvariantError):
            cache.front_end("int a;")


class TestRegistryQueryCache:
    def _info(self, name):
        class Nop(Mutator):
            def mutate(self) -> bool:
                return False

        return MutatorInfo(
            name=name,
            description="no-op",
            cls=Nop,
            category="Expression",
            origin="supervised",
        )

    def test_register_invalidates_queries(self):
        reg = MutatorRegistry()
        reg.register(self._info("AAA"))
        assert reg.names() == ["AAA"]
        assert [m.name for m in reg.supervised()] == ["AAA"]
        reg.register(self._info("BBB"))
        assert reg.names() == ["AAA", "BBB"]
        assert [m.name for m in reg.supervised()] == ["AAA", "BBB"]

    def test_query_results_are_copies(self, registry):
        names = registry.names()
        names.clear()
        assert registry.names()  # the cached list was not clobbered


class TestStats:
    def test_step_result_carries_stats(self, gcc, registry, small_seeds):
        fuzzer = MuCFuzz(
            gcc, random.Random(5), small_seeds[:6], registry.supervised()
        )
        step = fuzzer.step()
        assert step.stats is not None
        assert step.stats["attempts"] >= 1
        assert "cache_hits" in step.stats and "cache_misses" in step.stats
        snap = fuzzer.stats_snapshot()
        assert snap["steps"] == 1
        assert snap["attempts_per_step"] == step.stats["attempts"]
        assert 0.0 <= snap["cache_hit_rate"] <= 1.0

    def test_campaign_result_reports_stats(self, gcc, registry, small_seeds):
        fuzzer = MuCFuzz(
            gcc, random.Random(6), small_seeds[:6], registry.supervised()
        )
        result = run_campaign(fuzzer, steps=8)
        assert result.stats["steps"] == 8
        assert result.stats["cache_hits"] > 0


class TestParallelCampaign:
    def test_stable_cell_seed_is_hash_free(self):
        digest = zlib.crc32(b"uCFuzz.s\x00gcc-sim-14")
        assert stable_cell_seed("uCFuzz.s", "gcc-sim-14", 2024) == (
            (digest ^ 2024) & 0xFFFFFFFF
        )
        assert stable_cell_seed("uCFuzz.s", "gcc-sim-14", 2024) != stable_cell_seed(
            "uCFuzz.u", "gcc-sim-14", 2024
        )

    def test_parallel_equals_serial(self, gcc, registry, small_seeds):
        campaign = Campaign(
            compilers=[gcc],
            seeds=small_seeds[:6],
            registry=registry,
            steps=20,
            base_seed=2024,
        )
        names = ("uCFuzz.s", "AFL++")
        serial = campaign.run(fuzzer_names=names, parallelism=1)
        parallel = campaign.run(fuzzer_names=names, parallelism=2)
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert (a.fuzzer, a.compiler, a.steps) == (b.fuzzer, b.compiler, b.steps)
            assert a.coverage_trend == b.coverage_trend
            assert (a.compiled, a.total) == (b.compiled, b.total)
            assert a.crashes.signatures() == b.crashes.signatures()
            assert a.crashes.first_seen == b.crashes.first_seen
            assert a.throughput_total == b.throughput_total
            assert a.stats == b.stats


class TestThroughputBench:
    def test_measure_throughput_smoke(self):
        report = measure_throughput(steps=6, n_seeds=6)
        assert report["cache_hit_rate"] > 0
        assert (
            report["production"]["final_coverage"]
            == report["reference"]["final_coverage"]
        )
        assert report["production"]["steps"] == report["reference"]["steps"] == 6
