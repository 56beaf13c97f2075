"""Compile session: fused-round equivalence + cross-step middle-end memoization.

Two contracts are under test here:

* the fused single-walk local round — the flat-native
  :func:`repro.compiler.passes.flat.flat_local_opt`, run on buffer-direct
  :class:`~repro.compiler.irgen.FlatIRGen` functions — is bit-identical —
  IR dump, coverage edges, and stats counters — to the sequential object
  pass order of the reference, over seed programs, mutator-produced
  mutants, and randomly generated programs;
* a :class:`repro.compiler.session.CompileSession` replays interned
  per-function middle-end artifacts without changing any observable of
  ``Compiler.compile`` (checked against the cold object-IR reference), and
  a campaign routed twice through one warm session is bit-identical.
"""

import random

import pytest

import repro.mutators  # noqa: F401 - populate the registry
from repro.cast.parser import parse
from repro.cast.sema import Sema
from repro.compiler import GCC_SIM, Compiler
from repro.compiler.coverage import CoverageMap
from repro.compiler.driver import assert_results_equal
from repro.compiler.irgen import FlatIRGen, IRGen, LoweringError
from repro.compiler.passes import OptContext, local_opt
from repro.compiler.session import CompileSession
from repro.fuzzing.campaign import run_campaign
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.progen import GenPolicy, ProgramGenerator
from repro.muast.mutator import apply_mutator
from repro.muast.registry import global_registry
from tests.helpers import fuzzing_observable


#: Crashes gcc-sim at -O2 (``gcc-strlen-verify-range``, §5.2).
_STRLEN_CRASHER = """
const volatile static char buffer[32];
int test4(void) { return sprintf(buffer, "%s", buffer); }
void main_test(void) {
  memset(buffer, 'A', 32);
  if (test4() != 3) abort();
}
int main(void) { main_test(); return 0; }
"""


def _lower(text, irgen=IRGen):
    unit = parse(text)
    sema = Sema()
    if [d for d in sema.analyze(unit) if d.severity == "error"]:
        return None
    try:
        return irgen(sema, CoverageMap()).lower(unit)
    except (LoweringError, RecursionError):
        return None


def _mutant_corpus(seeds, n=24):
    """Mutator-produced texts (the fuzzing hot path's actual inputs)."""
    rng = random.Random(99)
    muts = global_registry.supervised()
    texts = []
    for i in range(n):
        info = muts[rng.randrange(len(muts))]
        out = apply_mutator(
            info.create(random.Random(rng.randrange(1 << 30))),
            seeds[i % len(seeds)],
        )
        if out.changed and out.mutant_text:
            texts.append(out.mutant_text)
    return texts


def _opt_observables(fn, ctx):
    """(dump, edges, stats) after the local round of ``fn`` under ``ctx``."""
    local_opt(fn, ctx)
    return fn.dump(), frozenset(ctx.cov.edges), dict(ctx.stats.counters)


class TestFusedEquivalence:
    """The fused flat round == the sequential object-IR fixpoint."""

    def _check_program(self, text):
        module = _lower(text)
        if module is None:
            return 0
        flat_module = _lower(text, FlatIRGen)
        checked = 0
        for name, fn in module.functions.items():
            seq_ctx = OptContext(cov=CoverageMap(), opt_level=2)
            fus_ctx = OptContext(cov=CoverageMap(), opt_level=2, flat_native=True)
            seq = _opt_observables(fn, seq_ctx)
            fused = _opt_observables(flat_module.functions[name], fus_ctx)
            assert fused[0] == seq[0], f"IR diverged for {name} in:\n{text}"
            assert fused[1:] == seq[1:]
            checked += 1
        return checked

    def test_seed_corpus(self, small_seeds):
        assert sum(self._check_program(t) for t in small_seeds[:30]) > 30

    def test_mutant_corpus(self, small_seeds):
        mutants = _mutant_corpus(small_seeds[:12])
        assert mutants
        sum(self._check_program(t) for t in mutants)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_programs(self, seed):
        text = ProgramGenerator(
            random.Random(seed), GenPolicy(max_stmts=8)
        ).generate()
        self._check_program(text)


def _mutate_body(text):
    """A textual single-function mutation (dirty fn, clean siblings)."""
    return text.replace("return", "if (1) return", 1)


class TestCompileSession:
    def test_session_compile_matches_cold(self, small_seeds):
        session = CompileSession()
        warm = Compiler(*GCC_SIM)
        cold = Compiler(*GCC_SIM, flat_native=False)
        for text in small_seeds[:10]:
            assert_results_equal(
                warm.compile(text, session=session), cold.compile(text)
            )
        assert session.misses > 0

    def test_session_result_memo_on_recompile(self, small_seeds):
        """A recompile of the same text is served by its per-decl records:
        no live lowers, only replays (there is no whole-result memo)."""
        session = CompileSession()
        warm = Compiler(*GCC_SIM)
        cold = Compiler(*GCC_SIM, flat_native=False)
        text = small_seeds[0]
        first = warm.compile(text, session=session)
        misses, hits = session.misses, session.hits
        second = warm.compile(text, session=session)
        assert session.misses == misses
        assert session.hits > hits
        for result in (first, second):
            assert_results_equal(result, cold.compile(text))

    def test_session_hits_on_shared_clean_functions(self, small_seeds):
        session = CompileSession()
        warm = Compiler(*GCC_SIM)
        cold = Compiler(*GCC_SIM, flat_native=False)
        text = small_seeds[1]
        warm.compile(text, session=session)
        mutant = _mutate_body(text)
        assert mutant != text
        before = session.hits
        assert_results_equal(
            warm.compile(mutant, session=session), cold.compile(mutant)
        )
        # The mutant's unchanged sibling functions replayed from the session.
        assert session.hits > before

    def test_paranoid_session_compile(self, small_seeds):
        session = CompileSession()
        warm = Compiler(*GCC_SIM)
        text = small_seeds[2]
        warm.compile(text, session=session)
        before = session.paranoid_checks
        warm.compile(_mutate_body(text), paranoid=True, session=session)
        assert session.paranoid_checks == before + 1

    def test_explicit_session_none_disables(self, small_seeds):
        # The compiler's ``session`` slot (filled by make_fuzzer for the
        # benchmark harness) is never read: only a per-call session counts.
        session = CompileSession()
        warm = Compiler(*GCC_SIM)
        warm.session = session
        warm.compile(small_seeds[3])
        warm.compile(small_seeds[3], session=None)
        assert session.hits == 0 and session.misses == 0

    def test_stats_keys(self):
        stats = CompileSession().stats()
        for key in (
            "middle_session_hits",
            "middle_session_misses",
            "middle_session_evictions",
            "middle_session_hit_rate",
        ):
            assert key in stats

    def test_record_eviction(self, small_seeds):
        session = CompileSession(maxsize=2)
        warm = Compiler(*GCC_SIM)
        for text in small_seeds[:4]:
            warm.compile(text, session=session)
        assert session.evictions > 0
        assert len(session) <= 2


class TestCompileBatch:
    def test_batch_matches_sequential_compiles(self, small_seeds):
        parent = small_seeds[4]
        mutants = [_mutate_body(parent), parent.replace("int", "long", 1)]
        requests = [(m, (parent, ((0, 0, ""),))) for m in mutants]
        session = CompileSession()
        batched = Compiler(*GCC_SIM).compile_batch(requests, session=session)
        cold = Compiler(*GCC_SIM, flat_native=False)
        assert len(batched) == len(mutants)
        for result, mutant in zip(batched, mutants):
            assert_results_equal(result, cold.compile(mutant))

    def test_batch_until_early_exit_is_lazy(self, small_seeds):
        parent = small_seeds[6]
        consumed = []

        def requests():
            for i, text in enumerate(
                (_mutate_body(parent), parent.replace("int", "long", 1))
            ):
                consumed.append(i)
                yield text, (parent, ((0, 0, ""),))

        session = CompileSession()
        results = Compiler(*GCC_SIM).compile_batch(
            requests(), session=session, until=lambda result: True
        )
        assert len(results) == 1
        assert consumed == [0]  # the second request was never generated

    def test_step_compiles_once_per_attempt(
        self, registry, small_seeds, monkeypatch
    ):
        """A μCFuzz step compiles each mutant attempt once and nothing else.

        The pool holds a parent that crashes gcc-sim at -O2, so the session
        never stores its result; the step still compiles only its attempts.
        """
        crasher = _STRLEN_CRASHER
        assert Compiler(*GCC_SIM).compile(crasher).crashed
        calls = []
        compile_ = Compiler.compile

        def counting(self, text, *args, **kwargs):
            calls.append(text)
            return compile_(self, text, *args, **kwargs)

        monkeypatch.setattr(Compiler, "compile", counting)
        fuzzer = MuCFuzz(
            Compiler(*GCC_SIM), random.Random(1), [crasher, small_seeds[0]],
            registry.supervised(),
        )
        parents = []
        choose = fuzzer.pool.random_choice

        def recording_choice(rng):
            entry = choose(rng)
            parents.append(entry.text)
            return entry

        fuzzer.pool.random_choice = recording_choice
        for _ in range(20):
            attempts = fuzzer.stats["attempts"]
            unchanged = fuzzer.stats["unchanged"]
            calls.clear()
            fuzzer.step()
            compiled = (fuzzer.stats["attempts"] - attempts) - (
                fuzzer.stats["unchanged"] - unchanged
            )
            assert len(calls) == max(compiled, 1)
            if compiled == 0:
                assert calls == [parents[-1]]
        assert parents.count(crasher) >= 2

        # A round with nothing to mutate recompiles the parent, once.
        idle = MuCFuzz(Compiler(*GCC_SIM), random.Random(5), [crasher], [])
        calls.clear()
        step = idle.step()
        assert calls == [crasher]
        assert step.mutator is None and step.result.crashed


class TestSessionFuzzing:
    def _fuzzer(self, session, seeds, registry, seed=7):
        return MuCFuzz(
            Compiler(*GCC_SIM),
            random.Random(seed),
            seeds,
            registry.supervised(),
            session=session,
        )

    def test_session_campaign_matches_sessionless(self, registry, small_seeds):
        seeds = small_seeds[:8]
        with_session = run_campaign(
            self._fuzzer(CompileSession(), seeds, registry), steps=25
        )
        reference = run_campaign(
            MuCFuzz(
                Compiler(*GCC_SIM, flat_native=False), random.Random(7),
                seeds, registry.supervised(), use_cache=False,
            ),
            steps=25,
        )

        def observable(result):
            # The from-scratch reference has no front-end cache to count.
            payload = fuzzing_observable(result)
            payload["stats"] = {
                key: value
                for key, value in payload["stats"].items()
                if not key.startswith("cache_")
            }
            return payload

        assert observable(with_session) == observable(reference)
        assert with_session.stats["middle_session_hits"] > 0

    def test_same_campaign_twice_through_one_session(self, registry, small_seeds):
        seeds = small_seeds[:8]
        session = CompileSession()
        first = run_campaign(self._fuzzer(session, seeds, registry), steps=25)
        second = run_campaign(self._fuzzer(session, seeds, registry), steps=25)
        assert fuzzing_observable(first) == fuzzing_observable(second)
        # The warm rerun recorded nothing the first run had not interned.
        assert (
            second.stats["middle_session_size"]
            == first.stats["middle_session_size"]
        )

    def test_fuzzers_keep_their_sessions_off_the_compiler(
        self, registry, small_seeds
    ):
        compiler = Compiler(*GCC_SIM)
        a, b = (
            MuCFuzz(
                compiler, random.Random(seed), small_seeds[:6],
                registry.supervised(),
            )
            for seed in (1, 2)
        )
        assert a.session is not None and b.session is not None
        assert a.session is not b.session
        for _ in range(5):
            a.step()
            b.step()
        assert compiler.session is None
        assert a.session.misses > 0 and b.session.misses > 0

    def test_paranoid_session_fuzzing(self, registry, small_seeds):
        fuzzer = MuCFuzz(
            Compiler(*GCC_SIM),
            random.Random(11),
            small_seeds[:8],
            registry.supervised(),
            paranoid=True,
        )
        for _ in range(15):
            fuzzer.step()  # any divergence raises IncrementalDivergence
        assert fuzzer.session.paranoid_checks > 0

    def test_paranoid_fuzzing_under_eviction(self, registry, small_seeds):
        # Stores far smaller than the working set: front-end entries and
        # session records are evicted and re-derived all the time, and every
        # compile must still match the cold object-IR reference.
        session = CompileSession(maxsize=8)
        fuzzer = MuCFuzz(
            Compiler(*GCC_SIM),
            random.Random(13),
            small_seeds[:8],
            registry.supervised(),
            cache_maxsize=4,
            session=session,
            paranoid=True,
        )
        for _ in range(60):
            fuzzer.step()  # any divergence raises IncrementalDivergence
        stats = fuzzer.stats_snapshot()
        assert stats["cache_evictions"] > 0
        assert stats["middle_session_evictions"] > 0
        assert stats["middle_session_paranoid_checks"] > 0

    def test_session_serial_equals_parallel(self, registry, small_seeds):
        from repro.fuzzing.campaign import Campaign

        campaign = Campaign(
            compilers=[Compiler(*GCC_SIM)],
            seeds=small_seeds[:6],
            registry=global_registry,
            steps=12,
        )
        serial = campaign.run(("uCFuzz.s", "uCFuzz.u"), parallelism=1)
        parallel = campaign.run(("uCFuzz.s", "uCFuzz.u"), parallelism=2)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
        assert serial[0].stats["middle_session_hits"] > 0
