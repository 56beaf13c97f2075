"""The flat-native middle end is the default compile path.

Every compile runs the buffer-native middle end unless ``flat_native=False``
asks for the object-IR reference — the plain cold pipeline — and the two
agree field for field on fresh Csmith-style programs under both
personalities, at every -O level and with every samplable flag: cold
(the generator baselines' path), through the front-end cache's dirty-region
front end with the plain middle end, and through a compile session (mutants'
clean functions replayed).  The knob means the same thing at every layer
that accepts it, and contradictory combinations are refused.
"""

import random

import pytest

from repro.cast.cache import FrontendCache
from repro.compiler.driver import (
    CLANG_SIM,
    GCC_SIM,
    SAMPLABLE_FLAGS,
    Compiler,
    assert_results_equal,
)
from repro.compiler.flatir import FlatFunction
from repro.compiler.ir import IRFunction
from repro.compiler.session import CompileSession
from repro.fuzzing.baselines.csmith import CSMITH_POLICY
from repro.fuzzing.campaign import make_fuzzer, run_campaign
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.parallel import CellSpec, cell_key, run_cell
from repro.fuzzing.progen import ProgramGenerator
from repro.muast.mutator import apply_mutator

PERSONALITIES = {"gcc": GCC_SIM, "clang": CLANG_SIM}
#: One flag set per program, cycling through every samplable flag plus none.
FLAG_SETS = [()] + [(flag,) for flag in SAMPLABLE_FLAGS]


@pytest.fixture(scope="module")
def programs():
    rng = random.Random(2024)
    return [
        ProgramGenerator(random.Random(rng.randrange(1 << 62)), CSMITH_POLICY)
        .generate()
        for _ in range(28)
    ]


@pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
@pytest.mark.parametrize("personality", sorted(PERSONALITIES))
def test_cold_default_matches_object_reference(programs, personality, opt_level):
    default = Compiler(*PERSONALITIES[personality])
    reference = Compiler(*PERSONALITIES[personality], flat_native=False)
    reached_backend = 0
    for i, text in enumerate(programs):
        flags = FLAG_SETS[i % len(FLAG_SETS)]
        a = default.compile(text, opt_level, flags)
        b = reference.compile(text, opt_level, flags)
        assert_results_equal(a, b)
        assert a.stages == b.stages
        reached_backend += "backend" in a.stages
    assert reached_backend > len(programs) // 2
    # A cold flat-native compile never crosses the object<->buffer bridge.
    assert default.bridge.encodes == 0
    assert default.bridge.decodes == 0


@pytest.mark.parametrize("opt_level", [0, 2, 3])
@pytest.mark.parametrize("path", ["cache", "session"])
@pytest.mark.parametrize("personality", sorted(PERSONALITIES))
def test_warm_default_matches_object_reference(
    programs, registry, personality, path, opt_level
):
    # Each parent is compiled first, so its mutants re-front-end only their
    # dirty region and, with a session, replay their clean functions.
    cache = FrontendCache()
    session = CompileSession() if path == "session" else None
    warm = Compiler(*PERSONALITIES[personality], cache=cache, session=session)
    reference = Compiler(*PERSONALITIES[personality], flat_native=False)
    rng = random.Random(f"{personality}:{path}:{opt_level}")
    mutators = registry.supervised()
    compared = 0
    for i, text in enumerate(programs[:12]):
        flags = FLAG_SETS[i % len(FLAG_SETS)]
        warm.compile(text, opt_level, flags)
        for _ in range(3):
            info = rng.choice(mutators)
            outcome = apply_mutator(info.create(rng), text, cache=cache)
            if not outcome.changed or not outcome.edits:
                continue
            a = warm.compile(
                outcome.mutant_text, opt_level, flags,
                edits_from=(text, outcome.edits),
            )
            b = reference.compile(outcome.mutant_text, opt_level, flags)
            assert_results_equal(a, b)
            assert a.stages == b.stages
            compared += 1
    assert compared >= 12
    assert cache.incremental_hits > 0
    if path == "session":
        assert session.hits > 0
    assert warm.bridge.encodes == 0
    assert warm.bridge.decodes == 0


def test_default_is_flat_native(programs):
    compiler = Compiler(*GCC_SIM)
    assert compiler.flat_native
    result = compiler.compile(programs[0])
    assert result.ok
    functions = list(result.module.functions.values())
    assert functions and all(isinstance(fn, FlatFunction) for fn in functions)
    assert all(fn.buf is not None for fn in functions)


def test_flat_native_false_is_object_ir(programs):
    compiler = Compiler(*GCC_SIM, flat_native=False)
    assert not compiler.flat_native
    result = compiler.compile(programs[0])
    assert result.ok
    assert all(
        type(fn) is IRFunction for fn in result.module.functions.values()
    )


def test_object_reference_ignores_cache_and_session(programs):
    cache = FrontendCache()
    session = CompileSession()
    compiler = Compiler(
        *GCC_SIM, cache=cache, session=session, flat_native=False
    )
    result = compiler.compile(programs[0])
    assert result.ok
    entry = cache.peek(programs[0])
    assert entry is not None  # the front end still went through the cache
    assert result.coverage.journal is None
    assert session.hits == session.misses == len(session) == 0


def test_paranoid_checks_cold_compiles(programs, monkeypatch):
    import repro.compiler.driver as driver

    calls = []

    def spy(inc, full):
        calls.append((inc, full))

    monkeypatch.setattr(driver, "assert_results_equal", spy)
    Compiler(*GCC_SIM).compile(programs[1], paranoid=True)
    assert len(calls) == 1
    _, reference = calls[0]
    assert all(
        type(fn) is IRFunction for fn in reference.module.functions.values()
    )
    # The object reference itself is the oracle: nothing to compare it with.
    Compiler(*GCC_SIM, flat_native=False).compile(programs[1], paranoid=True)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["uCFuzz.s", "Csmith"])
def test_make_fuzzer_flat_native_false_selects_object_ir(
    name, registry, small_seeds
):
    compiler = Compiler(*GCC_SIM)
    fuzzer = make_fuzzer(
        name, compiler, small_seeds[:4], registry, random.Random(3),
        flat_native=False,
    )
    assert fuzzer.compiler is compiler
    assert not compiler.flat_native
    modules = []
    for _ in range(4):
        result = fuzzer.step().result
        if result.module is not None:
            modules.append(result.module)
    assert modules
    for module in modules:
        assert all(type(fn) is IRFunction for fn in module.functions.values())
    # ...and ``True`` turns it back on, on the same compiler.
    make_fuzzer(
        name, compiler, small_seeds[:4], registry, random.Random(3),
        flat_native=True,
    )
    assert compiler.flat_native


def test_make_fuzzer_default_keeps_the_compiler_setting(registry, small_seeds):
    compiler = Compiler(*GCC_SIM, flat_native=False)
    make_fuzzer("Csmith", compiler, [], registry, random.Random(3))
    assert not compiler.flat_native
    compiler = Compiler(*GCC_SIM)
    make_fuzzer("uCFuzz.s", compiler, small_seeds[:4], registry, random.Random(3))
    assert compiler.flat_native


def test_cell_key_names_the_path(small_seeds):
    base = dict(
        fuzzer_name="Csmith", personality="gcc-sim", version="14",
        bug_seed=20240427, seeds=(), steps=3, cell_seed=5,
    )
    flat, obj = CellSpec(**base), CellSpec(**base, flat_native=False)
    assert flat.flat_native
    assert cell_key(flat) != cell_key(obj)
    a, b = run_cell(flat), run_cell(obj)
    assert a.to_json() == b.to_json()


def test_make_fuzzer_rejects_flat_ir_on_the_object_reference(
    registry, small_seeds
):
    with pytest.raises(ValueError, match="flat_ir"):
        make_fuzzer(
            "uCFuzz.s", Compiler(*GCC_SIM), small_seeds[:4], registry,
            random.Random(3), flat_ir=True, flat_native=False,
        )
    # flat_ir is implied by the flat-native path, so asking for both is fine.
    fuzzer = make_fuzzer(
        "uCFuzz.s", Compiler(*GCC_SIM), small_seeds[:4], registry,
        random.Random(3), flat_ir=True, flat_native=True,
    )
    assert fuzzer.compiler.flat_native


@pytest.mark.parametrize("session", [True, "instance"])
def test_session_on_the_object_reference_is_refused(
    registry, small_seeds, session
):
    with pytest.raises(ValueError, match="flat-native"):
        if session is True:
            make_fuzzer(
                "uCFuzz.s", Compiler(*GCC_SIM), small_seeds[:4], registry,
                random.Random(3), session=True, flat_native=False,
            )
        else:
            MuCFuzz(
                Compiler(*GCC_SIM), random.Random(3), small_seeds[:4],
                registry.supervised(), session=CompileSession(),
                flat_native=False,
            )


def _production_path() -> dict:
    """``perfbench/workloads.production_path()``, loaded from its file."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.production_path()


def test_compatibility_keywords_build_the_one_warm_fuzzer(
    registry, small_seeds
):
    def run(**kwargs):
        fuzzer = make_fuzzer(
            "uCFuzz.s", Compiler(*GCC_SIM), small_seeds[:8], registry,
            random.Random(3), **kwargs,
        )
        return run_campaign(fuzzer, steps=30).to_json()

    assert run(**_production_path()) == run()


@pytest.mark.parametrize("knob", ["session", "fuse_passes", "batch_compile"])
def test_compatibility_keywords_refuse_false(registry, small_seeds, knob):
    with pytest.raises(ValueError, match=knob):
        make_fuzzer(
            "uCFuzz.s", Compiler(*GCC_SIM), small_seeds[:4], registry,
            random.Random(3), **{knob: False},
        )
    # flat_ir=False stays the legal default.
    make_fuzzer(
        "uCFuzz.s", Compiler(*GCC_SIM), small_seeds[:4], registry,
        random.Random(3), flat_ir=False,
    )
