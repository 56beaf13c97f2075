"""The flat-native middle end is the default compile path.

Cold, session-less compiles — the generator baselines' path — run the
buffer-native middle end unless ``flat_native=False`` asks for the object-IR
reference, and the two agree field for field on fresh Csmith-style programs
under both personalities, at every -O level and with every samplable flag.
The knob means the same thing at every layer that accepts it.
"""

import random

import pytest

from repro.compiler.driver import CLANG_SIM, GCC_SIM, SAMPLABLE_FLAGS, Compiler
from repro.compiler.flatir import FlatFunction
from repro.compiler.incremental import assert_results_equal
from repro.compiler.ir import IRFunction
from repro.fuzzing.baselines.csmith import CSMITH_POLICY
from repro.fuzzing.campaign import make_fuzzer
from repro.fuzzing.parallel import CellSpec, cell_key, run_cell
from repro.fuzzing.progen import ProgramGenerator

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


def test_default_is_flat_native(programs):
    compiler = Compiler(*GCC_SIM)
    assert compiler.flat_native and compiler.flat_ir
    result = compiler.compile(programs[0])
    assert result.ok
    functions = list(result.module.functions.values())
    assert functions and all(isinstance(fn, FlatFunction) for fn in functions)
    assert all(fn.buf is not None for fn in functions)


def test_flat_native_false_is_object_ir(programs):
    compiler = Compiler(*GCC_SIM, flat_native=False)
    assert not compiler.flat_native and not compiler.flat_ir
    result = compiler.compile(programs[0])
    assert result.ok
    assert all(
        type(fn) is IRFunction for fn in result.module.functions.values()
    )


def test_flat_ir_falls_back_to_the_explicit_request():
    compiler = Compiler(*GCC_SIM, flat_ir=True)
    compiler.flat_native = False
    assert compiler.flat_ir
    compiler = Compiler(*GCC_SIM)
    compiler.flat_native = False
    assert not compiler.flat_ir


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
    assert not compiler.flat_native and not compiler.flat_ir
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
    assert compiler.flat_native and compiler.flat_ir


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
    # flat_native implies flat_ir: asking for both runs the same path.
    assert cell_key(flat) == cell_key(CellSpec(**base, flat_ir=True))
    a, b = run_cell(flat), run_cell(obj)
    assert a.to_json() == b.to_json()
