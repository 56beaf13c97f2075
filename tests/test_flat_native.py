"""The flat-native middle end: buffer-direct irgen, flat inlining, journal.

Covers the bridge-elimination contract (a flat-native compile never
constructs object IR on the hot path), bit-pattern float immediate pooling,
IRBuffer edge cases (empty blocks, max-arity xdata, name-table interning
across inline splices), and full-pipeline equivalence: flat-native compiles
and campaigns are bit-identical to the object-IR reference.
"""

import copy
import hashlib
import math
import random
import struct

import pytest

from repro.cast.cache import FrontendCache
from repro.cast.parser import parse
from repro.cast.sema import Sema
from repro.compiler.coverage import CoverageMap
from repro.compiler.driver import Compiler, GCC_SIM
from repro.compiler.flatir import (
    BridgeCounters,
    FlatFunction,
    FunctionSnapshot,
    IRBuffer,
    from_nodes,
    to_nodes,
)
from repro.compiler.ir import ImmFloat
from repro.compiler.irgen import FlatIRGen, IRGen
from repro.compiler.passes import (
    OptContext,
    flat_inlinable,
    flat_inline_into_caller,
    inline_candidates,
    inline_into_caller,
    local_opt,
)
from repro.compiler.session import CompileSession
from repro.fuzzing.mucfuzz import MuCFuzz
from repro.fuzzing.parallel import CellSpec, cell_key
from repro.fuzzing.progen import GenPolicy, ProgramGenerator
from repro.muast.registry import global_registry


def _front_end(text):
    try:
        unit = parse(text)
    except Exception:
        return None, None
    sema = Sema()
    if [d for d in sema.analyze(unit) if d.severity == "error"]:
        return None, None
    return unit, sema


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


# ---------------------------------------------------------------------------
# Satellite: bit-pattern float immediate pooling.


class TestFloatPoolBitPatterns:
    def test_signed_zeros_get_distinct_pool_slots(self):
        buf = IRBuffer("f")
        pos = buf.imm_float_enc(0.0)
        neg = buf.imm_float_enc(-0.0)
        assert pos != neg
        assert _bits(buf.imms[pos >> 2].value) == _bits(0.0)
        assert _bits(buf.imms[neg >> 2].value) == _bits(-0.0)

    def test_nan_payloads_get_distinct_pool_slots(self):
        quiet = struct.unpack("<d", bytes.fromhex("000000000000f87f"))[0]
        payload = struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0]
        assert math.isnan(quiet) and math.isnan(payload)
        assert repr(quiet) == repr(payload)  # repr would have collided
        buf = IRBuffer("f")
        a = buf.imm_float_enc(quiet)
        b = buf.imm_float_enc(payload)
        assert a != b
        assert _bits(buf.imms[a >> 2].value) == _bits(quiet)
        assert _bits(buf.imms[b >> 2].value) == _bits(payload)

    def test_imm_enc_existing_operands_use_bit_pattern_keys(self):
        buf = IRBuffer("f")
        a = buf.imm_enc(ImmFloat(0.0))
        b = buf.imm_enc(ImmFloat(-0.0))
        assert a != b
        # Dedup still fires for the genuinely identical value.
        assert buf.imm_enc(ImmFloat(-0.0)) == b

    def test_pool_round_trip_preserves_bit_patterns(self):
        # Const-folding `x * -0.0 + 0.0` leaves both signed zeros as
        # immediates; a repr-keyed pool would collapse them into one slot.
        source = "double f(double x) { return x * -0.0 + 0.0; }"
        unit, sema = _front_end(source)
        fn = IRGen(sema, CoverageMap()).lower(unit).functions["f"]
        local_opt(fn, OptContext(cov=CoverageMap(), opt_level=2))
        buf = from_nodes(fn)
        before = sorted(
            _bits(i.value) for i in buf.imms if type(i) is ImmFloat
        )
        assert _bits(-0.0) in before and _bits(0.0) in before
        back = to_nodes(buf)
        assert back.dump() == fn.dump()
        rebuf = from_nodes(back)
        assert rebuf == buf
        after = sorted(
            _bits(i.value) for i in rebuf.imms if type(i) is ImmFloat
        )
        assert after == before


# ---------------------------------------------------------------------------
# Buffer-direct IR generation.


class TestFlatIRGenParity:
    def _check_program(self, text):
        unit, sema = _front_end(text)
        if unit is None:
            return 0
        obj_cov, flat_cov = CoverageMap(), CoverageMap()
        try:
            obj_module = IRGen(sema, obj_cov).lower(unit)
        except Exception:
            return 0
        counters = BridgeCounters()
        flat_module = FlatIRGen(sema, flat_cov, counters=counters).lower(unit)
        assert flat_module.dump() == obj_module.dump(), text
        assert frozenset(flat_cov.edges) == frozenset(obj_cov.edges)
        for fn in flat_module.functions.values():
            assert type(fn) is FlatFunction
        # Buffer-direct emission: lowering never crossed the IR bridge
        # (dump() above decodes fresh copies without counting).
        assert counters.encodes == 0 and counters.decodes == 0
        return len(flat_module.functions)

    def test_seed_corpus(self, small_seeds):
        assert sum(self._check_program(t) for t in small_seeds[:30]) > 30

    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs(self, seed):
        text = ProgramGenerator(
            random.Random(seed), GenPolicy(max_stmts=8)
        ).generate()
        self._check_program(text)

    def test_stats_match_object_irgen(self, small_seeds):
        for text in small_seeds[:10]:
            unit, sema = _front_end(text)
            if unit is None:
                continue
            obj = IRGen(sema, CoverageMap())
            obj.lower(unit)
            flat = FlatIRGen(sema, CoverageMap())
            flat.lower(unit)
            assert dict(flat.stats.counters) == dict(obj.stats.counters)


# ---------------------------------------------------------------------------
# Satellite: IRBuffer edge cases.


class TestBufferEdgeCases:
    def test_empty_blocks_after_flat_simplify_cfg(self):
        # The dead branch collapses under the flat pass set; dead rows stay
        # in the arrays but their blocks vanish from the block table, and
        # decode must not resurrect them.
        source = """
        int main(void) {
          int x = 1;
          if (0) { x = 2; x = 3; x = 4; }
          while (0) { x = 5; }
          return x;
        }
        """
        unit, sema = _front_end(source)
        obj_fn = IRGen(sema, CoverageMap()).lower(unit).functions["main"]
        flat_fn = FlatIRGen(sema, CoverageMap()).lower(unit).functions["main"]
        obj_ctx = OptContext(cov=CoverageMap(), opt_level=2)
        local_opt(obj_fn, obj_ctx)
        flat_ctx = OptContext(
            cov=CoverageMap(), opt_level=2, flat_native=True
        )
        local_opt(flat_fn, flat_ctx)
        buf = flat_fn.buffer()
        live = sum(len(idxs) for _, idxs in buf.blocks)
        assert live < len(buf.opc)  # dead rows really were left behind
        assert flat_fn.dump() == obj_fn.dump()
        assert frozenset(flat_ctx.cov.edges) == frozenset(obj_ctx.cov.edges)
        assert dict(flat_ctx.stats.counters) == dict(obj_ctx.stats.counters)

    def test_call_xdata_max_arity_round_trip(self):
        args = ", ".join(f"int a{i}" for i in range(8))
        vals = ", ".join(f"x + {i}" for i in range(8))
        source = f"""
        int wide({args}) {{ return a0 + a7; }}
        int main(void) {{ int x = 1; return wide({vals}); }}
        """
        unit, sema = _front_end(source)
        fn = IRGen(sema, CoverageMap()).lower(unit).functions["main"]
        buf = from_nodes(fn)
        assert to_nodes(buf).dump() == fn.dump()
        assert from_nodes(to_nodes(buf)) == buf

    def test_gep_xdata_round_trip(self):
        source = """
        int grid[4][8];
        int main(void) {
          int i = 2;
          grid[i][i + 1] = 7;
          return grid[1][3];
        }
        """
        unit, sema = _front_end(source)
        fn = IRGen(sema, CoverageMap()).lower(unit).functions["main"]
        buf = from_nodes(fn)
        assert to_nodes(buf).dump() == fn.dump()
        assert from_nodes(to_nodes(buf)) == buf

    def test_clone_isolates_call_arg_lists(self):
        source = """
        int f(int a, int b) { return a + b; }
        int main(void) { int x = 1; return f(x, x + 1); }
        """
        unit, sema = _front_end(source)
        fn = IRGen(sema, CoverageMap()).lower(unit).functions["main"]
        buf = from_nodes(fn)
        dup = buf.clone()
        before = to_nodes(buf).dump()
        mutated = 0
        for x in dup.xdata:
            if len(x) == 3:  # a Call's (callee, args, arg_tys) entry
                x[1][:] = [0 for _ in x[1]]
                mutated += 1
        assert mutated  # the program really has a call to corrupt
        assert to_nodes(buf).dump() == before

    def test_inline_candidacy_agrees_at_size_boundary(self):
        # Exactly MAX_INLINE_INSTRS body instructions plus the Ret: the
        # object check counts ``block.instrs`` (terminator excluded) while
        # the buffer's index list includes the Ret row — the flat check
        # must not reject the boundary callee the object check accepts.
        decls = "\n".join(f"int base{i};" for i in range(3))
        expr = " + ".join(f"base{i} * {i + 3}" for i in range(3))
        source = (
            f"{decls}\n"
            f"static int wide(void) {{ return {expr}; }}\n"
            "int main(void) { return wide(); }\n"
        )
        unit, sema = _front_end(source)
        obj_module = IRGen(sema, CoverageMap()).lower(unit)
        flat_module = FlatIRGen(sema, CoverageMap()).lower(unit)
        obj_ctx = OptContext(cov=CoverageMap(), opt_level=2)
        flat_ctx = OptContext(
            cov=CoverageMap(), opt_level=2, flat_native=True
        )
        for fn in obj_module.functions.values():
            local_opt(fn, obj_ctx)
        for fn in flat_module.functions.values():
            local_opt(fn, flat_ctx)
        wide = obj_module.functions["wide"]
        assert len(wide.blocks[0].instrs) == 12  # at the bound, not below
        assert set(inline_candidates(obj_module)) == {"wide"}
        assert flat_inlinable(flat_module.functions["wide"].buffer())

    def test_name_interning_across_inline_splices(self):
        # The callee must survive local_opt slot-free (params spill to
        # slots, which blocks candidacy), so it reads a global instead.
        source = """
        int base;
        static int bump(void) { return base * 3 + 7; }
        int main(void) {
          int total = 0;
          for (int i = 0; i < 4; i = i + 1) { total = total + bump(); }
          return total;
        }
        """
        unit, sema = _front_end(source)
        obj_module = IRGen(sema, CoverageMap()).lower(unit)
        flat_module = FlatIRGen(sema, CoverageMap()).lower(unit)
        obj_ctx = OptContext(cov=CoverageMap(), opt_level=2)
        flat_ctx = OptContext(
            cov=CoverageMap(), opt_level=2, flat_native=True
        )
        for fn in obj_module.functions.values():
            local_opt(fn, obj_ctx)
        for fn in flat_module.functions.values():
            local_opt(fn, flat_ctx)
        obj_cands = inline_candidates(obj_module)
        flat_cands = {
            name: fn.buffer()
            for name, fn in flat_module.functions.items()
            if flat_inlinable(fn.buffer())
        }
        assert set(obj_cands) == set(flat_cands) == {"bump"}
        inline_into_caller(obj_module.functions["main"], obj_cands, obj_ctx)
        flat_inline_into_caller(
            flat_module.functions["main"], flat_cands, flat_ctx
        )
        caller = flat_module.functions["main"]
        assert caller.dump() == obj_module.functions["main"].dump()
        buf = caller.buffer()
        # Splicing re-interns callee names: the table stays duplicate-free.
        assert len(buf.names) == len(set(buf.names))
        assert frozenset(flat_ctx.cov.edges) == frozenset(obj_ctx.cov.edges)
        assert dict(flat_ctx.stats.counters) == dict(obj_ctx.stats.counters)


# ---------------------------------------------------------------------------
# Full-pipeline equivalence and the bridge-elimination contract.


_PROGRAM = """
int g[8];
float fz = -0.0f;
static int helper(int a, int b) { return a * b + 3; }
int tiny(int x) { return x + 1; }
int main(void) {
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) { g[i] = helper(i, i + 2); }
  int n = 8;
  while (n) { s = s + g[n - 1] + tiny(n); n = n - 1; }
  if (s > 100) goto done;
  s = s + tiny(41);
done:
  return s;
}
"""


class TestFlatNativeCompile:
    @pytest.mark.parametrize("arm", ["plain", "cache", "session"])
    def test_matches_object_compile(self, arm):
        ref = Compiler(*GCC_SIM, flat_native=False).compile(_PROGRAM, 2, ())
        kwargs = {}
        if arm in ("cache", "session"):
            kwargs["cache"] = FrontendCache()
        if arm == "session":
            kwargs["session"] = CompileSession()
        compiler = Compiler(*GCC_SIM, flat_native=True)
        for _ in range(2):  # second compile exercises the cache/session memo
            result = compiler.compile(_PROGRAM, 2, (), **kwargs)
            assert result.ok and result.asm == ref.asm
            assert result.features == ref.features
        assert compiler.bridge.encodes == 0
        assert compiler.bridge.decodes == 0

    def test_paranoid_differential(self):
        result = Compiler(*GCC_SIM, flat_native=True).compile(
            _PROGRAM, 2, (), paranoid=True,
            cache=FrontendCache(), session=CompileSession(),
        )
        assert result.ok

    def test_corpus_matches_object_compile(self, small_seeds):
        flat = Compiler(*GCC_SIM, flat_native=True)
        warm = dict(cache=FrontendCache(), session=CompileSession())
        ref = Compiler(*GCC_SIM, flat_native=False)
        for text in small_seeds[:15]:
            a = flat.compile(text, 2, (), **warm)
            b = ref.compile(text, 2, ())
            assert a.ok == b.ok
            assert a.asm == b.asm
            assert a.features == b.features
        assert flat.bridge.decodes == 0


class TestFlatNativeCampaign:
    def _run(self, flat_native, steps=25):
        # The flat-native arm runs the production session; the object-IR
        # reference takes the plain pipeline, which never uses a session.
        fuzzer = MuCFuzz(
            Compiler(*GCC_SIM, flat_native=flat_native),
            random.Random(11),
            ["int main(void) { return 0; }"],
            global_registry.supervised(),
        )
        for _ in range(steps):
            fuzzer.step()
        return fuzzer

    def test_campaign_parity_and_zero_decodes(self):
        obj = self._run(False)
        flat = self._run(True)
        assert frozenset(flat.coverage.edges) == frozenset(obj.coverage.edges)
        assert [p.text for p in flat.pool.entries] == [
            p.text for p in obj.pool.entries
        ]
        # Bridge counters live on the compiler, outside the fuzzer's stats.
        assert flat.compiler.bridge.decodes == 0
        assert flat.compiler.bridge.encodes == 0
        assert "flat_decodes" not in flat.stats_snapshot()

    def test_cell_key_distinguishes_flat_native(self):
        base = dict(
            fuzzer_name="uCFuzz.s",
            personality="gcc-sim",
            version="14",
            bug_seed=1,
            seeds=("int main(void) { return 0; }",),
            steps=5,
            cell_seed=3,
        )
        # The middle end is the compiler's, never a cell field...
        with pytest.raises(TypeError):
            CellSpec(**base, flat_native=False)
        spec = CellSpec(**base)
        # ...so a checkpoint keyed when cells still chose it (an unversioned
        # tuple ending in the flat_native flag) is never read as this cell.
        for flat_native in (True, False):
            ident = (
                spec.fuzzer_name, spec.personality, spec.version,
                spec.bug_seed, spec.seeds, spec.steps, spec.cell_seed,
                spec.virtual_hours, spec.sample_points,
                spec.quarantine_threshold, spec.cache_maxsize, spec.paranoid,
                flat_native, spec.schedule, spec.mutator_stats,
            )
            digest = hashlib.sha1(repr(ident).encode("utf-8")).hexdigest()
            old_key = f"{spec.fuzzer_name}-{spec.personality}-{digest[:16]}"
            assert cell_key(spec) != old_key


class TestFunctionSnapshotFlat:
    def test_snapshot_of_flat_function_skips_bridge(self):
        unit, sema = _front_end(_PROGRAM)
        counters = BridgeCounters()
        module = FlatIRGen(sema, CoverageMap(), counters=counters).lower(unit)
        fn = module.functions["tiny"]
        snap = FunctionSnapshot.of(fn)
        assert counters.encodes == 0 and counters.decodes == 0
        assert snap.buf is not fn.buffer()
        assert to_nodes(snap.buf).dump() == fn.dump()

    def test_decayed_flat_function_counts_and_reencodes(self):
        unit, sema = _front_end(_PROGRAM)
        counters = BridgeCounters()
        module = FlatIRGen(sema, CoverageMap(), counters=counters).lower(unit)
        fn = module.functions["tiny"]
        _ = fn.blocks  # object access decays the carrier
        assert counters.decodes == 1
        fn.buffer()  # and coming back re-encodes
        assert counters.encodes == 1
