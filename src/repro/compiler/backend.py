"""The back end: instruction selection, register allocation, emission.

Produces a toy RISC-ish assembly text.  Reports the structural features the
back-end bug triggers key on (register pressure, empty label blocks in void
functions — the Clang #63762 pattern — spill density, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.coverage import CoverageMap
from repro.compiler.ir import (
    BinOp, Br, Call, Cast, Gep, GlobalAddr, ImmFloat, ImmInt, IRFunction,
    IRModule, IRType, Jmp, Load, LocalAddr, Memcpy, Ret, Store, Temp, UnOp,
)
from repro.compiler.passes.common import OptContext

NUM_REGS = 8

_OPCODE = {
    "+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
    "/u": "udiv", "%u": "urem", "<<": "shl", ">>": "sar", ">>u": "shr",
    "&": "and", "|": "or", "^": "xor",
    "lt": "cmplt", "le": "cmple", "gt": "cmpgt", "ge": "cmpge",
    "eq": "cmpeq", "ne": "cmpne",
    "ltu": "cmpltu", "leu": "cmpleu", "gtu": "cmpgtu", "geu": "cmpgeu",
    "equ": "cmpeq", "neu": "cmpne",
}


@dataclass
class BackendResult:
    asm: str
    stats: dict[str, int] = field(default_factory=dict)


def _live_intervals(instrs: list) -> dict[int, tuple[int, int]]:
    intervals: dict[int, tuple[int, int]] = {}
    for i, instr in enumerate(instrs):
        dst = instr.dest()
        if dst is not None:
            lo, hi = intervals.get(dst.index, (i, i))
            intervals[dst.index] = (min(lo, i), max(hi, i))
        for op in instr.operands():
            if isinstance(op, Temp):
                lo, hi = intervals.get(op.index, (i, i))
                intervals[op.index] = (min(lo, i), max(hi, i))
    return intervals


def _allocate(intervals: dict[int, tuple[int, int]]) -> tuple[dict[int, str], int, int]:
    """Greedy linear-scan allocation; returns (assignment, spills, pressure)."""
    assignment: dict[int, str] = {}
    events: list[tuple[int, int, int]] = []  # (start, end, temp)
    for t, (lo, hi) in intervals.items():
        events.append((lo, hi, t))
    events.sort()
    active: list[tuple[int, int, str]] = []  # (end, temp, reg)
    free = [f"r{i}" for i in range(NUM_REGS)]
    spills = 0
    pressure = 0
    for start, end, t in events:
        expired = [a for a in active if a[0] < start]
        for a in expired:
            active.remove(a)
            free.append(a[2])
        pressure = max(pressure, len(active) + 1)
        if free:
            reg = free.pop()
            assignment[t] = reg
            active.append((end, t, reg))
        else:
            spills += 1
            assignment[t] = f"[sp+{8 * spills}]"
    return assignment, spills, pressure


def lower_to_asm(
    module: IRModule, ctx: OptContext, fn_lowerer=None
) -> BackendResult:
    """Emit the whole module.

    ``fn_lowerer(fn, ctx) -> BackendResult`` overrides per-function lowering
    (the incremental middle end replays unchanged functions through it); the
    cumulative statistics and the module/function checkpoints always run
    live, because they depend on the preceding functions' totals.
    """
    lines: list[str] = []
    cov = ctx.cov
    lower = fn_lowerer if fn_lowerer is not None else _lower_function
    total_stats = {
        "be_blocks": 0, "be_instrs": 0, "be_spills": 0, "be_pressure": 0,
        "be_calls": 0, "be_label_blocks": 0,
        "be_void_trailing_label": 0, "be_empty_label_after_call": 0,
    }
    for g in module.globals.values():
        lines.append(f".data {g.name}: .space {g.size}")
        cov.hit("backend:global", (g.const, g.volatile, g.size > 16))
    for fn in module.functions.values():
        result = lower(fn, ctx)
        lines.append(result.asm)
        for k, v in result.stats.items():
            if k in ("be_pressure",):
                total_stats[k] = max(total_stats[k], v)
            else:
                total_stats[k] = total_stats.get(k, 0) + v
        features = dict(total_stats)
        features.update({f"fn_{k}": v for k, v in result.stats.items()})
        ctx.check("backend:function", features)
    ctx.check("backend:module", total_stats)
    return BackendResult("\n".join(lines), total_stats)


def _lower_function(fn: IRFunction, ctx: OptContext) -> BackendResult:
    if ctx.flat_native:
        return _lower_function_flat(fn, ctx)
    cov = ctx.cov
    instrs = [i for b in fn.blocks for i in b.instrs]
    intervals = _live_intervals(instrs)
    assignment, spills, pressure = _allocate(intervals)
    cov.hit("backend:regalloc", (spills > 0, pressure))

    stats = {
        "be_blocks": len(fn.blocks),
        "be_instrs": len(instrs),
        "be_spills": spills,
        "be_pressure": pressure,
        "be_calls": sum(1 for i in instrs if isinstance(i, Call)),
        "be_label_blocks": sum(
            1 for b in fn.blocks if b.label.startswith("ul_")
        ),
        "be_void_trailing_label": 0,
        "be_empty_label_after_call": 0,
    }

    # The Clang #63762 shape: a void function whose user-label blocks are
    # empty (their returns were removed) directly following call-carrying
    # code.  Ret2V mutants of label-heavy seeds produce exactly this.
    if fn.ret_ty is IRType.VOID and stats["be_calls"] >= 1:
        for b in fn.blocks:
            if b.label.startswith("ul_"):
                meaningful = [
                    i for i in b.instrs if not isinstance(i, (Jmp, Ret))
                ]
                if not meaningful:
                    stats["be_empty_label_after_call"] += 1
        if fn.blocks and fn.blocks[-1].label.startswith("ul_"):
            stats["be_void_trailing_label"] = 1

    def reg(op) -> str:
        if isinstance(op, ImmInt):
            return f"#{op.value}"
        if isinstance(op, ImmFloat):
            return f"#{op.value!r}"
        return assignment.get(op.index, "r?")

    lines = [f".text {fn.name}:"]
    for block in fn.blocks:
        lines.append(f"{fn.name}.{block.label}:")
        for instr in block.instrs:
            if isinstance(instr, BinOp):
                opc = _OPCODE.get(instr.op, instr.op)
                if instr.ty.is_float:
                    opc = "f" + opc
                cov.hit("backend:isel", (opc, instr.ty))
                cov.hit(
                    "backend:isel_shape",
                    (opc, isinstance(instr.lhs, Temp), isinstance(instr.rhs, Temp)),
                )
                lines.append(
                    f"  {opc} {reg(instr.dst)}, {reg(instr.lhs)}, {reg(instr.rhs)}"
                )
            elif isinstance(instr, UnOp):
                cov.hit("backend:isel", (instr.op, instr.ty))
                lines.append(f"  {instr.op} {reg(instr.dst)}, {reg(instr.src)}")
            elif isinstance(instr, Cast):
                cov.hit("backend:isel", ("cast", instr.from_ty, instr.to_ty))
                lines.append(f"  mov.{instr.to_ty.value} {reg(instr.dst)}, {reg(instr.src)}")
            elif isinstance(instr, LocalAddr):
                lines.append(f"  lea {reg(instr.dst)}, {instr.slot}")
            elif isinstance(instr, GlobalAddr):
                lines.append(f"  lea {reg(instr.dst)}, ={instr.name}")
            elif isinstance(instr, Load):
                cov.hit("backend:isel", ("load", instr.ty, instr.volatile))
                lines.append(f"  ld.{instr.ty.value} {reg(instr.dst)}, [{reg(instr.ptr)}]")
            elif isinstance(instr, Store):
                cov.hit("backend:isel", ("store", instr.ty, instr.volatile))
                lines.append(f"  st.{instr.ty.value} [{reg(instr.ptr)}], {reg(instr.value)}")
            elif isinstance(instr, Gep):
                lines.append(
                    f"  lea {reg(instr.dst)}, [{reg(instr.base)} + "
                    f"{reg(instr.index)}*{instr.scale} + {instr.offset}]"
                )
            elif isinstance(instr, Call):
                cov.hit("backend:isel", ("call", len(instr.args)))
                args = ", ".join(reg(a) for a in instr.args)
                dst = f"{reg(instr.dst)} = " if instr.dst else ""
                lines.append(f"  {dst}call {instr.callee}({args})")
            elif isinstance(instr, Memcpy):
                lines.append(
                    f"  memcpy [{reg(instr.dst_ptr)}], [{reg(instr.src_ptr)}], "
                    f"#{instr.size}"
                )
            elif isinstance(instr, Jmp):
                lines.append(f"  b {fn.name}.{instr.target}")
            elif isinstance(instr, Br):
                cov.hit("backend:isel", ("br",))
                lines.append(
                    f"  cbnz {reg(instr.cond)}, {fn.name}.{instr.if_true}, "
                    f"{fn.name}.{instr.if_false}"
                )
            elif isinstance(instr, Ret):
                value = f" {reg(instr.value)}" if instr.value is not None else ""
                lines.append(f"  ret{value}")
    return BackendResult("\n".join(lines), stats)


def _flat_live_intervals(buf) -> dict[int, tuple[int, int]]:
    from repro.compiler import flatir as F

    intervals: dict[int, tuple[int, int]] = {}
    opcl, dstl, al, bl, auxl = buf.opc, buf.dst, buf.a, buf.b, buf.aux
    pos = 0
    for _label, idxs in buf.blocks:
        for i in idxs:
            d = dstl[i]
            if d is not None:
                lo, hi = intervals.get(d, (pos, pos))
                intervals[d] = (min(lo, pos), max(hi, pos))
            op = opcl[i]
            if op in _FLAT_AB_OPS:
                encs = (al[i], bl[i])
            elif op in _FLAT_A_OPS:
                encs = (al[i],)
            elif op == F.OP_CALL:
                encs = buf.xdata[auxl[i]][1]
            else:
                encs = ()
            for e in encs:
                if e & 3 == F.TAG_TEMP:
                    t = e >> 2
                    lo, hi = intervals.get(t, (pos, pos))
                    intervals[t] = (min(lo, pos), max(hi, pos))
            pos += 1
    return intervals


def _lower_function_flat(fn, ctx: OptContext) -> BackendResult:
    """The buffer-walk twin of :func:`_lower_function`.

    Emits byte-identical assembly and fires the same coverage hits with the
    same decoded keys; dispatch is over opcode ints instead of isinstance
    chains and operands never materialize as objects.
    """
    from repro.compiler import flatir as F

    cov = ctx.cov
    buf = fn.buffer()  # a FlatFunction: walk its live buffer directly
    names = buf.names
    imms = buf.imms
    opcl, dstl, al, bl, tyl, auxl = buf.opc, buf.dst, buf.a, buf.b, buf.ty, buf.aux
    TYPES = F.TYPES

    intervals = _flat_live_intervals(buf)
    assignment, spills, pressure = _allocate(intervals)
    cov.hit("backend:regalloc", (spills > 0, pressure))

    n_instrs = sum(len(idxs) for _l, idxs in buf.blocks)
    stats = {
        "be_blocks": len(buf.blocks),
        "be_instrs": n_instrs,
        "be_spills": spills,
        "be_pressure": pressure,
        "be_calls": sum(
            1 for _l, idxs in buf.blocks for i in idxs if opcl[i] == F.OP_CALL
        ),
        "be_label_blocks": sum(
            1 for l, _idxs in buf.blocks if names[l].startswith("ul_")
        ),
        "be_void_trailing_label": 0,
        "be_empty_label_after_call": 0,
    }

    # The Clang #63762 shape (see _lower_function).
    if buf.ret_ty == F.VOID_TAG and stats["be_calls"] >= 1:
        for l, idxs in buf.blocks:
            if names[l].startswith("ul_"):
                if all(opcl[i] in (F.OP_JMP, F.OP_RET) for i in idxs):
                    stats["be_empty_label_after_call"] += 1
        if buf.blocks and names[buf.blocks[-1][0]].startswith("ul_"):
            stats["be_void_trailing_label"] = 1

    def reg(enc: int) -> str:
        if enc & 3 == F.TAG_IMM:
            v = imms[enc >> 2]
            if type(v) is ImmInt:
                return f"#{v.value}"
            return f"#{v.value!r}"
        return assignment.get(enc >> 2, "r?")

    def dreg(d: int) -> str:
        return assignment.get(d, "r?")

    fname = buf.name
    lines = [f".text {fname}:"]
    for label_id, idxs in buf.blocks:
        lines.append(f"{fname}.{names[label_id]}:")
        for i in idxs:
            op = opcl[i]
            if op == F.OP_BINOP:
                opn = names[auxl[i]]
                ty = TYPES[tyl[i]]
                opc = _OPCODE.get(opn, opn)
                if ty.is_float:
                    opc = "f" + opc
                cov.hit("backend:isel", (opc, ty))
                cov.hit(
                    "backend:isel_shape",
                    (opc, al[i] & 3 == F.TAG_TEMP, bl[i] & 3 == F.TAG_TEMP),
                )
                lines.append(
                    f"  {opc} {dreg(dstl[i])}, {reg(al[i])}, {reg(bl[i])}"
                )
            elif op == F.OP_UNOP:
                opn = names[auxl[i]]
                cov.hit("backend:isel", (opn, TYPES[tyl[i]]))
                lines.append(f"  {opn} {dreg(dstl[i])}, {reg(al[i])}")
            elif op == F.OP_CAST:
                to_ty = TYPES[tyl[i]]
                cov.hit("backend:isel", ("cast", TYPES[auxl[i] >> 1], to_ty))
                lines.append(
                    f"  mov.{to_ty.value} {dreg(dstl[i])}, {reg(al[i])}"
                )
            elif op == F.OP_LOCALADDR:
                lines.append(f"  lea {dreg(dstl[i])}, {names[auxl[i]]}")
            elif op == F.OP_GLOBALADDR:
                lines.append(f"  lea {dreg(dstl[i])}, ={names[auxl[i]]}")
            elif op == F.OP_LOAD:
                ty = TYPES[tyl[i]]
                cov.hit("backend:isel", ("load", ty, bool(auxl[i])))
                lines.append(
                    f"  ld.{ty.value} {dreg(dstl[i])}, [{reg(al[i])}]"
                )
            elif op == F.OP_STORE:
                ty = TYPES[tyl[i]]
                cov.hit("backend:isel", ("store", ty, bool(auxl[i])))
                lines.append(
                    f"  st.{ty.value} [{reg(al[i])}], {reg(bl[i])}"
                )
            elif op == F.OP_GEP:
                scale, offset = buf.xdata[auxl[i]]
                lines.append(
                    f"  lea {dreg(dstl[i])}, [{reg(al[i])} + "
                    f"{reg(bl[i])}*{scale} + {offset}]"
                )
            elif op == F.OP_CALL:
                callee, arg_encs, _arg_tys = buf.xdata[auxl[i]]
                cov.hit("backend:isel", ("call", len(arg_encs)))
                args = ", ".join(reg(a) for a in arg_encs)
                d = dstl[i]
                dst = f"{dreg(d)} = " if d is not None else ""
                lines.append(f"  {dst}call {names[callee]}({args})")
            elif op == F.OP_MEMCPY:
                lines.append(
                    f"  memcpy [{reg(al[i])}], [{reg(bl[i])}], #{auxl[i]}"
                )
            elif op == F.OP_JMP:
                lines.append(f"  b {fname}.{names[auxl[i]]}")
            elif op == F.OP_BR:
                cov.hit("backend:isel", ("br",))
                lines.append(
                    f"  cbnz {reg(al[i])}, {fname}.{names[bl[i]]}, "
                    f"{fname}.{names[auxl[i]]}"
                )
            else:  # OP_RET
                value = f" {reg(al[i])}" if al[i] != F.NONE else ""
                lines.append(f"  ret{value}")
    return BackendResult("\n".join(lines), stats)


def _flat_op_groups():
    from repro.compiler import flatir as F

    ab = frozenset((F.OP_BINOP, F.OP_STORE, F.OP_GEP, F.OP_MEMCPY))
    a = frozenset((F.OP_UNOP, F.OP_CAST, F.OP_LOAD, F.OP_BR, F.OP_RET))
    return ab, a


_FLAT_AB_OPS, _FLAT_A_OPS = _flat_op_groups()
