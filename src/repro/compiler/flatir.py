"""A flat, slotted, array-of-struct encoding of the IR.

The object IR (:mod:`repro.compiler.ir`) spends the hot path allocating and
chasing per-node Python objects: every instruction is a dataclass, every
operand a frozen ``Temp``/``ImmInt``/``ImmFloat``, and every pass decision an
``isinstance`` chain.  :class:`IRBuffer` stores one function as parallel
arrays instead — opcode ints, destination temp indices, encoded operands,
type tags, and an opcode-specific ``aux`` payload — with blocks as lists of
instruction indices and all strings (op names, labels, slots, callees)
interned into one table.

Operand encoding
----------------

An operand is one int: ``enc = (payload << 2) | tag`` with

* ``tag 0`` — no operand (``enc == 0`` exactly; ``NONE``),
* ``tag 1`` — a temp; the payload is the (possibly negative) temp index,
* ``tag 2`` — an immediate; the payload is an index into the per-buffer
  immediate pool.

Negative temp indices (parameter temps) survive because Python's ``>>``
is arithmetic: ``(-1 << 2) | 1 == -3`` and ``-3 >> 2 == -1``, ``-3 & 3 == 1``.

The immediate pool deduplicates by *exact* value: ints by value, floats by
their IEEE-754 bit pattern (``struct.pack``) so ``-0.0`` and ``0.0`` (equal
under ``==``) keep distinct slots and NaNs with distinct payloads intern
distinctly and round-trip bit-exactly (``repr`` collapses every NaN to the
string ``'nan'``).  Pool entries are the frozen ``ImmInt``/``ImmFloat``
objects themselves, so bridging back to object form allocates nothing new
for immediates, and flat passes that need object-equality semantics (CSE
keys) can use the pooled objects directly.

The bridge contract
-------------------

``to_nodes(from_nodes(fn))`` is dump-identical and structurally equal to
``fn``; ``from_nodes(to_nodes(buf))`` reproduces ``buf`` bit-identically for
any freshly-encoded buffer (interning order is instruction order, which the
decode walk preserves).  Everything not ported to the buffer — inlining,
strlen/vectorize, crash seeding, coverage features, the paranoid
differential — keeps operating on the object form via this bridge.
"""

from __future__ import annotations

import struct

from repro.compiler.ir import (
    BinOp, Block, Br, Call, Cast, Gep, GlobalAddr, ImmFloat, ImmInt,
    IRFunction, IRType, Jmp, Load, LocalAddr, Memcpy, Ret, Store, Temp, UnOp,
)

_pack_double = struct.Struct("<d").pack


def _float_key(value: float) -> bytes:
    """Immediate-pool key for a float: its IEEE-754 bit pattern.

    ``bytes`` keys can never collide with the ``int`` keys used for
    ``ImmInt`` entries, and unlike ``repr`` they distinguish NaN payloads
    (every NaN reprs as ``'nan'``) as well as ``-0.0`` vs ``0.0``.
    """
    return _pack_double(value)


class BridgeCounters:
    """Counts object<->buffer bridge crossings for one compiler instance.

    ``encodes`` is bumped by :func:`from_nodes` (object IR flattened into a
    buffer), ``decodes`` by :func:`to_nodes` (buffer materialized back into
    object IR) — but only when a counter is threaded through, so diagnostic
    decodes (dumps, paranoid references) never pollute the steady-state
    measurement.  The flat-native bench gate asserts ``decodes == 0`` at
    steady state: a cache-warm hot path should never need object IR.
    """

    __slots__ = ("encodes", "decodes")

    def __init__(self):
        self.encodes = 0
        self.decodes = 0

# Opcode ints.  Order is part of the on-buffer format (dispatch tables index
# by these), so append-only.
(
    OP_BINOP, OP_UNOP, OP_CAST, OP_LOCALADDR, OP_GLOBALADDR, OP_LOAD,
    OP_STORE, OP_GEP, OP_CALL, OP_MEMCPY, OP_JMP, OP_BR, OP_RET,
) = range(13)

TERMINATOR_OPS = frozenset((OP_JMP, OP_BR, OP_RET))

#: tag -> IRType and back; tags index this tuple.
TYPES = tuple(IRType)
TYPE_TAG = {t: i for i, t in enumerate(TYPES)}
F32_TAG = TYPE_TAG[IRType.F32]
VOID_TAG = TYPE_TAG[IRType.VOID]

NONE = 0
TAG_TEMP = 1
TAG_IMM = 2


def temp_enc(index: int) -> int:
    return (index << 2) | TAG_TEMP


class IRBuffer:
    """One function's instructions as parallel arrays (see module docstring).

    Field usage per opcode (``-`` means unused/zero):

    =============  =====  ========  ========  =========  =======================
    opcode         dst    a         b         ty         aux
    =============  =====  ========  ========  =========  =======================
    OP_BINOP       temp   lhs       rhs       ty         op name id
    OP_UNOP        temp   src       -         ty         op name id
    OP_CAST        temp   src       -         to_ty      (from_ty << 1) | signed
    OP_LOCALADDR   temp   -         -         -          slot name id
    OP_GLOBALADDR  temp   -         -         -          global name id
    OP_LOAD        temp   ptr       -         ty         volatile
    OP_STORE       -      ptr       value     ty         volatile
    OP_GEP         temp   base      index     -          xdata id -> (scale, offset)
    OP_CALL        temp?  -         -         ret_ty     xdata id -> (callee id,
                                                         [arg encs], (arg ty tags))
    OP_MEMCPY      -      dst_ptr   src_ptr   -          size
    OP_JMP         -      -         -         -          target label id
    OP_BR          -      cond      true id   -          false label id
    OP_RET         -      value?    -         ty         -
    =============  =====  ========  ========  =========  =======================
    """

    __slots__ = (
        "name", "params", "ret_ty", "slots", "attributes",
        "opc", "dst", "a", "b", "ty", "aux",
        "imms", "imm_index", "names", "name_index", "xdata", "blocks",
    )

    def __init__(self, name: str = "", params=(), ret_ty: int = VOID_TAG):
        self.name = name
        self.params = list(params)  # [(param name, ty tag)]
        self.ret_ty = ret_ty
        self.slots: dict[str, int] = {}
        self.attributes: list[str] = []
        self.opc: list[int] = []
        self.dst: list[int | None] = []
        self.a: list[int] = []
        self.b: list[int] = []
        self.ty: list[int] = []
        self.aux: list[int] = []
        self.imms: list = []  # ImmInt | ImmFloat pool entries
        self.imm_index: dict = {}
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.xdata: list = []
        self.blocks: list[list] = []  # [[label id, [instr idx, ...]], ...]

    # -- interning ---------------------------------------------------------

    def name_id(self, s: str) -> int:
        idx = self.name_index.get(s)
        if idx is None:
            idx = len(self.names)
            self.names.append(s)
            self.name_index[s] = idx
        return idx

    def imm_enc(self, op) -> int:
        """Encode an existing ``ImmInt``/``ImmFloat`` operand."""
        if type(op) is ImmInt:
            key = op.value
        else:
            key = _pack_double(op.value)
        idx = self.imm_index.get(key)
        if idx is None:
            idx = len(self.imms)
            self.imms.append(op)
            self.imm_index[key] = idx
        return (idx << 2) | TAG_IMM

    def imm_int_enc(self, value: int) -> int:
        idx = self.imm_index.get(value)
        if idx is None:
            idx = len(self.imms)
            self.imms.append(ImmInt(value))
            self.imm_index[value] = idx
        return (idx << 2) | TAG_IMM

    def imm_float_enc(self, value: float) -> int:
        key = _pack_double(value)
        idx = self.imm_index.get(key)
        if idx is None:
            idx = len(self.imms)
            self.imms.append(ImmFloat(value))
            self.imm_index[key] = idx
        return (idx << 2) | TAG_IMM

    # -- operand bridge ----------------------------------------------------

    def enc(self, op) -> int:
        if op is None:
            return NONE
        if type(op) is Temp:
            return (op.index << 2) | TAG_TEMP
        return self.imm_enc(op)

    def dec(self, enc: int):
        if enc == NONE:
            return None
        if enc & 3 == TAG_TEMP:
            return Temp(enc >> 2)
        return self.imms[enc >> 2]

    def push(self, opc: int, dst, a: int, b: int, ty: int, aux: int) -> int:
        idx = len(self.opc)
        self.opc.append(opc)
        self.dst.append(dst)
        self.a.append(a)
        self.b.append(b)
        self.ty.append(ty)
        self.aux.append(aux)
        return idx

    def clone(self) -> "IRBuffer":
        """An independent copy sharing only the frozen imm pool entries.

        ``Call`` xdata entries carry a *mutable* arg-enc list that flat
        passes rewrite in place, so those lists are copied fresh; Gep xdata
        tuples and pool immediates are immutable and shared.
        """
        new = IRBuffer.__new__(IRBuffer)
        new.name = self.name
        new.params = list(self.params)
        new.ret_ty = self.ret_ty
        new.slots = dict(self.slots)
        new.attributes = list(self.attributes)
        new.opc = list(self.opc)
        new.dst = list(self.dst)
        new.a = list(self.a)
        new.b = list(self.b)
        new.ty = list(self.ty)
        new.aux = list(self.aux)
        new.imms = list(self.imms)
        new.imm_index = dict(self.imm_index)
        new.names = list(self.names)
        new.name_index = dict(self.name_index)
        new.xdata = [
            (x[0], list(x[1]), x[2]) if len(x) == 3 else x
            for x in self.xdata
        ]
        new.blocks = [[label, list(idxs)] for label, idxs in self.blocks]
        return new

    # -- comparison (tests; not on any hot path) ---------------------------

    def _content(self):
        return (
            self.name, self.params, self.ret_ty, self.slots, self.attributes,
            self.opc, self.dst, self.a, self.b, self.ty, self.aux,
            [
                (type(v).__name__,
                 v.value if type(v) is ImmInt else _pack_double(v.value))
                for v in self.imms
            ],
            self.names, self.xdata, self.blocks,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, IRBuffer):
            return NotImplemented
        return self._content() == other._content()

    __hash__ = None


def encode_instr(buf: IRBuffer, instr) -> int:
    """Append one object-form instruction as a buffer row; returns its index.

    Shared by :func:`from_nodes` (bulk encode) and ``FlatIRGen._emit``
    (buffer-direct irgen), so the two paths cannot drift.
    """
    enc = buf.enc
    nid = buf.name_id
    push = buf.push
    cls = type(instr)
    if cls is BinOp:
        return push(OP_BINOP, instr.dst.index, enc(instr.lhs),
                    enc(instr.rhs), TYPE_TAG[instr.ty], nid(instr.op))
    if cls is Load:
        return push(OP_LOAD, instr.dst.index, enc(instr.ptr), NONE,
                    TYPE_TAG[instr.ty], int(instr.volatile))
    if cls is Store:
        return push(OP_STORE, None, enc(instr.ptr), enc(instr.value),
                    TYPE_TAG[instr.ty], int(instr.volatile))
    if cls is UnOp:
        return push(OP_UNOP, instr.dst.index, enc(instr.src), NONE,
                    TYPE_TAG[instr.ty], nid(instr.op))
    if cls is Cast:
        return push(OP_CAST, instr.dst.index, enc(instr.src), NONE,
                    TYPE_TAG[instr.to_ty],
                    (TYPE_TAG[instr.from_ty] << 1) | int(instr.signed))
    if cls is LocalAddr:
        return push(OP_LOCALADDR, instr.dst.index, NONE, NONE, 0,
                    nid(instr.slot))
    if cls is GlobalAddr:
        return push(OP_GLOBALADDR, instr.dst.index, NONE, NONE, 0,
                    nid(instr.name))
    if cls is Gep:
        buf.xdata.append((instr.scale, instr.offset))
        return push(OP_GEP, instr.dst.index, enc(instr.base),
                    enc(instr.index), 0, len(buf.xdata) - 1)
    if cls is Call:
        buf.xdata.append((
            nid(instr.callee),
            [enc(arg) for arg in instr.args],
            tuple(TYPE_TAG[t] for t in instr.arg_tys),
        ))
        return push(OP_CALL,
                    instr.dst.index if instr.dst is not None else None,
                    NONE, NONE, TYPE_TAG[instr.ret_ty], len(buf.xdata) - 1)
    if cls is Memcpy:
        return push(OP_MEMCPY, None, enc(instr.dst_ptr),
                    enc(instr.src_ptr), 0, instr.size)
    if cls is Jmp:
        return push(OP_JMP, None, NONE, NONE, 0, nid(instr.target))
    if cls is Br:
        return push(OP_BR, None, enc(instr.cond), nid(instr.if_true), 0,
                    nid(instr.if_false))
    if cls is Ret:
        return push(OP_RET, None, enc(instr.value), NONE,
                    TYPE_TAG[instr.ty], 0)
    raise TypeError(f"cannot encode {instr!r}")


def from_nodes(fn: IRFunction, counters: BridgeCounters | None = None) -> IRBuffer:
    """Encode an object-form function into a fresh buffer (lossless)."""
    if counters is not None:
        counters.encodes += 1
    buf = IRBuffer(
        fn.name,
        [(n, TYPE_TAG[t]) for n, t in fn.params],
        TYPE_TAG[fn.ret_ty],
    )
    buf.slots = dict(fn.slots)
    buf.attributes = list(fn.attributes)
    nid = buf.name_id
    for block in fn.blocks:
        idxs = [encode_instr(buf, instr) for instr in block.instrs]
        buf.blocks.append([nid(block.label), idxs])
    return buf


def to_nodes(buf: IRBuffer, counters: BridgeCounters | None = None) -> IRFunction:
    """Decode a buffer into a fresh object-form function (lossless)."""
    if counters is not None:
        counters.decodes += 1
    names = buf.names
    xdata = buf.xdata
    dec = buf.dec
    opcl, dstl, al, bl, tyl, auxl = buf.opc, buf.dst, buf.a, buf.b, buf.ty, buf.aux
    blocks = []
    for label_id, idxs in buf.blocks:
        instrs = []
        for i in idxs:
            op = opcl[i]
            if op == OP_BINOP:
                ins = BinOp(Temp(dstl[i]), names[auxl[i]], dec(al[i]),
                            dec(bl[i]), TYPES[tyl[i]])
            elif op == OP_LOAD:
                ins = Load(Temp(dstl[i]), dec(al[i]), TYPES[tyl[i]],
                           bool(auxl[i]))
            elif op == OP_STORE:
                ins = Store(dec(al[i]), dec(bl[i]), TYPES[tyl[i]],
                            bool(auxl[i]))
            elif op == OP_UNOP:
                ins = UnOp(Temp(dstl[i]), names[auxl[i]], dec(al[i]),
                           TYPES[tyl[i]])
            elif op == OP_CAST:
                ins = Cast(Temp(dstl[i]), dec(al[i]), TYPES[auxl[i] >> 1],
                           TYPES[tyl[i]], bool(auxl[i] & 1))
            elif op == OP_LOCALADDR:
                ins = LocalAddr(Temp(dstl[i]), names[auxl[i]])
            elif op == OP_GLOBALADDR:
                ins = GlobalAddr(Temp(dstl[i]), names[auxl[i]])
            elif op == OP_GEP:
                scale, offset = xdata[auxl[i]]
                ins = Gep(Temp(dstl[i]), dec(al[i]), dec(bl[i]), scale, offset)
            elif op == OP_CALL:
                callee, args, arg_tys = xdata[auxl[i]]
                d = dstl[i]
                ins = Call(Temp(d) if d is not None else None, names[callee],
                           [dec(e) for e in args],
                           [TYPES[t] for t in arg_tys], TYPES[tyl[i]])
            elif op == OP_MEMCPY:
                ins = Memcpy(dec(al[i]), dec(bl[i]), auxl[i])
            elif op == OP_JMP:
                ins = Jmp(names[auxl[i]])
            elif op == OP_BR:
                ins = Br(dec(al[i]), names[bl[i]], names[auxl[i]])
            else:  # OP_RET
                ins = Ret(dec(al[i]), TYPES[tyl[i]])
            instrs.append(ins)
        blocks.append(Block(names[label_id], instrs))
    return IRFunction(
        name=buf.name,
        params=[(n, TYPES[t]) for n, t in buf.params],
        ret_ty=TYPES[buf.ret_ty],
        blocks=blocks,
        slots=dict(buf.slots),
        attributes=list(buf.attributes),
    )


class FlatFunction:
    """A buffer-backed function that duck-types as :class:`IRFunction`.

    Exactly one of ``buf``/``_obj`` is authoritative at any moment.  The
    flat-native middle end keeps ``buf`` live end to end; any consumer that
    reaches for object-IR structure (``.blocks``, ``block()``, …) *decays*
    the carrier — the buffer is materialized into an ``IRFunction`` (bumping
    ``flat_decodes``) and becomes the authority until :meth:`buffer`
    re-encodes (bumping ``flat_encodes``).  The bench gate asserting
    ``flat_decodes == 0`` at steady state is therefore a structural proof
    that the hot path never left the buffer.

    ``dump()`` decodes a throwaway copy without decaying and without
    counting: it serves diagnostics and the paranoid differential, which
    must not perturb the measurement they are checking.
    """

    __slots__ = ("buf", "counters", "_obj")

    def __init__(self, buf: IRBuffer, counters: BridgeCounters | None = None):
        self.buf = buf
        self.counters = counters
        self._obj = None

    # -- authority flips ---------------------------------------------------

    def _decay(self) -> IRFunction:
        if self._obj is None:
            self._obj = to_nodes(self.buf, self.counters)
            self.buf = None
        return self._obj

    def buffer(self) -> IRBuffer:
        """The live buffer, re-encoding (counted) if object passes decayed it."""
        if self.buf is None:
            self.buf = from_nodes(self._obj, self.counters)
            self._obj = None
        return self.buf

    # -- IRFunction surface ------------------------------------------------

    @property
    def name(self) -> str:
        return self.buf.name if self.buf is not None else self._obj.name

    @property
    def params(self):
        if self.buf is not None:
            return [(n, TYPES[t]) for n, t in self.buf.params]
        return self._obj.params

    @property
    def ret_ty(self) -> IRType:
        if self.buf is not None:
            return TYPES[self.buf.ret_ty]
        return self._obj.ret_ty

    @property
    def slots(self) -> dict:
        return self.buf.slots if self.buf is not None else self._obj.slots

    @property
    def attributes(self):
        if self.buf is not None:
            return self.buf.attributes
        return self._obj.attributes

    @property
    def blocks(self):
        return self._decay().blocks

    @blocks.setter
    def blocks(self, value):
        self._decay().blocks = value

    def block(self, label: str) -> Block:
        return self._decay().block(label)

    def block_map(self) -> dict:
        return self._decay().block_map()

    def instructions(self):
        return self._decay().instructions()

    def predecessors(self) -> dict:
        return self._decay().predecessors()

    def dump(self) -> str:
        if self.buf is not None:
            return to_nodes(self.buf).dump()
        return self._obj.dump()


class FunctionSnapshot:
    """A cheap point-in-time copy of a function, captured as a buffer.

    The compile session snapshots each inline candidate's post-local-opt
    body, because later phases mutate the live carrier.
    :meth:`of` clones a :class:`FlatFunction`'s arrays with no bridge
    crossing at all.  Sharing :attr:`buf` with the flat inliner is safe
    because buffer splicing only reads the callee arrays.
    """

    __slots__ = ("_buf",)

    def __init__(self, buf: IRBuffer):
        self._buf = buf

    @classmethod
    def of(cls, fn: FlatFunction) -> "FunctionSnapshot":
        return cls(fn.buffer().clone())

    @property
    def buf(self) -> IRBuffer:
        """The snapshot buffer (read-only by convention — never mutate)."""
        return self._buf
