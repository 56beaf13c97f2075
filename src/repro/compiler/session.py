"""Cross-step middle-end compile sessions: content-keyed IR interning.

The fuzzing hot path compiles mutants that differ from an already-compiled
program in one or two top-level declarations.  A :class:`CompileSession` is
a persistent, cross-step store of per-function middle-end artifacts (IR
generation replay segments, per-phase optimizer segments, the final
post-pipeline IR carrier, backend asm/stats), interned under a **content
key** that captures everything the function's middle-end run can observe.
Any mutant whose function hashes to a known key skips irgen, the optimizer,
and the backend for that function entirely — regardless of which program
the record was made in.  It is the only replay engine: a compile without a
session runs the plain pipeline of :mod:`repro.compiler.middle`.  Reuse is
by content alone: the session takes no parent lineage from the front end,
holds no whole-compile memo (a recompile of the same text replays its
per-declaration records), and keeps only middle-end state — front-end
summaries are memoized on the decl nodes (see
:func:`repro.compiler.driver._decl_summaries`).

The key must cover all cross-declaration state the middle end reads:

* the options tuple (personality, bug seed, -O level, flags);
* the enum-constant table (``_collect_enums`` walks the whole unit);
* the *environment digest* — per-decl header text for function definitions
  (signature only; bodies are invisible to other decls) and full text for
  everything else, in declaration order (sema-visible state: typedefs,
  records, globals, prototypes);
* the running **globals-state digest** — name and content of every global
  emitted by earlier decls (``_intern_string`` dedups string literals by
  content against *all* module globals, so a clean function's interned-name
  references depend on what preceded it);
* the string/static name counters at the decl's start (interned names embed
  them);
* the declaration's full source text.

Inlining is the one pass that makes one function's events depend on another
function's *body*.  Records therefore carry the recording module's inline
candidate name-set and a digest over the candidates' (name, content key)
pairs; reuse aborts — falling back to a fully live, self-recording run —
whenever the current module's candidate situation differs (a dirty function
is or was a candidate, candidate sets disagree across records, or a
candidate's body key changed).

While a declaration is lowered live, one ordered **journal** records each
observable event — coverage hits (``("cov", site, outcome)``), optimizer
statistics (``("stat", key, n)``) and bug-checkpoint firings (``("check",
point, extra)``) — sliced per declaration (irgen), per (phase, function)
(optimizer) and per function (backend).

Replay is segment-compiled: each recorded journal slice is split at
bug-checkpoint events into ``(coverage edge set, stats deltas, checkpoint)``
segments.  Coverage applies as one bulk set-union and stats as direct counter
adds — O(unique sites), not O(events) — while checkpoints run live through
the bug registry with the evolving feature dict, preserving crash identity
and the exact abort point of a seeded crash.

Sessions serve flat-native compiles only: the records hold
:class:`~repro.compiler.flatir.FlatFunction` carriers, and a
``flat_native=False`` compile (the object-IR reference) never consults one.
``paranoid=True`` on :meth:`Compiler.compile` cross-checks every
session-served compile against that reference via
:func:`~repro.compiler.driver.assert_results_equal`.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field

from repro.cast import ast_nodes as ast
from repro.cast.cache import decl_digests, source_digest
from repro.compiler.backend import BackendResult, _lower_function, lower_to_asm
from repro.compiler.flatir import FunctionSnapshot
from repro.compiler.ir import IRFunction, IRModule
from repro.compiler.middle import irgen_for, run_middle
from repro.compiler.passes import OptContext, run_pipeline
from repro.telemetry.spans import span

#: Default bound on interned per-function records.  A campaign cell's live
#: working set is (pool size × functions per program) plus mutant churn;
#: 4096 holds the whole 600-step bench without evictions.
DEFAULT_SESSION_SIZE = 4096


class _MiddleAbort(Exception):
    """Internal: session reuse hit an ineligible state."""


def middle_memo_key(
    name: str, bug_seed: int, opt_level: int, flags: tuple
) -> str:
    """Memo key for one (personality, bug seed, options) middle-end run."""
    return f"middle:{name}:{bug_seed}:{opt_level}:{','.join(flags)}"


def _stats_delta(before: Counter, after: Counter) -> tuple:
    return tuple(
        (k, after[k] - before.get(k, 0))
        for k in after
        if after[k] != before.get(k, 0)
    )


def _decl_kind(decl) -> tuple[str, str | None]:
    if isinstance(decl, ast.FunctionDecl) and decl.body is not None:
        return "fn", decl.name
    if isinstance(decl, ast.VarDecl):
        return "var", decl.name
    return "other", getattr(decl, "name", None)


def _digest(*parts) -> str:
    """A stable digest over repr-serializable parts."""
    return source_digest("\x1f".join(repr(p) for p in parts))


def _global_sig(name: str, g) -> str:
    """Serialized identity of one emitted global (name + full content)."""
    return repr(
        (
            name,
            g.size,
            g.const,
            g.volatile,
            g.bytes_init,
            tuple((off, ty.value, val) for off, ty, val in g.init),
        )
    )


def _segments(events: tuple) -> tuple:
    """Compile a journal slice into bulk-applicable replay segments.

    Each segment is ``(edges, stats, check)``: the coverage edges and stats
    deltas preceding the next checkpoint (order-free — coverage is a set,
    stats are sums), then the checkpoint itself, which must run live and in
    order because it can raise a seeded crash.  A crash truncates the event
    stream exactly where the original run stopped.
    """
    segs: list = []
    edges: list = []
    stats: list = []
    for ev in events:
        tag = ev[0]
        if tag == "cov":
            edges.append((ev[1], ev[2]))
        elif tag == "stat":
            stats.append((ev[1], ev[2]))
        else:
            segs.append(
                (frozenset(edges), tuple(stats), (ev[1], tuple(ev[2].items())))
            )
            edges, stats = [], []
    if edges or stats or not segs:
        segs.append((frozenset(edges), tuple(stats), None))
    return tuple(segs)


@dataclass(frozen=True)
class SessionFnRecord:
    """Everything the middle end did for one declaration, replayable."""

    kind: str  # "fn" | "var"
    name: str | None
    irgen_segments: tuple
    irgen_stats: tuple  # ((key, n), ...) applied to IRGenStats
    globals_added: tuple  # ((name, GlobalVar), ...) in emission order
    fn: IRFunction | None  # final post-pipeline carrier (never mutated again)
    str_delta: int
    static_delta: int
    phase_segments: dict = field(default_factory=dict)  # phase -> segments
    backend_segments: tuple = ()
    backend_stats: tuple = ()
    asm: str = ""
    candidate_names: frozenset = frozenset()
    candidates_digest: str = ""
    #: Post-local-opt flat snapshot when this function was an inline
    #: candidate in its recording run (the body callers inline by value);
    #: its buffer feeds the flat inliner on reuse.
    snapshot: "FunctionSnapshot | None" = None


class CompileSession:
    """A persistent cross-step store of interned middle-end artifacts."""

    def __init__(self, maxsize: int = DEFAULT_SESSION_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("session maxsize must be >= 1")
        self.maxsize = maxsize
        self._records: OrderedDict[str, SessionFnRecord] = OrderedDict()
        #: Per-declaration replays served / live lowers recorded.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Reuse attempts that fell back to a fully live run.
        self.aborts = 0
        self.paranoid_checks = 0

    # -- record store ------------------------------------------------------

    def get(self, key: str) -> SessionFnRecord | None:
        rec = self._records.get(key)
        if rec is not None:
            self._records.move_to_end(key)
        return rec

    def put(self, key: str, rec: SessionFnRecord) -> None:
        self._records[key] = rec
        self._records.move_to_end(key)
        while len(self._records) > self.maxsize:
            self._records.popitem(last=False)
            self.evictions += 1

    # -- introspection -----------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "middle_session_hits": self.hits,
            "middle_session_misses": self.misses,
            "middle_session_evictions": self.evictions,
            "middle_session_aborts": self.aborts,
            "middle_session_hit_rate": self.hit_rate,
            "middle_session_size": len(self._records),
            "middle_session_paranoid_checks": self.paranoid_checks,
        }

    def __len__(self) -> int:
        return len(self._records)


class _Pending:
    """Mutable capture state for one live-lowered declaration."""

    __slots__ = (
        "key", "kind", "name", "irgen_events", "irgen_stats", "globals_added",
        "str_delta", "static_delta", "phase_events", "backend_events",
        "backend_stats", "asm", "snapshot",
    )

    def __init__(self, key: str, kind: str, name: str | None) -> None:
        self.key = key
        self.kind = kind
        self.name = name
        self.irgen_events: tuple = ()
        self.irgen_stats: tuple = ()
        self.globals_added: tuple = ()
        self.str_delta = 0
        self.static_delta = 0
        self.phase_events: dict = {}
        self.backend_events: tuple = ()
        self.backend_stats: tuple = ()
        self.asm = ""
        self.snapshot: FunctionSnapshot | None = None


class _SessionRun:
    """One session-backed middle-end run (interning and/or replaying)."""

    def __init__(
        self,
        compiler,
        session: CompileSession,
        entry,
        opt_level: int,
        flags: tuple,
        cov,
        features: dict,
        journal: list,
        reuse: bool,
    ) -> None:
        self.compiler = compiler
        self.session = session
        self.entry = entry
        self.unit = entry.unit
        self.opt_level = opt_level
        self.flags = flags
        self.cov = cov
        self.features = features
        self.journal = journal
        self.reuse = reuse
        #: decl index -> reused record; fn name -> record for fn records.
        self.reused: dict[int, SessionFnRecord] = {}
        self.clean_fns: dict[str, SessionFnRecord] = {}
        self.pending: list[_Pending] = []
        self.pending_fn: dict[str, _Pending] = {}
        #: fn name -> content key, for candidate digests (both paths).
        self.fn_keys: dict[str, str] = {}
        self.candidate_names: frozenset = frozenset()
        self.candidates_digest = ""

    def checkpoint(self, point: str, extra: dict) -> None:
        self.journal.append(("check", point, dict(extra)))
        merged = dict(self.features)
        merged.update(extra)
        self.compiler.bugs.check(point, merged)

    # -- replay ------------------------------------------------------------

    def _apply_segments(self, segments: tuple, counters: Counter | None) -> None:
        """Bulk-apply compiled segments; checkpoints run live, unjournaled.

        Replayed events must not re-enter the journal: live declarations'
        capture slices are delimited by journal length, and a replay landing
        inside one would corrupt it.  Coverage goes straight into the edge
        set (bypassing ``cov.hit``'s journal append) for the same reason.
        """
        for edges, stats, check in segments:
            if edges:
                self.cov.edges.update(edges)
            if stats:
                if counters is None:
                    raise _MiddleAbort("unexpected stats outside the optimizer")
                for key, n in stats:
                    counters[key] += n
            if check is not None:
                merged = dict(self.features)
                merged.update(dict(check[1]))
                self.compiler.bugs.check(check[0], merged)

    # -- irgen -------------------------------------------------------------

    def lower(self) -> IRModule:
        # Buffer-direct emission; replayed records re-inject their
        # FlatFunction carriers verbatim (zero bridge crossings).
        irgen = irgen_for(self.compiler, self.entry, self.cov)
        irgen._collect_enums(self.unit)
        enum_digest = _digest(tuple(irgen._enum_values.items()))
        full_digests, header_digests = decl_digests(self.entry)
        options = middle_memo_key(
            self.compiler.name, self.compiler.bug_seed, self.opt_level,
            tuple(self.flags),
        )
        env_digest = _digest(header_digests)
        globals_state = ""
        for i, decl in enumerate(self.unit.decls):
            kind, name = _decl_kind(decl)
            if kind == "other":
                continue  # no middle-end footprint; covered by env_digest
            key = _digest(
                options, env_digest, enum_digest, globals_state,
                irgen._string_counter, irgen._static_counter,
                kind, full_digests[i],
            )
            if kind == "fn":
                self.fn_keys[name] = key
            rec = self.session.get(key) if self.reuse else None
            if rec is not None:
                self._apply_segments(rec.irgen_segments, None)
                for k, n in rec.irgen_stats:
                    irgen.stats.counters[k] += n
                for gname, gvar in rec.globals_added:
                    irgen.module.globals[gname] = gvar
                if rec.fn is not None:
                    irgen.module.functions[rec.name] = rec.fn
                irgen._string_counter += rec.str_delta
                irgen._static_counter += rec.static_delta
                self.reused[i] = rec
                if kind == "fn":
                    self.clean_fns[name] = rec
                self.session.hits += 1
                added = rec.globals_added
            else:
                start = len(self.journal)
                stats0 = Counter(irgen.stats.counters)
                g0 = len(irgen.module.globals)
                str0, static0 = irgen._string_counter, irgen._static_counter
                if kind == "var":
                    irgen._lower_global(decl)
                else:
                    irgen._lower_function(decl)
                added = tuple(list(irgen.module.globals.items())[g0:])
                pend = _Pending(key, kind, name)
                pend.irgen_events = tuple(self.journal[start:])
                pend.irgen_stats = _stats_delta(stats0, irgen.stats.counters)
                pend.globals_added = added
                pend.str_delta = irgen._string_counter - str0
                pend.static_delta = irgen._static_counter - static0
                self.pending.append(pend)
                if kind == "fn":
                    self.pending_fn[name] = pend
                self.session.misses += 1
            for gname, gvar in added:
                globals_state = _digest(globals_state, _global_sig(gname, gvar))
        self.irgen = irgen
        return irgen.module

    # -- optimizer ---------------------------------------------------------

    def optimize(self, module: IRModule, ctx: OptContext) -> None:
        def drive(phase: str, fn, run) -> None:
            rec = self.clean_fns.get(fn.name)
            if rec is not None:
                segments = rec.phase_segments.get(phase)
                if segments is None:  # pragma: no cover - defensive
                    raise _MiddleAbort(f"missing session phase {phase}")
                self._apply_segments(segments, ctx.stats.counters)
                return
            start = len(self.journal)
            run(fn)
            pend = self.pending_fn.get(fn.name)
            if pend is not None:
                pend.phase_events[phase] = tuple(self.journal[start:])

        run_pipeline(module, ctx, drive=drive, candidates=self._candidates)

    def _cand_digest(self, names: frozenset) -> str:
        return _digest(tuple(sorted((n, self.fn_keys[n]) for n in names)))

    def _candidates(self, module: IRModule, own: dict) -> dict:
        """The inline candidate map, consistency-checked against records.

        Inlined bodies cross function boundaries, so every reused record must
        have been made against the *same* candidates — same name set, same
        per-candidate content keys (the post-local-opt snapshot is a pure
        function of the candidate's irgen key).  Any disagreement aborts to
        a fully live run, which re-records everything coherently.
        """
        if not self.clean_fns:
            self.candidate_names = frozenset(own)
            self.candidates_digest = self._cand_digest(self.candidate_names)
            for name in own:
                pend = self.pending_fn.get(name)
                if pend is not None:
                    # Callers inline the body by value: snapshot it at this
                    # (post-local-opt) point, before later phases mutate it.
                    pend.snapshot = FunctionSnapshot.of(module.functions[name])
            return own
        names = None
        for rec in self.clean_fns.values():
            if names is None:
                names = rec.candidate_names
            elif rec.candidate_names != names:
                raise _MiddleAbort("session candidate sets disagree")
        # Replayed clean carriers are already in their final state, so only
        # the dirty functions' own candidacy is meaningful here.
        dirty = [n for n in module.functions if n not in self.clean_fns]
        for name in dirty:
            if name in names or name in own:
                raise _MiddleAbort("dirty function affects inline candidacy")
        for name in names:
            rec = self.clean_fns.get(name)
            if rec is None or rec.snapshot is None:
                raise _MiddleAbort("candidate not served from the session")
        digest = self._cand_digest(names)
        for rec in self.clean_fns.values():
            if rec.candidates_digest != digest:
                raise _MiddleAbort("candidate bodies changed")
        self.candidate_names = names
        self.candidates_digest = digest
        # Session-served callee bodies feed the flat inliner as raw
        # buffers: no bridge crossing.
        return {name: self.clean_fns[name].snapshot.buf for name in names}

    # -- backend -----------------------------------------------------------

    def backend(self, module: IRModule, ctx: OptContext) -> BackendResult:
        def lower_fn(fn, fn_ctx) -> BackendResult:
            rec = self.clean_fns.get(fn.name)
            if rec is not None:
                self._apply_segments(rec.backend_segments, None)
                return BackendResult(rec.asm, dict(rec.backend_stats))
            start = len(self.journal)
            res = _lower_function(fn, fn_ctx)
            pend = self.pending_fn.get(fn.name)
            if pend is not None:
                pend.backend_events = tuple(self.journal[start:])
                pend.backend_stats = tuple(res.stats.items())
                pend.asm = res.asm
            return res

        return lower_to_asm(module, ctx, fn_lowerer=lower_fn)

    # -- interning ---------------------------------------------------------

    def commit(self, module: IRModule) -> None:
        """Intern records for every live-lowered declaration.

        Only called after a complete, successful pipeline run: partial
        records (crash, lowering failure, abort) must never seed replays.
        """
        for pend in self.pending:
            self.session.put(
                pend.key,
                SessionFnRecord(
                    kind=pend.kind,
                    name=pend.name,
                    irgen_segments=_segments(pend.irgen_events),
                    irgen_stats=pend.irgen_stats,
                    globals_added=pend.globals_added,
                    fn=(
                        module.functions.get(pend.name)
                        if pend.kind == "fn"
                        else None
                    ),
                    str_delta=pend.str_delta,
                    static_delta=pend.static_delta,
                    phase_segments={
                        phase: _segments(events)
                        for phase, events in pend.phase_events.items()
                    },
                    backend_segments=_segments(pend.backend_events),
                    backend_stats=pend.backend_stats,
                    asm=pend.asm,
                    candidate_names=self.candidate_names,
                    candidates_digest=self.candidates_digest,
                    snapshot=pend.snapshot,
                ),
            )


def lower_and_optimize_session(
    compiler,
    session: CompileSession,
    entry,
    opt_level: int,
    flags: tuple,
    cov,
    features: dict,
    result,
    *,
    stages: list,
) -> None:
    """The session-backed middle end + back end of ``Compiler.compile``.

    Runs when the compile carries a :class:`CompileSession`: per-function
    reuse is keyed on content, not parent lineage, so it fires across
    steps, across pool members, on mutants of mutants and on a recompile
    of the same text.  A reuse inconsistency aborts to a fully live run
    that re-records every declaration.  Live work records its events into
    a coverage journal attached to ``cov`` here; session-less compiles
    never journal.
    """
    journal = cov.journal = []
    try:
        _run_session(
            compiler, session, entry, opt_level, flags, cov, features,
            result, journal, stages, reuse=True,
        )
    except _MiddleAbort:
        session.aborts += 1
        # Abort is safe mid-run: everything applied so far (idempotent
        # coverage inserts, unmerged features) is a subset of what the live
        # run recomputes.  Stale replayed function objects in the half-built
        # module are discarded with it.
        journal.clear()
        _run_session(
            compiler, session, entry, opt_level, flags, cov, features,
            result, journal, stages, reuse=False,
        )


def _run_session(
    compiler, session, entry, opt_level, flags, cov, features, result,
    journal, stages, reuse,
) -> None:
    run = _SessionRun(
        compiler, session, entry, opt_level, flags, cov, features, journal,
        reuse,
    )
    ok = run_middle(
        compiler, run, opt_level, flags, cov, features, result, stages
    )
    if ok:
        # Only a complete, successful run interns per-function records.
        with span(compiler.tracer, "session"):
            run.commit(result.module)
