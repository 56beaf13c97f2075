"""Function-granular middle-end capture and replay.

The fuzzing hot path compiles mutants that differ from an already-compiled
parent in one or two top-level declarations.  The middle end (IR generation
and the optimizer) is per-declaration work stitched together by a small
amount of module-global state, so when the front end hands us an
:class:`~repro.cast.incremental.IncrementalPlan` we re-lower and re-optimize
only the dirty functions and *replay* everything else from the parent's
recorded run.

This journal engine runs for cached flat-native compiles without a compile
session; the object-IR reference (``flat_native=False``) never journals and
always takes the plain pipeline of :mod:`repro.compiler.middle`.

Replay is exact, not approximate.  During every journaled middle-end run a
single ordered **journal** records each observable event — coverage hits
(``("cov", site, outcome)``), optimizer statistics (``("stat", key, n)``)
and bug-checkpoint firings (``("check", point, extra)``) — interleaved in
pipeline order.  The journal is sliced per declaration (IR generation) and
per (pass-phase, function) (optimization), and those slices are stored in
``FrontendEntry.memo`` together with the lowered function carriers, emitted
globals, statistics deltas and name-counter schedules.  Replaying a clean
function applies its slices through the same hooks a real run uses, so the
replayed compile journals itself and produces a memo for *its* children.

Anything that could make a clean function's recorded run stale aborts the
incremental attempt (:class:`_MiddleAbort`) and falls back to a full middle
end: changed enum tables, changed string/static name-counter schedules,
dirty functions that are (or were) inline candidates, non-function dirty
decls.  Abort is safe mid-run because every event applied up to that point
is an exact prefix of what the full run produces (coverage hits are
idempotent set-inserts and the feature dict has not been merged yet).

``paranoid=True`` on :meth:`Compiler.compile` additionally re-runs the full
pipeline with no cache and asserts the entire :class:`CompileResult` —
diagnostics, crash identity, asm, coverage edges, features, cost — is
bit-identical (:func:`assert_results_equal`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.cast import ast_nodes as ast
from repro.cast.incremental import IncrementalDivergence
from repro.compiler.backend import BackendResult, _lower_function, lower_to_asm
from repro.compiler.flatir import FunctionSnapshot
from repro.compiler.ir import IRFunction, IRModule
from repro.compiler.middle import irgen_for, run_middle
from repro.compiler.passes import OptContext, run_pipeline


class _MiddleAbort(Exception):
    """Internal: the incremental middle end hit an ineligible state."""


def middle_memo_key(
    name: str, bug_seed: int, opt_level: int, flags: tuple
) -> str:
    """Memo key for one (personality, bug seed, options) middle-end run."""
    return f"middle:{name}:{bug_seed}:{opt_level}:{','.join(flags)}"


@dataclass(frozen=True)
class DeclRecord:
    """Everything IR generation did for one top-level declaration."""

    kind: str  # "fn" | "var" | "other"
    name: str | None
    events: tuple
    stats_delta: tuple  # ((key, n), ...) applied to IRGenStats
    globals_added: tuple  # ((name, GlobalVar), ...) in emission order
    fn: IRFunction | None  # live post-pipeline carrier (mutated in place)
    str_start: int
    static_start: int
    str_delta: int
    static_delta: int


@dataclass(frozen=True)
class ResultMemo:
    """The complete observable outcome of one non-crashing compile."""

    ok: bool
    diagnostics: tuple
    asm: str
    module: IRModule | None
    features: dict
    events: tuple
    stages: tuple


@dataclass
class MiddleMemo:
    """Per-(compiler, options) middle-end record attached to a cache entry."""

    decl_records: tuple = ()
    enum_values: dict = field(default_factory=dict)
    fn_names: tuple = ()
    #: Inline candidate name -> post-local-opt snapshot of its body.
    candidate_snapshots: dict = field(default_factory=dict)
    phase_events: dict = field(default_factory=dict)  # (phase, fn) -> events
    #: fn name -> (events, stats, asm): one function's back-end output.
    backend_records: dict = field(default_factory=dict)
    #: True once the records describe a full, successful pipeline run and can
    #: seed children's incremental compiles.
    complete: bool = False
    #: Whole-result replay for exact re-compiles of the same text.
    result: ResultMemo | None = None


def _apply_events(events, cov, checkpoint, stats) -> None:
    """Replay a journal slice through the live hooks (which re-journal it)."""
    for ev in events:
        tag = ev[0]
        if tag == "cov":
            cov.hit(ev[1], ev[2])
        elif tag == "stat":
            stats.bump(ev[1], ev[2])
        else:
            checkpoint(ev[1], dict(ev[2]))


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


def _incremental_pairing(plan, parent_unit, unit):
    """Dirty (parent_decl, new_decl) pairs, or abort if not function-shaped.

    The middle end only replays around dirty regions where every changed
    decl is a function definition whose name is stable: edits to globals,
    typedefs, records, or decl insertions/deletions change cross-function
    state (layouts, initializers, inline candidacy sets) in ways the
    per-function records cannot express.
    """
    mapped = {m for m in plan.decl_map if m is not None}
    parent_dirty = [i for i in range(len(parent_unit.decls)) if i not in mapped]
    new_dirty = list(plan.dirty_indices)
    if len(parent_dirty) != len(new_dirty):
        raise _MiddleAbort("dirty decl count changed")
    pairs = []
    for pi, ni in zip(parent_dirty, new_dirty):
        pd, nd = parent_unit.decls[pi], unit.decls[ni]
        pk, pname = _decl_kind(pd)
        nk, nname = _decl_kind(nd)
        if pk != "fn" or nk != "fn" or pname != nname:
            raise _MiddleAbort("dirty decl is not a stable function definition")
        pairs.append((pi, ni))
    return parent_dirty, new_dirty


class _MiddleRun:
    """One journaled middle-end run (full or incremental) over flat IR.

    Drives IR generation per declaration and the optimizer per (phase,
    function), recording journal slices as it goes; in incremental mode the
    clean units are replayed from ``reuse``/``parent_memo`` instead of
    executed.
    """

    def __init__(self, compiler, entry, cov, features: dict, journal: list):
        self.compiler = compiler
        self.entry = entry
        self.unit = entry.unit
        self.cov = cov
        self.features = features
        self.journal = journal
        # new decl index -> DeclRecord to replay; absent entries run real.
        self.reuse: dict[int, DeclRecord] = {}
        # new dirty decl index -> parent dirty decl index (from the pairing).
        self.dirty_parent: dict[int, int] = {}
        self.parent_memo: MiddleMemo | None = None
        self.memo = MiddleMemo()

    def checkpoint(self, point: str, extra: dict) -> None:
        self.journal.append(("check", point, dict(extra)))
        merged = dict(self.features)
        merged.update(extra)
        self.compiler.bugs.check(point, merged)

    # ---------------------------------------------------------------- irgen

    def lower(self) -> IRModule:
        # Buffer-direct emission: dirty declarations lower straight into
        # IRBuffers and replayed DeclRecords re-inject the parent's
        # FlatFunction carriers verbatim — no encode, no decode.
        irgen = irgen_for(self.compiler, self.entry, self.cov)
        irgen._collect_enums(self.unit)
        self.memo.enum_values = dict(irgen._enum_values)
        if self.parent_memo is not None and (
            self.memo.enum_values != self.parent_memo.enum_values
        ):
            raise _MiddleAbort("enum table changed")
        records = []
        for i, decl in enumerate(self.unit.decls):
            kind, name = _decl_kind(decl)
            rec = self.reuse.get(i)
            start = len(self.journal)
            stats0 = Counter(irgen.stats.counters)
            g0 = len(irgen.module.globals)
            str0, static0 = irgen._string_counter, irgen._static_counter
            if rec is not None:
                if (str0, static0) != (rec.str_start, rec.static_start):
                    raise _MiddleAbort("name counter schedule drifted")
                _apply_events(rec.events, self.cov, self.checkpoint, _NO_STATS)
                irgen.stats.counters.update(dict(rec.stats_delta))
                for gname, gvar in rec.globals_added:
                    irgen.module.globals[gname] = gvar
                if rec.fn is not None:
                    irgen.module.functions[rec.name] = rec.fn
                irgen._string_counter += rec.str_delta
                irgen._static_counter += rec.static_delta
            else:
                if kind == "var":
                    irgen._lower_global(decl)
                elif kind == "fn":
                    irgen._lower_function(decl)
                if self.parent_memo is not None:
                    # A dirty decl must keep its parent's name-counter
                    # schedule, or every later decl's interned-string /
                    # local-static names (already memoized) would be wrong.
                    prec = self.parent_memo.decl_records[self.dirty_parent[i]]
                    if (str0, static0) != (prec.str_start, prec.static_start) or (
                        irgen._string_counter - str0,
                        irgen._static_counter - static0,
                    ) != (prec.str_delta, prec.static_delta):
                        raise _MiddleAbort("name counter schedule drifted")
            records.append(
                DeclRecord(
                    kind=kind,
                    name=name,
                    events=tuple(self.journal[start:]),
                    stats_delta=_stats_delta(stats0, irgen.stats.counters),
                    globals_added=tuple(
                        list(irgen.module.globals.items())[g0:]
                    ),
                    fn=(
                        irgen.module.functions.get(name)
                        if kind == "fn"
                        else None
                    ),
                    str_start=str0,
                    static_start=static0,
                    str_delta=irgen._string_counter - str0,
                    static_delta=irgen._static_counter - static0,
                )
            )
        self.memo.decl_records = tuple(records)
        self.irgen = irgen
        module = irgen.module
        self.memo.fn_names = tuple(module.functions)
        if self.parent_memo is not None and (
            self.memo.fn_names != self.parent_memo.fn_names
        ):
            raise _MiddleAbort("function name sequence changed")
        return module

    # ------------------------------------------------------------ optimizer

    def optimize(self, module: IRModule, ctx: OptContext) -> None:
        dirty = self._dirty_fn_names()
        parent = self.parent_memo

        def drive(phase: str, fn, run) -> None:
            start = len(self.journal)
            key = (phase, fn.name)
            if parent is None or fn.name in dirty:
                run(fn)
            else:
                events = parent.phase_events.get(key)
                if events is None:
                    raise _MiddleAbort(f"missing parent phase record {key}")
                _apply_events(events, self.cov, self.checkpoint, ctx.stats)
            self.memo.phase_events[key] = tuple(self.journal[start:])

        run_pipeline(
            module, ctx, drive=drive,
            candidates=lambda m, own: self._candidates(m, own, dirty),
        )

    # -------------------------------------------------------------- backend

    def backend(self, module: IRModule, ctx: OptContext) -> BackendResult:
        """Run the back end, replaying unchanged functions' records.

        Per-function lowering is pure over the function's (final, post-
        optimizer) IR, so a clean function replays its recorded coverage
        events and reuses its asm/stats verbatim; the cumulative module
        statistics and the ``backend:function``/``backend:module``
        checkpoints always run live inside :func:`lower_to_asm` because they
        fold in the preceding (possibly dirty) functions' totals.
        """
        dirty = self._dirty_fn_names()

        def lower_fn(fn, fn_ctx) -> BackendResult:
            start = len(self.journal)
            if fn.name not in dirty and self.parent_memo is not None:
                rec = self.parent_memo.backend_records.get(fn.name)
                if rec is None:
                    raise _MiddleAbort(f"missing backend record {fn.name}")
                events, stats, asm = rec
                _apply_events(events, self.cov, self.checkpoint, _NO_STATS)
                res = BackendResult(asm, dict(stats))
            else:
                res = _lower_function(fn, fn_ctx)
            self.memo.backend_records[fn.name] = (
                tuple(self.journal[start:]), dict(res.stats), res.asm
            )
            return res

        return lower_to_asm(module, ctx, fn_lowerer=lower_fn)

    def _dirty_fn_names(self) -> set:
        if self.parent_memo is None:
            return set()
        return {
            _decl_kind(self.unit.decls[i])[1]
            for i in range(len(self.unit.decls))
            if i not in self.reuse
        }

    def _candidates(self, module: IRModule, own: dict, dirty: set) -> dict:
        parent = self.parent_memo
        if parent is None:
            # Candidate bodies get inlined into callers by value; snapshot
            # them at this (post-local-opt) point so children can reuse
            # them after later phases mutate the live carriers.
            self.memo.candidate_snapshots = {
                name: FunctionSnapshot.of(module.functions[name])
                for name in own
            }
            return own
        # Replayed clean carriers are already in their final state, so
        # only the dirty functions' own candidacy is meaningful here.
        for name in dirty:
            if name in parent.candidate_snapshots or name in own:
                # A dirty function that is (or was) an inline candidate can
                # change the bodies inlined into *clean* callers.
                raise _MiddleAbort("dirty function affects inline candidacy")
        self.memo.candidate_snapshots = parent.candidate_snapshots
        # Serve the snapshot buffers directly to the flat inliner:
        # cache-served callee bodies never cross the IR bridge.
        return {
            name: snap.buf for name, snap in parent.candidate_snapshots.items()
        }


class _NoStats:
    def bump(self, key: str, n: int = 1) -> None:  # pragma: no cover - guard
        raise _MiddleAbort("IR generation never records optimizer stats")


_NO_STATS = _NoStats()


def lower_and_optimize(
    compiler,
    entry,
    opt_level: int,
    flags: tuple,
    cov,
    features: dict,
    result,
    *,
    journal: list,
    plan=None,
    stages: list,
) -> None:
    """The journaled middle end + back end of a cached flat-native compile.

    Runs IR generation, the optimizer, and the back end like the plain
    pipeline, instrumented into ``journal`` and memoized on ``entry.memo``;
    when ``plan`` points at a completed parent run, clean declarations are
    replayed instead of recompiled.  ``stages`` collects which pipeline
    stages logically ran (for the stage-scaled cost model).
    """
    key = middle_memo_key(
        compiler.name, compiler.bug_seed, opt_level, tuple(flags)
    )
    memoized = entry.memo.get(key)
    if memoized is not None and memoized.result is not None:
        _replay_result(memoized.result, cov, features, result, stages)
        return
    parent_memo = None
    if plan is not None:
        parent_memo = plan.parent.memo.get(key)
        if parent_memo is not None and not parent_memo.complete:
            parent_memo = None
    if parent_memo is not None:
        try:
            _run_middle(
                compiler, entry, opt_level, flags, cov, features, result,
                journal, plan, parent_memo, stages, key,
            )
            compiler.middle_incremental_hits += 1
            return
        except _MiddleAbort:
            compiler.middle_incremental_fallbacks += 1
            # Every event applied so far is a prefix of the full run's
            # stream: wipe the journal and recompute from scratch.  The
            # polluted coverage edges are a subset of what the full run
            # re-adds, and the feature dict has not been merged yet.
            journal.clear()
    _run_middle(
        compiler, entry, opt_level, flags, cov, features, result,
        journal, None, None, stages, key,
    )


def _run_middle(
    compiler,
    entry,
    opt_level,
    flags,
    cov,
    features,
    result,
    journal,
    plan,
    parent_memo,
    stages,
    key,
) -> None:
    run = _MiddleRun(compiler, entry, cov, features, journal)
    if parent_memo is not None:
        parent_dirty, new_dirty = _incremental_pairing(
            plan, plan.parent.unit, entry.unit
        )
        run.parent_memo = parent_memo
        run.dirty_parent = dict(zip(new_dirty, parent_dirty))
        for ni, pi in enumerate(plan.decl_map):
            if pi is not None:
                run.reuse[ni] = parent_memo.decl_records[pi]
    ok = run_middle(
        compiler, run, opt_level, flags, cov, features, result, stages
    )
    run.memo.complete = ok
    run.memo.result = ResultMemo(
        ok=ok,
        diagnostics=tuple(result.diagnostics),
        asm=result.asm,
        module=result.module,
        features=dict(features),
        events=tuple(journal),
        stages=tuple(stages),
    )
    entry.memo[key] = run.memo


def _replay_result(memo: ResultMemo, cov, features, result, stages) -> None:
    """Re-apply a memoized compile outcome (same text, same options)."""
    for ev in memo.events:
        if ev[0] == "cov":
            cov.hit(ev[1], ev[2])
    result.diagnostics.extend(memo.diagnostics)
    features.update(memo.features)
    result.ok = memo.ok
    result.asm = memo.asm
    result.module = memo.module
    for stage in memo.stages:
        if stage not in stages:
            stages.append(stage)


# ---------------------------------------------------------------------------
# paranoid differential comparison


def assert_results_equal(inc, full) -> None:
    """Raise :class:`IncrementalDivergence` unless two CompileResults match.

    ``inc`` is the result produced with caching/incremental replay, ``full``
    a from-scratch compile of the same text and options.  Every observable
    field must agree; modules are compared by dump.
    """

    def _fail(aspect: str, a, b):
        raise IncrementalDivergence(
            f"paranoid middle-end check failed on {aspect}: {a!r} != {b!r}"
        )

    if inc.ok != full.ok:
        _fail("ok", inc.ok, full.ok)
    if list(inc.diagnostics) != list(full.diagnostics):
        _fail("diagnostics", inc.diagnostics, full.diagnostics)
    inc_crash = inc.crash.bug_id if inc.crash else None
    full_crash = full.crash.bug_id if full.crash else None
    if inc_crash != full_crash:
        _fail("crash", inc_crash, full_crash)
    inc_hang = inc.hang.bug_id if inc.hang else None
    full_hang = full.hang.bug_id if full.hang else None
    if inc_hang != full_hang:
        _fail("hang", inc_hang, full_hang)
    if inc.asm != full.asm:
        _fail("asm", len(inc.asm), len(full.asm))
    if inc.coverage.edges != full.coverage.edges:
        only_inc = list(inc.coverage.edges - full.coverage.edges)[:4]
        only_full = list(full.coverage.edges - inc.coverage.edges)[:4]
        _fail("coverage edges", only_inc, only_full)
    if dict(inc.features) != dict(full.features):
        diff = {
            k: (inc.features.get(k), full.features.get(k))
            for k in set(inc.features) | set(full.features)
            if inc.features.get(k) != full.features.get(k)
        }
        _fail("features", diff, "")
    if inc.cost != full.cost:
        _fail("cost", inc.cost, full.cost)
    inc_dump = inc.module.dump() if inc.module is not None else None
    full_dump = full.module.dump() if full.module is not None else None
    if inc_dump != full_dump:
        _fail("module", len(inc_dump or ""), len(full_dump or ""))
