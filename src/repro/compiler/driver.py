"""The compiler facade: personalities, options, and the full pipeline.

``Compiler.compile`` never raises for input-dependent outcomes: the result
carries diagnostics (the program didn't compile), a crash (an internal
compiler error — a seeded bug fired), or a hang, plus the coverage edges the
run produced.  This is exactly the interface a fuzzer needs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from repro.cast import ast_nodes as ast
from repro.cast.cache import (
    FrontendCache,
    FrontendEntry,
    analyze_front_end,
    decl_digests,
)
from repro.cast.incremental import IncrementalDivergence
from repro.compiler import features as feat
from repro.compiler.bugs import BugRegistry
from repro.compiler.coverage import CoverageMap
from repro.compiler.crash import CompilerCrash, CompilerHang
from repro.compiler.flatir import BridgeCounters
from repro.compiler.ir import IRModule
from repro.compiler.middle import PlainRun, run_middle
from repro.compiler.session import (
    CompileSession,
    lower_and_optimize_session,
    middle_memo_key,
)
from repro.telemetry.spans import Tracer


@dataclass
class CompileResult:
    ok: bool
    compiler: str
    diagnostics: list[str] = field(default_factory=list)
    crash: CompilerCrash | None = None
    hang: CompilerHang | None = None
    asm: str = ""
    module: IRModule | None = None
    coverage: CoverageMap = field(default_factory=CoverageMap)
    features: dict = field(default_factory=dict)
    #: Virtual compile time in seconds (used by the campaign clock), scaled
    #: by the pipeline stages the compile actually reached.
    cost: float = 0.09
    #: Which stages logically ran ("frontend", "middle", "backend") — replay
    #: counts as running, so this is invariant under incremental compilation.
    stages: tuple = ()

    @property
    def crashed(self) -> bool:
        return self.crash is not None or self.hang is not None


#: Command-line flags the macro fuzzer samples (§3.4 enhancement 1).
SAMPLABLE_FLAGS = (
    "-fno-tree-vrp",
    "-funroll-loops",
    "-ftree-vectorize",
    "-fno-inline",
    "-fomit-frame-pointer",
    "-fwrapv",
)


class Compiler:
    """One compiler personality (gcc-sim-14 or clang-sim-18)."""

    def __init__(
        self,
        personality: str,
        version: str,
        bug_seed: int = 20240427,
        flat_native: bool = True,
    ) -> None:
        assert personality in ("gcc-sim", "clang-sim")
        self.personality = personality
        self.version = version
        self.name = f"{personality}-{version}"
        self.bug_seed = bug_seed
        self.bugs = BugRegistry.for_compiler(personality, seed=bug_seed)
        #: Keep the whole middle end buffer-native: irgen emits
        #: :class:`~repro.compiler.flatir.IRBuffer` rows directly, the
        #: passes run their flat ports, the backend walks the live buffer,
        #: and a compile session replays buffer records.  The default
        #: production path.  ``flat_native=False`` is the object-IR
        #: reference: the plain cold pipeline of
        #: :mod:`repro.compiler.middle`, whatever cache or session the
        #: compile is handed.  Bit-identical observable behaviour.  Chosen
        #: here once; nothing reassigns it for the compiler's lifetime.
        self.flat_native = flat_native
        #: Never read by :meth:`compile`: ``make_fuzzer(session=True)``
        #: publishes its fuzzer's session here for the benchmark harness's
        #: counters.  A compile's session is always passed per call.
        self.session: CompileSession | None = None
        #: Object<->buffer bridge crossings charged to this compiler.  Read
        #: from here (bench gates, the campaign-end telemetry event), never
        #: copied into fuzzer stats: they stay outside the compared
        #: feature/stats space, whichever middle end runs.
        self.bridge = BridgeCounters()
        #: Wall-clock seconds per pipeline stage (lex/parse/sema via the
        #: cache, plus irgen/opt/backend), accumulated across compiles.
        self.stage_timings: Counter = Counter()
        #: Stage spans accumulate into ``stage_timings``; a fuzzer's
        #: telemetry session may attach its sink/clock for event emission.
        self.tracer = Tracer(timings=self.stage_timings)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Compiler {self.name}>"

    # ------------------------------------------------------------------

    def compile(
        self,
        source_text: str,
        opt_level: int = 2,
        flags: tuple[str, ...] = (),
        cache: FrontendCache | None = None,
        edits_from: tuple[str, tuple] | None = None,
        paranoid: bool = False,
        session: CompileSession | None = None,
    ) -> CompileResult:
        """Compile ``source_text``; never raises for input-driven outcomes.

        ``cache`` shares front ends across compiles, and
        ``edits_from=(parent_text, edit_script)`` names the already-compiled
        program this text was mutated from, enabling dirty-region front-end
        reuse.  ``session`` interns per-function middle-end artifacts
        across compiles and replays them; without one the plain middle end
        runs.  A ``flat_native=False`` compile runs the plain object-IR
        middle end and drops any session it is handed.  ``paranoid=True``
        cross-checks every compile off the reference path (flat-native or
        front-end cached) against a cold ``flat_native=False`` one and
        raises ``IncrementalDivergence`` on any observable mismatch.
        """
        if not self.flat_native:
            session = None
        cov = CoverageMap()
        result = CompileResult(False, self.name, coverage=cov)
        features: dict = {
            "opt_level": opt_level,
            "flags": tuple(flags),
            "personality": self.personality,
        }
        result.features = features
        stages = ["frontend"]
        try:
            self._run_pipeline(
                source_text, opt_level, flags, cov, features, result,
                cache, edits_from=edits_from, paranoid=paranoid,
                stages=stages, session=session,
            )
        except CompilerCrash as crash:
            result.ok = False
            result.crash = crash
            cov.hit("crash", crash.bug_id)
        except CompilerHang as hang:
            result.ok = False
            result.hang = hang
            cov.hit("hang", hang.bug_id)
        result.stages = tuple(stages)
        # Virtual cost scaled by the stages the compile reached; the terms
        # sum to the historical 0.05 + u for a full three-stage compile.
        u = min(len(source_text), 40_000) / 22_000.0
        cost = 0.02 + 0.45 * u
        if "middle" in stages:
            cost += 0.02 + 0.35 * u
        if "backend" in stages:
            cost += 0.01 + 0.20 * u
        result.cost = cost
        if paranoid and (self.flat_native or cache is not None):
            # Any compile off the reference path — flat-native (cold ones
            # included) or front-end cached — is checked against a cold
            # object-IR compile, so every paranoid check doubles as a
            # flat-vs-object differential on top of the cached-vs-fresh one.
            reference = self._reference.compile(source_text, opt_level, flags)
            if session is not None:
                session.paranoid_checks += 1
            assert_results_equal(result, reference)
        return result

    def compile_batch(
        self,
        requests,
        opt_level: int = 2,
        flags: tuple[str, ...] = (),
        cache: FrontendCache | None = None,
        paranoid: bool = False,
        session: CompileSession | None = None,
        until=None,
    ) -> list[CompileResult]:
        """Compile one mutation attempt set against one session.

        ``requests`` is an iterable of ``(text, edits_from)`` pairs — lazily
        consumed, so a generator that draws fuzzer randomness keeps its exact
        sequential draw order.  The first request's parent is materialized in
        the session once per batch (if not already interned), so every
        attempt's clean functions replay instead of re-lowering.  ``until``,
        when given, is invoked with each result and truthy return stops the
        batch early (μCFuzz's keep/crash early exit).
        """
        if not self.flat_native:
            session = None
        results: list[CompileResult] = []
        materialized = False
        for text, edits_from in requests:
            if (
                session is not None
                and edits_from is not None
                and not materialized
            ):
                parent_text = edits_from[0]
                options = middle_memo_key(
                    self.name, self.bug_seed, opt_level, tuple(flags)
                )
                if not session.has_result(options, parent_text):
                    # Observationally pure for the caller: the parent was
                    # already compiled when it entered the pool, so this
                    # warm-up adds no coverage/pool state and consumes no
                    # fuzzer randomness.
                    self.compile(
                        parent_text, opt_level, flags,
                        cache=cache, session=session,
                    )
                    session.materializations += 1
                materialized = True
            result = self.compile(
                text, opt_level, flags, cache=cache, edits_from=edits_from,
                paranoid=paranoid, session=session,
            )
            results.append(result)
            if until is not None and until(result):
                break
        return results

    @cached_property
    def _reference(self) -> "Compiler":
        """The cold object-IR compiler paranoid checks compile against.

        Built once, on first use.  It shares this compiler's seeded bugs
        (``BugRegistry.check`` is stateless), so both fire identically.
        """
        reference = Compiler(
            self.personality, self.version, self.bug_seed, flat_native=False
        )
        reference.bugs = self.bugs
        return reference

    # ------------------------------------------------------------------

    def _run_pipeline(
        self,
        source_text: str,
        opt_level: int,
        flags: tuple[str, ...],
        cov: CoverageMap,
        features: dict,
        result: CompileResult,
        cache: FrontendCache | None,
        *,
        edits_from: tuple[str, tuple] | None,
        paranoid: bool,
        stages: list,
        session: "CompileSession | None",
    ) -> None:
        # ---- Front end: lex/parse/sema, shared via the content cache. ----
        # The per-text summary (coverage edges, feature vector, diagnostics)
        # is deterministic, so cache hits replay identical bookkeeping into
        # this call's CoverageMap/CompileResult; bug checks stay per-call
        # because they depend on opt_level/flags.
        plan = None
        if cache is None:
            entry = analyze_front_end(source_text, tracer=self.tracer)
        elif edits_from is not None:
            parent_text, edits = edits_from
            parent_entry = cache.peek(parent_text) if edits else None
            if parent_entry is not None:
                entry, plan = cache.front_end_incremental(
                    source_text, parent_entry, edits,
                    paranoid=paranoid, tracer=self.tracer,
                )
            else:
                entry = cache.front_end(source_text, tracer=self.tracer)
        else:
            entry = cache.front_end(source_text, tracer=self.tracer)
        summary = _frontend_summary(entry, plan, session)
        cov.merge(summary.edges)
        features.update(summary.features)
        result.diagnostics.extend(summary.diagnostics)
        # Front-end bug checks run even on malformed input: a fuzzer can
        # crash the parser without producing a valid program.
        self.bugs.check("front-end", features)
        if entry.unit is None or result.diagnostics:
            return

        # ---- Middle + back end. --------------------------------------------
        stages.append("middle")
        if session is not None:
            lower_and_optimize_session(
                self, session, entry, opt_level, flags, cov, features,
                result, plan=plan, stages=stages,
            )
        else:
            run_middle(
                self, PlainRun(self, entry, cov, features), opt_level, flags,
                cov, features, result, stages,
            )

    def _personality_flags(self, flags: tuple[str, ...]) -> tuple[str, ...]:
        extra: tuple[str, ...] = ()
        if self.personality == "clang-sim":
            # clang-sim's pipeline always vectorizes at -O2 like LLVM.
            extra = ("-ftree-vectorize",)
        return tuple(flags) + extra


def assert_results_equal(inc, full) -> None:
    """Raise :class:`IncrementalDivergence` unless two CompileResults match.

    ``inc`` is the result produced off the reference path (flat-native,
    front-end cached or session-served), ``full`` a cold object-IR compile
    of the same text and options.  Every observable field must agree;
    modules are compared by dump.
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


@dataclass(frozen=True)
class _FrontendSummary:
    """Per-text front-end bookkeeping, replayed into each compile call."""

    edges: frozenset
    features: dict
    diagnostics: tuple[str, ...]


def _frontend_summary(
    entry: FrontendEntry, plan=None, session=None
) -> _FrontendSummary:
    """Coverage edges, features, and diagnostics for one front-end result.

    Deterministic per source text, so it is memoized on the cache entry; the
    caller merges it into per-call state.  The summary dict/edge set are
    treated as immutable after construction.  With an incremental ``plan``,
    the per-declaration AST work (coverage walk + feature extraction) is
    grafted from the parent entry for every unchanged declaration.  With a
    ``session``, per-decl summaries are additionally interned across entries
    by content digest, so a decl shared between unrelated lineages is only
    walked once per session.
    """
    summary = entry.memo.get("driver_summary")
    if summary is not None:
        return summary
    cov = CoverageMap()
    features: dict = {}
    diagnostics: list[str] = []
    if entry.lex_error is not None:
        cov.hit("fe:lex_error", entry.lex_error.message.split(" ")[0])
    features.update(feat.lexical_features(entry.source.text, entry.tokens))
    # Even broken inputs exercise the lexer up to the failure point.
    _cover_tokens(entry.token_prefix, cov)
    if entry.unit is None:
        message = (entry.parse_error or "")[:64]
        cov.hit("fe:diag", message.split(" ")[0])
        cov.hit("fe:diag_detail", message[:28])
        diagnostics.append(f"error: {message}")
        features["parse_failed"] = 1
        if entry.parse_recursion:
            features["parse_depth_overflow"] = 1
    else:
        cov.hit("fe:decls", min(len(entry.unit.decls), 32))
        # Semantic analysis ran before feature extraction — type-dependent
        # fingerprints (e.g. swapped subscripts) need annotated nodes.
        for d in entry.sema_diags:
            cov.hit("sema:diag", d.message.split("'")[0][:48])
            if d.severity == "error":
                diagnostics.append(d.message)
        if diagnostics:
            features["sema_failed"] = 1
        decl_summaries = _decl_summaries(entry, plan, session)
        features.update(
            feat.merge_ast_features(f for _, f in decl_summaries)
        )
        cov.hit("fe:node", "TranslationUnit")
        for decl in entry.unit.decls:
            cov.hit("fe:edge", ("TranslationUnit", decl.kind))
        for edges, _ in decl_summaries:
            cov.merge(edges)
    summary = _FrontendSummary(frozenset(cov.edges), features, tuple(diagnostics))
    entry.memo["driver_summary"] = summary
    return summary


def _decl_summaries(entry: FrontendEntry, plan, session=None) -> list:
    """Per-decl (coverage edges, feature vector) pairs, grafted when clean.

    Both halves are pure over the decl subtree (offset-shift invariant), so
    an unchanged declaration reuses its parent's pair; only the dirty decls
    are walked.  Memoized on the entry for this text's future compiles.
    With a ``session``, freshly-walked pairs are also interned in the
    session's summary store keyed by ``(header digests, decl digest)`` — the
    header tuple pins the declaration environment (typedefs change how a
    decl's text parses), the decl digest pins its own text — so a decl
    reappearing in an unrelated lineage replays instead of re-walking.
    """
    cached = entry.memo.get("decl_summaries")
    if cached is not None:
        return cached
    parent_sums = (
        plan.parent.memo.get("decl_summaries") if plan is not None else None
    )
    intern = session.summary_intern if session is not None else None
    if intern is not None:
        full_digests, header_digests = decl_digests(
            entry, plan, memo_stats=session.digest_stats
        )
    summaries = []
    for i, decl in enumerate(entry.unit.decls):
        parent_index = plan.decl_map[i] if parent_sums is not None else None
        if parent_index is not None:
            summaries.append(parent_sums[parent_index])
            continue
        if intern is None:
            summaries.append(_decl_summary(decl, entry.source.text))
            continue
        ikey = (header_digests, full_digests[i])
        pair = intern.get(ikey)
        if pair is not None:
            intern.move_to_end(ikey)
            session.summary_hits += 1
        else:
            pair = _decl_summary(decl, entry.source.text)
            intern[ikey] = pair
            while len(intern) > session.maxsize:
                intern.popitem(last=False)
        summaries.append(pair)
    entry.memo["decl_summaries"] = summaries
    return summaries


def _decl_summary(decl: ast.Node, source_text: str) -> tuple:
    cov = CoverageMap()
    # One materialized pre-order walk (same order as ``Node.walk``), shared
    # by the coverage and feature passes; built with a plain loop because
    # the generator's per-node resume is the hot path's dominant cost.
    nodes: list[ast.Node] = []
    stack = [decl]
    while stack:
        node = stack.pop()
        nodes.append(node)
        children = list(node.children())
        children.reverse()
        stack.extend(children)
    _cover_ast(decl, cov, nodes=nodes)
    return (
        frozenset(cov.edges),
        feat.decl_ast_features(decl, source_text, nodes=nodes),
    )


def _cover_tokens(tokens, cov: CoverageMap) -> None:
    from repro.cast.lexer import TokenKind

    # These maps never carry a journal, so edges go straight into the set.
    assert cov.journal is None
    add = cov.edges.add
    keyword_or_punct = (TokenKind.KEYWORD, TokenKind.PUNCT)
    prev = None
    for tok in tokens[:6000]:
        key = tok.text if tok.kind in keyword_or_punct else tok.kind.name
        add(("fe:token", key))
        if prev is not None:
            add(("fe:token2", (prev, key)))
        prev = key


def _cover_ast(root: ast.Node, cov: CoverageMap, nodes=None) -> None:
    assert cov.journal is None
    add = cov.edges.add
    for node in nodes if nodes is not None else root.walk():
        kind = node.kind
        add(("fe:node", kind))
        for child in node.children():
            add(("fe:edge", (kind, child.kind)))
        if isinstance(node, ast.BinaryOperator):
            add(("fe:binop", node.op))
        elif isinstance(node, ast.UnaryOperator):
            add(("fe:unop", (node.op, node.prefix)))
        elif isinstance(node, (ast.VarDecl, ast.ParmVarDecl, ast.FieldDecl)):
            add(("fe:type", node.type.spelling()))


#: The two evaluation targets of §5.1 (GCC-14 and Clang-18 stand-ins).
GCC_SIM = ("gcc-sim", "14")
CLANG_SIM = ("clang-sim", "18")


def default_compilers() -> list[Compiler]:
    """The GCC-14 / Clang-18 pair used throughout the evaluation."""
    return [Compiler(*GCC_SIM), Compiler(*CLANG_SIM)]
