"""Span tracing from outside the library, for the benchmark's traced run.

The traced run wraps the public function at each layer boundary, records a
span per call (name, start, end, parent id, op id) in memory, counts calls,
failures and work units at the same boundary, and writes the spans out when
the run ends.  A layer's self time is its span duration minus the part its
child spans cover.  Nothing in the library changes: class attributes are
patched on the class, and functions imported by name are patched in every
module that holds them, then all of it is restored.

``layers.json`` beside this file names, for each layer, the workloads where
it must record calls and the end-to-end metric it should move.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYER_MAP = Path(__file__).with_name("layers.json")

#: Layers whose self time is loop or invocation bookkeeping rather than a named
#: pipeline stage.  Their self time counts as unattributed, except for the
#: compiler stage timings measured inside ``compiler.compile``.
CONTAINER_LAYERS = ("fuzzing.step", "compiler.compile", "metamut.invocation")
#: Compiler ``stage_timings`` spent inside ``compiler.compile`` self time
#: (lex/parse/sema and frontend_incremental lie inside wrapped children).
COMPILE_STAGES = ("irgen", "opt", "backend", "session")
#: Every layer ``install_library_wrappers`` wraps.
WRAPPED_LAYERS = (
    "cast.lexer", "cast.parser", "cast.sema", "cast.cache",
    "muast.apply_mutator", "compiler.compile", "fuzzing.step",
    "fuzzing.progen", "llm.client", "metamut.validate", "metamut.refine",
    "metamut.invocation",
)


class SpanRecorder:
    """An in-memory span stack for one thread."""

    def __init__(self) -> None:
        #: [name, start, end, parent id, op id] per span, in open order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: A span opened with no span open starts a new op; its
        #: descendants share its op id.
        self.op = -1

    def open(self, name: str) -> int:
        sid = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = -1
            self.op += 1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self seconds per span name.

    Self time is a span's duration minus the union of its children's
    intervals, each clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for sid, (name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


class Tracer:
    """Installs counting, span-recording wrappers; ``restore`` undoes them."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        #: Work units observed at a boundary, e.g. ``cast.lexer.tokens``.
        self.units: Counter = Counter()
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self._undo: list = []

    def _wrap(self, fn, layer: str, observe=None):
        recorder, calls, errors = self.recorder, self.calls, self.errors

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            sid = recorder.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                recorder.close(sid)
            if observe is not None:
                observe(self.units, result)
            return result

        return wrapper

    def patch_method(self, cls: type, name: str, layer: str, observe=None):
        """Wrap ``cls.name``; every call site goes through the class."""
        own = name in vars(cls)
        original = getattr(cls, name)
        setattr(cls, name, self._wrap(original, layer, observe))
        self._undo.append(
            lambda: setattr(cls, name, original) if own else delattr(cls, name)
        )

    def patch_function(self, fn, layer: str, observe=None) -> None:
        """Wrap ``fn`` in every loaded module that binds it by name.

        A function imported with ``from m import f`` is a separate binding
        in each importer; patching only its home module would miss those
        callers.
        """
        name = fn.__name__
        wrapper = self._wrap(fn, layer, observe)
        for module in list(sys.modules.values()):
            if getattr(module, name, None) is fn:
                setattr(module, name, wrapper)
                self._undo.append(
                    lambda module=module: setattr(module, name, fn)
                )

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def raw(self, counters: dict, wall_s: float) -> dict:
        """This trace's counts and self times, the fuzzer's ``counters``, and
        the traced campaign's wall seconds."""
        spans = self.recorder.spans
        return {
            **counters,
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "units": dict(self.units),
            "self_s": self_times(spans),
            "wall_s": wall_s,
            "gc_pause_s": self.gc_pause_s,
            "gc_collections": self.gc_collections,
            "spans": len(spans),
        }


# -- the library's layer boundaries ------------------------------------------


def _count(key: str, measure):
    def observe(units: Counter, result) -> None:
        units[key] += measure(result)

    return observe


def _observe_compile(units: Counter, result) -> None:
    units["compiler.compile.results"] += 1
    units["compiler.compile.ok"] += bool(result.ok)
    units["compiler.compile.crashed"] += bool(result.crashed)


def install_library_wrappers(tracer: Tracer, fuzzer_cls: type | None) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.cast.cache import FrontendCache
    from repro.cast.lexer import Lexer
    from repro.cast.parser import Parser
    from repro.cast.sema import Sema
    from repro.compiler.driver import Compiler
    from repro.fuzzing.progen import ProgramGenerator
    from repro.llm.client import LLMClient
    from repro.metamut import refinement, validation
    from repro.metamut.pipeline import MetaMut
    from repro.muast import mutator

    tracer.patch_method(
        Lexer, "tokens", "cast.lexer", _count("cast.lexer.tokens", len)
    )
    tracer.patch_method(
        Lexer, "tokens_best_effort", "cast.lexer",
        _count("cast.lexer.tokens", lambda r: len(r[0])),
    )
    tracer.patch_method(
        Parser, "parse", "cast.parser",
        _count("cast.parser.decls", lambda unit: len(unit.decls)),
    )
    tracer.patch_method(Sema, "analyze", "cast.sema")
    tracer.patch_method(FrontendCache, "front_end", "cast.cache")
    tracer.patch_method(FrontendCache, "front_end_incremental", "cast.cache")
    tracer.patch_function(
        mutator.apply_mutator, "muast.apply_mutator",
        _count("muast.apply_mutator.changed", lambda o: bool(o.changed)),
    )
    tracer.patch_method(Compiler, "compile", "compiler.compile", _observe_compile)
    tracer.patch_method(Compiler, "compile_batch", "compiler.compile")
    tracer.patch_method(
        ProgramGenerator, "generate", "fuzzing.progen",
        _count("fuzzing.progen.bytes", len),
    )
    for request in ("invent", "synthesize", "fix", "generate_tests"):
        tracer.patch_method(LLMClient, request, "llm.client")
    tracer.patch_function(validation.validate_implementation, "metamut.validate")
    tracer.patch_function(refinement.refine, "metamut.refine")
    tracer.patch_method(
        MetaMut, "generate_one", "metamut.invocation",
        _count("metamut.valid", lambda record: record.status == "valid"),
    )
    if fuzzer_cls is not None:
        tracer.patch_method(
            fuzzer_cls, "step", "fuzzing.step",
            _count("fuzzing.kept", lambda step: bool(step.kept)),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merge_raw(raws: list[dict]) -> dict:
    """Sum the raw counts of several traced campaigns.

    Sizes are levels, so the largest is kept; rates are recomputed from
    the summed counts by :func:`layer_metrics`, so they are dropped here.
    """
    total: dict = {}
    for raw in raws:
        for group, values in raw.items():
            if not isinstance(values, dict):
                total[group] = total.get(group, 0) + values
                continue
            bucket = total.setdefault(group, Counter())
            for key, value in values.items():
                if key.endswith("_size"):
                    bucket[key] = max(bucket[key], value)
                elif isinstance(value, (int, float)) and not key.endswith("_rate"):
                    bucket[key] += value
    return total


def layer_metrics(raw: dict) -> dict[str, float]:
    """The per-layer metrics of traced campaigns merged by :func:`merge_raw`.

    ``raw["stage_s"]``, ``raw["cache"]``, ``raw["session"]`` and
    ``raw["bridge"]`` are the compiler's stage timings,
    ``FrontendCache.stats()``, ``CompileSession.stats()`` and bridge
    counters of the campaigns' fuzzers (empty when absent).
    """
    calls, units, errors = raw["calls"], raw["units"], raw["errors"]
    self_s, stage_s = raw["self_s"], raw["stage_s"]
    cache, session, bridge = raw["cache"], raw["session"], raw["bridge"]
    m: dict[str, float] = {}
    for layer in WRAPPED_LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["cast.lexer.tokens_per_s"] = _ratio(
        units.get("cast.lexer.tokens", 0), self_s.get("cast.lexer", 0.0)
    )
    m["cast.parser.decls_per_s"] = _ratio(
        units.get("cast.parser.decls", 0), self_s.get("cast.parser", 0.0)
    )
    hits, misses = cache.get("cache_hits", 0), cache.get("cache_misses", 0)
    m["cast.cache.hit_rate"] = _ratio(hits, hits + misses)
    m["cast.cache.incremental_hits"] = cache.get("cache_incremental_hits", 0)
    m["cast.cache.incremental_fallbacks"] = cache.get(
        "cache_incremental_fallbacks", 0
    )
    m["cast.cache.evictions"] = cache.get("cache_evictions", 0)
    m["muast.apply_mutator.changed_ratio"] = _ratio(
        units.get("muast.apply_mutator.changed", 0),
        calls.get("muast.apply_mutator", 0),
    )
    m["muast.mutator_failures"] = errors.get("muast.apply_mutator", 0)
    results = units.get("compiler.compile.results", 0)
    m["compiler.compile.ok_ratio"] = _ratio(
        units.get("compiler.compile.ok", 0), results
    )
    m["compiler.compile.crash_ratio"] = _ratio(
        units.get("compiler.compile.crashed", 0), results
    )
    for stage in ("frontend_incremental", "irgen", "opt", "backend", "session"):
        m[f"compiler.{stage}_s"] = stage_s.get(stage, 0.0)
    s_hits = session.get("middle_session_hits", 0)
    s_misses = session.get("middle_session_misses", 0)
    m["compiler.session.hit_rate"] = _ratio(s_hits, s_hits + s_misses)
    m["compiler.session.misses"] = s_misses
    m["compiler.session.aborts"] = session.get("middle_session_aborts", 0)
    m["compiler.session.evictions"] = session.get("middle_session_evictions", 0)
    m["compiler.session.size"] = session.get("middle_session_size", 0)
    m["compiler.flatir.encodes"] = bridge.get("encodes", 0)
    m["compiler.flatir.decodes"] = bridge.get("decodes", 0)
    steps = calls.get("fuzzing.step", 0)
    m["fuzzing.attempts_per_step"] = _ratio(
        calls.get("muast.apply_mutator", 0), steps
    )
    m["fuzzing.kept_ratio"] = _ratio(units.get("fuzzing.kept", 0), steps)
    m["fuzzing.progen.bytes_per_s"] = _ratio(
        units.get("fuzzing.progen.bytes", 0), self_s.get("fuzzing.progen", 0.0)
    )
    m["llm.client.api_error_ratio"] = _ratio(
        errors.get("llm.client", 0), calls.get("llm.client", 0)
    )
    m["metamut.valid_ratio"] = _ratio(
        units.get("metamut.valid", 0), calls.get("metamut.invocation", 0)
    )
    m["gc.pause_s"] = raw["gc_pause_s"]
    m["gc.collections"] = raw["gc_collections"]
    wall = raw["wall_s"]
    attributed = sum(
        seconds for layer, seconds in self_s.items()
        if layer not in CONTAINER_LAYERS
    ) + sum(stage_s.get(stage, 0.0) for stage in COMPILE_STAGES)
    m["trace.unattributed_share"] = _ratio(wall - attributed, wall)
    return m


def missing_layers(workload: str, raw: dict) -> list[str]:
    """Layers ``layers.json`` says work on ``workload`` but recorded none.

    A wrapped layer must record calls; ``compiler.session``, read from
    counters, must record lookups.
    """
    session = raw["session"]
    activity = dict(raw["calls"])
    activity["compiler.session"] = session.get(
        "middle_session_hits", 0
    ) + session.get("middle_session_misses", 0)
    layer_map = json.loads(LAYER_MAP.read_text())["layers"]
    return sorted(
        layer for layer, spec in layer_map.items()
        if workload in spec["works_on"] and not activity.get(layer, 0)
    )
