"""The middle end + back end of one compile: IR generation, optimizer, asm.

:func:`run_middle` is the stage sequence every compile runs once its front
end succeeded: lower the unit, run the pass schedule
(:func:`~repro.compiler.passes.run_pipeline`), emit assembly, firing the
seeded-bug checkpoints between the stages.  What each stage does comes from
a *run* object.  :class:`PlainRun` is the plain pipeline —
``IRGen|FlatIRGen.lower(unit)``, ``run_pipeline``, ``lower_to_asm`` — that
every compile without a compile session takes (cold or after a cached
front end), and that every ``flat_native=False`` compile (the object-IR
reference) takes whatever cache or session it is handed.  The compile
session (:mod:`repro.compiler.session`) supplies a run of its own that
replays clean functions instead of recompiling them.
"""

from __future__ import annotations

from repro.compiler.backend import lower_to_asm
from repro.compiler.irgen import FlatIRGen, IRGen, LoweringError
from repro.compiler.passes import OptContext, run_pipeline
from repro.telemetry.spans import span


def irgen_for(compiler, entry, cov):
    """The IR generator a compile uses: buffer-direct when flat-native."""
    if compiler.flat_native:
        return FlatIRGen(entry.sema, cov, counters=compiler.bridge)
    return IRGen(entry.sema, cov)


class PlainRun:
    """The plain pipeline: lower everything, optimize everything, emit."""

    #: Plain runs record nothing for replay.
    journal = None

    def __init__(self, compiler, entry, cov, features: dict) -> None:
        self.compiler = compiler
        self.entry = entry
        self.cov = cov
        self.features = features

    def checkpoint(self, point: str, extra: dict) -> None:
        merged = dict(self.features)
        merged.update(extra)
        self.compiler.bugs.check(point, merged)

    def lower(self):
        self.irgen = irgen_for(self.compiler, self.entry, self.cov)
        return self.irgen.lower(self.entry.unit)

    def optimize(self, module, ctx: OptContext) -> None:
        run_pipeline(module, ctx)

    def backend(self, module, ctx: OptContext):
        return lower_to_asm(module, ctx)


def run_middle(
    compiler, run, opt_level: int, flags: tuple, cov, features: dict,
    result, stages: list,
) -> bool:
    """Run ``run``'s irgen, optimizer and back end into ``result``.

    Returns False when lowering failed (the diagnostic is recorded) and
    True once the module reached the back end.  A seeded crash or hang
    propagates out of whichever checkpoint fired it.
    """
    try:
        with span(compiler.tracer, "irgen"):
            module = run.lower()
    except (LoweringError, RecursionError) as exc:
        result.diagnostics.append(f"sorry, unimplemented: {exc}")
        features["lowering_failed"] = 1
        compiler.bugs.check("ir-gen", features)
        return False
    features.update(run.irgen.stats.counters)
    compiler.bugs.check("ir-gen", features)

    with span(compiler.tracer, "opt"):
        ctx = OptContext(
            cov=cov,
            opt_level=opt_level,
            flags=compiler._personality_flags(flags),
            checkpoint=run.checkpoint,
            flat_native=compiler.flat_native,
        )
        ctx.stats.journal = run.journal
        run.optimize(module, ctx)
    features.update(ctx.stats.counters)
    compiler.bugs.check("optimization", features)

    with span(compiler.tracer, "backend"):
        be = run.backend(module, ctx)
    stages.append("backend")
    features.update(be.stats)
    compiler.bugs.check("back-end", features)

    result.ok = True
    result.asm = be.asm
    result.module = module
    return True
