"""The optimizer: a pipeline of semantic IR passes.

The pass set mirrors the compiler components the paper's mutants exercised —
constant folding, CFG simplification, DCE, local CSE, store-to-load
forwarding, a small inliner, GCC's sprintf→strlen strength reduction, and a
loop vectorizer.  Passes record coverage edges and accumulate statistics used
by the seeded-bug triggers.
"""

from repro.compiler.passes.common import OptContext, OptStats
from repro.compiler.passes.const_fold import const_fold
from repro.compiler.passes.simplify_cfg import simplify_cfg
from repro.compiler.passes.dce import dce
from repro.compiler.passes.cse import cse
from repro.compiler.passes.forward_store import forward_store
from repro.compiler.passes.inline import (
    inline_candidates,
    inline_into_caller,
    inline_small_functions,
)
from repro.compiler.passes.strlen_opt import strlen_opt, strlen_opt_fn
from repro.compiler.passes.loop_vectorize import loop_vectorize
from repro.compiler.passes.flat import flat_cleanup_opt, flat_local_opt
from repro.compiler.passes.flat_inline import (
    flat_inlinable,
    flat_inline_candidates,
    flat_inline_into_caller,
)
from repro.compiler.passes.flat_strlen import flat_strlen_opt_fn
from repro.compiler.passes.flat_vectorize import flat_loop_vectorize

__all__ = [
    "OptContext",
    "OptStats",
    "const_fold",
    "simplify_cfg",
    "dce",
    "cse",
    "forward_store",
    "inline_candidates",
    "inline_into_caller",
    "inline_small_functions",
    "strlen_opt",
    "strlen_opt_fn",
    "loop_vectorize",
    "flat_local_opt",
    "flat_cleanup_opt",
    "flat_inlinable",
    "flat_inline_candidates",
    "flat_inline_into_caller",
    "flat_strlen_opt_fn",
    "flat_loop_vectorize",
    "local_opt",
    "cleanup_opt",
    "run_pipeline",
]


def local_opt(fn, ctx: OptContext) -> None:
    """The per-function -O1 fixpoint round (first pipeline stage).

    With ``ctx.flat_native`` set, the round runs over the function's flat
    :class:`~repro.compiler.flatir.IRBuffer` as one fused walk per round
    (:func:`~repro.compiler.passes.flat.flat_local_opt`) — bit-identical in
    resulting IR, coverage hits, and stats bumps to the sequential
    five-pass loop below, which is the object-IR reference.
    """
    if ctx.flat_native:
        flat_local_opt(fn, ctx)
        return
    changed = True
    rounds = 0
    while changed and rounds < 4:
        rounds += 1
        changed = False
        changed |= const_fold(fn, ctx)
        changed |= simplify_cfg(fn, ctx)
        changed |= forward_store(fn, ctx)
        changed |= cse(fn, ctx)
        changed |= dce(fn, ctx)
    ctx.stats.bump("opt_rounds", rounds)


def cleanup_opt(fn, ctx: OptContext) -> None:
    """The per-function post-inline cleanup round (-O2 stage tail)."""
    if ctx.flat_native:
        flat_cleanup_opt(fn, ctx)
        return
    const_fold(fn, ctx)
    simplify_cfg(fn, ctx)
    dce(fn, ctx)


def _run_now(phase: str, fn, run) -> None:
    run(fn)


def run_pipeline(module, ctx: OptContext, drive=None, candidates=None) -> None:
    """Run the optimization pipeline at the context's -O level.

    This is the one pass schedule.  Each phase visits the functions in
    module order: the local round (:func:`local_opt`), then at -O2 inlining
    of the candidate callees, GCC's sprintf->strlen reduction and the
    cleanup round (:func:`cleanup_opt`), then at -O3 or with
    ``-ftree-vectorize`` the loop vectorizer.  ``ctx.flat_native`` selects
    the buffer ports of the stages; otherwise the object-IR stages run.

    The compile session (:mod:`repro.compiler.session`) reuses the schedule
    through two hooks:

    * ``drive(phase, fn, run)`` is called instead of ``run(fn)`` for every
      (phase, function) pair, so the session can replay a clean function's
      recorded events in place of running the stage;
    * ``candidates(module, own)`` is called once every local round has
      run, with the module's own inline candidates (callee name -> body),
      and returns the candidate map the inline phase uses.
    """
    if ctx.opt_level <= 0:
        return
    if ctx.flat_native:
        inline, strlen, vectorize = (
            flat_inline_into_caller, flat_strlen_opt_fn, flat_loop_vectorize
        )
        find_candidates = flat_inline_candidates
    else:
        inline, strlen, vectorize = (
            inline_into_caller, strlen_opt_fn, loop_vectorize
        )
        find_candidates = inline_candidates
    drive = drive or _run_now

    def phase(name: str, run) -> None:
        for fn in list(module.functions.values()):
            drive(name, fn, run)

    phase("local", lambda fn: local_opt(fn, ctx))
    if ctx.opt_level >= 2:
        callees = find_candidates(module)
        if candidates is not None:
            callees = candidates(module, callees)
        if callees:
            phase("inline", lambda fn: inline(fn, callees, ctx))
        phase("strlen", lambda fn: strlen(fn, module, ctx))
        phase("cleanup", lambda fn: cleanup_opt(fn, ctx))
    if ctx.opt_level >= 3 or ctx.flag("-ftree-vectorize"):
        phase("vectorize", lambda fn: vectorize(fn, ctx))
