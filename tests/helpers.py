"""Helpers shared by several test modules."""

from __future__ import annotations

#: Stats keys of the compile session (``middle_session_*`` plus the decl
#: digest memo it carries), of the deleted journal middle end
#: (``middle_incremental_*``, ``fused_pass_runs``), and the front-end cache's
#: hit count and rate, which the session's parent warm-up moves.
ENGINE_PREFIXES = ("middle_incremental_", "middle_session_")
ENGINE_KEYS = frozenset(
    ("fused_pass_runs", "decl_digest_memo_hits", "cache_hits", "cache_hit_rate")
)


def fuzzing_observable(result) -> dict:
    """``result.to_json()`` without the replay engines' own counters.

    What remains — coverage trend, crashes, pool, attempts, every
    RNG-driven counter — is the same whichever engine served the compiles.
    """
    payload = result.to_json()
    payload["stats"] = {
        key: value
        for key, value in payload["stats"].items()
        if not key.startswith(ENGINE_PREFIXES) and key not in ENGINE_KEYS
    }
    return payload
