"""Unit vocabulary for the simulator's priced quantities.

Every quantity the simulator prices — simulated seconds, token counts,
paged KV blocks, byte budgets, energy — is spelled ``float``/``int`` at
runtime, distinguished only by a naming convention (``arrival_s``,
``budget_bytes``, ``free_blocks``, …).  This module is the single source
of truth for that convention:

* **typed aliases** (:data:`Seconds`, :data:`Tokens`, :data:`Blocks`, …)
  annotate the hot-path surfaces.  They are plain aliases — ``Seconds``
  *is* ``float`` — so annotating with them changes no runtime behaviour
  and no mypy verdict; what it changes is that ``tools/simcheck.py`` can
  seed its dimensional-analysis dataflow from them;
* **suffix tables** map name suffixes to units (``_s`` → ``Seconds``,
  ``_tokens`` → ``Tokens``, …).  Both ``tools/repro_lint.py`` and
  ``tools/simcheck.py`` import these, so the two linters cannot drift
  apart on what a timestamp or a counter looks like.

The unit semantics themselves (what the quantities *mean*) are
documented where they live: simulated seconds come from the event loop,
KV blocks are per-node paged allocations, byte budgets are per-node,
token counts are cached positions summed over co-resident sequences.
See ``docs/development.md`` for the vocabulary table and the simcheck
rule catalogue built on top of it.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "Seconds", "Milliseconds", "Tokens", "Blocks", "BlockId", "Bytes",
    "MiB", "TokensPerSecond", "RequestsPerSecond", "BytesPerSecond",
    "Joules", "Watts", "Fraction",
    "UNIT_ALIASES", "UNIT_SUFFIXES", "suffix_unit",
    "TIMESTAMP_NAME_WORDS", "TIMESTAMP_SUFFIXES", "COUNTER_PREFIXES",
    "require_count",
]

# ---------------------------------------------------------------------------
# typed aliases (annotation currency; all plain float/int at runtime)
# ---------------------------------------------------------------------------

#: Simulated wall-clock seconds (the event loop's currency).
Seconds = float
#: Simulated milliseconds — only the paper-facing ``core`` reports use
#: these; everything the serving engine prices is in :data:`Seconds`.
Milliseconds = float
#: Token positions (prompt/generation lengths, cached KV positions).
Tokens = int
#: A *count* of paged KV blocks (per node).
Blocks = int
#: The identity of one paged KV block (an index into a pool, not a count).
BlockId = int
#: Bytes (per-node budgets and footprints unless documented otherwise).
Bytes = int
#: Mebibytes (CLI-facing budget knobs; ``bytes / 2**20``).
MiB = float
#: Generation throughput.
TokensPerSecond = float
#: Offered/served load.
RequestsPerSecond = float
#: Link/channel bandwidth.
BytesPerSecond = float
#: Energy.
Joules = float
#: Power.
Watts = float
#: A dimensionless ratio in ``[0, 1]``.
Fraction = float

#: Alias name -> the runtime type it abbreviates.  The simcheck U-pass
#: treats exactly these names as unit annotations.
UNIT_ALIASES: Dict[str, type] = {
    "Seconds": float,
    "Milliseconds": float,
    "Tokens": int,
    "Blocks": int,
    "BlockId": int,
    "Bytes": int,
    "MiB": float,
    "TokensPerSecond": float,
    "RequestsPerSecond": float,
    "BytesPerSecond": float,
    "Joules": float,
    "Watts": float,
    "Fraction": float,
}

# ---------------------------------------------------------------------------
# the suffix convention
# ---------------------------------------------------------------------------

#: Name-suffix -> unit alias, longest suffix first (``_bytes_per_s`` must
#: win over ``_s``).  ``suffix_unit`` depends on this ordering.
UNIT_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_tokens_per_s", "TokensPerSecond"),
    ("_requests_per_s", "RequestsPerSecond"),
    ("_rate_per_s", "RequestsPerSecond"),
    ("_bytes_per_s", "BytesPerSecond"),
    ("_joules", "Joules"),
    ("_watts", "Watts"),
    ("_tokens", "Tokens"),
    ("_blocks", "Blocks"),
    ("_bytes", "Bytes"),
    ("_mib", "MiB"),
    ("_len", "Tokens"),
    ("_ms", "Milliseconds"),
    ("_s", "Seconds"),
)

#: Bare name words that denote a simulated timestamp even without a unit
#: suffix (``now``, ``arrival`` …).  repro_lint's float-equality rule
#: R003 and simcheck's seeding both build on this list.
TIMESTAMP_NAME_WORDS: Tuple[str, ...] = (
    "time", "times", "timestamp", "arrival", "arrivals", "deadline",
    "finish", "start", "now", "makespan", "tick",
)

#: Suffixes that mark a simulated timestamp for R003 (wider than the
#: unit table: ``_ts``/``_at`` are timestamps but not annotated units).
TIMESTAMP_SUFFIXES: Tuple[str, ...] = ("_s", "_ts", "_at")

#: Prefixes that mark integer counters/indices — exempt from the float
#: timestamp-equality rule even when their names mention time words.
COUNTER_PREFIXES: Tuple[str, ...] = ("num", "n", "count", "total", "idx",
                                     "index")


def suffix_unit(name: str) -> Optional[str]:
    """The unit alias ``name``'s suffix implies, or ``None``.

    Matching is case-insensitive (module constants are upper-case) and
    longest-suffix-first, so ``bandwidth_bytes_per_s`` is
    ``BytesPerSecond``, not ``Seconds``.
    """
    lowered = name.lower()
    for suffix, unit in UNIT_SUFFIXES:
        if lowered.endswith(suffix):
            return unit
    return None


def require_count(value: Any, name: str, unit: str) -> int:
    """``value`` as an ``int``, or a ``ValueError`` naming ``name`` as an
    integer count of ``unit``: NaN, inf, a fraction, a string or a bool is
    no count (it would hang, corrupt or silently shrink the simulation),
    while numpy integers pass."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer {unit} count, "
                         f"got {value!r}") from None
