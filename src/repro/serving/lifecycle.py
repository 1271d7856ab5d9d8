"""The request lifecycle, declared as data.

Every request the serving engine touches moves through one state
machine: it arrives **queued**, computes its prompt (**prefilling**),
optionally travels between instances (**handoff** — the disaggregated
prefill→decode KV transfer), generates (**decoding**), and leaves
**finished** — with preemption detours through **evicted-swap** (paged
``swap`` mode parks the KV blocks in the host tier) or
**evicted-recompute** (every other mode discards progress).  Before this
module the machine was implicit in scattered attribute flips across
``engine.py``/``instance.py``; now it is declared once, here, as the
:data:`EDGES` table, and *used three ways*:

* **runtime enforcement** — every phase change goes through
  :func:`transition`, which validates the edge against the table and
  raises :class:`~repro.errors.InvariantError` on an undeclared or
  out-of-phase move (always on: the check is one dict lookup per
  transition, and transitions are per-request-lifecycle events, not
  per-step events);
* **static exhaustiveness** — ``tools/simcheck.py``'s L-pass parses this
  file's :data:`EDGES` literal plus every ``transition(...)`` call site
  and proves the two match: no undeclared transition (L001), no dead
  edge (L002), no transition without its accounting hook (L003);
* **runtime exhaustiveness** — the lifecycle test walks a trace mix
  (disaggregated + prefix-sharing + mixed prefill + both preemption
  modes), recording every edge by wrapping :func:`transition` (every
  call site resolves it through this module), and asserts the observed
  edge set equals the declared one, so the spec can neither under- nor
  over-declare.

The phase attribute is bookkeeping *about* the simulation, not part of
it: transitions never influence pricing or event ordering, so recording
or comparing phases cannot perturb a single timestamp
(golden-timestamp tests pin this).

Role-gate edges (PR 5): on a disaggregated cluster a prefill-role
instance exports a finished prompt's KV (``handoff_export``); the
transfer lands it in the target's host tier, which is exactly the
swapped-out disposition (``handoff_arrive`` → **evicted-swap**), and the
decode instance then resumes it like any swapped victim
(``resume_swap_decode``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import InvariantError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serving.instance import RequestState

__all__ = [
    "QUEUED", "PREFILLING", "HANDOFF", "DECODING", "FINISHED",
    "EVICTED_SWAP", "EVICTED_RECOMPUTE", "PHASES", "INITIAL_PHASE",
    "TERMINAL_PHASES", "LifecycleEdge", "EDGES", "EDGES_BY_NAME",
    "transition",
]

# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

#: Waiting in the shared queue, prompt not yet computed.
QUEUED = "queued"
#: In a batch with prompt tokens still to compute.
PREFILLING = "prefilling"
#: KV in flight between a prefill-role and a decode-capable instance.
HANDOFF = "handoff"
#: In a batch, prompt done, generating tokens.
DECODING = "decoding"
#: All tokens produced; the request left the system.
FINISHED = "finished"
#: Preempted with KV parked in an instance's host tier (paged ``swap``
#: mode); only the instance holding the blocks can resume it.
EVICTED_SWAP = "evicted-swap"
#: Preempted with KV discarded and progress reset; re-prefills anywhere.
EVICTED_RECOMPUTE = "evicted-recompute"

PHASES: Tuple[str, ...] = (QUEUED, PREFILLING, HANDOFF, DECODING, FINISHED,
                           EVICTED_SWAP, EVICTED_RECOMPUTE)

#: Phase a freshly arrived :class:`RequestState` starts in.  Constructors
#: assign this directly (the only sanctioned bare ``.phase`` write —
#: simcheck's L-pass rejects any other).
INITIAL_PHASE = QUEUED

TERMINAL_PHASES: Tuple[str, ...] = (FINISHED,)


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LifecycleEdge:
    """One declared transition.

    ``hook`` names the accounting attribute/call that must appear in the
    function implementing the edge (simcheck rule L003): an eviction
    that never counts ``swap_outs`` or a handoff that never counts
    ``handoff_out_count`` is a metrics bug even when the state machine
    itself is respected.  ``None`` means the edge carries no accounting
    obligation beyond the phase change.
    """

    name: str
    src: str
    dst: str
    hook: Optional[str] = None
    doc: str = ""


# NOTE: simcheck parses this literal (names, phases, hooks) straight out
# of the AST — keep every entry a plain ``LifecycleEdge(...)`` call with
# literal arguments.
EDGES: Tuple[LifecycleEdge, ...] = (
    LifecycleEdge(
        "admit", QUEUED, PREFILLING, hook="admission_count",
        doc="a fresh request enters a batch and starts its prompt "
            "(prefix-sharing may credit matched positions, but at least "
            "one prompt token always remains to compute)"),
    LifecycleEdge(
        "prefill_complete", PREFILLING, DECODING,
        doc="the prompt finished on a decode-capable instance; the "
            "request keeps its batch slot and starts generating"),
    LifecycleEdge(
        "finish_prefill_only", PREFILLING, FINISHED, hook="_finish",
        doc="a request with decode_len == 0 is done the moment its "
            "prompt completes"),
    LifecycleEdge(
        "finish_decode", DECODING, FINISHED, hook="_finish",
        doc="the last generated token completes the request"),
    LifecycleEdge(
        "handoff_export", PREFILLING, HANDOFF, hook="handoff_out_count",
        doc="a prefill-role instance exports the finished prompt's KV "
            "blocks over PCIe toward a decode-capable instance"),
    LifecycleEdge(
        "handoff_arrive", HANDOFF, EVICTED_SWAP,
        doc="the handoff transfer landed: the KV now sits in the target "
            "instance's host tier — exactly the swapped-out disposition "
            "— and the request re-enters the shared queue pinned to it"),
    LifecycleEdge(
        "evict_swap_prefill", PREFILLING, EVICTED_SWAP, hook="swap_outs",
        doc="preempted mid-prompt in paged swap mode; blocks park in "
            "this instance's host tier"),
    LifecycleEdge(
        "evict_swap_decode", DECODING, EVICTED_SWAP, hook="swap_outs",
        doc="preempted mid-generation in paged swap mode"),
    LifecycleEdge(
        "evict_recompute_prefill", PREFILLING, EVICTED_RECOMPUTE,
        hook="reset_progress",
        doc="preempted mid-prompt with KV discarded; the prompt will be "
            "recomputed from scratch"),
    LifecycleEdge(
        "evict_recompute_decode", DECODING, EVICTED_RECOMPUTE,
        hook="reset_progress",
        doc="preempted mid-generation with KV discarded"),
    LifecycleEdge(
        "resume_swap_prefill", EVICTED_SWAP, PREFILLING, hook="swap_in",
        doc="a swapped victim re-admits on the instance holding its "
            "blocks with prompt tokens still to compute"),
    LifecycleEdge(
        "resume_swap_decode", EVICTED_SWAP, DECODING, hook="swap_in",
        doc="a swapped victim (or a handed-off prompt) re-admits with "
            "its prompt already computed and resumes generation"),
    LifecycleEdge(
        "readmit_recompute", EVICTED_RECOMPUTE, PREFILLING,
        hook="admission_count",
        doc="a recompute victim re-admits; progress was reset, so it "
            "always starts back in prefill"),
)

EDGES_BY_NAME: Dict[str, LifecycleEdge] = {edge.name: edge for edge in EDGES}

if len(EDGES_BY_NAME) != len(EDGES):  # pragma: no cover - spec authoring bug
    raise InvariantError("duplicate lifecycle edge names in EDGES")


# ---------------------------------------------------------------------------
# runtime enforcement
# ---------------------------------------------------------------------------


def transition(state: "RequestState", edge_name: str) -> None:
    """Move ``state`` along the declared edge ``edge_name``.

    Raises :class:`InvariantError` when the edge is undeclared or the
    request is not in the edge's source phase — the runtime twin of
    simcheck's static L001 check.
    """
    edge = EDGES_BY_NAME.get(edge_name)
    if edge is None:
        raise InvariantError(
            f"undeclared lifecycle edge {edge_name!r}; declared: "
            f"{', '.join(sorted(EDGES_BY_NAME))}")
    if state.phase != edge.src:
        raise InvariantError(
            f"request {state.request.request_id} takes edge {edge_name!r} "
            f"out of phase {state.phase!r}; the declared edge departs "
            f"{edge.src!r}")
    state.phase = edge.dst
