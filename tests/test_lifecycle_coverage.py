"""Runtime exhaustiveness of the declared request lifecycle.

:mod:`repro.serving.lifecycle` declares the request state machine as
data; ``tools/simcheck.py`` checks *statically* that every declared edge
has a call site and every call site names a declared edge.  This module
closes the loop at runtime: a small portfolio of engine configurations
— disaggregated with prefix sharing and mixed scheduling, paged swap
and recompute preemption under capacity pressure, priority preemption
mid-prefill, and a prompt-only request — must between them *walk* every
declared edge, with the shadow sanitizer verifying phase consistency
after every event.  A declared edge no run can take is dead spec; an
edge the engine takes without declaring it raises ``InvariantError``
inside :func:`repro.serving.lifecycle.transition` before it ever shows
up here.
"""

import pytest

from repro.core.multi_node import LoopLynxSystem
from repro.errors import InvariantError
from repro.memory.kv_cache import KVCacheLayout
from repro.serving import lifecycle
from repro.serving.engine import TokenServingEngine
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import Request, RequestTrace, bursty_trace


def _trace(shapes, gap_s=0.0, priorities=None):
    requests = [
        Request(request_id=i, arrival_s=0.001 + i * gap_s,
                scenario=Scenario(prefill, decode),
                priority=0 if priorities is None else priorities[i])
        for i, (prefill, decode) in enumerate(shapes)
    ]
    return RequestTrace(requests=requests)


def _tight_paged(tokens):
    """Paged KV recipe holding ``tokens`` cached positions per node of the
    paper model on a 2-node instance (16-token blocks)."""
    model = LoopLynxSystem.paper_configuration(num_nodes=2).config.model
    layout = KVCacheLayout.for_model(model, num_nodes=2)
    return dict(kv_mode="paged",
                kv_budget_bytes=tokens * layout.bytes_per_token_per_node())


def _observe(engine, trace):
    """Run ``engine`` over ``trace`` and return the set of edge names
    taken (the engine raises on any undeclared transition, so the set is
    a subset of the declared edges by construction).  Every call site
    resolves ``transition`` through the lifecycle module, so wrapping the
    module attribute sees every edge."""
    taken = set()
    original = lifecycle.transition

    def recording(state, edge_name):
        original(state, edge_name)
        taken.add(edge_name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lifecycle, "transition", recording)
        engine.run(trace)
    return taken


class TestDeclaredEdgeCoverage:
    """Union of observed edges over the portfolio == declared edges."""

    @pytest.fixture(scope="class")
    def observed(self):
        runs = {}
        # Disaggregated cluster, prefix sharing, mixed scheduling: the
        # prefill class exports handoffs, the decode class imports them
        # and resumes the arrivals as swapped-in decodes.
        runs["disaggregated"] = _observe(
            TokenServingEngine(cluster="1x2n:prefill,1x2n:decode",
                               kv_mode="paged", router="disaggregated",
                               kv_prefix_sharing=True, prefill_mode="mixed",
                               sanitize=True),
            bursty_trace(24, seed=5, mean_prefill=48, mean_decode=32))
        # Capacity pressure with swap preemption: decoding victims are
        # swapped out and later resume without recomputing.
        runs["swap-pressure"] = _observe(
            TokenServingEngine(num_instances=1, policy="fifo",
                               max_batch_size=4, preemption_mode="swap",
                               sanitize=True, **_tight_paged(176)),
            _trace([(24, 80)] * 5, gap_s=0.01))
        # Same pressure, recompute preemption: victims drop their blocks
        # and re-enter through the queue.
        runs["recompute-pressure"] = _observe(
            TokenServingEngine(num_instances=1, policy="fifo",
                               max_batch_size=4, preemption_mode="recompute",
                               sanitize=True, **_tight_paged(176)),
            _trace([(24, 80)] * 5, gap_s=0.01))
        # Priority preemption with a single-slot batch and a long chunked
        # prompt: the victim is evicted *mid-prefill*, exercising the
        # prefill-phase eviction/resume edges (swap and recompute).
        prio = dict(num_instances=1, policy="priority", max_batch_size=1,
                    prefill_chunk_tokens=64, sanitize=True,
                    **_tight_paged(1024))
        prio_trace = _trace([(512, 16), (64, 16)], gap_s=0.05,
                            priorities=[0, 5])
        runs["priority-swap"] = _observe(
            TokenServingEngine(preemption_mode="swap", **prio),
            prio_trace)
        runs["priority-recompute"] = _observe(
            TokenServingEngine(preemption_mode="recompute", **prio),
            prio_trace)
        # A prompt-only request (decode_len == 0) finishes straight out
        # of prefill.
        runs["prompt-only"] = _observe(
            TokenServingEngine(num_instances=1, max_batch_size=2,
                               sanitize=True),
            _trace([(32, 0), (32, 8)]))
        return runs

    def test_every_declared_edge_is_walked(self, observed):
        declared = set(lifecycle.EDGES_BY_NAME)
        walked = set().union(*observed.values())
        assert walked == declared, (
            f"dead declared edges: {sorted(declared - walked)}; "
            f"undeclared observed edges: {sorted(walked - declared)}")

    def test_each_run_contributes_its_signature_edges(self, observed):
        """Pin which configuration exercises which hard-to-reach edges,
        so a regression names the run that stopped covering them."""
        assert {"handoff_export", "handoff_arrive",
                "resume_swap_decode"} <= observed["disaggregated"]
        assert {"evict_swap_decode",
                "resume_swap_decode"} <= observed["swap-pressure"]
        assert {"evict_recompute_decode",
                "readmit_recompute"} <= observed["recompute-pressure"]
        assert {"evict_swap_prefill",
                "resume_swap_prefill"} <= observed["priority-swap"]
        assert "evict_recompute_prefill" in observed["priority-recompute"]
        assert "finish_prefill_only" in observed["prompt-only"]
        for edges in observed.values():
            assert "admit" in edges

    def test_observed_edges_stay_declared(self, observed):
        declared = set(lifecycle.EDGES_BY_NAME)
        for name, edges in observed.items():
            assert edges <= declared, name


class _StubRequest:
    def __init__(self, request_id):
        self.request_id = request_id


class _StubState:
    def __init__(self, request_id, phase=lifecycle.QUEUED):
        self.request = _StubRequest(request_id)
        self.phase = phase


class TestTransitionGuards:
    def test_undeclared_edge_rejected(self):
        with pytest.raises(InvariantError, match="undeclared lifecycle edge"):
            lifecycle.transition(_StubState(0), "no_such_edge")

    def test_out_of_phase_transition_rejected(self):
        with pytest.raises(InvariantError, match="out of phase"):
            lifecycle.transition(_StubState(7), "finish_decode")
