"""Tests for disaggregated prefill/decode serving with priced KV handoff.

Covers the extended cluster-spec grammar
(``<count>x<nodes>n[@<size>MiB][:<role>]``), the handoff primitives on
:class:`~repro.memory.paged_kv.PagedKVManager`, engine-level validation of
role-tagged clusters, end-to-end disaggregated runs under every router and
policy, and the conservation properties the handoff must uphold: every
request's blocks live on exactly one instance at any time, every generated
and prompt token is computed exactly once, and role-less clusters stay
bit-identical to the pre-disaggregation engine (the golden-timestamp tests
in ``tests/test_cluster.py`` parametrize over ``ROUTER_NAMES``, which now
includes ``disaggregated``).
"""

import pytest

from repro.analysis.serving import (
    class_breakdown,
    disaggregation_comparison,
    run_policy,
    strip_roles,
)
from repro.core.multi_node import LoopLynxSystem
from repro.memory.kv_cache import KVCacheLayout
from repro.memory.paged_kv import PagedKVManager
from repro.serving.cluster import (
    ClusterSpec,
    DisaggregatedRouter,
    InstanceSpec,
    ROUTER_NAMES,
    make_router,
    parse_cluster_spec,
)
from repro.serving import lifecycle
from repro.serving.engine import TokenServingEngine
from repro.serving.instance import InstanceRuntime, PagedRuntime, RequestState
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import (
    Request,
    RequestTrace,
    bursty_multi_tenant_trace,
    bursty_trace,
)

# Golden-timestamp guard modules run in the dedicated serial CI pass
# (never under pytest-xdist) so a bit-exact failure is attributable
# to the code, not to worker scheduling.
pytestmark = pytest.mark.serial

DISAGG = "1x2n:prefill,2x1n:decode"


def _trace(n=16, seed=3):
    return bursty_trace(n, seed=seed, mean_prefill=48, mean_decode=96,
                        burst_size=8)


class TestSpecGrammar:
    """Satellite: the ``<count>x<nodes>n[@<size>MiB][:<role>]`` grammar
    round-trips and fails with messages naming the malformed entry."""

    def test_role_suffix_parses(self):
        spec = parse_cluster_spec("1x4n:prefill,4x1n:decode")
        assert [(s.count, s.num_nodes, s.role) for s in spec.specs] == \
            [(1, 4, "prefill"), (4, 1, "decode")]
        assert spec.has_roles
        assert spec.is_heterogeneous
        assert spec.labels == ["4n:prefill", "1n:decode"]

    def test_kv_budget_override_parses(self):
        spec = parse_cluster_spec("2x2n@32MiB,1x2n")
        assert spec.specs[0].kv_budget_bytes == 32 << 20
        assert spec.specs[1].kv_budget_bytes is None
        # a budget override is class identity: this pool is heterogeneous
        assert spec.is_heterogeneous
        assert not spec.has_roles

    def test_budget_and_role_combine(self):
        spec = parse_cluster_spec("1x2n@16MiB:prefill,2x1n@8.5MiB:decode")
        assert spec.specs[0].kv_budget_bytes == 16 << 20
        assert spec.specs[0].role == "prefill"
        assert spec.specs[1].kv_budget_bytes == round(8.5 * (1 << 20))
        assert spec.specs[1].role == "decode"

    @pytest.mark.parametrize("text", [
        "4x2n",
        "2x1n,2x2n,1x4n",
        "2x2n@32MiB",
        "1x4n:prefill,4x1n:decode",
        "1x2n@16MiB:prefill,2x1n@64MiB:decode,1x1n",
    ])
    def test_str_parse_round_trip(self, text):
        spec = parse_cluster_spec(text)
        assert str(spec) == text
        again = parse_cluster_spec(str(spec))
        assert again == spec

    def test_explicit_both_role_normalizes(self):
        """``:both`` parses but is the default, so it does not survive
        ``str()`` — the canonical form of a role-less class is bare."""
        spec = parse_cluster_spec("2x2n:both")
        assert spec.specs[0].role == "both"
        assert str(spec) == "2x2n"
        assert not spec.has_roles

    @pytest.mark.parametrize("text,fragment", [
        ("2x2n:turbo", "turbo"),            # unknown role, entry named
        ("2x2n@fastMiB", "2x2n@fastMiB"),   # malformed budget
        ("2x2n@32", "2x2n@32"),             # missing MiB unit
        ("2y3", "2y3"),                     # PR 4 error still names entry
        ("2x2n@-4MiB", "2x2n@-4MiB"),       # negative budget is malformed
    ])
    def test_errors_name_the_entry(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_cluster_spec(text)

    def test_error_mentions_the_grammar(self):
        with pytest.raises(ValueError) as excinfo:
            parse_cluster_spec("nonsense")
        assert "<count>x<nodes>n[@<size>MiB][:<role>]" in str(excinfo.value)

    def test_instance_spec_rejects_unknown_role(self):
        with pytest.raises(ValueError, match="role"):
            InstanceSpec(1, 2, role="mystery")

    def test_make_router_knows_disaggregated(self):
        assert "disaggregated" in ROUTER_NAMES
        assert make_router("disaggregated").name == "disaggregated"


class TestHandoffPrimitives:
    """The paged-KV export/import pair a handoff is built from."""

    def _manager(self, num_nodes=2, blocks=8, block=16):
        system = LoopLynxSystem.paper_configuration(num_nodes=num_nodes)
        layout = KVCacheLayout.for_model(system.config.model,
                                         num_nodes=num_nodes)
        return PagedKVManager(
            layout, block_size_tokens=block,
            budget_bytes=blocks * block * layout.bytes_per_token_per_node())

    def test_export_frees_the_device_and_drops_the_table(self):
        kv = self._manager()
        assert kv.allocate(7, 40)
        num_blocks, cached_tokens, bytes_total = kv.export_handoff(7)
        assert (num_blocks, cached_tokens) == (3, 40)
        assert bytes_total > 0
        assert not kv.holds(7)
        assert kv.free_blocks == kv.total_blocks
        assert kv.swap_out_count == 1  # the export is a priced swap-out

    def test_import_registers_a_swapped_table(self):
        source, target = self._manager(num_nodes=2), self._manager(num_nodes=1)
        assert source.allocate(7, 40)
        _, cached_tokens, _ = source.export_handoff(7)
        blocks = target.import_handoff(7, cached_tokens)
        assert blocks == target.blocks_needed(40)
        table = target.table(7)
        assert table.is_swapped
        assert table.cached_tokens == 40
        # the import itself moves nothing over PCIe yet
        assert target.swap_in_count == 0
        assert target.used_blocks == 0
        # ... the resume does
        restored, transferred = target.swap_in(7)
        assert restored == blocks
        assert transferred > 0
        assert target.swap_in_count == 1

    def test_same_step_handoffs_serialize_on_the_link(self):
        """Two prompts finishing in one (mixed) step share the prefiller's
        single PCIe link: the second handoff's ready offset stacks on the
        first's, matching the serial ``pending_delay_s`` charge — the
        transfers must not be modeled as parallel."""
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        layout = KVCacheLayout.for_model(system.config.model, num_nodes=2)
        kv = PagedKVManager(
            layout, block_size_tokens=16,
            budget_bytes=1024 * layout.bytes_per_token_per_node())
        runtime = PagedRuntime(0, system, role="prefill", kv=kv,
                               prefill_mode="mixed")
        states = [RequestState(Request(request_id=i, arrival_s=0.0,
                                       scenario=Scenario(32, 8)))
                  for i in range(2)]
        for state in states:
            lifecycle.transition(state, "admit")
            runtime.batch.append(state)
            assert kv.allocate(state.request.request_id, 32)
            state.prefill_done = 32
        runtime._begin_handoff(states[0])
        runtime._begin_handoff(states[1])
        (_, _, first_ready), (_, _, second_ready) = runtime.take_handoffs()
        assert first_ready > 0
        assert second_ready == pytest.approx(2 * first_ready)
        assert runtime.pending_delay_s == pytest.approx(second_ready)

    def test_import_rejects_duplicates_and_empty_prompts(self):
        kv = self._manager()
        kv.import_handoff(3, 20)
        with pytest.raises(RuntimeError, match="already holds"):
            kv.import_handoff(3, 20)
        with pytest.raises(ValueError, match="cached token"):
            kv.import_handoff(4, 0)


class TestRoleMatchIsNoVeto:
    """The disaggregated router vetoes nothing.  Its role match (the swap
    pin, then the role) refuses no head that the runtime's own checks
    accept: ``role_admits``, plus the swap pin in ``would_take`` and in
    ``PagedRuntime.kv_admits``.  So passing it as a placement gate changes
    no answer, and a disaggregated pool runs without one."""

    @pytest.mark.parametrize("pin", (None, "this", "other"))
    @pytest.mark.parametrize("prompt_done", (False, True))
    @pytest.mark.parametrize("role", ("prefill", "decode", "both"))
    def test_gate_changes_no_answer(self, role, prompt_done, pin):
        system = LoopLynxSystem.paper_configuration(num_nodes=1)
        layout = KVCacheLayout.for_model(system.config.model, num_nodes=1)
        kv = PagedKVManager(
            layout, block_size_tokens=16,
            budget_bytes=64 * 16 * layout.bytes_per_token_per_node())
        runtime = PagedRuntime(0, system, role=role, kv=kv)
        state = RequestState(Request(request_id=7, arrival_s=0.0,
                                     scenario=Scenario(32, 8)))
        # a pinned request has KV on the host tier: a swapped one mid-prompt
        # holds a chunk, a handed-off one its whole prompt
        state.prefill_done = 32 if prompt_done else (16 if pin else 0)
        if pin is not None:
            state.phase = lifecycle.EVICTED_SWAP
            state.swapped_on = 0 if pin == "this" else 1
            if pin == "this":
                kv.import_handoff(7, state.prefill_done)
        gate = DisaggregatedRouter._role_matches
        assert runtime.admits(state, gate) == runtime.admits(state, None)
        for never_preempts in (True, False):
            assert (runtime.would_take(state, gate, never_preempts)
                    == runtime.would_take(state, None, never_preempts))


class TestEngineValidation:
    def test_roles_require_paged_kv(self):
        with pytest.raises(ValueError, match="paged"):
            TokenServingEngine(cluster=DISAGG)
        with pytest.raises(ValueError, match="paged"):
            TokenServingEngine(cluster=DISAGG, kv_mode="reserve",
                               kv_budget_bytes=32 << 20)

    def test_cluster_needs_both_capabilities(self):
        with pytest.raises(ValueError, match="decode-capable"):
            TokenServingEngine(cluster="2x2n:prefill", kv_mode="paged")
        with pytest.raises(ValueError, match="prefill-capable"):
            TokenServingEngine(cluster="2x2n:decode", kv_mode="paged")
        # a role-both class provides the missing capability
        TokenServingEngine(cluster="1x2n:prefill,1x2n", kv_mode="paged")

    def test_runtime_roles_require_a_block_pool(self):
        system = LoopLynxSystem.paper_configuration(num_nodes=2)
        with pytest.raises(ValueError, match="PagedKVManager"):
            InstanceRuntime(0, system, role="prefill")
        with pytest.raises(ValueError, match="role"):
            InstanceRuntime(0, system, role="sideways")

    def test_request_too_big_for_every_decode_class_is_rejected(self):
        """A prompt the prefill class holds but no decode-capable class can
        carry at full context must fail validation up front."""
        layout_1n = KVCacheLayout.for_model(
            LoopLynxSystem.paper_configuration(num_nodes=1).config.model,
            num_nodes=1)
        small = 96 * layout_1n.bytes_per_token_per_node()
        spec = ClusterSpec((
            InstanceSpec(1, 2, role="prefill"),
            InstanceSpec(1, 1, kv_budget_bytes=small, role="decode"),
        ))
        engine = TokenServingEngine(cluster=spec, kv_mode="paged",
                                    router="disaggregated")
        trace = RequestTrace(requests=[
            Request(request_id=0, arrival_s=0.0, scenario=Scenario(64, 128))])
        with pytest.raises(ValueError, match="decode-capable"):
            engine.run(trace)

    def test_prompt_only_needs_to_fit_the_prefill_class(self):
        """The prefill class never appends a decode token, so a request
        whose *full* context exceeds its budget — while the prompt alone
        fits — is still servable (the decode class carries the tail)."""
        layout_2n = KVCacheLayout.for_model(
            LoopLynxSystem.paper_configuration(num_nodes=2).config.model,
            num_nodes=2)
        prompt_only = 128 * layout_2n.bytes_per_token_per_node()
        spec = ClusterSpec((
            InstanceSpec(1, 2, kv_budget_bytes=prompt_only, role="prefill"),
            InstanceSpec(1, 1, role="decode"),
        ))
        engine = TokenServingEngine(cluster=spec, kv_mode="paged",
                                    router="disaggregated")
        trace = RequestTrace(requests=[
            Request(request_id=0, arrival_s=0.0, scenario=Scenario(112, 300))])
        metrics, records = engine.run(trace)
        assert metrics.num_requests == 1
        assert records[0].handoffs == 1
        assert records[0].instance_id == 1  # finished on the decode instance


class TestDisaggregatedServing:
    def test_end_to_end_run(self):
        trace = _trace()
        metrics, records = run_policy(trace, "fifo", instances=DISAGG,
                                      router="disaggregated", kv_mode="paged")
        assert metrics.num_requests == len(trace)
        assert metrics.generated_tokens == trace.total_decode_tokens
        assert metrics.prefill_tokens_processed == trace.total_prefill_tokens
        generating = sum(1 for r in trace if r.decode_len > 0)
        assert metrics.handoff_count == generating
        assert metrics.handoff_time_s > 0
        assert metrics.swap_in_count == metrics.swap_out_count
        # every generating request decoded on a decode instance (ids 1, 2)
        for record in records:
            if record.decode_len > 0:
                assert record.handoffs == 1
                assert record.instance_id in {1, 2}
        # TTFT includes prefill + handoff + decode admission
        assert all(r.ttft_s is not None and r.ttft_s > 0 for r in records
                   if r.decode_len > 0)

    def test_per_class_metrics_carry_roles_and_handoffs(self):
        trace = _trace()
        metrics, _ = run_policy(trace, "fifo", instances=DISAGG,
                                router="disaggregated", kv_mode="paged")
        by_role = {c.role: c for c in metrics.per_class}
        assert set(by_role) == {"prefill", "decode"}
        assert by_role["prefill"].handoffs_out == metrics.handoff_count
        assert by_role["prefill"].handoffs_in == 0
        assert by_role["decode"].handoffs_in == metrics.handoff_count
        assert by_role["decode"].handoffs_out == 0
        # the prefill class completes nothing yet does real work
        assert by_role["prefill"].requests == 0
        assert by_role["prefill"].busy_time_s > 0
        assert by_role["decode"].requests == metrics.num_requests
        total = (by_role["prefill"].handoff_time_s
                 + by_role["decode"].handoff_time_s)
        assert total == pytest.approx(metrics.handoff_time_s)
        rows = class_breakdown(metrics)
        assert [row["Role"] for row in rows] == ["prefill", "decode"]
        assert all("Handoffs out" in row for row in rows)

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_role_constraints_hold_under_every_router(self, router):
        """The role gates live in the instance runtimes, so even a
        role-blind router (round_robin, kv_aware, ...) never runs a
        prefill on a decode instance or a decode on a prefill instance."""
        trace = _trace(12, seed=5)
        metrics, records = run_policy(trace, "fifo", instances=DISAGG,
                                      router=router, kv_mode="paged")
        assert metrics.num_requests == len(trace)
        assert metrics.generated_tokens == trace.total_decode_tokens
        generating = sum(1 for r in trace if r.decode_len > 0)
        assert metrics.handoff_count == generating
        for record in records:
            if record.decode_len > 0:
                assert record.instance_id in {1, 2}

    def test_class_affinity_does_not_stall_when_decode_class_is_biggest(self):
        """Regression: class_affinity's downward-placement veto must not
        compose with the role gates into a permanent stall.  With the
        decode class bigger than every prefill class, long prompts used to
        prefer the decode class (which refuses fresh requests) while the
        veto blocked every prefill instance — the queue head could never
        be admitted anywhere.  Size preferences now rank prefill-capable
        classes only, and decode instances defer to their role gate."""
        trace = _trace(12, seed=5)
        metrics, records = run_policy(
            trace, "fifo", instances="2x1n:prefill,1x2n:decode",
            router="class_affinity", kv_mode="paged")
        assert metrics.num_requests == len(trace)
        generating = sum(1 for r in trace if r.decode_len > 0)
        assert metrics.handoff_count == generating
        for record in records:
            if record.decode_len > 0:
                assert record.instance_id == 2  # the lone decode instance

    @pytest.mark.parametrize("policy", ["fifo", "sjf", "priority"])
    def test_conservation_across_policies(self, policy):
        trace = bursty_multi_tenant_trace(seed=9)
        metrics, records = run_policy(trace, policy, instances=DISAGG,
                                      router="disaggregated", kv_mode="paged")
        assert metrics.num_requests == len(trace)
        assert sorted(r.request_id for r in records) == list(range(len(trace)))
        assert metrics.generated_tokens == trace.total_decode_tokens

    def test_mixed_prefill_mode_hands_off_too(self):
        trace = _trace(12, seed=5)
        metrics, records = run_policy(trace, "fifo", instances=DISAGG,
                                      router="disaggregated", kv_mode="paged",
                                      prefill_mode="mixed")
        assert metrics.num_requests == len(trace)
        assert metrics.prefill_tokens_processed == trace.total_prefill_tokens
        generating = sum(1 for r in trace if r.decode_len > 0)
        assert metrics.handoff_count == generating

    def test_prompt_only_requests_finish_on_the_prefiller(self):
        """A request with no decode work finishes at prefill completion on
        the prefill instance — there is nothing to hand off."""
        trace = RequestTrace(requests=[
            Request(request_id=0, arrival_s=0.0, scenario=Scenario(64, 0)),
            Request(request_id=1, arrival_s=0.1, scenario=Scenario(32, 16)),
        ])
        metrics, records = run_policy(trace, "fifo", instances=DISAGG,
                                      router="disaggregated", kv_mode="paged")
        assert metrics.handoff_count == 1
        assert records[0].instance_id == 0   # the prefill instance
        assert records[0].handoffs == 0
        assert records[1].instance_id in {1, 2}
        assert records[1].handoffs == 1

    def test_roleless_cluster_never_hands_off(self):
        """Role-less clusters must not grow handoff behaviour: the
        disaggregated router on a role-less pool degenerates to load
        ordering and the handoff counters stay zero."""
        trace = _trace(12, seed=5)
        metrics, records = run_policy(trace, "fifo", instances="1x2n,2x1n",
                                      router="disaggregated", kv_mode="paged")
        assert metrics.handoff_count == 0
        assert metrics.handoff_time_s == 0.0
        assert all(r.handoffs == 0 for r in records)


class TestHandoffConservation:
    """Property: a request's KV blocks live on exactly one instance at any
    time, across every handoff."""

    def test_blocks_live_on_exactly_one_instance(self, monkeypatch):
        engine = TokenServingEngine(cluster=DISAGG, kv_mode="paged",
                                    router="disaggregated")
        imports = []
        original = PagedKVManager.import_handoff

        def checked(self, request_id, cached_tokens):
            # at import time the exporter has already released the blocks:
            # no manager in the cluster may still hold this request
            holders = [m for m in engine.last_kv_managers
                       if m.holds(request_id)]
            assert holders == [], (
                f"request {request_id} imported while still held elsewhere")
            imports.append(request_id)
            return original(self, request_id, cached_tokens)

        monkeypatch.setattr(PagedKVManager, "import_handoff", checked)
        trace = _trace(16, seed=3)
        metrics, _ = engine.run(trace)
        assert len(imports) == metrics.handoff_count > 0
        # after the run every table was freed: nothing leaks
        for manager in engine.last_kv_managers:
            assert manager.used_blocks == 0
            assert manager._tables == {}

    def test_conservation_survives_tight_decode_pools(self):
        """Under a tight decode-side block pool the handed-off requests
        contend, swap and resume — tokens and requests stay conserved."""
        layout_1n = KVCacheLayout.for_model(
            LoopLynxSystem.paper_configuration(num_nodes=1).config.model,
            num_nodes=1)
        tight = 640 * layout_1n.bytes_per_token_per_node()
        spec = ClusterSpec((
            InstanceSpec(1, 2, role="prefill"),
            InstanceSpec(2, 1, kv_budget_bytes=tight, role="decode"),
        ))
        trace = _trace(20, seed=11)
        engine = TokenServingEngine(cluster=spec, kv_mode="paged",
                                    router="disaggregated",
                                    preemption_mode="swap")
        metrics, records = engine.run(trace)
        assert metrics.num_requests == len(trace)
        assert metrics.generated_tokens == trace.total_decode_tokens
        assert metrics.swap_in_count == metrics.swap_out_count
        for manager in engine.last_kv_managers:
            assert manager.used_blocks == 0


class TestDisaggregationComparison:
    def test_comparison_rows(self):
        trace = _trace(12, seed=5)
        rows = disaggregation_comparison(trace, DISAGG)
        assert len(rows) == 2
        assert rows[0]["Policy"].startswith("disaggregated")
        assert rows[1]["Policy"].startswith("colocated")
        assert rows[0]["Handoffs"] > 0
        assert rows[1]["Handoffs"] == 0
        assert all("P95 TPOT (s)" in row for row in rows)

    def test_comparison_rejects_roleless_specs(self):
        with pytest.raises(ValueError, match="role"):
            disaggregation_comparison(_trace(8), "1x2n,2x1n")

    def test_strip_roles_keeps_the_hardware(self):
        spec = parse_cluster_spec("1x4n@32MiB:prefill,4x1n:decode")
        stripped = strip_roles(spec)
        assert str(stripped) == "1x4n@32MiB,4x1n"
        assert stripped.total_nodes == spec.total_nodes
        assert not stripped.has_roles
