"""Tests for the energy/power models and the workload generators."""

import numpy as np
import pytest

from repro.energy.power import (
    EnergyReport,
    FpgaPowerModel,
    GpuPowerModel,
    efficiency_ratio,
    energy_fraction,
    energy_joules,
    tokens_per_joule,
)
from repro.workloads.scenarios import (
    FIG8_SCENARIOS,
    Scenario,
    chatbot_scenarios,
    code_generation_scenarios,
    scenario_label,
    scenario_sweep,
)
from repro.workloads.traces import (
    DEFAULT_TENANTS,
    Request,
    RequestTrace,
    TenantSpec,
    bursty_trace,
    multi_tenant_trace,
    synthetic_trace,
)


class TestEnergyArithmetic:
    def test_energy_joules(self):
        assert energy_joules(100.0, 2000.0) == pytest.approx(200.0)
        with pytest.raises(ValueError):
            energy_joules(-1, 10)

    def test_tokens_per_joule(self):
        assert tokens_per_joule(100, 50.0, 2000.0) == pytest.approx(1.0)
        assert tokens_per_joule(100, 50.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            tokens_per_joule(-1, 50.0, 100.0)

    def test_energy_report_properties(self):
        report = EnergyReport("x", latency_ms=1000.0, power_watts=40.0, tokens=80)
        assert report.energy_joules == pytest.approx(40.0)
        assert report.tokens_per_joule == pytest.approx(2.0)


class TestFpgaPowerModel:
    def test_power_composition(self):
        model = FpgaPowerModel(card_static_watts=18, node_logic_watts=8, node_hbm_watts=4)
        assert model.node_dynamic_watts == 12
        assert model.total_power_watts(1) == 30
        assert model.total_power_watts(2) == 42
        assert model.total_power_watts(4) == 2 * 18 + 4 * 12

    def test_partially_filled_card_pays_full_shell(self):
        model = FpgaPowerModel()
        assert model.total_power_watts(3) == 2 * model.card_static_watts + 3 * model.node_dynamic_watts

    def test_power_stays_below_u50_tdp(self):
        """A fully-populated U50 card (2 nodes) must stay below the 75 W TDP."""
        model = FpgaPowerModel()
        per_card = model.card_static_watts + 2 * model.node_dynamic_watts
        assert per_card < 75

    def test_validation(self):
        with pytest.raises(ValueError):
            FpgaPowerModel(card_static_watts=-1)
        with pytest.raises(ValueError):
            FpgaPowerModel().total_power_watts(0)

    def test_report(self):
        report = FpgaPowerModel().report(2, latency_ms=500.0, tokens=100)
        assert report.platform == "LoopLynx 2-node"
        assert report.power_watts == FpgaPowerModel().total_power_watts(2)


class TestGpuPowerModel:
    def test_inference_power_well_below_tdp(self):
        model = GpuPowerModel()
        assert model.inference_power_watts < 300
        assert model.inference_power_watts == model.idle_watts + model.active_watts

    def test_report_and_ratios(self):
        gpu = GpuPowerModel().report(latency_ms=1000.0, tokens=100)
        fpga = FpgaPowerModel().report(2, latency_ms=600.0, tokens=100)
        ratio = efficiency_ratio(fpga, gpu)
        fraction = energy_fraction(fpga, gpu)
        assert ratio > 1.0          # the FPGA is more energy-efficient
        assert 0.0 < fraction < 1.0
        assert ratio == pytest.approx(1.0 / fraction, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            GpuPowerModel(idle_watts=-5)


class TestScenarios:
    def test_fig8_set_contains_paper_settings(self):
        labels = {s.label for s in FIG8_SCENARIOS}
        for expected in ("[128:32]", "[32:512]", "[64:512]", "[128:512]"):
            assert expected in labels

    def test_scenario_properties(self):
        scenario = Scenario(32, 512)
        assert scenario.total_tokens == 544
        assert scenario.decode_heavy
        assert not Scenario(128, 32).decode_heavy
        assert scenario_label(16, 48) == "[16:48]"
        assert Scenario(8, 8, name="custom").label == "custom"

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(0, 10)
        with pytest.raises(ValueError):
            Scenario(10, -1)

    @pytest.mark.parametrize("prefill_len, decode_len, field", [
        (8, float("inf"), "decode_len"),
        (4, float("nan"), "decode_len"),
        (float("nan"), 4, "prefill_len"),
        (3.5, 2, "prefill_len"),
        (8, 2.5, "decode_len"),
        (True, 4, "prefill_len"),
        (8, "4", "decode_len"),
    ])
    def test_scenario_rejects_non_integral_lengths(self, prefill_len,
                                                   decode_len, field):
        """Malformed lengths fail at construction, naming the field; at
        the serving engine they hung the run or crashed inside it."""
        with pytest.raises(ValueError, match=field):
            Scenario(prefill_len, decode_len)

    def test_scenario_accepts_numpy_integers(self):
        scenario = Scenario(np.int64(8), np.int32(0))
        assert scenario.total_tokens == 8

    def test_themed_scenario_sets(self):
        assert all(s.decode_heavy for s in chatbot_scenarios())
        assert all(s.decode_heavy for s in code_generation_scenarios())

    def test_scenario_sweep(self):
        sweep = scenario_sweep([32, 64], [128, 256, 512])
        assert len(sweep) == 6
        assert sweep[0].prefill_len == 32 and sweep[-1].decode_len == 512


class TestTraces:
    def test_synthetic_trace_is_reproducible(self):
        a = synthetic_trace(20, seed=5)
        b = synthetic_trace(20, seed=5)
        assert [r.scenario for r in a] == [r.scenario for r in b]
        c = synthetic_trace(20, seed=6)
        assert [r.scenario for r in a] != [r.scenario for r in c]

    def test_requests_fit_context_window(self):
        trace = synthetic_trace(50, seed=1, max_seq_len=256)
        for request in trace:
            assert request.prefill_len + request.decode_len < 256

    def test_trace_statistics(self):
        trace = synthetic_trace(10, seed=2)
        assert len(trace) == 10
        assert trace.total_prefill_tokens > 0
        assert trace.total_decode_tokens > 0
        assert trace.duration_s > 0
        assert len(trace.scenarios()) == 10
        assert RequestTrace().duration_s == 0.0

    def test_duration_is_a_span_not_the_last_arrival(self):
        """Regression: duration_s used to return the last arrival time."""
        from repro.workloads.scenarios import Scenario

        trace = RequestTrace(requests=[
            Request(0, arrival_s=5.0, scenario=Scenario(8, 8)),
            Request(1, arrival_s=7.5, scenario=Scenario(8, 8)),
        ])
        assert trace.first_arrival_s == 5.0
        assert trace.last_arrival_s == 7.5
        assert trace.duration_s == pytest.approx(2.5)
        single = RequestTrace(requests=[
            Request(0, arrival_s=9.0, scenario=Scenario(8, 8))])
        assert single.duration_s == 0.0
        assert RequestTrace().last_arrival_s == 0.0

    def test_bursty_trace_clusters_arrivals(self):
        trace = bursty_trace(24, seed=0, burst_size=8,
                             burst_rate_per_s=50.0, idle_gap_s=10.0)
        assert len(trace) == 24
        gaps = [b.arrival_s - a.arrival_s
                for a, b in zip(trace.requests, trace.requests[1:])]
        # within-burst gaps are tiny, between-burst gaps are large
        in_burst = sorted(gaps)[: len(gaps) - 2]
        assert max(in_burst) < min(sorted(gaps)[-2:])
        assert bursty_trace(24, seed=0).requests == bursty_trace(24, seed=0).requests

    def test_bursty_trace_validation(self):
        with pytest.raises(ValueError):
            bursty_trace(0)
        with pytest.raises(ValueError):
            bursty_trace(5, burst_size=0)
        with pytest.raises(ValueError, match="must be positive"):
            bursty_trace(5, burst_rate_per_s=0)
        with pytest.raises(ValueError, match="non-negative"):
            bursty_trace(5, idle_gap_s=-0.1)

    def test_bursty_trace_accepts_zero_idle_gap(self):
        """``idle_gap_s=0`` is a valid degenerate configuration (one long
        burst); it must not be rejected by the negativity check."""
        trace = bursty_trace(12, seed=0, burst_size=4, idle_gap_s=0.0)
        assert len(trace) == 12
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)

    def test_multi_tenant_trace_mixes_tenants(self):
        trace = multi_tenant_trace(30, seed=1)
        assert len(trace) == 30
        assert set(trace.tenants) == {t.name for t in DEFAULT_TENANTS}
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in trace] == list(range(len(trace)))
        priorities = {r.tenant: r.priority for r in trace}
        assert priorities["interactive"] > priorities["background"]

    def test_multi_tenant_trace_validation(self):
        with pytest.raises(ValueError):
            multi_tenant_trace(0)
        with pytest.raises(ValueError):
            multi_tenant_trace(5, tenants=())
        with pytest.raises(ValueError):
            TenantSpec("bad", arrival_rate_per_s=0.0)
        with pytest.raises(ValueError):
            TenantSpec("")

    def test_arrivals_are_monotone(self):
        trace = synthetic_trace(30, seed=3)
        arrivals = [r.arrival_s for r in trace]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_trace(0)
        with pytest.raises(ValueError):
            synthetic_trace(5, mean_prefill=0)
        with pytest.raises(ValueError):
            synthetic_trace(5, arrival_rate_per_s=0)
