"""Tests for the utilization analysis, the whole-request serving preset
and the CLI."""

import argparse

import pytest

from repro.analysis.utilization import (
    architecture_comparison,
    attention_gantt,
    linear_layer_gantt,
    looplynx_active_area_fraction,
    looplynx_kernel_busy_fractions,
    render_gantt,
    spatial_active_area_fraction,
    temporal_active_area_fraction,
)
from repro.cli import build_parser, main
from repro.serving.cluster import ROUTER_NAMES
from repro.serving.engine import (KV_RECIPE_MODES, PREEMPTION_MODES,
                                  PREFILL_MODES)
from repro.serving.metrics import ServingMetrics, percentile
from repro.analysis.serving import (
    disaggregation_comparison,
    kv_mode_comparison,
    metrics_row,
    policy_comparison,
    prefill_mode_comparison,
    router_comparison,
    run_policy,
)
from repro.workloads.traces import RequestTrace, bursty_trace, synthetic_trace


class TestUtilizationAnalysis:
    def test_kernel_busy_fractions_sum_below_one(self):
        fractions = looplynx_kernel_busy_fractions(num_nodes=2)
        assert set(fractions) == {"fused_mp", "fused_mha", "fused_ln_res"}
        assert all(0.0 <= value <= 1.0 for value in fractions.values())
        assert sum(fractions.values()) <= 1.0
        assert fractions["fused_mp"] > fractions["fused_mha"] > fractions["fused_ln_res"]

    def test_hybrid_has_highest_active_area_share(self):
        """The paper's Fig. 3 argument: the hybrid design keeps a larger share
        of its instantiated compute area busy during decode than either the
        temporal overlay or the spatial design."""
        hybrid = looplynx_active_area_fraction(num_nodes=2)
        temporal = temporal_active_area_fraction()
        spatial = spatial_active_area_fraction()
        assert hybrid > temporal
        assert hybrid > spatial

    def test_architecture_comparison_rows(self):
        rows = architecture_comparison()
        assert len(rows) == 3
        names = [row.name for row in rows]
        assert any("Temporal" in name for name in names)
        assert any("Spatial" in name for name in names)
        assert any("LoopLynx" in name for name in names)
        looplynx = next(row for row in rows if "LoopLynx" in row.name)
        assert looplynx.token_latency_ms == min(row.token_latency_ms for row in rows)
        as_dict = looplynx.as_dict()
        assert "Active compute-area share (%)" in as_dict

    def test_gantt_rows_and_rendering(self):
        rows = linear_layer_gantt()
        units = {row[0] for row in rows}
        assert units == {"dma", "mpu", "quant", "router"}
        text = render_gantt(rows, width=40)
        assert "dma" in text and "#" in text
        assert render_gantt([]) == "(no activity)"

    def test_attention_gantt_modes(self):
        pipelined = attention_gantt(headwise_pipelining=True)
        serialized = attention_gantt(headwise_pipelining=False)
        assert {row[0] for row in pipelined} == {"score_mac", "softmax", "mix_mac"}
        assert {row[0] for row in serialized} == {"score_mac", "softmax", "mix_mac"}
        span = max(stop for _, _, stop in serialized)
        assert span > max(stop for _, _, stop in pipelined)


class TestServingMetrics:
    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.9) == 7.0
        with pytest.raises(ValueError):
            percentile(values, 1.5)

    def test_metrics_derivations(self):
        metrics = ServingMetrics(
            num_requests=2, num_instances=1, num_nodes_per_instance=2,
            makespan_s=10.0, generated_tokens=200,
            queueing_delays_s=[0.0, 1.0],
            end_to_end_latencies_s=[4.0, 6.0],
            service_times_s=[4.0, 5.0],
            busy_time_s=9.0,
        )
        assert metrics.throughput_tokens_per_second == pytest.approx(20.0)
        assert metrics.requests_per_second == pytest.approx(0.2)
        assert metrics.mean_queueing_delay_s == pytest.approx(0.5)
        assert metrics.instance_utilization == pytest.approx(0.9)
        assert metrics.latency_percentile_s(0.5) == pytest.approx(5.0)
        assert metrics.energy_joules() > 0
        assert metrics.tokens_per_joule() > 0
        summary = metrics.summary()
        assert summary["p99_latency_s"] >= summary["p50_latency_s"]


class TestFifoExclusivePreset:
    """``fifo-exclusive``: one whole request per instance at a time."""

    def test_serves_every_request_once(self):
        trace = synthetic_trace(12, seed=4, mean_prefill=32, mean_decode=64)
        metrics, served = run_policy(trace, "fifo-exclusive", num_instances=2,
                                     num_nodes_per_instance=2)
        assert metrics.num_requests == 12
        assert len(served) == 12
        assert {record.request_id for record in served} == {r.request_id for r in trace}
        assert metrics.generated_tokens == trace.total_decode_tokens

    def test_requests_never_start_before_arrival(self):
        trace = synthetic_trace(10, seed=5, mean_decode=64)
        _, served = run_policy(trace, "fifo-exclusive")
        assert all(record.admitted_s >= record.arrival_s for record in served)
        assert all(record.finish_s > record.admitted_s for record in served)

    def test_instance_never_overlaps_requests(self):
        trace = synthetic_trace(15, seed=6, mean_decode=64)
        _, served = run_policy(trace, "fifo-exclusive", num_instances=2)
        by_instance = {}
        for record in served:
            by_instance.setdefault(record.instance_id, []).append(record)
        assert len(by_instance) == 2
        for records in by_instance.values():
            records.sort(key=lambda r: r.admitted_s)
            for earlier, later in zip(records, records[1:]):
                assert later.admitted_s >= earlier.finish_s - 1e-9

    def test_more_instances_reduce_queueing(self):
        trace = synthetic_trace(20, seed=7, mean_decode=128, arrival_rate_per_s=2.0)
        single, _ = run_policy(trace, "fifo-exclusive", num_instances=1)
        quad, _ = run_policy(trace, "fifo-exclusive", num_instances=4)
        assert quad.mean_queueing_delay_s <= single.mean_queueing_delay_s
        assert quad.latency_percentile_s(0.95) <= single.latency_percentile_s(0.95)

    def test_faster_instances_increase_capacity(self):
        """Under saturation the makespan is the summed service time, so
        4-node instances sustain more requests per second than 2-node."""
        trace = synthetic_trace(8, seed=8, mean_prefill=64, mean_decode=256,
                                arrival_rate_per_s=100.0)
        two, _ = run_policy(trace, "fifo-exclusive", num_nodes_per_instance=2)
        four, _ = run_policy(trace, "fifo-exclusive", num_nodes_per_instance=4)
        assert four.requests_per_second > two.requests_per_second

    def test_validation(self):
        trace = synthetic_trace(2, seed=1)
        with pytest.raises(ValueError):
            run_policy(trace, "fifo-exclusive", num_instances=0)
        with pytest.raises(ValueError):
            run_policy(RequestTrace(), "fifo-exclusive")


class TestComparisonsShareOneOptionSet:
    """Every comparison row is ``run_policy`` on the caller's option set
    with only the table's own options replaced."""

    MIB = 1 << 20
    #: non-default on every axis a table does not vary
    BASE = dict(prefill_mode="mixed", mixed_step_token_budget=32,
                kv_mode="paged", kv_block_size=8, max_batch_size=4)
    SPEC = "2x1n,1x2n"

    @pytest.mark.parametrize("helper, kwargs, rows", [
        (policy_comparison,
         dict(policies=("fifo", "sjf"), instances=SPEC, **BASE),
         [("fifo", {"policy": "fifo"}), ("sjf", {"policy": "sjf"})]),
        (kv_mode_comparison,
         dict(kv_budget_bytes=32 * MIB, instances=SPEC, **BASE),
         [("reserve", {"kv_mode": "reserve", "preemption_mode": "swap"}),
          ("paged/swap", {"kv_mode": "paged", "preemption_mode": "swap"}),
          ("paged/recompute", {"kv_mode": "paged",
                               "preemption_mode": "recompute"})]),
        (prefill_mode_comparison, dict(instances=SPEC, **BASE),
         [("exclusive", {"prefill_mode": "exclusive"}),
          ("mixed", {"prefill_mode": "mixed"})]),
        (router_comparison,
         dict(instances=SPEC, routers=("round_robin", "kv_aware"), **BASE),
         [("round_robin", {"router": "round_robin"}),
          ("kv_aware", {"router": "kv_aware"})]),
        (disaggregation_comparison,
         dict(instances="1x2n:prefill,2x1n:decode", **BASE),
         [("disaggregated (1x2n:prefill,2x1n:decode)",
           {"instances": "1x2n:prefill,2x1n:decode",
            "router": "disaggregated"}),
          ("colocated (1x2n,2x1n)",
           {"instances": "1x2n,2x1n", "router": "least_loaded"})]),
    ], ids=["policy", "kv", "prefill", "router", "disaggregation"])
    def test_every_row_is_run_policy_on_the_shared_base(self, helper, kwargs,
                                                        rows):
        trace = bursty_trace(12, seed=5, mean_prefill=40, mean_decode=64)
        table = helper(trace, **kwargs)
        assert [row["Policy"] for row in table] == [label for label, _ in rows]
        base = {k: v for k, v in kwargs.items()
                if k not in ("policies", "routers")}
        for row, (label, overrides) in zip(table, rows):
            expected = metrics_row(
                label, run_policy(trace, **{**base, **overrides})[0])
            assert {k: row[k] for k in expected} == expected


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table2" in out

    def test_latency_command(self, capsys):
        assert main(["latency", "--nodes", "2", "--context", "256"]) == 0
        out = capsys.readouterr().out
        assert "Token latency" in out and "Breakdown" in out

    def test_scenario_command(self, capsys):
        assert main(["scenario", "--nodes", "4", "--prefill", "32", "--decode", "64"]) == 0
        out = capsys.readouterr().out
        assert "Speed-up vs A100" in out

    def test_scaling_and_utilization_commands(self, capsys):
        assert main(["scaling", "--max-nodes", "4"]) == 0
        assert main(["utilization"]) == 0
        out = capsys.readouterr().out
        assert "4-node" in out
        assert "LoopLynx hybrid" in out

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Nvidia A100" in out

    def test_unknown_experiment_returns_error(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_serve_command_reports_ttft_tpot(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "16",
                     "--policy", "fifo"]) == 0
        out = capsys.readouterr().out
        assert "p99_ttft_s" in out
        assert "p50_tpot_s" in out
        assert "SLO goodput" in out

    def test_serve_command_compare_mode(self, capsys):
        assert main(["serve", "--trace", "steady", "--requests", "10",
                     "--compare"]) == 0
        out = capsys.readouterr().out
        assert "fifo-exclusive" in out
        assert "sjf" in out
        assert "P99 TTFT" in out

    def test_serve_command_multitenant_breakdown(self, capsys):
        assert main(["serve", "--trace", "multitenant", "--requests", "12",
                     "--policy", "priority", "--max-batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "Per-tenant breakdown" in out
        assert "interactive" in out

    def test_serve_command_clean_errors(self, capsys):
        assert main(["serve", "--requests", "0"]) == 2
        assert "num_requests" in capsys.readouterr().err
        assert main(["serve", "--kv-budget-mib", "1", "--requests", "4"]) == 2
        assert "KV budget" in capsys.readouterr().err

    def test_serve_command_kv_budget(self, capsys):
        assert main(["serve", "--trace", "steady", "--requests", "8",
                     "--policy", "fifo", "--kv-budget-mib", "64"]) == 0
        out = capsys.readouterr().out
        assert "mean_queue_delay_s" in out

    def test_serve_command_mixed_prefill(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "10",
                     "--prefill-mode", "mixed",
                     "--mixed-step-token-budget", "128"]) == 0
        out = capsys.readouterr().out
        assert "prefill mixed" in out
        assert "prefill_tokens" in out
        assert "decode_time_share" in out

    def test_serve_command_compare_prefill(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "10",
                     "--compare-prefill"]) == 0
        out = capsys.readouterr().out
        assert "exclusive vs mixed prefill" in out
        assert "P95 TTFT" in out

    def test_serve_command_compare_prefill_rejects_exclusive_policy(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "6",
                     "--policy", "fifo-exclusive", "--compare-prefill"]) == 2
        assert "token-level policy" in capsys.readouterr().err

    def test_compare_router_threads_the_mixed_step_budget(self, capsys):
        argv = ["serve", "--trace", "bursty", "--requests", "12",
                "--instances", "2x1n,1x2n", "--compare-router",
                "--prefill-mode", "mixed", "--mixed-step-token-budget"]
        assert main(argv + ["16"]) == 0
        small = capsys.readouterr().out
        assert main(argv + ["256"]) == 0
        large = capsys.readouterr().out
        assert small != large

    def test_compare_kv_accepts_a_cluster_spec(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "8",
                     "--compare-kv", "--kv-budget-mib", "32",
                     "--instances", "2x1n,1x2n"]) == 0
        assert "cluster 2x1n,1x2n" in capsys.readouterr().out

    def test_compare_prefill_threads_swap_priority(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "8",
                     "--compare-prefill", "--kv-mode", "paged",
                     "--swap-priority"]) == 0
        assert "exclusive vs mixed prefill" in capsys.readouterr().out

    def test_compare_rejects_mixed_prefill_naming_the_preset(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "6",
                     "--compare", "--prefill-mode", "mixed"]) == 2
        err = capsys.readouterr().err
        assert "fifo-exclusive" in err and "token-level policy" in err

    def test_compare_router_names_tied_rows(self, capsys):
        assert main(["serve", "--trace", "bursty", "--requests", "8",
                     "--instances", "2", "--compare-router"]) == 0
        note = capsys.readouterr().out.strip().splitlines()[-1]
        # single class: every router repeats round_robin's schedule
        assert note.startswith("(same numbers as an earlier row:")
        for router in ROUTER_NAMES[1:]:
            assert f"{router} = round_robin" in note

    def test_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(["latency", "--nodes", "4"])
        assert args.nodes == 4
        args = parser.parse_args(["serve", "--policy", "sjf",
                                  "--kv-budget-mib", "256"])
        assert args.policy == "sjf" and args.kv_budget_mib == 256

    def test_serve_choices_are_the_engine_constants(self):
        """``serve`` offers exactly the names the engine accepts, read from
        one list each, so a new router or mode cannot be missing from the
        CLI (or a stale one linger there)."""
        parser = build_parser()
        subcommands = next(action for action in parser._actions
                           if isinstance(action, argparse._SubParsersAction))
        choices = {action.dest: tuple(action.choices)
                   for action in subcommands.choices["serve"]._actions
                   if action.choices is not None}
        assert choices["router"] == ROUTER_NAMES
        assert choices["prefill_mode"] == PREFILL_MODES
        assert choices["preemption_mode"] == PREEMPTION_MODES
        assert choices["kv_mode"] == KV_RECIPE_MODES

    def test_export_command(self, capsys, tmp_path):
        assert main(["export", "table1", "table3",
                     "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "table3" in out
        assert (tmp_path / "table1.json").exists()
        assert (tmp_path / "table3.json").exists()
