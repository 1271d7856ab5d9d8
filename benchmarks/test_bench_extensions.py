"""Benchmarks of the extension analyses (beyond the paper's artifacts).

* architecture-style area utilization during decode (the Fig. 3 argument as
  numbers);
* event-driven vs analytical cross-check of the Fused MP / MHA kernels;
* serving a synthetic request trace with a pool of LoopLynx instances;
* per-node HBM footprint planning;
* SmoothQuant alpha sweep on the functional model.
"""

from repro.analysis.accuracy import alpha_sweep
from repro.analysis.footprint import footprint_table
from repro.analysis.report import format_table
from repro.analysis.serving import run_policy
from repro.analysis.utilization import architecture_comparison
from repro.core.config import HardwareConfig
from repro.core.event_sim import cross_check_attention, cross_check_linear
from repro.model.config import ModelConfig, layer_linear_specs
from repro.workloads.traces import synthetic_trace


def test_bench_architecture_utilization(benchmark):
    rows = benchmark(architecture_comparison)
    looplynx = next(row for row in rows if "LoopLynx" in row.name)
    others = [row for row in rows if "LoopLynx" not in row.name]
    assert all(looplynx.active_area_fraction > row.active_area_fraction for row in others)
    print()
    print(format_table([row.as_dict() for row in rows],
                       title="Decode-time area utilization by architecture style"))


def test_bench_event_vs_analytical_crosscheck(benchmark):
    hardware = HardwareConfig()
    specs = layer_linear_specs(ModelConfig.gpt2_medium())

    def crosscheck():
        rows = []
        for spec in specs:
            result = cross_check_linear(hardware, spec, num_nodes=2)
            rows.append({"Kernel": f"MP / {spec.name}",
                         "Event cycles": result["event_cycles"],
                         "Analytical cycles": result["analytical_cycles"],
                         "Rel. diff (%)": 100 * result["relative_difference"]})
        for pipelined in (True, False):
            result = cross_check_attention(hardware, 512, 8, 64, pipelined)
            label = "MHA pipelined" if pipelined else "MHA serialized"
            rows.append({"Kernel": label,
                         "Event cycles": result["event_cycles"],
                         "Analytical cycles": result["analytical_cycles"],
                         "Rel. diff (%)": 100 * result["relative_difference"]})
        return rows

    rows = benchmark.pedantic(crosscheck, rounds=2, iterations=1)
    assert all(row["Rel. diff (%)"] < 10.0 for row in rows)
    print()
    print(format_table(rows, title="Event-driven schedule vs analytical cycle model"))


def test_bench_serving_pool(benchmark):
    trace = synthetic_trace(num_requests=40, seed=11, mean_prefill=48,
                            mean_decode=192, arrival_rate_per_s=1.5)

    def serve():
        rows = []
        for instances in (1, 2, 4):
            metrics, _ = run_policy(trace, "fifo-exclusive",
                                    num_instances=instances,
                                    num_nodes_per_instance=2)
            summary = metrics.summary()
            rows.append({"Instances (2-node each)": instances,
                         "Throughput (tok/s)": summary["throughput_tok_s"],
                         "P50 latency (s)": summary["p50_latency_s"],
                         "P99 latency (s)": summary["p99_latency_s"],
                         "Utilization (%)": 100 * summary["instance_utilization"],
                         "Tokens/J": metrics.tokens_per_joule()})
        return rows

    rows = benchmark.pedantic(serve, rounds=1, iterations=1)
    p99 = [row["P99 latency (s)"] for row in rows]
    assert p99 == sorted(p99, reverse=True)  # more instances -> lower tail latency
    print()
    print(format_table(rows, title="Serving a synthetic trace with a LoopLynx pool"))


def test_bench_memory_footprint(benchmark):
    rows = benchmark(footprint_table,
                     [ModelConfig.gpt2_small(), ModelConfig.gpt2_medium(),
                      ModelConfig.gpt2_large()], (1, 2, 4), 1024)
    assert all(row["Fits U50 share"] for row in rows)
    print()
    print(format_table(rows, title="Per-node HBM footprint (int8 weights, int8 KV cache)"))


def test_bench_smoothquant_alpha_sweep(benchmark):
    reports = benchmark.pedantic(alpha_sweep, kwargs={"alphas": (0.0, 0.5, 1.0)},
                                 rounds=1, iterations=1)
    assert len(reports) == 3
    print()
    print(format_table([report.as_dict() for report in reports],
                       title="SmoothQuant migration-strength sweep (tiny model)"))
