"""Analysis utilities: breakdowns, scalability, comparisons, report tables."""

from repro.analysis.breakdown import (
    BreakdownStep,
    aggregate_breakdown_ms,
    latency_breakdown,
    optimization_walkthrough,
)
from repro.analysis.comparison import (
    Fig8Row,
    FpgaComparisonRow,
    fpga_comparison_table,
    gpu_comparison,
    summarize_gpu_comparison,
)
from repro.analysis.accuracy import AccuracyReport, alpha_sweep, evaluate_quantization
from repro.analysis.footprint import (
    ALVEO_U50_HBM_BYTES,
    NodeFootprint,
    footprint_table,
    max_context_length,
    node_footprint,
)
from repro.analysis.report import format_table, render_markdown_table
from repro.analysis.serving import (
    kv_mode_comparison,
    metrics_row,
    policy_comparison,
    run_policy,
    tenant_breakdown,
)
from repro.analysis.scalability import ScalabilityRow, scaling_efficiency, throughput_table
from repro.analysis.utilization import (
    ArchitectureUtilization,
    architecture_comparison,
    attention_gantt,
    linear_layer_gantt,
    looplynx_active_area_fraction,
    looplynx_kernel_busy_fractions,
    render_gantt,
)

__all__ = [
    "BreakdownStep",
    "aggregate_breakdown_ms",
    "latency_breakdown",
    "optimization_walkthrough",
    "Fig8Row",
    "FpgaComparisonRow",
    "fpga_comparison_table",
    "gpu_comparison",
    "summarize_gpu_comparison",
    "format_table",
    "render_markdown_table",
    "kv_mode_comparison",
    "metrics_row",
    "policy_comparison",
    "run_policy",
    "tenant_breakdown",
    "ScalabilityRow",
    "scaling_efficiency",
    "throughput_table",
    "ArchitectureUtilization",
    "architecture_comparison",
    "attention_gantt",
    "linear_layer_gantt",
    "looplynx_active_area_fraction",
    "looplynx_kernel_busy_fractions",
    "render_gantt",
    "AccuracyReport",
    "alpha_sweep",
    "evaluate_quantization",
    "ALVEO_U50_HBM_BYTES",
    "NodeFootprint",
    "footprint_table",
    "max_context_length",
    "node_footprint",
]
