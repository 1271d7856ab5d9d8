"""Serving-policy comparisons built on the token-level engine.

These helpers run one trace through several serving configurations and lay
the resulting :class:`~repro.serving.metrics.ServingMetrics` out as table
rows for the ``serve`` CLI subcommand, the chatbot-serving example and the
serving benchmarks.  Every comparison takes one option set, ``**base``
(anything :func:`run_policy` accepts), applies it to every row and replaces
only the options the table varies.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.serving.cluster import (
    ClusterSpec,
    InstanceSpec,
    ROUTER_NAMES,
    parse_cluster_spec,
)
from repro.serving.engine import (PREFILL_MODES, ServedRecords,
                                  ServedRequest, TokenServingEngine)
from repro.serving.metrics import ServingMetrics
from repro.serving.schedulers import FIFO_EXCLUSIVE
from repro.workloads.traces import RequestTrace

#: One table row: column name to value.
Row = Dict[str, object]


def run_policy(trace: RequestTrace, policy: str = "fifo",
               instances: Optional[Union[str, ClusterSpec]] = None,
               kv_mode: str = "reserve", **engine_kwargs: Any
               ) -> Tuple[ServingMetrics, ServedRecords]:
    """Run ``trace`` under one configuration and return
    ``(metrics, records)``.

    Every keyword reaches :class:`~repro.serving.engine.TokenServingEngine`
    unchanged, and the engine validates it.  Three things are added:

    * ``policy`` may also be ``fifo-exclusive``, the whole-request preset:
      ``fifo`` with one request per instance at a time (``max_batch_size``
      does not apply), whole-prompt prefill and exact context timing.  The
      preset rejects ``prefill_mode="mixed"``, which contradicts it.
    * ``instances`` is the engine's ``cluster`` under its CLI and sweep-grid
      name: a cluster spec such as ``"2x1n,2x2n,1x4n"``.  Without it the
      engine's ``num_instances`` × ``num_nodes_per_instance`` pool applies.
    * ``kv_mode`` defaults to ``"reserve"``: a class with a KV budget
      (``kv_budget_bytes`` or its own ``@<size>MiB``) gates admission with
      worst-case reservations, and a class without one admits
      unconstrained.  ``"paged"`` allocates blocks on demand.
    """
    if policy == FIFO_EXCLUSIVE:
        if engine_kwargs.get("prefill_mode", "exclusive") != "exclusive":
            raise ValueError(
                "fifo-exclusive serves whole requests and cannot mix "
                "prefill into decode steps; pick a token-level policy")
        policy = "fifo"
        engine_kwargs.update(max_batch_size=1, prefill_chunk_tokens=None,
                             context_bucket=1)
    engine = TokenServingEngine(policy=policy, cluster=instances,
                                kv_mode=kv_mode, **engine_kwargs)
    return engine.run(trace)


def metrics_row(label: str, metrics: ServingMetrics) -> Row:
    """One policy's summary as a flat table row."""
    summary = metrics.summary()
    row: Row = {
        "Policy": label,
        "Throughput (tok/s)": summary["throughput_tok_s"],
        "Mean queue delay (s)": summary["mean_queue_delay_s"],
        "P50 latency (s)": summary["p50_latency_s"],
        "P99 latency (s)": summary["p99_latency_s"],
    }
    if metrics.has_token_metrics:
        row["P50 TTFT (s)"] = summary["p50_ttft_s"]
        row["P95 TTFT (s)"] = summary["p95_ttft_s"]
        row["P99 TTFT (s)"] = summary["p99_ttft_s"]
        row["P50 TPOT (s)"] = summary["p50_tpot_s"]
        if metrics.preemptions:
            row["Preemptions"] = metrics.preemptions
    if metrics.mean_running_batch > 0:
        row["Mean batch"] = metrics.mean_running_batch
    if metrics.kv_mode == "paged":
        row["KV occupancy"] = metrics.mean_kv_occupancy
        row["Swaps"] = metrics.swap_out_count
    return row


def _compare(trace: RequestTrace,
             rows: Sequence[Tuple[str, Dict[str, Any]]],
             base: Dict[str, Any], workers: int,
             extra: Optional[Callable[[ServingMetrics], Row]] = None
             ) -> List[Row]:
    """Run each ``(label, overrides)`` row on ``base`` and tabulate it.

    The rows go through the sweep engine: ``workers=1`` runs them
    in-process in row order, larger values fan them over a process pool
    (results stay in row order and bit-identical to serial).  A failing
    row raises; a rejected configuration re-raises as ``ValueError``
    naming its row, as a direct :func:`run_policy` call would.  ``extra``
    adds a table's own columns from each row's metrics.
    """
    from repro.serving.sweep import SweepJob, run_jobs
    jobs = [SweepJob(index=i, label=label, trace=trace,
                     params=dict(base, **overrides))
            for i, (label, overrides) in enumerate(rows)]
    outcome = run_jobs(jobs, workers=workers, keep_metrics=True)
    for result in outcome.failures:
        failure = result.failure
        if failure is not None and failure.error_type == "ValueError":
            raise ValueError(f"{result.label}: {failure.message}")
    outcome.raise_failures()
    return [{**metrics_row(r.label, r.metrics),
             **(extra(r.metrics) if extra else {})}
            for r in outcome.results if r.metrics is not None]


def policy_comparison(trace: RequestTrace,
                      policies: Sequence[str] = (FIFO_EXCLUSIVE, "fifo", "sjf"),
                      workers: int = 1, **base: Any) -> List[Row]:
    """Serve the same trace under each policy and tabulate the summaries.

    ``base`` applies to every row, ``fifo-exclusive`` included.  ``workers``
    fans the rows over a process pool (bit-identical to serial; see
    :mod:`repro.serving.sweep`).
    """
    return _compare(trace, [(policy, {"policy": policy})
                            for policy in policies], base, workers)


def kv_mode_comparison(trace: RequestTrace, kv_budget_bytes: int,
                       preemption_mode: str = "swap", workers: int = 1,
                       **base: Any) -> List[Row]:
    """Serve one trace under the same KV byte budget in reservation mode and
    paged mode (plus paged/recompute when ``preemption_mode`` is ``swap``)
    and tabulate the summaries side by side.

    This is the comparison the paged subsystem exists to win: with identical
    capacity, on-demand block allocation sustains a higher running batch than
    worst-case reservations.
    """
    modes = [("reserve", "reserve", "swap"),
             (f"paged/{preemption_mode}", "paged", preemption_mode)]
    if preemption_mode == "swap":
        modes.append(("paged/recompute", "paged", "recompute"))
    return _compare(trace, [(label, {"kv_mode": kv_mode,
                                     "preemption_mode": mode})
                            for label, kv_mode, mode in modes],
                    dict(base, kv_budget_bytes=kv_budget_bytes), workers)


def prefill_mode_comparison(trace: RequestTrace, workers: int = 1,
                            **base: Any) -> List[Row]:
    """Serve one trace under exclusive and mixed prefill and tabulate the
    summaries side by side.

    This is the comparison mixed steps exist to win: with prompts streaming
    in alongside live decodes instead of stalling them, tail TTFT drops on
    bursty traffic without giving up generated-token throughput (the
    benchmark suite asserts it).
    """
    # "stall" = pure-prefill steps, where no decode advances: the cost
    # exclusive mode pays for every prompt and mixed mode only pays when
    # nothing is decoding.  Mixed steps are reported separately — their
    # duration is mostly decode work, so folding them into a prefill share
    # would make the rows incomparable.
    return _compare(trace, [(mode, {"prefill_mode": mode})
                            for mode in PREFILL_MODES], base, workers,
                    lambda metrics: {
                        "Prefill-stall share": metrics.prefill_time_share,
                        "Mixed-step share": metrics.mixed_time_share,
                        "Utilization": metrics.instance_utilization})


def router_comparison(trace: RequestTrace, instances: Union[str, ClusterSpec],
                      routers: Sequence[str] = ROUTER_NAMES,
                      workers: int = 1, **base: Any) -> List[Row]:
    """Serve one trace on the same cluster under each router and tabulate
    the summaries side by side.

    This is the comparison the routing layer exists to win: on a
    heterogeneous pool, placement-aware routers (``kv_aware``,
    ``class_affinity``) should beat shape-blind rotation on tail TTFT.  On
    a single-class pool every row is identical by construction — a useful
    smoke check that routing never costs anything when there is nothing to
    decide.
    """
    def extra(metrics: ServingMetrics) -> Row:
        row: Row = {"P95 TTFT (s)": metrics.ttft_percentile_s(0.95)}
        if metrics.kv_prefix_sharing:
            row["Prefix hits"] = metrics.prefix_hits
            row["Prefill tokens saved"] = metrics.prefill_tokens_saved
        return row

    return _compare(trace, [(router, {"router": router})
                            for router in routers],
                    dict(base, instances=instances), workers, extra)


def strip_roles(spec: Union[str, ClusterSpec]) -> ClusterSpec:
    """The colocated twin of a (possibly role-tagged) cluster spec: the
    same instance classes on the same hardware, with every role reset to
    ``"both"`` so each instance serves requests end-to-end.  This is the
    node-equivalent baseline a disaggregated cluster must beat — identical
    silicon, only the prefill/decode split removed."""
    if isinstance(spec, str):
        spec = parse_cluster_spec(spec)
    return ClusterSpec(tuple(
        InstanceSpec(s.count, s.num_nodes, s.kv_budget_bytes)
        for s in spec.specs))


def disaggregation_comparison(trace: RequestTrace,
                              instances: Union[str, ClusterSpec],
                              router: str = "disaggregated",
                              colocated_router: str = "least_loaded",
                              workers: int = 1, **base: Any) -> List[Row]:
    """Serve one trace on a disaggregated cluster and on its colocated
    twin (same instances, roles stripped) and tabulate the summaries.

    This is the comparison disaggregation exists to win: with prefill
    quarantined on the prefill class, the decode instances' steps are never
    stalled by a prompt streaming in, so tail TPOT drops — at the price of
    one priced KV handoff per request.  Both rows run paged KV (the
    handoff *is* a block-table move) unless ``base`` names another
    ``kv_mode``, which the role-tagged row then rejects.

    ``instances`` must be a role-tagged spec (e.g.
    ``"1x4n:prefill,4x1n:decode"``); raises ``ValueError`` otherwise.
    """
    if isinstance(instances, str):
        instances = parse_cluster_spec(instances)
    if not instances.has_roles:
        raise ValueError(
            f"cluster {instances} has no prefill/decode roles; "
            "disaggregation_comparison compares a role-tagged cluster "
            "against its colocated twin")
    colocated = strip_roles(instances)
    rows = [(f"disaggregated ({instances})",
             {"instances": instances, "router": router}),
            (f"colocated ({colocated})",
             {"instances": colocated, "router": colocated_router})]
    return _compare(trace, rows, {"kv_mode": "paged", **base}, workers,
                    lambda metrics: {
                        "P95 TPOT (s)": metrics.tpot_percentile_s(0.95),
                        "P99 TPOT (s)": metrics.tpot_percentile_s(0.99),
                        "Handoffs": metrics.handoff_count,
                        "Handoff time (s)": metrics.handoff_time_s})


def class_breakdown(metrics: ServingMetrics) -> List[Row]:
    """Per-instance-class rows from a cluster run's metrics.

    One row per instance class (``metrics.per_class``), showing how the
    cluster's classes divided the work: request counts, utilization,
    sustained batch, TTFT and swap traffic.  Requests that never ran
    (``instance_id=None``) belong to no class and appear in no row.  On a
    disaggregated cluster every row also carries the class's serving role
    and its share of the KV-handoff traffic — a prefill class completing
    zero requests while exporting every prompt is working as intended, and
    the role column is what makes that legible.
    """
    disaggregated = any(cls.role != "both" for cls in metrics.per_class)
    rows = []
    for cls in metrics.per_class:
        row: Row = {
            "Class": cls.label,
            "Instances": cls.num_instances,
            "Nodes/inst": cls.num_nodes,
            "Requests": cls.requests,
            "Utilization": cls.utilization,
            "Mean batch": cls.mean_running_batch,
            "Mean TTFT (s)": cls.mean_ttft_s,
            "P95 TTFT (s)": cls.ttft_percentile_s(0.95),
        }
        if disaggregated:
            row["Role"] = cls.role
            row["Handoffs out"] = cls.handoffs_out
            row["Handoffs in"] = cls.handoffs_in
            row["Handoff time (s)"] = cls.handoff_time_s
        if cls.kv_total_blocks:
            row["KV occupancy"] = cls.mean_kv_occupancy
            row["Swaps"] = cls.swap_out_count
        if metrics.kv_prefix_sharing:
            row["Prefix hits"] = cls.prefix_hits
            row["Prefill saved"] = cls.prefill_tokens_saved
        rows.append(row)
    return rows


def tenant_breakdown(records: Sequence[ServedRequest],
                     tenants: Optional[Sequence[str]] = None
                     ) -> List[Row]:
    """Per-tenant latency/TTFT means from token-level request records.

    ``tenants`` optionally names the tenants expected in the workload (e.g.
    ``trace.tenants``): a tenant with no completed requests — or none that
    generated a token — still gets a row with zeroed means instead of being
    silently dropped, so starvation is visible rather than invisible.
    """
    by_tenant: Dict[str, list] = {name: [] for name in (tenants or ())}
    for record in records:
        by_tenant.setdefault(record.tenant, []).append(record)
    rows = []
    for tenant in sorted(by_tenant):
        group = by_tenant[tenant]
        ttfts = [r.ttft_s for r in group if r.ttft_s is not None]
        rows.append({
            "Tenant": tenant,
            "Requests": len(group),
            "Mean TTFT (s)": sum(ttfts) / len(ttfts) if ttfts else 0.0,
            "Mean latency (s)": (sum(r.end_to_end_latency_s for r in group)
                                 / len(group)) if group else 0.0,
            "Preemptions": sum(r.preemptions for r in group),
        })
    return rows
