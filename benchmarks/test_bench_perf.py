"""Million-request replay harness: the serving engine's perf trajectory.

Replays a pinned synthetic Azure-style trace (diurnal Poisson arrivals,
lognormal prompt/output lengths) through the token-level engine and measures
end-to-end simulator throughput (requests simulated per wall-clock second)
and peak RSS, in both metrics modes:

* ``full`` — one record per request, exact percentiles (the default);
* ``streaming`` — constant-memory aggregates, the trace consumed lazily
  straight off the generator.

Each measurement runs in a fresh subprocess so peak RSS and GC state
describe that run alone.  Peak RSS is the child's ``VmHWM`` where Linux
provides it: ``ru_maxrss`` survives ``execve``, so a child spawned by a
large pytest process would report its parent's footprint instead.  Results are written to
``BENCH_serving_perf.json`` at the repo root only on a deliberate
re-measure (``--refresh-seed``, ``RUN_PERF_SWEEP=1`` or ``RUN_PERF_1M=1``);
a plain run checks the floors and fidelity pins without touching the
committed copy.  CI's perf-smoke job sets ``RUN_PERF_SWEEP=1`` and uploads
the refreshed file as an artifact; the committed copy records the perf
trajectory.

Reference floors live in the committed JSON, not in this file: the
``seed`` section records the pre-optimization engine's rate and exact
makespan per scale, and the CI gate asserts ``THROUGHPUT_FLOOR_X`` times
that rate (slack so a slow shared runner cannot produce a false
regression signal, while a genuine event-loop regression — which costs
integer factors, not percents — still trips it).  The makespan pin is
exact: the optimized engine must simulate the *same* system, bit for
bit, at any speed.  ``pytest --refresh-seed`` re-measures the reference
numbers on the current box via the engine's compatibility path
(``multistep=False``, the closest living stand-in for the seed engine's
per-step loop) and rewrites the ``seed`` section; by default the
committed floors are trusted as-is.

Scales: the 100k replay always runs; the 1M replay is opt-in via
``RUN_PERF_1M=1`` (it takes ~a minute per mode).

This file also measures the sweep engine's process pool (see
``repro/serving/sweep.py``): ``test_sweep_scaling`` fans an 8-config
router×cluster grid over it and records configs/hour plus scaling
efficiency per worker count in the JSON's ``sweep`` section.  Every
worker count must reproduce the serial summaries byte for byte.  The
full 1/2/4/8-worker ladder at 100k requests is opt-in via
``RUN_PERF_SWEEP=1`` (CI's perf-smoke job sets it); the default run
keeps a cheap 2-worker identity smoke.  The >= 3x-at-4-workers
assertion only applies when the box actually has >= 4 CPUs.
"""

import json
import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
BENCH_JSON = os.path.join(_ROOT, "BENCH_serving_perf.json")

#: The pinned replay workload and pool (chosen so the pool runs busy but
#: unsaturated: queueing happens, batches form, nothing diverges).
BENCH_CONFIG = {
    "trace": "synthetic_azure_trace(seed=0, mean_rate_per_s=8.0, "
             "diurnal_amplitude=0.3)",
    "cluster": "8x2n",
    "max_batch_size": 8,
    "policy": "fifo",
}

#: CI throughput floor, as a multiple of the seed rate at the same scale.
#: The committed trajectory is >= 10x on the reference box; 2x leaves room
#: for slow shared runners while still catching order-of-magnitude
#: regressions (an event-loop regression costs factors, not percents).
THROUGHPUT_FLOOR_X = 2.0

#: Streaming mode must hold peak RSS far below full mode at scale; the
#: committed 1M numbers are ~70 MiB vs ~730 MiB.
STREAMING_RSS_CEILING_FRACTION = 0.75

#: Sweep-scaling requirement from the perf trajectory: at 4 workers the
#: 8-config sweep must run >= 3x faster than serial.  Only asserted when
#: the box has >= 4 CPUs (and the full ladder is enabled).
SWEEP_SPEEDUP_FLOOR_AT_4 = 3.0

_CHILD = r"""
import json, resource, sys, time
from repro.workloads.traces import synthetic_azure_trace, RequestTrace
from repro.serving.engine import TokenServingEngine


def peak_rss_mib():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


n, mode = int(sys.argv[1]), sys.argv[2]
multistep = sys.argv[3] == "1" if len(sys.argv) > 3 else True
trace = synthetic_azure_trace(n, seed=0, mean_rate_per_s=8.0,
                              diurnal_amplitude=0.3)
kwargs = {}
if mode == "streaming":
    # lazy consumption: the timed region includes trace generation, which
    # is the honest protocol for a mode whose point is never materializing
    kwargs = dict(metrics_mode="streaming", slo=(2.0, 0.05))
else:
    trace = RequestTrace(requests=list(trace))
engine = TokenServingEngine(cluster="8x2n", max_batch_size=8, policy="fifo",
                            multistep=multistep, **kwargs)
t0 = time.perf_counter()
metrics, records = engine.run(trace)
wall = time.perf_counter() - t0
print(json.dumps({
    "num_requests": n,
    "metrics_mode": mode,
    "wall_s": wall,
    "requests_per_s": n / wall,
    "makespan_s": metrics.makespan_s,
    "generated_tokens": metrics.generated_tokens,
    "mean_queueing_delay_s": metrics.mean_queueing_delay_s,
    "p99_ttft_s": metrics.ttft_percentile_s(0.99),
    "num_records": len(records),
    "peak_rss_mib": peak_rss_mib(),
}))
"""


def _load_doc() -> dict:
    """Read the committed benchmark document (source of the seed floors)."""
    assert os.path.exists(BENCH_JSON), (
        f"{BENCH_JSON} is missing; the committed copy carries the seed "
        f"reference floors — restore it or re-measure with --refresh-seed")
    with open(BENCH_JSON) as handle:
        return json.load(handle)


def _write_doc(doc: dict, refresh_seed: bool) -> None:
    """Rewrite the committed JSON, but only on a deliberate re-measure, so
    a plain test run leaves the working tree clean."""
    if not (refresh_seed or os.environ.get("RUN_PERF_SWEEP") == "1"
            or os.environ.get("RUN_PERF_1M") == "1"):
        return
    with open(BENCH_JSON, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _measure(num_requests: int, mode: str, multistep: bool = True) -> dict:
    """Run one replay in a fresh subprocess and parse its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(num_requests), mode,
         "1" if multistep else "0"],
        capture_output=True, text=True, env=env, cwd=_ROOT, check=False)
    assert proc.returncode == 0, (
        f"replay subprocess failed (n={num_requests}, mode={mode}):\n"
        f"{proc.stderr}")
    return json.loads(proc.stdout)


def _refresh_seed_floor(doc: dict, scale: str) -> None:
    """Re-measure the reference floor for ``scale`` on this box using the
    engine's compatibility path (``multistep=False``) and rewrite the
    ``seed`` section.  The historical seed engine is gone; the per-step
    compatibility loop is its closest living stand-in and produces the
    same (conservative) order of magnitude."""
    report = _measure(int(scale), "full", multistep=False)
    doc.setdefault("seed", {})[scale] = {
        "requests_per_s": round(report["requests_per_s"], 2),
        "wall_s": round(report["wall_s"], 3),
        "peak_rss_mib": round(report["peak_rss_mib"], 2),
        "makespan_s": report["makespan_s"],
    }
    _write_doc(doc, refresh_seed=True)


def _merge_results(doc: dict, scale: str, results: dict,
                   refresh_seed: bool) -> dict:
    """Fold one scale's measurements into ``BENCH_serving_perf.json``,
    preserving every other section (committed 1M numbers survive a CI run
    that only re-measures 100k; the ``sweep`` section survives a
    replay-only run)."""
    doc["config"] = BENCH_CONFIG
    doc.setdefault("optimized", {})[scale] = results
    seed = doc["seed"][scale]
    doc.setdefault("speedup_x", {})[scale] = {
        mode: round(report["requests_per_s"] / seed["requests_per_s"], 2)
        for mode, report in results.items()}
    _write_doc(doc, refresh_seed)
    return doc


def _check_scale(scale: str, refresh_seed: bool) -> dict:
    doc = _load_doc()
    if refresh_seed:
        _refresh_seed_floor(doc, scale)
    seed = doc["seed"][scale]
    n = int(scale)
    results = {mode: _measure(n, mode) for mode in ("full", "streaming")}
    doc = _merge_results(doc, scale, results, refresh_seed)

    # the optimized engine must simulate the same system, bit for bit:
    # any speed is worthless if the simulated clock drifts
    assert results["full"]["makespan_s"] == seed["makespan_s"]
    assert results["streaming"]["makespan_s"] == seed["makespan_s"]
    # streaming mode keeps no records and bounds memory
    assert results["streaming"]["num_records"] == 0
    assert results["full"]["num_records"] == n
    assert (results["streaming"]["peak_rss_mib"]
            < STREAMING_RSS_CEILING_FRACTION
            * results["full"]["peak_rss_mib"])
    # the CI throughput floor (see module docstring for the slack rationale)
    floor = THROUGHPUT_FLOOR_X * seed["requests_per_s"]
    for mode in ("full", "streaming"):
        assert results[mode]["requests_per_s"] >= floor, (
            f"{scale}-request {mode} replay ran at "
            f"{results[mode]['requests_per_s']:.0f} req/s, below the "
            f"regression floor of {floor:.0f} req/s "
            f"({THROUGHPUT_FLOOR_X}x the seed engine)")
    return doc


def test_replay_100k_floor_and_fidelity(refresh_seed):
    """100k-request replay: throughput floor, exact makespan, bounded RSS."""
    _check_scale("100000", refresh_seed)


@pytest.mark.skipif(os.environ.get("RUN_PERF_1M") != "1",
                    reason="1M-request replay takes ~a minute per mode; "
                           "set RUN_PERF_1M=1 to run it")
def test_replay_1m_floor_and_fidelity(refresh_seed):
    """1M-request replay (opt-in): the headline perf-trajectory numbers."""
    doc = _check_scale("1000000", refresh_seed)
    # the committed trajectory claim: >= 10x the seed rate at 1M on the
    # reference box (informational here; the CI gate is the 2x floor above)
    print("1M speedups:", doc["speedup_x"]["1000000"])


# ---------------------------------------------------------------------------
# parallel sweep scaling


def _sweep_spec(num_requests: int) -> dict:
    """The pinned 8-config sweep: 4 routers x 2 cluster shapes over the
    same Azure-style trace the replay benchmark pins."""
    return {
        "trace": {"name": "azure", "num_requests": num_requests, "seed": 0,
                  "mean_rate_per_s": 8.0, "diurnal_amplitude": 0.3},
        "base": {"policy": "fifo", "max_batch_size": 8,
                 "metrics_mode": "streaming"},
        "grid": {
            "router": ["round_robin", "least_loaded", "kv_aware",
                       "prefix_aware"],
            "instances": ["8x2n", "2x4n,4x2n"],
        },
    }


def test_sweep_scaling(refresh_seed):
    """Fan the pinned 8-config sweep over a process pool.

    Always: every parallel worker count reproduces the serial summaries
    byte for byte, and no config fails.  Under ``RUN_PERF_SWEEP=1`` (CI
    perf-smoke, or a local box with real cores): the full 1/2/4/8-worker
    ladder at 100k requests, with the >= 3x-at-4-workers floor asserted
    when the box has >= 4 CPUs.  Results land in the JSON's ``sweep``
    section: configs/hour and scaling efficiency per worker count.
    """
    from repro.serving.sweep import expand_sweep, run_jobs

    full_ladder = os.environ.get("RUN_PERF_SWEEP") == "1"
    num_requests = 100_000 if full_ladder else 8_000
    worker_counts = [1, 2, 4, 8] if full_ladder else [1, 2]
    cpus = os.cpu_count() or 1

    jobs = expand_sweep(_sweep_spec(num_requests))
    assert len(jobs) == 8

    serial = run_jobs(jobs, workers=1)
    serial.raise_failures()
    serial_keys = [r.summary_key() for r in serial.results]
    serial_wall = serial.wall_s

    section = {
        "cpus": cpus,
        "num_configs": len(jobs),
        "num_requests": num_requests,
        "trace": BENCH_CONFIG["trace"],
        "serial_wall_s": round(serial_wall, 3),
        "workers": {},
    }
    for workers in worker_counts[1:]:
        outcome = run_jobs(jobs, workers=workers)
        outcome.raise_failures()
        # the whole point: the pool is an execution detail, not a model
        assert [r.summary_key() for r in outcome.results] == serial_keys, (
            f"{workers}-worker sweep diverged from the serial run")
        speedup = serial_wall / outcome.wall_s
        section["workers"][str(workers)] = {
            "wall_s": round(outcome.wall_s, 3),
            "speedup_x": round(speedup, 2),
            "efficiency": round(speedup / workers, 3),
            "configs_per_hour": round(len(jobs) / outcome.wall_s * 3600.0, 1),
        }
    section["workers"]["1"] = {
        "wall_s": round(serial_wall, 3),
        "speedup_x": 1.0,
        "efficiency": 1.0,
        "configs_per_hour": round(len(jobs) / serial_wall * 3600.0, 1),
    }

    doc = _load_doc()
    doc["sweep"] = section
    _write_doc(doc, refresh_seed)

    if full_ladder and cpus >= 4:
        speedup4 = section["workers"]["4"]["speedup_x"]
        assert speedup4 >= SWEEP_SPEEDUP_FLOOR_AT_4, (
            f"8-config sweep at 4 workers ran only {speedup4:.2f}x faster "
            f"than serial on a {cpus}-CPU box (floor: "
            f"{SWEEP_SPEEDUP_FLOOR_AT_4}x)")
