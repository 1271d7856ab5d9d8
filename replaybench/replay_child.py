"""One replay in a fresh process: set up, run, report one JSON line.

Usage: ``python3 replaybench/replay_child.py WORKLOAD SEED NUM_REQUESTS TRACED``

``replay_bench.py`` starts one of these per (repeat, workload) pair, so peak
RSS, the allocator and the pricing memo describe that replay alone.
``setup_s`` runs from the child's first statement to a ready engine: it
covers loading the simulator, generating (and, for list-backed workloads,
materializing) the trace, and constructing the engine.  ``requests_per_s``
is the request count over the wall time of ``engine.run`` alone.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

SRC = Path(__file__).resolve().parents[1] / "src"


def replay(workload_name: str, seed: int, num_requests: int, traced: bool,
           started: Optional[float] = None) -> Dict[str, Any]:
    """Run one replay in this process and describe it."""
    if started is None:
        started = time.perf_counter()
    # imported here so that setup_s includes loading the simulator
    import replay_workloads

    workload = replay_workloads.WORKLOADS[workload_name]
    tracer = None
    if traced:
        from replay_tracer import LayerTracer
        tracer = LayerTracer()
    with tracer if tracer is not None else contextlib.nullcontext():
        spans_start = time.perf_counter()
        trace = workload.trace(num_requests, seed)
        engine = workload.engine()
        run_start = time.perf_counter()
        metrics, _ = engine.run(trace)
        run_end = time.perf_counter()
    run_s = run_end - run_start
    result_digest = replay_workloads.digest(metrics)
    result: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "num_requests": metrics.num_requests,
        "traced": traced,
        "setup_s": run_start - started,
        "run_s": run_s,
        "requests_per_s": metrics.num_requests / run_s,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": result_digest,
    }
    folded = None
    if tracer is not None:
        layers = tracer.layer_metrics(run_end - spans_start,
                                      metrics.num_requests, result_digest)
        folded = layers["serving.instance.folded_launch_fraction"]
        result["layers"] = layers
        result["edges"] = tracer.edge_table()
    result["health"] = replay_workloads.health_failures(
        workload_name, result_digest, engine.cluster.is_heterogeneous, folded)
    return result


def main(argv: list) -> None:
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    workload, seed, num_requests, traced = argv
    print(json.dumps(replay(workload, int(seed), int(num_requests),
                            traced == "1", started)))


if __name__ == "__main__":
    main(sys.argv[1:])
