"""Replay benchmark of the serving simulator's host cost.

Replays pinned open-loop traces through ``TokenServingEngine``, one fresh
child process per (repeat, workload) pair, and reports what a user running
trace replays and sweeps waits on: requests simulated per host second, peak
host memory and set-up time.  Every replay's simulated results must match a
pinned digest (seed 0) and agree across repeats; a replay that raises,
drifts or fails its workload's health guard counts as failed.

Usage (from the repository root)::

    python3 replaybench/replay_bench.py [--workload NAME]... [--seed N]
        [--repeats R | --seconds S] [--trace 0|1] [--requests N] [--out PATH]
    python3 replaybench/replay_bench.py compare OLD.json NEW.json

``--trace 1`` (alias ``--layers``) runs one untraced and one traced child
per workload and reports the per-layer metrics instead.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result is written to ``--out``.
See ``README.md`` in this directory for the workloads, metrics and the A/B
protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "replay_child.py"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / ".replaybench" / "result.json"

#: A replay child that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 60.0
#: With ``--seconds``, rounds stop once the next one would overrun the
#: budget, but never before this many (a median needs three values).
MIN_ROUNDS = 3
#: Metrics a run reports as the fast quartile of its replays instead of the
#: median.  Every replay repeats identical deterministic work, so other
#: processes on the host can only slow it down: the fast quartile tracks
#: the simulator's own cost, the slow tail tracks the neighbours.
FAST_QUARTILE = ("requests_per_s",)


def _git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git (a
    checkout without history reports None)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Replayer:
    """Runs replay children and judges each one."""

    def __init__(self, seed: int, sizes: Dict[str, int],
                 pinned: Dict[str, Dict[str, float]]) -> None:
        from replay_workloads import digest_mismatches

        self._mismatches = digest_mismatches
        self.seed = seed
        self.sizes = sizes
        self.pinned = pinned
        self.replays: Dict[str, List[Dict[str, Any]]] = {w: [] for w in sizes}
        self.failures: Dict[str, List[str]] = {w: [] for w in sizes}
        self.reference: Dict[str, Dict[str, float]] = {}

    def run(self, workload: str, traced: bool) -> Optional[Dict[str, Any]]:
        """One child replay; returns its record, or None if it failed."""
        attempt = len(self.replays[workload]) + len(self.failures[workload])
        label = f"{workload} replay {attempt}{' (traced)' if traced else ''}"
        command = [sys.executable, str(CHILD), workload, str(self.seed),
                   str(self.sizes[workload]), "1" if traced else "0"]
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired:
            return self._fail(workload, f"{label}: timed out after "
                                        f"{CHILD_TIMEOUT_S:.0f} s")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return self._fail(workload, f"{label}: exit {proc.returncode}: "
                                        f"{tail[0]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        problems = [f"health: {reason}" for reason in record["health"]]
        expected = self.pinned.get(workload)
        if expected is not None:
            problems += [f"pinned digest: {m}"
                         for m in self._mismatches(expected, record["digest"])]
        first = self.reference.setdefault(workload, record["digest"])
        problems += [f"differs from the run's first replay: {m}"
                     for m in self._mismatches(first, record["digest"])]
        if problems:
            return self._fail(workload, f"{label}: " + "; ".join(problems))
        self.replays[workload].append(record)
        return record

    def _fail(self, workload: str, reason: str) -> None:
        print(f"FAILED {reason}", file=sys.stderr)
        self.failures[workload].append(reason)
        return None

    def counts(self, workload: str) -> Tuple[int, int]:
        failed = len(self.failures[workload])
        return len(self.replays[workload]) + failed, failed


def _end_to_end(replayer: Replayer, workloads: List[str],
                rounds_wanted: int,
                seconds: Optional[float]) -> int:
    """Interleaved rounds: every round replays each workload once."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for workload in workloads:
            replayer.run(workload, traced=False)
        rounds += 1
        elapsed = time.perf_counter() - start
        if seconds is None:
            if rounds >= rounds_wanted:
                return rounds
        elif rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            return rounds


def _summarize(replayer: Replayer, workload: str,
               metric_units: Dict[str, str]) -> Dict[str, Any]:
    records = replayer.replays[workload]
    attempted, failed = replayer.counts(workload)
    summary: Dict[str, Any] = {
        "num_requests": replayer.sizes[workload],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": replayer.failures[workload],
        "digest": records[0]["digest"] if records else None,
        "metrics": {},
        "replays": records,
    }
    for name, unit in metric_units.items():
        values = [r[name] for r in records if name in r]
        if values:
            q1, median, q3 = _quartiles(values)
            summary["metrics"][name] = {
                "value": q3 if name in FAST_QUARTILE else median,
                "median": median, "q1": q1, "q3": q3, "n": len(values),
                "unit": unit}
    return summary


def _layers(replayer: Replayer, workload: str) -> Optional[Dict[str, Any]]:
    """One untraced and one traced replay; the per-layer metrics of the
    traced one (None when either failed or their digests differ)."""
    untraced = replayer.run(workload, traced=False)
    traced = replayer.run(workload, traced=True)
    if untraced is None or traced is None:
        return None
    layers = dict(traced["layers"])
    layers["trace.overhead_x"] = traced["run_s"] / untraced["run_s"]
    return {"metrics": layers, "edges": traced.pop("edges")}


def _print_metric(workload: str, name: str, entry: Dict[str, Any]) -> None:
    spread = (f"  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, "
              f"R={entry['n']})" if "q1" in entry else "")
    print(f"  {workload:<17} {name:<45} {entry['value']:.6g} "
          f"{entry['unit']}{spread}")


def run(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: the simulator sources are missing ({SRC / 'repro'}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from replay_workloads import WORKLOADS

    spec = json.loads(BENCHMARK.read_text())
    workloads = list(dict.fromkeys(args.workload or WORKLOADS))
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        print(f"error: unknown workload(s) {', '.join(unknown)}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = {w: (min(args.requests, WORKLOADS[w].num_requests)
                 if args.requests else WORKLOADS[w].num_requests)
             for w in workloads}
    pinned = (json.loads(DIGESTS.read_text())
              if args.seed == 0 and not args.requests else {})
    replayer = Replayer(args.seed, sizes, pinned)
    traced = args.trace == 1
    kind = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    result: Dict[str, Any] = {"mode": kind, "workloads": {}}
    if traced:
        layered = {w: _layers(replayer, w) for w in workloads}
        rounds = 1
    else:
        rounds = _end_to_end(replayer, workloads, args.repeats, args.seconds)
    result["env"] = {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": args.seed,
        "repeats": rounds,
        "num_requests": sizes,
    }

    contract_metrics: Dict[str, Dict[str, Any]] = {}
    print(f"replay benchmark ({kind}), seed {args.seed}, {rounds} round(s)")
    for workload in workloads:
        summary = _summarize(replayer, workload, {} if traced else units)
        if traced and layered[workload] is not None:
            summary["layers"] = layered[workload]["edges"]
            summary["metrics"] = {
                name: {"value": value, "unit": units[name]}
                for name, value in layered[workload]["metrics"].items()}
        result["workloads"][workload] = summary
        print(f"{workload}: {summary['attempted'] - summary['failed']}/"
              f"{summary['attempted']} replays ok, error_rate "
              f"{summary['error_rate']:.3g} fraction")
        for name, entry in summary["metrics"].items():
            _print_metric(workload, name, entry)
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            contract_metrics[key] = {"value": entry["value"],
                                     "unit": entry["unit"]}
        print(f"  {workload:<17} digest {json.dumps(summary['digest'])}")

    out = Path(args.out) if args.out else DEFAULT_OUT
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"result written to {out}")

    attempted = sum(s["attempted"] for s in result["workloads"].values())
    failed = sum(s["failed"] for s in result["workloads"].values())
    complete = all(set(units) <= set(s["metrics"])
                   for s in result["workloads"].values())
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": contract_metrics}))
    return 0 if failed == 0 and complete else 1


def compare(old_path: str, new_path: str) -> int:
    """Row per workload x end-to-end metric: both runs' reported values
    and replay IQRs, the delta and the bound from BENCHMARK.json.  Exits 1 on a regression beyond the
    bound, a rise in error rate, or differing simulated digests."""
    sys.path.insert(0, str(SRC))
    from replay_workloads import digest_mismatches

    spec = json.loads(BENCHMARK.read_text())
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    header = (f"{'workload':<17} {'metric':<15} {'old':>11} "
              f"{'old IQR':>9} {'new':>11} {'new IQR':>9} "
              f"{'delta':>8} {'bound':>6}  verdict")
    print(header)
    bad = 0
    for workload, new_w in new["workloads"].items():
        old_w = old["workloads"].get(workload)
        if old_w is None:
            print(f"{workload:<17} (not in {old_path})")
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            o, n = old_w["metrics"].get(name), new_w["metrics"].get(name)
            if o is None or n is None:
                print(f"{workload:<17} {name:<15} missing")
                bad += 1
                continue
            o_iqr, n_iqr = o["q3"] - o["q1"], n["q3"] - n["q1"]
            delta = (n["value"] - o["value"]) / o["value"]
            worse = -delta if metric["better"] == "higher" else delta
            spread = max(o_iqr / o["median"], n_iqr / n["median"])
            if spread > bound:
                verdict = "unresolved (spread > bound)"
            elif worse > bound:
                verdict = "REGRESSION"
                bad += 1
            else:
                verdict = "ok"
            print(f"{workload:<17} {name:<15} {o['value']:>11.5g} "
                  f"{o_iqr:>9.3g} {n['value']:>11.5g} {n_iqr:>9.3g} "
                  f"{delta:>+8.1%} {bound:>6.0%}  {verdict}")
        if new_w["error_rate"] > old_w["error_rate"]:
            print(f"{workload:<17} error_rate {old_w['error_rate']:.3g} -> "
                  f"{new_w['error_rate']:.3g}  REGRESSION")
            bad += 1
        if (old["env"]["seed"] == new["env"]["seed"]
                and old_w["digest"] and new_w["digest"]):
            for mismatch in digest_mismatches(old_w["digest"],
                                              new_w["digest"]):
                print(f"{workload:<17} digest differs: {mismatch}")
                bad += 1
    return 1 if bad else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Replay benchmark of the serving simulator's host cost "
                    "(see replaybench/README.md).")
    parser.add_argument("--workload", action="append",
                        help="workload to replay (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace generator seed (default 0, the pinned "
                             "digests)")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--repeats", type=int, default=5,
                        help="interleaved rounds (default 5)")
    budget.add_argument("--seconds", type=float,
                        help="run rounds until the next would overrun this "
                             f"many seconds (at least {MIN_ROUNDS} rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced + one traced replay per "
                             "workload, report per-layer metrics")
    parser.add_argument("--layers", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--requests", type=int,
                        help="cap every workload at this many requests "
                             "(smoke runs; skips the pinned digests)")
    parser.add_argument("--out", help=f"result JSON (default {DEFAULT_OUT})")
    return parser


def _terminate(signum: int, frame: object) -> None:
    # raising inside subprocess.run makes it kill and reap the running child
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: replay_bench.py compare OLD.json NEW.json",
                  file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    return run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
