"""Smoke test of the replay benchmark on small traces of every workload.

It checks the benchmark's own contract — emitted names and units, traced
replays simulating exactly what untraced ones do, self shares covering the
traced wall time, counters that repeat exactly, seeds that matter — and
pins no counter value, so a performance change never has to edit it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import replay_child
from replay_workloads import WORKLOADS

pytestmark = pytest.mark.serial

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = 200

#: Per-layer metrics that are exact counts (everything but the timings).
COUNTERS = sorted(
    m["name"] for m in SPEC["per_layer"]
    if not m["name"].endswith(".self_share")
    and m["name"] != "trace.overhead_x")


def _bench(out: Path, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "replay_bench.py"), "--requests",
         str(SMALL), "--out", str(out), *args],
        capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0, proc.stderr
    return {"line": line, "result": json.loads(out.read_text())}


def _expected(kind: str) -> dict:
    return {f"{w['name']}.{m['name']}": m["unit"]
            for w in SPEC["workloads"] for m in SPEC[kind]}


@pytest.fixture(scope="module")
def layers_run(tmp_path_factory):
    return _bench(tmp_path_factory.mktemp("layers") / "result.json",
                  "--trace", "1")


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_run_emits_every_metric(tmp_path):
    run = _bench(tmp_path / "result.json", "--repeats", "1")
    emitted = {k: v["unit"] for k, v in run["line"]["metrics"].items()}
    assert emitted == _expected("end_to_end")
    env = run["result"]["env"]
    assert {"git_commit", "python", "nproc", "cpu_model", "seed", "repeats",
            "num_requests"} <= set(env)


def test_layers_run_matches_untraced_and_covers_the_wall(layers_run):
    # the harness fails a traced replay whose digest differs from the
    # untraced one, so `correct` already pins bit-identity
    metrics = layers_run["line"]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _expected("per_layer")
    for workload in WORKLOADS:
        shares = sum(v["value"] for k, v in metrics.items()
                     if k.startswith(workload + ".")
                     and k.endswith(".self_share"))
        assert shares == pytest.approx(1.0, abs=0.05), workload


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counters_repeat_and_seed_changes_the_trace(layers_run, workload):
    summary = layers_run["result"]["workloads"][workload]
    traced = next(r for r in summary["replays"] if r["traced"])
    again = replay_child.replay(workload, 0, SMALL, traced=True)
    assert ({c: traced["layers"][c] for c in COUNTERS}
            == {c: again["layers"][c] for c in COUNTERS})
    other_seed = replay_child.replay(workload, 1, SMALL, traced=False)
    assert other_seed["digest"] != summary["digest"]
