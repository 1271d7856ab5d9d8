"""Parallel sweep engine: expansion determinism, pool/serial identity,
crash isolation, and shard merging.

The sweep module's contract has four legs, each pinned here:

1. ``expand_sweep`` is a pure function of the spec — cartesian order,
   labels and seeds are deterministic, and malformed specs raise rather
   than half-expand.
2. A process pool is an execution detail: ``workers=N`` must reproduce
   the ``workers=1`` summaries byte for byte, in job order.
3. One poisoned config comes back as a structured failure; its siblings
   complete untouched.
4. Streaming shards of the *same* configuration merge into one
   aggregate whose counters are exact sums.
"""

import pytest

from repro.serving.sweep import (
    SweepJob,
    TraceSpec,
    expand_sweep,
    run_jobs,
    run_sweep,
)
from repro.workloads.traces import RequestTrace, bursty_trace

_TRACE = {"name": "bursty", "num_requests": 120, "seed": 2,
          "mean_prefill": 40, "mean_decode": 64}
_BASE = {"policy": "fifo", "max_batch_size": 4}


class TestExpansion:
    def test_grid_cartesian_order_last_axis_fastest(self):
        jobs = expand_sweep({
            "trace": _TRACE,
            "base": _BASE,
            "grid": {"num_instances": [1, 2], "router": ["round_robin",
                                                         "least_loaded"]},
        })
        assert [j.label for j in jobs] == [
            "num_instances=1,router=round_robin",
            "num_instances=1,router=least_loaded",
            "num_instances=2,router=round_robin",
            "num_instances=2,router=least_loaded",
        ]
        assert [j.index for j in jobs] == [0, 1, 2, 3]
        assert all(j.params["policy"] == "fifo" for j in jobs)
        assert all(j.seed == 2 for j in jobs)  # trace seed travels openly

    def test_explicit_configs_with_labels(self):
        jobs = expand_sweep({
            "trace": _TRACE,
            "base": _BASE,
            "configs": [{"label": "baseline"},
                        {"policy": "sjf", "label": "shortest-first"},
                        {"num_instances": 2}],
        })
        assert [j.label for j in jobs] == ["baseline", "shortest-first",
                                          "config[2]"]
        assert jobs[1].params["policy"] == "sjf"
        assert jobs[0].params["policy"] == "fifo"

    def test_trace_seed_axis_sweeps_the_generator(self):
        jobs = expand_sweep({
            "trace": _TRACE,
            "base": _BASE,
            "grid": {"trace_seed": [7, 8, 9]},
        })
        assert [j.seed for j in jobs] == [7, 8, 9]
        assert all(isinstance(j.trace, TraceSpec) for j in jobs)
        assert [j.trace.params["seed"] for j in jobs] == [7, 8, 9]
        # the axis is consumed by expansion, not passed to run_policy
        assert all("trace_seed" not in j.params for j in jobs)

    def test_trace_seed_axis_requires_a_recipe(self):
        trace = RequestTrace(requests=list(bursty_trace(10, seed=0)))
        with pytest.raises(ValueError, match="trace_seed"):
            expand_sweep({"trace": trace, "base": _BASE,
                          "grid": {"trace_seed": [1, 2]}})

    @pytest.mark.parametrize("spec, match", [
        ({"trace": _TRACE}, "exactly one of"),
        ({"trace": _TRACE, "grid": {"a": [1]}, "configs": [{}]},
         "exactly one of"),
        ({"grid": {"a": [1]}}, "needs a 'trace'"),
        ({"trace": _TRACE, "grid": {}}, "non-empty"),
        ({"trace": _TRACE, "grid": {"router": []}}, "no values"),
        ({"trace": _TRACE, "configs": []}, "non-empty"),
        ({"trace": _TRACE, "grid": {"a": [1]}, "bogus": 1},
         "unknown sweep spec keys"),
        ({"trace": {"num_requests": 10}, "grid": {"a": [1]}},
         "needs a 'name' key"),
    ])
    def test_malformed_specs_raise(self, spec, match):
        with pytest.raises(ValueError, match=match):
            expand_sweep(spec)

    def test_unknown_trace_generator_raises(self):
        with pytest.raises(ValueError, match="unknown trace generator"):
            TraceSpec("no_such_trace")


class TestPoolIdentity:
    SPEC = {
        "trace": _TRACE,
        "base": _BASE,
        "grid": {"policy": ["fifo", "sjf"],
                 "num_instances": [1, 2]},
    }

    def test_workers_4_byte_identical_to_serial(self):
        serial = run_sweep(self.SPEC, workers=1)
        pooled = run_sweep(self.SPEC, workers=4)
        assert serial.workers == 1 and pooled.workers == 4
        assert [r.label for r in pooled.results] == \
            [r.label for r in serial.results]
        assert [r.summary_key() for r in pooled.results] == \
            [r.summary_key() for r in serial.results]

    def test_workers_capped_at_job_count(self):
        outcome = run_sweep({"trace": _TRACE, "base": _BASE,
                             "grid": {"policy": ["fifo", "sjf"]}}, workers=16)
        assert outcome.workers == 2


class TestCrashIsolation:
    def test_poisoned_config_fails_structured_siblings_complete(self):
        outcome = run_sweep({
            "trace": _TRACE,
            "base": _BASE,
            "configs": [
                {"label": "good-one"},
                {"label": "poisoned", "policy": "no_such_policy"},
                {"label": "good-two", "num_instances": 2},
            ],
        }, workers=2)
        by_label = {r.label: r for r in outcome.results}
        assert by_label["good-one"].ok and by_label["good-two"].ok
        bad = by_label["poisoned"]
        assert not bad.ok
        assert bad.summary is None
        assert bad.failure.error_type == "ValueError"
        assert "no_such_policy" in bad.failure.message
        assert "run_policy" in bad.failure.traceback
        assert outcome.failures == [bad]
        with pytest.raises(RuntimeError, match="poisoned"):
            outcome.raise_failures()

    def test_failure_is_identical_serial_and_pooled(self):
        spec = {"trace": _TRACE, "base": _BASE,
                "configs": [{"label": "bad", "policy": "no_such_policy"}]}
        serial = run_sweep(spec, workers=1)
        pooled = run_sweep({**spec, "configs": spec["configs"] * 2},
                           workers=2)
        assert serial.results[0].failure.error_type == \
            pooled.results[0].failure.error_type


class TestComparisonsThroughTheSweep:
    """The analysis comparison helpers route through run_jobs; parallel
    workers must not change a single row."""

    @pytest.mark.parametrize("helper_kwargs", [
        ("policy_comparison", dict(policies=("fifo", "sjf"))),
        ("router_comparison", dict(instances="1x2n,1x4n",
                                   routers=("round_robin", "least_loaded"))),
        ("prefill_mode_comparison", dict(num_instances=2)),
    ], ids=["policy", "router", "prefill"])
    def test_rows_identical_at_workers_2(self, helper_kwargs):
        from repro.analysis import serving as analysis
        name, kwargs = helper_kwargs
        helper = getattr(analysis, name)
        trace = RequestTrace(requests=list(bursty_trace(
            150, seed=4, mean_prefill=40, mean_decode=64)))
        rows_serial = helper(trace, max_batch_size=4, workers=1, **kwargs)
        rows_pooled = helper(trace, max_batch_size=4, workers=2, **kwargs)
        assert rows_pooled == rows_serial


class TestJobPlumbing:
    def test_prebuilt_trace_jobs_run(self):
        trace = RequestTrace(requests=list(bursty_trace(
            60, seed=1, mean_prefill=32, mean_decode=48)))
        outcome = run_jobs([
            SweepJob(index=0, label="only", trace=trace,
                     params={"policy": "fifo", "max_batch_size": 4}),
        ], workers=4)  # single job: runs serial regardless
        assert outcome.workers == 1
        assert outcome.results[0].ok
        assert outcome.results[0].summary["requests"] == 60

    def test_keep_metrics_ships_each_run_back_whole(self):
        spec = {
            "trace": dict(_TRACE, num_requests=150),
            "base": dict(_BASE, metrics_mode="streaming",
                         num_instances=2),
            "grid": {"trace_seed": [11, 12]},
        }
        kept = run_sweep(spec, workers=2, keep_metrics=True)
        kept.raise_failures()
        for result in kept.results:
            assert result.metrics.metrics_mode == "streaming"
            assert result.metrics.num_requests == 150
            assert result.metrics.summary() == result.summary
        dropped = run_sweep(spec, workers=1)
        assert [r.metrics for r in dropped.results] == [None, None]
        assert [r.summary_key() for r in dropped.results] == \
            [r.summary_key() for r in kept.results]

    def test_empty_job_list_raises(self):
        with pytest.raises(ValueError, match="no jobs"):
            run_jobs([])
