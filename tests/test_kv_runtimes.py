"""The KV regime is the runtime's class.

``TokenServingEngine._build_runtimes`` picks one class per instance class
from its KV recipe: plain :class:`InstanceRuntime` without a pool,
:class:`ReservedRuntime` with a reservation controller, and
:class:`PagedRuntime` with a paged block pool.  The replay benchmark's
tracer (``replaybench/replay_tracer.py``) wraps six methods through
``InstanceRuntime.__dict__``; a subclass overriding one of them would slip
past the wrappers and skew the launch and pricing counters, so they must
stay on the base class.
"""

import math

import numpy as np
import pytest

from repro.serving.cluster import InstanceSpec
from repro.serving.engine import TokenServingEngine
from repro.serving.instance import (InstanceRuntime, PagedRuntime,
                                    ReservedRuntime)
from repro.workloads.scenarios import Scenario
from repro.workloads.traces import Request, RequestTrace

#: The methods the replay tracer wraps on InstanceRuntime.
TRACED_METHODS = ("dispatch", "complete_step", "step_latency_s",
                  "prefill_chunk_latency_s", "mixed_step_latency_s",
                  "swap_transfer_s")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_traced_methods_stay_on_the_base_class():
    subclasses = list(_subclasses(InstanceRuntime))
    assert {ReservedRuntime, PagedRuntime} <= set(subclasses)
    for name in TRACED_METHODS:
        assert name in InstanceRuntime.__dict__, name
        for sub in subclasses:
            assert name not in sub.__dict__, \
                f"{sub.__name__} overrides the traced {name}"


@pytest.mark.parametrize("recipe, classes", [
    (dict(cluster="2x2n"), [InstanceRuntime] * 2),
    (dict(cluster="2x2n", kv_mode="reserve"), [InstanceRuntime] * 2),
    (dict(cluster="2x2n", kv_mode="reserve", kv_budget_bytes=32 << 20),
     [ReservedRuntime] * 2),
    (dict(cluster="1x2n@32MiB,1x2n", kv_mode="reserve"),
     [ReservedRuntime, InstanceRuntime]),
    (dict(cluster="2x2n", kv_mode="paged"), [PagedRuntime] * 2),
], ids=["none", "reserve-unbudgeted", "reserve", "reserve-heterogeneous",
        "paged"])
def test_each_kv_recipe_builds_its_runtime_class(recipe, classes):
    runtimes = TokenServingEngine(**recipe)._build_runtimes()
    assert [type(r) for r in runtimes] == classes


def test_reserve_without_a_budget_reports_no_kv_mode():
    engine = TokenServingEngine(cluster="1x2n", kv_mode="reserve")
    metrics, _ = engine.run(RequestTrace(
        requests=[Request(0, 0.0, Scenario(16, 4))]))
    assert metrics.kv_mode == "none"


def test_reserved_instances_share_the_class_controller():
    engine = TokenServingEngine(cluster="2x2n", kv_mode="reserve",
                                kv_budget_bytes=32 << 20)
    first, second = engine._build_runtimes()
    assert first.controller is second.controller
    assert first.reserved_tokens == second.reserved_tokens == 0


def test_paged_instances_own_distinct_pools_per_run():
    engine = TokenServingEngine(cluster="3x2n", kv_mode="paged")
    pools = [r.kv for r in engine._build_runtimes()]
    again = [r.kv for r in engine._build_runtimes()]
    assert len({id(pool) for pool in pools + again}) == 6


@pytest.mark.parametrize("budget, error", [
    (math.inf, "kv_budget_bytes must be an integer byte count"),
    (math.nan, "kv_budget_bytes must be an integer byte count"),
    (True, "kv_budget_bytes must be an integer byte count"),
    ("1000000", "kv_budget_bytes must be an integer byte count"),
    (1.5, "kv_budget_bytes must be an integer byte count"),
    (-1, "kv_budget_bytes cannot be negative"),
    (np.int64(32 << 20), None),
    (32 << 20, None),
], ids=["inf", "nan", "bool", "str", "fraction", "negative", "numpy-int",
        "int"])
def test_kv_budgets_must_be_whole_byte_counts(budget, error):
    builders = (
        lambda: TokenServingEngine(kv_mode="paged", kv_budget_bytes=budget),
        lambda: TokenServingEngine(kv_mode="reserve",
                                   kv_budget_bytes=budget),
        lambda: InstanceSpec(1, 1, kv_budget_bytes=budget),
    )
    for build in builders:
        if error is None:
            build()
        else:
            with pytest.raises(ValueError, match=error):
                build()
