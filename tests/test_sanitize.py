"""The runtime invariant sanitizer (:mod:`repro.sanitize`).

Four contracts:

* **bit-identity** — a sanitized run of the golden paged + mixed +
  prefix_aware config produces exactly the records and metrics of the
  unsanitized run (the sanitizer is read-only), and its overhead stays
  bounded;
* **activation** — the explicit ``sanitize=`` argument wins over the
  ``REPRO_SANITIZE`` environment variable, which wins over the default
  (off); the ``serve --sanitize`` CLI flag reaches the engine;
* **violation detection** — seeded corruptions (a double-free injected
  into the block manager mid-run, a backwards event time, a dropped
  request, a fold cut that keeps its generation) raise
  :class:`~repro.errors.SanitizerError` whose message names the
  offending event and whose ``check`` names the invariant;
* **promotion** — the checker the paged-KV fuzz battery pins is the same
  :func:`~repro.sanitize.check_kv_invariants` the engine applies.
"""

import pytest

from repro.errors import InvariantError, ReproError, SanitizerError
from repro.memory.kv_cache import KVCacheLayout
from repro.memory.paged_kv import PagedKVManager
from repro.sanitize import EngineSanitizer, check_kv_invariants, sanitize_enabled
from repro.serving.engine import ServedRequest, TokenServingEngine
from repro.workloads.traces import synthetic_trace

# Golden-timestamp guard modules run in the dedicated serial CI pass
# (never under pytest-xdist) so a bit-exact failure is attributable
# to the code, not to worker scheduling.
pytestmark = pytest.mark.serial

GOLDEN_CONFIG = dict(cluster="2x2n", kv_mode="paged",
                     kv_budget_bytes=1 << 26, prefill_mode="mixed",
                     kv_prefix_sharing=True, router="prefix_aware")


def _values(record):
    """Every field of one record, in declaration order."""
    return tuple(getattr(record, name) for name in ServedRequest._fields)


def _records(metrics_and_records):
    _, records = metrics_and_records
    return [_values(record) for record in records]


def _manager(prefix_sharing=True, pool_blocks=16, block=4):
    layout = KVCacheLayout(num_layers=2, num_heads=4, head_dim=8,
                           max_seq_len=256, num_nodes=2)
    budget = pool_blocks * block * layout.bytes_per_token_per_node()
    return PagedKVManager(layout, block_size_tokens=block,
                          budget_bytes=budget,
                          prefix_sharing=prefix_sharing)


# ---------------------------------------------------------------------------
# bit-identity and overhead on the golden config
# ---------------------------------------------------------------------------
def test_sanitized_golden_run_is_bit_identical():
    trace = synthetic_trace(num_requests=120, seed=11)
    plain_metrics, plain_records = TokenServingEngine(
        sanitize=False, **GOLDEN_CONFIG).run(trace)
    clean_metrics, clean_records = TokenServingEngine(
        sanitize=True, **GOLDEN_CONFIG).run(trace)
    assert ([_values(r) for r in plain_records]
            == [_values(r) for r in clean_records])
    assert plain_metrics.makespan_s == clean_metrics.makespan_s
    assert plain_metrics.summary() == clean_metrics.summary()


def test_sanitized_run_overhead_is_bounded():
    """The golden config under the sanitizer finishes in interactive time
    (the checks are one linear state walk per event, not a re-simulation)."""
    import time  # wall-clock: measuring the harness, not simulated time

    trace = synthetic_trace(num_requests=120, seed=11)
    start = time.perf_counter()  # repro-lint: disable=R002
    TokenServingEngine(sanitize=True, **GOLDEN_CONFIG).run(trace)
    assert time.perf_counter() - start < 30.0  # repro-lint: disable=R002


def test_sanitizer_covers_disaggregated_handoffs():
    """Role-tagged clusters route through the handoff event path; the
    sanitizer must hold (and stay bit-identical) there too."""
    config = dict(cluster="1x4n:prefill,2x2n:decode", router="disaggregated",
                  kv_mode="paged", kv_budget_bytes=1 << 26)
    trace = synthetic_trace(num_requests=60, seed=5)
    plain = TokenServingEngine(sanitize=False, **config).run(trace)
    checked = TokenServingEngine(sanitize=True, **config).run(trace)
    assert _records(plain) == _records(checked)


def test_sanitizer_streaming_metrics_mode():
    trace = synthetic_trace(num_requests=80, seed=3)
    full = TokenServingEngine(sanitize=True, **GOLDEN_CONFIG).run(trace)
    streaming = TokenServingEngine(sanitize=True, metrics_mode="streaming",
                                   **GOLDEN_CONFIG).run(trace)
    assert streaming[1] == []
    assert streaming[0].makespan_s == full[0].makespan_s


def test_sanitizer_holds_on_folded_heterogeneous_pool():
    """A heterogeneous least_loaded pool without KV gates folds inert
    steps (full batches and idle gaps included); every folded event must
    still pass the checks, and the records stay bit-identical."""
    config = dict(cluster="4x1n,4x2n,1x4n", router="least_loaded",
                  max_batch_size=4)
    assert all(r.multistep
               for r in TokenServingEngine(**config)._build_runtimes())
    trace = synthetic_trace(num_requests=200, seed=7)
    plain = TokenServingEngine(sanitize=False, **config).run(trace)
    checked = TokenServingEngine(sanitize=True, **config).run(trace)
    assert _records(plain) == _records(checked)
    assert plain[0].summary() == checked[0].summary()


def test_sanitizer_holds_on_folded_paged_pool():
    """A paged swap pool folds decode runs as far as its free list covers
    their growth (full batches too); every event of the folded run must
    pass the KV checks, and the records stay bit-identical."""
    config = dict(cluster="4x2n", kv_mode="paged",
                  kv_budget_bytes=24 << 20,  # 1,024 tokens per node
                  max_batch_size=4)
    assert all(r.multistep
               for r in TokenServingEngine(**config)._build_runtimes())
    trace = synthetic_trace(num_requests=200, seed=7)
    plain = TokenServingEngine(sanitize=False, **config).run(trace)
    checked = TokenServingEngine(sanitize=True, **config).run(trace)
    assert plain[0].swap_out_count > 0
    assert _records(plain) == _records(checked)
    assert plain[0].summary() == checked[0].summary()


# ---------------------------------------------------------------------------
# activation plumbing
# ---------------------------------------------------------------------------
def test_sanitizer_holds_on_folded_disaggregated_pool():
    """Prefill/decode role pools fold under the cut rule: a handoff landing
    on a folding decode instance (or an arrival for a folding prefill
    instance) cuts its fold at the next boundary.  Every event of the
    folded run, cut re-posts and dropped stale completions included, must
    pass the checks (one live step per busy instance among them), and the
    records stay bit-identical."""
    config = dict(cluster="2x2n:prefill,2x1n:decode", router="disaggregated",
                  kv_mode="paged", kv_budget_bytes=1 << 26, max_batch_size=4)
    runtimes = TokenServingEngine(**config)._build_runtimes()
    assert all(r.multistep for r in runtimes)
    trace = synthetic_trace(num_requests=200, seed=7)
    plain = TokenServingEngine(sanitize=False, **config).run(trace)
    checked = TokenServingEngine(sanitize=True, **config).run(trace)
    assert plain[0].handoff_count == 200
    assert _records(plain) == _records(checked)
    assert plain[0].summary() == checked[0].summary()


def test_cut_without_a_new_generation_is_caught(monkeypatch):
    """A cut that re-posts its fold's completion without bumping the
    generation leaves two live completions for one instance; the
    one-live-step check names the instance at the cut's event."""
    from repro.serving.instance import InstanceRuntime

    original = InstanceRuntime.cut_fold

    def stale_cut(self, *args):
        payload = original(self, *args)
        self.generation -= 1
        return payload[:4] + (self.generation,)

    monkeypatch.setattr(InstanceRuntime, "cut_fold", stale_cut)
    engine = TokenServingEngine(
        cluster="2x2n:prefill,2x1n:decode", router="disaggregated",
        kv_mode="paged", kv_budget_bytes=1 << 26, max_batch_size=4,
        sanitize=True)
    with pytest.raises(SanitizerError) as excinfo:
        engine.run(synthetic_trace(num_requests=200, seed=7))
    assert excinfo.value.check == "one-live-step"
    assert "2 live step completions" in str(excinfo.value)


def test_explicit_argument_wins_over_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize_enabled(None) is True
    assert sanitize_enabled(False) is False
    assert TokenServingEngine(cluster="1x2n").sanitize is True
    assert TokenServingEngine(cluster="1x2n", sanitize=False).sanitize is False
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert sanitize_enabled(None) is False
    monkeypatch.delenv("REPRO_SANITIZE")
    assert sanitize_enabled(None) is False
    assert sanitize_enabled(True) is True


def test_cli_sanitize_flag(capsys):
    from repro.cli import main

    code = main(["serve", "--requests", "8", "--kv-mode", "paged",
                 "--kv-budget-mib", "64", "--sanitize"])
    assert code == 0
    assert "policy 'fifo'" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# injected violations fail loudly and name the event
# ---------------------------------------------------------------------------
def test_error_hierarchy():
    err = SanitizerError("boom", check="kv-refcount", event=("step-done", 3))
    assert isinstance(err, InvariantError) and isinstance(err, ReproError)
    assert err.check == "kv-refcount"
    assert err.event == ("step-done", 3)
    assert "kv-refcount" in str(err)
    assert "offending event" in str(err) and "step-done" in str(err)


def test_injected_double_free_is_caught(monkeypatch):
    """Corrupt the block manager mid-run — the classic double-free: a block
    some table still references reappears on the free list — and the very
    next sanitized event must raise, naming the event."""
    original = PagedKVManager.allocate
    armed = {"countdown": 3}

    def corrupting_allocate(self, request_id, target_tokens):
        ok = original(self, request_id, target_tokens)
        if ok and armed["countdown"] > 0:
            armed["countdown"] -= 1
            if armed["countdown"] == 0:
                table = self._tables[request_id]
                self._free.append(table.device_blocks[0])  # double-free
        return ok

    monkeypatch.setattr(PagedKVManager, "allocate", corrupting_allocate)
    trace = synthetic_trace(num_requests=40, seed=2)
    engine = TokenServingEngine(sanitize=True, cluster="1x2n",
                                kv_mode="paged", kv_budget_bytes=1 << 26)
    with pytest.raises(SanitizerError) as excinfo:
        engine.run(trace)
    assert excinfo.value.check.startswith("kv-")
    assert excinfo.value.event is not None
    assert "offending event" in str(excinfo.value)
    # the corrupted run must fail loudly; without the sanitizer the same
    # corruption silently yields a (wrong) result
    monkeypatch.setattr(PagedKVManager, "allocate", original)


def test_backwards_event_time_is_caught():
    sanitizer = EngineSanitizer()
    sanitizer.after_event(5.0, ("step-done", 0, 5.0), scheduler=[],
                          runtimes=[], num_arrivals=0, completed=0,
                          in_flight_handoffs=0)
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.after_event(4.0, ("step-done", 1, 4.0), scheduler=[],
                              runtimes=[], num_arrivals=0, completed=0,
                              in_flight_handoffs=0)
    assert excinfo.value.check == "event-time-monotonic"
    assert "('step-done', 1, 4.0)" in str(excinfo.value)


def test_request_conservation_violation_is_caught():
    sanitizer = EngineSanitizer()
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.after_event(1.0, ("arrival", 7, 1.0), scheduler=[],
                              runtimes=[], num_arrivals=3, completed=1,
                              in_flight_handoffs=0)
    assert excinfo.value.check == "request-conservation"
    assert excinfo.value.event == ("arrival", 7, 1.0)


def test_events_checked_counts_validations():
    sanitizer = EngineSanitizer()
    for step in range(4):
        sanitizer.after_event(float(step), ("arrival", step, float(step)),
                              scheduler=[], runtimes=[], num_arrivals=0,
                              completed=0, in_flight_handoffs=0)
    assert sanitizer.events_checked == 4


# ---------------------------------------------------------------------------
# the promoted KV checker rejects hand-made corruptions
# ---------------------------------------------------------------------------
def test_kv_checker_accepts_healthy_pool():
    manager = _manager()
    assert manager.allocate_prefix(1, 12, tuple(range(12))) is not None
    check_kv_invariants(manager)  # must not raise


def test_kv_checker_rejects_free_and_held_block():
    manager = _manager()
    assert manager.allocate_prefix(1, 12, tuple(range(12))) is not None
    manager._free.append(manager._tables[1].device_blocks[0])
    with pytest.raises(SanitizerError) as excinfo:
        check_kv_invariants(manager, event=("free", 1))
    assert excinfo.value.check == "kv-block-conservation"
    assert "('free', 1)" in str(excinfo.value)


def test_kv_checker_rejects_refcount_drift():
    manager = _manager()
    assert manager.allocate_prefix(1, 12, tuple(range(12))) is not None
    block = manager._tables[1].device_blocks[0]
    manager._ref[block] = manager._ref.get(block, 1) + 1
    with pytest.raises(SanitizerError) as excinfo:
        check_kv_invariants(manager)
    assert excinfo.value.check == "kv-refcount"


def test_kv_checker_rejects_duplicate_free_entry():
    manager = _manager()
    manager._free.append(manager._free[0])
    with pytest.raises(SanitizerError) as excinfo:
        check_kv_invariants(manager)
    assert excinfo.value.check == "kv-free-list-unique"


def test_kv_checker_rejects_fragmentation_counter_drift():
    manager = _manager()
    assert manager.allocate(1, 10)
    manager.device_cached_tokens += 1
    with pytest.raises(SanitizerError) as excinfo:
        check_kv_invariants(manager)
    assert excinfo.value.check == "kv-fragmentation-counters"
