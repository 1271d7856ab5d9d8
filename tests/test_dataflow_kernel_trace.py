"""Tests for the trace recorder."""

import pytest

from repro.dataflow.trace import TraceRecorder


class TestTraceRecorder:
    def test_records_and_lists_units(self):
        trace = TraceRecorder()
        trace.record("mp", "start", 0)
        trace.record("mp", "stop", 100)
        trace.record("mha", "start", 40)
        trace.record("mha", "stop", 150)
        assert set(trace.units()) == {"mp", "mha"}
        assert len(trace) == 4

    def test_busy_interval_and_cycles(self):
        trace = TraceRecorder()
        trace.record("mp", "start", 10)
        trace.record("mp", "stop", 60)
        assert trace.busy_interval("mp") == (10, 60)
        assert trace.busy_cycles("mp") == 50
        assert trace.busy_interval("missing") is None
        assert trace.busy_cycles("missing") == 0

    def test_overlap_fraction(self):
        trace = TraceRecorder()
        trace.record("ln", "start", 0)
        trace.record("ln", "stop", 100)
        trace.record("res", "start", 50)
        trace.record("res", "stop", 150)
        assert trace.overlap_fraction("ln", "res") == pytest.approx(0.5)
        assert trace.overlap_fraction("res", "ln") == pytest.approx(0.5)

    def test_utilization_and_makespan(self):
        trace = TraceRecorder()
        trace.record("a", "start", 0)
        trace.record("a", "stop", 30)
        trace.record("b", "start", 0)
        trace.record("b", "stop", 60)
        assert trace.makespan() == 60
        util = trace.utilization()
        assert util["a"] == pytest.approx(0.5)
        assert util["b"] == pytest.approx(1.0)

    def test_gantt_rows_sorted_by_start(self):
        trace = TraceRecorder()
        trace.record("late", "start", 100)
        trace.record("late", "stop", 120)
        trace.record("early", "start", 5)
        trace.record("early", "stop", 50)
        rows = trace.gantt_rows()
        assert [row[0] for row in rows] == ["early", "late"]
