"""Tests for replaying recorded (Azure-LLM-style CSV) traces."""

import gzip

import pytest

from repro.analysis.serving import run_policy
from repro.workloads.traces import (
    BurstyTenantSpec,
    StreamingTrace,
    bursty_multi_tenant_trace,
    replay_trace,
)


def _write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


#: Malformed second rows and the message fragment each must raise with.
BAD_ROWS = [
    ("0.0,32", "2 columns"),                 # too few columns
    ("0.0,32,64,chat,5,extra", "columns"),   # too many columns
    ("abc,32,64", "non-numeric"),
    ("0.0,many,64", "non-numeric"),
    ("-1.0,32,64", "arrival_s"),
    ("nan,32,64", "arrival_s"),              # nan < 0 is False
    ("inf,32,64", "arrival_s"),
    ("0.0,0,64", "prompt_tokens"),
    ("0.0,32,-5", "output_tokens"),
    ("0.0,600,600", "context window"),
]


class TestReplayTrace:
    def test_loads_rows_sorted_with_ids_in_arrival_order(self, tmp_path):
        path = _write(tmp_path,
                      "1.5,64,128,batch\n"
                      "0.0,32,64,chat\n"
                      "0.25,16,32\n")
        trace = replay_trace(path)
        assert len(trace) == 3
        assert [r.request_id for r in trace] == [0, 1, 2]
        assert [r.arrival_s for r in trace] == [0.0, 0.25, 1.5]
        assert [r.prefill_len for r in trace] == [32, 16, 64]
        assert [r.decode_len for r in trace] == [64, 32, 128]
        assert [r.tenant for r in trace] == ["chat", "default", "batch"]

    def test_header_row_is_skipped(self, tmp_path):
        path = _write(tmp_path,
                      "arrival_s,prompt_tokens,output_tokens,tenant\n"
                      "0.0,32,64,chat\n")
        trace = replay_trace(path)
        assert len(trace) == 1
        assert trace.requests[0].tenant == "chat"

    def test_blank_lines_are_ignored(self, tmp_path):
        path = _write(tmp_path, "0.0,32,64\n\n0.5,16,32\n\n")
        assert len(replay_trace(path)) == 2

    def test_header_after_leading_blank_line_is_skipped(self, tmp_path):
        path = _write(tmp_path,
                      "\narrival_s,prompt_tokens,output_tokens\n0.0,32,64\n")
        assert len(replay_trace(path)) == 1

    @pytest.mark.parametrize("row,fragment", BAD_ROWS)
    def test_bad_rows_raise_naming_the_row(self, tmp_path, row, fragment):
        path = _write(tmp_path, "0.0,32,64\n" + row + "\n")
        with pytest.raises(ValueError) as excinfo:
            replay_trace(path)
        message = str(excinfo.value)
        assert "row 2" in message
        assert fragment in message

    @pytest.mark.parametrize("row,fragment", BAD_ROWS)
    def test_bad_rows_raise_naming_the_row_when_streaming(self, tmp_path,
                                                          row, fragment):
        path = _write(tmp_path, "0.0,32,64\n" + row + "\n")
        with pytest.raises(ValueError) as excinfo:
            list(replay_trace(path, streaming=True))
        message = str(excinfo.value)
        assert "row 2" in message
        assert fragment in message

    def test_empty_file_is_rejected(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValueError, match="no requests"):
            replay_trace(path)

    def test_replayed_trace_serves_end_to_end(self, tmp_path):
        path = _write(tmp_path,
                      "0.0,32,40,chat\n"
                      "0.1,16,24,chat\n"
                      "0.2,64,48,batch\n"
                      "0.3,24,16\n")
        metrics, records = run_policy(replay_trace(path), "fifo",
                                      instances="1x1n,1x2n")
        assert metrics.num_requests == 4
        assert metrics.generated_tokens == 40 + 24 + 48 + 16
        assert {r.tenant for r in records} == {"chat", "batch", "default"}


#: An Azure-LLM-inference-style dump: different column names, an extra
#: column the loader must ignore, rows not sorted by arrival.
AZURE_STYLE = (
    "TIMESTAMP,ContextTokens,GeneratedTokens,Deployment\n"
    "1.5,64,128,gpt-batch\n"
    "0.0,32,64,gpt-chat\n"
    "0.25,16,32,gpt-chat\n")

AZURE_MAP = {"arrival_s": "TIMESTAMP",
             "prompt_tokens": "ContextTokens",
             "output_tokens": "GeneratedTokens"}


class TestReplayGzipAndColumnMap:
    """Satellite: raw (gzipped, differently-named-column) production trace
    dumps replay without preprocessing."""

    def _write_gz(self, tmp_path, text, name="trace.csv.gz"):
        path = tmp_path / name
        with gzip.open(path, "wt", newline="") as handle:
            handle.write(text)
        return path

    def test_gzip_trace_replays(self, tmp_path):
        path = self._write_gz(tmp_path, "0.0,32,64,chat\n0.5,16,32\n")
        trace = replay_trace(path)
        assert len(trace) == 2
        assert [r.prefill_len for r in trace] == [32, 16]

    def test_column_map_selects_and_reorders(self, tmp_path):
        path = _write(tmp_path, AZURE_STYLE)
        trace = replay_trace(path, column_map=AZURE_MAP)
        assert len(trace) == 3
        assert [r.arrival_s for r in trace] == [0.0, 0.25, 1.5]
        assert [r.prefill_len for r in trace] == [32, 16, 64]
        # the unmapped Deployment column is ignored, tenant stays default
        assert {r.tenant for r in trace} == {"default"}

    def test_column_map_with_tenant(self, tmp_path):
        path = _write(tmp_path, AZURE_STYLE)
        trace = replay_trace(path, column_map=dict(AZURE_MAP,
                                                   tenant="Deployment"))
        assert [r.tenant for r in trace] == \
            ["gpt-chat", "gpt-chat", "gpt-batch"]

    def test_gzip_and_column_map_compose(self, tmp_path):
        path = self._write_gz(tmp_path, AZURE_STYLE)
        trace = replay_trace(path, column_map=AZURE_MAP)
        assert len(trace) == 3

    def test_incomplete_column_map_is_rejected(self):
        with pytest.raises(ValueError, match="missing output_tokens"):
            replay_trace("unused.csv",
                         column_map={"arrival_s": "TIMESTAMP",
                                     "prompt_tokens": "ContextTokens"})

    def test_missing_header_column_names_it(self, tmp_path):
        path = _write(tmp_path, "TIMESTAMP,ContextTokens\n0.0,32\n")
        with pytest.raises(ValueError, match="GeneratedTokens"):
            replay_trace(path, column_map=AZURE_MAP)

    def test_missing_tenant_column_names_it(self, tmp_path):
        path = _write(tmp_path, AZURE_STYLE)
        with pytest.raises(ValueError, match="Owner"):
            replay_trace(path, column_map=dict(AZURE_MAP, tenant="Owner"))

    def test_row_validation_still_names_the_row(self, tmp_path):
        """The existing row-naming validation errors survive the mapped
        path (the header is row 1, so the bad data row is row 3)."""
        path = _write(tmp_path,
                      "TIMESTAMP,ContextTokens,GeneratedTokens\n"
                      "0.0,32,64\n"
                      "0.5,none,64\n")
        with pytest.raises(ValueError, match="row 3.*non-numeric"):
            replay_trace(path, column_map=AZURE_MAP)

    def test_short_row_under_column_map_names_the_row(self, tmp_path):
        path = _write(tmp_path,
                      "TIMESTAMP,ContextTokens,GeneratedTokens\n"
                      "0.0,32\n")
        with pytest.raises(ValueError, match="row 2"):
            replay_trace(path, column_map=AZURE_MAP)

    def test_mapped_trace_serves_end_to_end(self, tmp_path):
        path = self._write_gz(tmp_path, AZURE_STYLE)
        trace = replay_trace(path, column_map=dict(AZURE_MAP,
                                                   tenant="Deployment"))
        metrics, records = run_policy(trace, "fifo")
        assert metrics.num_requests == 3
        assert metrics.generated_tokens == 64 + 32 + 128


class TestBurstyMultiTenantTrace:
    def test_merged_stream_is_sorted_and_tagged(self):
        trace = bursty_multi_tenant_trace(seed=8)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in trace] == list(range(len(trace)))
        tenants = {r.tenant for r in trace}
        assert tenants == {"interactive", "batch"}
        # the default mix is bimodal: every bulk prompt is longer than
        # every interactive prompt (that gap is what class_affinity cuts)
        interactive = [r.prefill_len for r in trace
                       if r.tenant == "interactive"]
        batch = [r.prefill_len for r in trace if r.tenant == "batch"]
        assert max(interactive) < min(batch)

    def test_custom_tenants_and_validation(self):
        trace = bursty_multi_tenant_trace(
            tenants=(BurstyTenantSpec("a", num_requests=3, priority=1),
                     BurstyTenantSpec("b", num_requests=2)),
            seed=1)
        assert len(trace) == 5
        assert {r.tenant for r in trace} == {"a", "b"}
        assert all(r.priority == 1 for r in trace if r.tenant == "a")
        with pytest.raises(ValueError):
            bursty_multi_tenant_trace(tenants=())
        with pytest.raises(ValueError):
            BurstyTenantSpec("", num_requests=1)
        with pytest.raises(ValueError):
            BurstyTenantSpec("x", num_requests=0)


class TestStreamingReplay:
    """``replay_trace(streaming=True)``: production dumps replay with one
    row alive at a time."""

    SORTED = "0.0,32,64,chat\n0.25,16,32\n1.5,64,128,batch\n"

    def test_returns_lazy_reiterable_stream(self, tmp_path):
        path = _write(tmp_path, self.SORTED)
        stream = replay_trace(path, streaming=True)
        assert isinstance(stream, StreamingTrace)
        first = list(stream)
        second = list(stream)  # a fresh iterator re-parses the file
        assert first == second
        assert [r.request_id for r in first] == [0, 1, 2]
        assert [r.tenant for r in first] == ["chat", "default", "batch"]

    def test_unknown_length_raises(self, tmp_path):
        path = _write(tmp_path, self.SORTED)
        stream = replay_trace(path, streaming=True)
        with pytest.raises(TypeError, match="no known length"):
            len(stream)

    def test_out_of_order_file_names_the_request(self, tmp_path):
        path = _write(tmp_path, "1.0,32,64\n0.5,16,32\n")
        stream = replay_trace(path, streaming=True)
        with pytest.raises(ValueError, match="sorted"):
            list(stream)

    def test_errors_surface_on_iteration_not_at_call_time(self, tmp_path):
        path = _write(tmp_path, "")
        stream = replay_trace(path, streaming=True)  # no error yet
        with pytest.raises(ValueError, match="no requests"):
            list(stream)

    def test_gzip_and_column_map_compose_with_streaming(self, tmp_path):
        sorted_azure = ("TIMESTAMP,ContextTokens,GeneratedTokens,Deployment\n"
                        "0.0,32,64,gpt-chat\n"
                        "0.25,16,32,gpt-chat\n"
                        "1.5,64,128,gpt-batch\n")
        path = tmp_path / "dump.csv.gz"
        with gzip.open(path, "wt", newline="") as handle:
            handle.write(sorted_azure)
        stream = replay_trace(path, streaming=True,
                              column_map=dict(
                                  arrival_s="TIMESTAMP",
                                  prompt_tokens="ContextTokens",
                                  output_tokens="GeneratedTokens",
                                  tenant="Deployment"))
        rows = list(stream)
        assert [r.prefill_len for r in rows] == [32, 16, 64]
        assert [r.tenant for r in rows] == \
            ["gpt-chat", "gpt-chat", "gpt-batch"]

    def test_streamed_file_serves_identically_to_materialized(self, tmp_path):
        path = _write(tmp_path, self.SORTED * 1)
        stream = replay_trace(path, streaming=True)
        materialized = replay_trace(path)
        metrics_stream, records_stream = run_policy(stream, "fifo")
        metrics_mat, records_mat = run_policy(materialized, "fifo")
        assert records_stream == records_mat
        assert metrics_stream.summary() == metrics_mat.summary()
