"""Request traces: synthetic generators and real-trace replay.

The paper evaluates isolated requests; serving deployments see streams of
requests with varying prompt/generation lengths.  The synthetic generators
here (steady Poisson, bursty, multi-tenant) draw lengths from
log-normal-ish distributions clamped to the model's context window, with a
fixed seed for reproducibility; :func:`replay_trace` loads recorded
production traces (Azure-LLM-style CSV) into the same request format so the
serving engine replays real arrival processes too.

Two trace containers exist.  :class:`RequestTrace` materializes every
request in a list — right for the goldens and anything that inspects the
trace more than once.  :class:`StreamingTrace` holds a *recipe* (a factory
returning a fresh iterator of arrival-sorted requests) so million-request
traces flow through the engine without ever living in memory at once;
:func:`synthetic_azure_trace` and ``replay_trace(..., streaming=True)``
produce them.
"""

from __future__ import annotations

import csv
import gzip
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, List, Mapping, Optional, Sequence, \
    Tuple, Union

import numpy as np

from repro.workloads.scenarios import Scenario
from repro.units import RequestsPerSecond, Seconds, Tokens


@dataclass(frozen=True, slots=True)
class Request:
    """One request in a trace.

    ``tenant`` and ``priority`` only matter to scheduler policies that look at
    them (multi-tenant traces, the priority scheduler); the default values make
    every request indistinguishable, so single-tenant traces are unaffected.
    Higher ``priority`` values are more urgent.

    ``prompt_token_ids`` is the prompt's content identity for prefix
    sharing: a tuple of ``prefill_len`` synthetic token ids (two prompts
    share a prefix exactly when their id tuples do).  ``None`` — the
    default, and what every generator without conversation structure
    emits — means the prompt has no shareable identity, so the paged
    prefix cache never matches it and all historical behaviour is
    preserved bit for bit.
    """

    request_id: int
    arrival_s: Seconds
    scenario: Scenario
    tenant: str = "default"
    priority: int = 0
    prompt_token_ids: Optional[Tuple[int, ...]] = None

    @property
    def prefill_len(self) -> Tokens:
        return self.scenario.prefill_len

    @property
    def decode_len(self) -> Tokens:
        return self.scenario.decode_len

    @property
    def total_tokens(self) -> Tokens:
        return self.scenario.total_tokens


@dataclass
class RequestTrace:
    """An ordered list of requests with arrival times."""

    requests: List[Request] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    @property
    def total_prefill_tokens(self) -> Tokens:
        return sum(r.prefill_len for r in self.requests)

    @property
    def total_decode_tokens(self) -> Tokens:
        return sum(r.decode_len for r in self.requests)

    @property
    def first_arrival_s(self) -> Seconds:
        if not self.requests:
            return 0.0
        return min(r.arrival_s for r in self.requests)

    @property
    def last_arrival_s(self) -> Seconds:
        if not self.requests:
            return 0.0
        return max(r.arrival_s for r in self.requests)

    @property
    def duration_s(self) -> Seconds:
        """Span between the first and last arrival (0 for empty or
        single-request traces)."""
        if not self.requests:
            return 0.0
        return self.last_arrival_s - self.first_arrival_s

    @property
    def tenants(self) -> List[str]:
        """Distinct tenants appearing in the trace, in first-seen order."""
        seen: List[str] = []
        for request in self.requests:
            if request.tenant not in seen:
                seen.append(request.tenant)
        return seen

    def scenarios(self) -> List[Scenario]:
        return [r.scenario for r in self.requests]


@dataclass
class StreamingTrace:
    """A lazily generated, arrival-sorted request stream.

    Holds a *factory* rather than a list: every ``iter()`` call builds a
    fresh iterator, so the trace is re-playable (the engine, a validation
    pass and a comparison run all see the same requests) while only a
    bounded window of requests is ever alive.  ``length`` is the known
    request count when the recipe implies one (synthetic generators);
    file-backed streams of unknown length leave it ``None`` and ``len()``
    raises.

    Iteration order is the contract: requests must come out sorted by
    ``(arrival_s, request_id)`` with ids assigned in arrival order, exactly
    like a finalized :class:`RequestTrace` — the engine trusts this and
    skips its re-sort.
    """

    factory: Callable[[], Iterator[Request]]
    length: Optional[int] = None

    def __iter__(self) -> Iterator[Request]:
        return iter(self.factory())

    def __len__(self) -> int:
        if self.length is None:
            raise TypeError("this StreamingTrace has no known length")
        return self.length


def _is_sorted_by_arrival(requests: Sequence[Request]) -> bool:
    """True when arrivals are already non-decreasing (the common case for
    generated and exported traces), so finalization can skip the sort."""
    return all(requests[i].arrival_s <= requests[i + 1].arrival_s
               for i in range(len(requests) - 1))


def _finalize(requests: List[Request]) -> RequestTrace:
    """Sort by arrival time and reassign ids in arrival order (so FIFO
    order equals id order) — the last step of every merged/loaded trace.
    Already-sorted inputs (single-stream generators, exported production
    dumps) skip the sort."""
    ordered = (requests if _is_sorted_by_arrival(requests)
               else sorted(requests, key=lambda r: r.arrival_s))
    return RequestTrace(requests=[
        Request(request_id=i, arrival_s=r.arrival_s, scenario=r.scenario,
                tenant=r.tenant, priority=r.priority,
                prompt_token_ids=r.prompt_token_ids)
        for i, r in enumerate(ordered)])


def synthetic_trace(num_requests: int, seed: int = 0,
                    mean_prefill: int = 64, mean_decode: int = 256,
                    max_seq_len: Tokens = 1024,
                    arrival_rate_per_s: RequestsPerSecond = 1.0) -> RequestTrace:
    """Generate a reproducible synthetic request trace.

    Prompt and generation lengths are drawn from log-normal distributions
    with the requested means, then clamped so every request fits the model's
    context window; arrivals follow a Poisson process.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if mean_prefill <= 0 or mean_decode <= 0:
        raise ValueError("means must be positive")
    if max_seq_len <= 2:
        raise ValueError("max_seq_len too small")
    if arrival_rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    rng = np.random.default_rng(seed)
    requests: List[Request] = []
    arrival = 0.0
    for request_id in range(num_requests):
        # draw the shape before the arrival gap: this is the historical RNG
        # consumption order, so seeded traces stay bit-identical
        scenario = _draw_scenario(rng, mean_prefill, mean_decode, max_seq_len)
        arrival += float(rng.exponential(1.0 / arrival_rate_per_s))
        requests.append(Request(request_id=request_id, arrival_s=arrival,
                                scenario=scenario))
    return RequestTrace(requests=requests)


def _draw_scenario(rng: np.random.Generator, mean_prefill: int, mean_decode: int,
                   max_seq_len: int) -> Scenario:
    """Draw one request shape from the clamped log-normal length model."""
    prefill = int(np.clip(rng.lognormal(np.log(mean_prefill), 0.5), 1,
                          max_seq_len // 2))
    decode_cap = max_seq_len - prefill - 1
    decode = int(np.clip(rng.lognormal(np.log(mean_decode), 0.5), 1, decode_cap))
    return Scenario(prefill, decode)


def bursty_trace(num_requests: int, seed: int = 0,
                 mean_prefill: int = 64, mean_decode: int = 256,
                 max_seq_len: Tokens = 1024,
                 burst_size: int = 8,
                 burst_rate_per_s: RequestsPerSecond = 20.0,
                 idle_gap_s: Seconds = 4.0) -> RequestTrace:
    """Bursty arrivals: tight clusters of requests separated by idle gaps.

    Within a burst, inter-arrival times are exponential at
    ``burst_rate_per_s`` (much faster than an instance can drain), then the
    trace goes quiet for an exponential gap with mean ``idle_gap_s``.  This is
    the arrival pattern where continuous batching shines: an exclusive
    instance serializes the burst while a batching engine absorbs it.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if burst_size <= 0:
        raise ValueError("burst_size must be positive")
    if burst_rate_per_s <= 0:
        raise ValueError("burst_rate_per_s must be positive")
    if idle_gap_s < 0:
        raise ValueError("idle_gap_s must be non-negative")
    rng = np.random.default_rng(seed)
    requests: List[Request] = []
    arrival = 0.0
    while len(requests) < num_requests:
        burst = min(burst_size, num_requests - len(requests))
        for _ in range(burst):
            arrival += float(rng.exponential(1.0 / burst_rate_per_s))
            requests.append(Request(
                request_id=len(requests), arrival_s=arrival,
                scenario=_draw_scenario(rng, mean_prefill, mean_decode,
                                        max_seq_len)))
        arrival += float(rng.exponential(idle_gap_s))
    return RequestTrace(requests=requests)


def synthetic_azure_trace(num_requests: int = 1_000_000, seed: int = 0,
                          mean_prefill: int = 128, mean_decode: int = 64,
                          max_seq_len: Tokens = 1024,
                          mean_rate_per_s: RequestsPerSecond = 50.0,
                          diurnal_amplitude: float = 0.5,
                          day_length_s: Seconds = 86_400.0,
                          chunk_size: int = 65_536) -> StreamingTrace:
    """An Azure-LLM-inference-shaped synthetic trace at production scale.

    Mimics the published Azure LLM inference traces in the aggregate:
    prompt-heavy log-normal length mix (short generations dominate),
    Poisson arrivals whose rate swings sinusoidally over a simulated day
    (``mean_rate_per_s`` scaled by ``1 + diurnal_amplitude * sin``), and a
    single tenant.  Returns a :class:`StreamingTrace`: requests are drawn
    lazily in ``chunk_size`` batches of vectorized numpy sampling, so a
    ``num_requests=1_000_000`` trace streams through the engine without a
    million-element list ever existing.  Same seed, same trace — every
    iteration replays identical requests.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if mean_prefill <= 0 or mean_decode <= 0:
        raise ValueError("means must be positive")
    if max_seq_len <= 2:
        raise ValueError("max_seq_len too small")
    if mean_rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ValueError("diurnal_amplitude must be in [0, 1)")
    if day_length_s <= 0:
        raise ValueError("day_length_s must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")

    log_prefill = float(np.log(mean_prefill))
    log_decode = float(np.log(mean_decode))
    omega = 2.0 * np.pi / day_length_s

    def generate() -> Iterator[Request]:
        rng = np.random.default_rng(seed)
        # Scenario objects repeat heavily under the clamped length model;
        # interning them keeps per-request allocation to the Request itself.
        scenarios: dict = {}
        arrival = 0.0
        request_id = 0
        remaining = num_requests
        while remaining > 0:
            n = min(chunk_size, remaining)
            remaining -= n
            base_gaps = rng.exponential(1.0 / mean_rate_per_s, n)
            # modulate each gap by the instantaneous diurnal rate at the
            # (nominal) arrival instant; gaps stay positive so the stream
            # stays sorted
            nominal = arrival + np.cumsum(base_gaps)
            rate_scale = 1.0 + diurnal_amplitude * np.sin(omega * nominal)
            arrivals = arrival + np.cumsum(base_gaps / rate_scale)
            prefills = np.clip(
                rng.lognormal(log_prefill, 0.6, n), 1,
                max_seq_len // 2).astype(np.int64)
            decode_caps = max_seq_len - prefills - 1
            decodes = np.minimum(np.clip(
                rng.lognormal(log_decode, 0.6, n), 1, None).astype(np.int64),
                decode_caps)
            arrival = float(arrivals[-1])
            arrivals_list = arrivals.tolist()
            prefills_list = prefills.tolist()
            decodes_list = decodes.tolist()
            for i in range(n):
                key = (prefills_list[i], decodes_list[i])
                scenario = scenarios.get(key)
                if scenario is None:
                    scenario = scenarios[key] = Scenario(key[0], key[1])
                yield Request(request_id=request_id,
                              arrival_s=arrivals_list[i], scenario=scenario)
                request_id += 1

    return StreamingTrace(factory=generate, length=num_requests)


#: Column layout :func:`replay_trace` expects (the Azure LLM inference
#: trace shape: arrival offset, prompt tokens, output tokens, plus an
#: optional tenant column for multi-tenant replays).
REPLAY_COLUMNS = ("arrival_s", "prompt_tokens", "output_tokens", "tenant")


def replay_trace(path: Union[str, Path],
                 max_seq_len: Tokens = 1024,
                 column_map: Optional[Mapping[str, str]] = None,
                 streaming: bool = False
                 ) -> Union[RequestTrace, "StreamingTrace"]:
    """Load an Azure-LLM-style CSV trace into the request format.

    Each row is ``arrival_s,prompt_tokens,output_tokens[,tenant]`` —
    arrival offset in seconds from the trace start, prompt and generation
    lengths in tokens, and an optional tenant name.  A header row matching
    the column names is skipped, so exported production traces replay
    as-is.  Requests are sorted by arrival time and ids are assigned in
    arrival order (FIFO order equals id order, like the synthetic
    generators).

    A ``.gz`` path is decompressed on the fly, so raw production trace
    dumps replay without an unpack step.  ``column_map`` lets such dumps
    replay without a rewrite step either: it maps this loader's column
    names to the file's header names, e.g. ``{"arrival_s": "TIMESTAMP",
    "prompt_tokens": "ContextTokens", "output_tokens":
    "GeneratedTokens"}`` for an Azure LLM-inference dump.  With a
    ``column_map`` the first row *must* be a header containing every
    mapped name (``ValueError`` names any missing column); unmapped
    columns are ignored, and the ``tenant`` mapping is optional.  Values
    keep the same requirements as the positional form (the arrival column
    must already be numeric seconds from the trace start).

    Rows that do not parse raise ``ValueError`` naming the offending row
    (1-based, counting the header): replaying a multi-GiB production trace
    and silently dropping malformed rows would bias every percentile.
    ``max_seq_len`` bounds ``prompt + output`` against the model's context
    window, again naming the row that exceeds it.

    Parsing itself is a row-at-a-time generator — the whole CSV is never
    materialized as text.  The default return is still a fully built
    :class:`RequestTrace` (sorted, ids reassigned).  With
    ``streaming=True`` the function instead returns a
    :class:`StreamingTrace` that re-parses the file on every iteration and
    keeps only one row alive at a time; the file must then already be
    sorted by ``arrival_s`` (an out-of-order row raises ``ValueError``
    naming it), ids are assigned in file order, and errors — including an
    empty file — surface on iteration rather than at call time.
    """
    path = Path(path)
    if column_map is not None:
        missing = [name for name in REPLAY_COLUMNS[:3] if name not in column_map]
        if missing:
            raise ValueError(
                f"column_map must map {', '.join(REPLAY_COLUMNS[:3])}; "
                f"missing {', '.join(missing)}")
    if streaming:
        return StreamingTrace(
            factory=lambda: _stream_replay_rows(path, max_seq_len, column_map))
    rows = list(_parse_replay_rows(path, max_seq_len, column_map))
    if not rows:
        raise ValueError(f"{path}: trace file contains no requests")
    return _finalize(rows)


def _stream_replay_rows(path: Path, max_seq_len: int,
                        column_map: Optional[Mapping[str, str]]
                        ) -> Iterator[Request]:
    """Streaming replay: parsed rows with ids assigned in file order,
    enforcing that the file is already arrival-sorted."""
    last_arrival = float("-inf")
    request_id = -1
    for request_id, request in enumerate(
            _parse_replay_rows(path, max_seq_len, column_map)):
        if request.arrival_s < last_arrival:
            raise ValueError(
                f"{path}: streaming replay needs an arrival-sorted file, "
                f"but request {request_id} arrives at {request.arrival_s} "
                f"after one at {last_arrival}; load it with "
                "streaming=False to sort in memory")
        last_arrival = request.arrival_s
        yield Request(request_id=request_id, arrival_s=request.arrival_s,
                      scenario=request.scenario, tenant=request.tenant,
                      priority=request.priority,
                      prompt_token_ids=request.prompt_token_ids)
    if request_id < 0:
        raise ValueError(f"{path}: trace file contains no requests")


def _parse_replay_rows(path: Path, max_seq_len: int,
                       column_map: Optional[Mapping[str, str]]
                       ) -> Iterator[Request]:
    """Yield one :class:`Request` (id 0) per CSV row, never holding the
    whole file: the shared parsing core of both replay modes."""
    first_data_row = True
    indices: Optional[List[int]] = None
    tenant_index: Optional[int] = None
    last_mapped_index = 0
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            cells = [cell.strip() for cell in row]
            if first_data_row:
                first_data_row = False
                if column_map is not None:
                    # mapped mode: the first row is the header, resolved
                    # once into column indices
                    header = cells
                    absent = [column_map[name] for name in REPLAY_COLUMNS[:3]
                              if column_map[name] not in header]
                    if absent:
                        raise ValueError(
                            f"{path}: header row {line_no} has no column "
                            f"{', '.join(repr(a) for a in absent)} "
                            f"(header: {', '.join(header)})")
                    indices = [header.index(column_map[name])
                               for name in REPLAY_COLUMNS[:3]]
                    tenant_name = column_map.get("tenant")
                    if tenant_name is not None:
                        if tenant_name not in header:
                            raise ValueError(
                                f"{path}: header row {line_no} has no "
                                f"column {tenant_name!r} "
                                f"(header: {', '.join(header)})")
                        tenant_index = header.index(tenant_name)
                    last_mapped_index = max(
                        indices + ([tenant_index]
                                   if tenant_index is not None else []))
                    continue
                if cells[:3] == list(REPLAY_COLUMNS[:3]):
                    continue  # header row
            if indices is not None:
                if len(cells) <= last_mapped_index:
                    raise ValueError(
                        f"{path}: row {line_no}: expected at least "
                        f"{last_mapped_index + 1} columns to cover the "
                        f"mapped ones, got {len(cells)}")
                tenant_cell = (cells[tenant_index]
                               if tenant_index is not None else "")
                cells = [cells[i] for i in indices] + (
                    [tenant_cell] if tenant_cell else [])
            if len(cells) not in (3, 4):
                raise ValueError(
                    f"{path}: row {line_no}: expected "
                    "arrival_s,prompt_tokens,output_tokens[,tenant], got "
                    f"{len(cells)} columns")
            try:
                arrival = float(cells[0])
                prompt = int(cells[1])
                output = int(cells[2])
            except ValueError:
                raise ValueError(
                    f"{path}: row {line_no}: non-numeric field in "
                    f"{','.join(cells[:3])!r}") from None
            if not math.isfinite(arrival) or arrival < 0:
                raise ValueError(
                    f"{path}: row {line_no}: arrival_s must be a finite "
                    f"number >= 0, got {arrival}")
            if prompt <= 0:
                raise ValueError(
                    f"{path}: row {line_no}: prompt_tokens must be "
                    f"positive, got {prompt}")
            if output < 0:
                raise ValueError(
                    f"{path}: row {line_no}: output_tokens cannot be "
                    f"negative, got {output}")
            if prompt + output > max_seq_len:
                raise ValueError(
                    f"{path}: row {line_no}: prompt + output = "
                    f"{prompt + output} exceeds the {max_seq_len}-token "
                    "context window")
            tenant = cells[3] if len(cells) == 4 and cells[3] else "default"
            yield Request(request_id=0, arrival_s=arrival,
                          scenario=Scenario(prompt, output), tenant=tenant)


@dataclass(frozen=True)
class TenantSpec:
    """Traffic profile of one tenant in a multi-tenant trace."""

    name: str
    arrival_rate_per_s: RequestsPerSecond = 1.0
    mean_prefill: int = 64
    mean_decode: int = 256
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.arrival_rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        if self.mean_prefill <= 0 or self.mean_decode <= 0:
            raise ValueError("means must be positive")


#: Default tenant mix: a latency-sensitive interactive tenant, a bulk batch
#: tenant with long generations, and a background low-priority tenant.
DEFAULT_TENANTS: tuple = (
    TenantSpec("interactive", arrival_rate_per_s=1.5, mean_prefill=48,
               mean_decode=96, priority=2),
    TenantSpec("batch", arrival_rate_per_s=0.5, mean_prefill=128,
               mean_decode=384, priority=1),
    TenantSpec("background", arrival_rate_per_s=0.25, mean_prefill=64,
               mean_decode=256, priority=0),
)


@dataclass(frozen=True)
class BurstyTenantSpec:
    """Traffic profile of one tenant in a bursty multi-tenant trace: its
    own request shapes *and* its own burst structure (a chatbot tenant
    bursts in tight clusters of short prompts; a bulk tenant trickles in
    rare, long ones)."""

    name: str
    num_requests: int
    mean_prefill: int = 64
    mean_decode: int = 256
    burst_size: int = 8
    burst_rate_per_s: RequestsPerSecond = 20.0
    idle_gap_s: Seconds = 4.0
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")


#: Default bursty tenant mix: a chatty interactive tenant arriving in
#: tight bursts of short prompts, and a bulk tenant trickling in rare
#: long-prompt, long-generation requests.  The prompt-length distribution
#: is strongly bimodal — the regime where heterogeneous pools and
#: class-affinity routing earn their keep.
DEFAULT_BURSTY_TENANTS: tuple = (
    BurstyTenantSpec("interactive", num_requests=64, mean_prefill=32,
                     mean_decode=96, burst_size=16, burst_rate_per_s=20.0,
                     idle_gap_s=0.5),
    BurstyTenantSpec("batch", num_requests=4, mean_prefill=450,
                     mean_decode=256, burst_size=1, burst_rate_per_s=5.0,
                     idle_gap_s=3.0),
)


def bursty_multi_tenant_trace(
        tenants: Sequence[BurstyTenantSpec] = DEFAULT_BURSTY_TENANTS,
        seed: int = 0, max_seq_len: Tokens = 1024) -> RequestTrace:
    """Merge independent *bursty* streams of several tenants into one trace.

    Unlike :func:`multi_tenant_trace` (independent Poisson streams), every
    tenant here arrives in bursts with its own burst shape, so the merged
    trace exercises both burst absorption and mixed request sizes at once.
    Each tenant's stream is drawn with seed ``seed + its index``, the merge
    is sorted by arrival time and ids are assigned in arrival order (FIFO
    order equals id order).
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    merged: List[Request] = []
    for index, spec in enumerate(tenants):
        stream = bursty_trace(spec.num_requests, seed=seed + index,
                              mean_prefill=spec.mean_prefill,
                              mean_decode=spec.mean_decode,
                              max_seq_len=max_seq_len,
                              burst_size=spec.burst_size,
                              burst_rate_per_s=spec.burst_rate_per_s,
                              idle_gap_s=spec.idle_gap_s)
        merged.extend(Request(request_id=0, arrival_s=r.arrival_s,
                              scenario=r.scenario, tenant=spec.name,
                              priority=spec.priority)
                      for r in stream)
    return _finalize(merged)


def multi_turn_trace(num_requests: int, seed: int = 0,
                     turns_per_session: int = 4,
                     system_prompt_len: Tokens = 48,
                     mean_user_tokens: Tokens = 24,
                     mean_decode: int = 48,
                     think_time_s: Seconds = 4.0,
                     session_rate_per_s: RequestsPerSecond = 0.5,
                     max_seq_len: Tokens = 1024,
                     assumed_tpot_s: Seconds = 0.02) -> RequestTrace:
    """Multi-turn conversations: each turn re-arrives with the prior turns
    as its prompt prefix.

    Sessions open as a Poisson process at ``session_rate_per_s``.  Every
    session shares one system prompt (``system_prompt_len`` tokens with
    identical ids across *all* sessions, so even first turns share those
    blocks), then alternates user turns and assistant replies: turn ``t``'s
    prompt is the full transcript so far — system prompt, every earlier
    user turn and assistant reply — plus the new user message, and its
    decode is the next reply.  ``prompt_token_ids`` carries this structure
    (session-unique ids for the transcript, shared ids for the system
    prompt), which is what the paged prefix cache hashes and matches.

    Turn ``t+1`` arrives a *think-time gap* after turn ``t``: an
    exponential pause with mean ``think_time_s`` plus the time the reply
    itself plausibly took to stream (``decode × assumed_tpot_s``) — the
    trace is open-loop, so the service estimate stands in for the actual
    finish time.  A session ends after ``turns_per_session`` turns or when
    the next turn would no longer fit the context window, whichever is
    first.  The merged trace is sorted by arrival and ids are reassigned
    in arrival order, like every other generator here.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if turns_per_session <= 0:
        raise ValueError("turns_per_session must be positive")
    if system_prompt_len < 0:
        raise ValueError("system_prompt_len cannot be negative")
    if mean_user_tokens <= 0 or mean_decode <= 0:
        raise ValueError("means must be positive")
    if think_time_s < 0 or assumed_tpot_s < 0:
        raise ValueError("gaps cannot be negative")
    if session_rate_per_s <= 0:
        raise ValueError("session rate must be positive")
    if max_seq_len <= system_prompt_len + 2:
        raise ValueError("max_seq_len too small for the system prompt")
    rng = np.random.default_rng(seed)
    system_ids = tuple(range(system_prompt_len))
    requests: List[Request] = []
    session_start = 0.0
    session_index = 0
    while len(requests) < num_requests:
        session_start += float(rng.exponential(1.0 / session_rate_per_s))
        # session-unique token ids, disjoint from every other session's and
        # from the shared system prompt
        next_id = (session_index + 1) * 1_000_000
        transcript: List[int] = list(system_ids)
        arrival = session_start
        for _ in range(turns_per_session):
            user_len = int(np.clip(
                rng.lognormal(np.log(mean_user_tokens), 0.5), 1,
                max_seq_len // 4))
            decode_len = int(np.clip(
                rng.lognormal(np.log(mean_decode), 0.5), 1,
                max_seq_len // 4))
            if len(transcript) + user_len + decode_len + 1 > max_seq_len:
                break  # context window exhausted: the session ends early
            user_ids = range(next_id, next_id + user_len)
            next_id += user_len
            prompt_ids = tuple(transcript) + tuple(user_ids)
            requests.append(Request(
                request_id=0, arrival_s=arrival,
                scenario=Scenario(len(prompt_ids), decode_len),
                tenant=f"session{session_index}",
                prompt_token_ids=prompt_ids))
            if len(requests) >= num_requests:
                break
            # the next turn's prompt extends the transcript with this
            # user message and the assistant's reply tokens
            transcript.extend(user_ids)
            transcript.extend(range(next_id, next_id + decode_len))
            next_id += decode_len
            arrival += (decode_len * assumed_tpot_s
                        + float(rng.exponential(think_time_s)))
        session_index += 1
    return _finalize(requests)


def multi_tenant_trace(num_requests: int, seed: int = 0,
                       tenants: Sequence[TenantSpec] = DEFAULT_TENANTS,
                       max_seq_len: Tokens = 1024) -> RequestTrace:
    """Merge independent Poisson streams of several tenants into one trace.

    Each tenant has its own arrival rate, request-shape distribution and
    priority; the merged trace is sorted by arrival time and request ids are
    assigned in arrival order (so FIFO order equals id order).
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if not tenants:
        raise ValueError("need at least one tenant")
    rng = np.random.default_rng(seed)
    total_rate = sum(t.arrival_rate_per_s for t in tenants)
    # expected per-tenant share of the request budget
    per_tenant = [max(1, round(num_requests * t.arrival_rate_per_s / total_rate))
                  for t in tenants]
    # settle rounding drift on the largest stream so the trace has exactly
    # the requested number of requests
    while sum(per_tenant) > num_requests:
        per_tenant[per_tenant.index(max(per_tenant))] -= 1
    while sum(per_tenant) < num_requests:
        per_tenant[per_tenant.index(max(per_tenant))] += 1
    merged: List[Request] = []
    for spec, count in zip(tenants, per_tenant):
        arrival = 0.0
        for _ in range(count):
            arrival += float(rng.exponential(1.0 / spec.arrival_rate_per_s))
            merged.append(Request(
                request_id=0, arrival_s=arrival,
                scenario=_draw_scenario(rng, spec.mean_prefill,
                                        spec.mean_decode, max_seq_len),
                tenant=spec.name, priority=spec.priority))
    return _finalize(merged)
