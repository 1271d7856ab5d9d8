"""Parallel configuration sweeps over the serving simulator.

Every multi-config surface in the repo — the ``--compare-*`` CLI paths,
the benchmark grids, the capacity-planning studies — boils down to the
same shape: *run the same trace through N engine configurations and
compare the metrics*.  The configurations are independent, so the
sweep is embarrassingly parallel; this module is the one place that
knows how to fan it out safely.

The pieces:

* :func:`expand_sweep` turns a declarative spec — a trace, a base
  config, and either a cartesian ``grid`` of axes or an explicit
  ``configs`` list — into a deterministic list of :class:`SweepJob`\\ s.
* :func:`run_jobs` executes jobs serially (``workers<=1``) or over a
  ``ProcessPoolExecutor``.  Both paths run the *identical* job function
  in deterministic job order, so parallel results are bit-identical to
  serial — pinned by test.
* Each worker ships back a :class:`JobResult` holding the picklable
  ``metrics.summary()`` dict (and optionally the full
  :class:`~repro.serving.metrics.ServingMetrics`); a config that raises
  mid-run comes back as a structured :class:`JobFailure` entry instead
  of killing its siblings.

Determinism contract: all randomness lives in trace construction, and
every job carries its trace seed explicitly (:attr:`SweepJob.seed`), so
a worker process never depends on inherited RNG state — the property
lint rule R007 exists to keep it that way.
"""

from __future__ import annotations

import json
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.serving.metrics import ServingMetrics
from repro.workloads.traces import RequestTrace
from repro.units import Seconds

#: Named trace generators a :class:`TraceSpec` can reference.  Specs
#: carry (name, kwargs) instead of a materialized trace so each worker
#: rebuilds its trace locally — cheaper than pickling 100k requests
#: across the process boundary, and the seed travels in the open.
TRACE_GENERATORS = {
    "synthetic": "synthetic_trace",
    "bursty": "bursty_trace",
    "azure": "synthetic_azure_trace",
    "multi_turn": "multi_turn_trace",
    "multi_tenant": "multi_tenant_trace",
    "bursty_multi_tenant": "bursty_multi_tenant_trace",
}


@dataclass(frozen=True)
class TraceSpec:
    """A trace by recipe: generator name plus keyword arguments."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in TRACE_GENERATORS:
            raise ValueError(
                f"unknown trace generator {self.name!r}; known: "
                f"{', '.join(sorted(TRACE_GENERATORS))}")

    @property
    def seed(self) -> int:
        return int(self.params.get("seed", 0))

    def with_seed(self, seed: int) -> "TraceSpec":
        params = dict(self.params)
        params["seed"] = seed
        return TraceSpec(self.name, params)

    def build(self) -> RequestTrace:
        from repro.workloads import traces as trace_module
        generator = getattr(trace_module, TRACE_GENERATORS[self.name])
        trace = generator(**dict(self.params))
        if not isinstance(trace, RequestTrace):
            trace = RequestTrace(requests=list(trace))
        return trace


@dataclass(frozen=True)
class SweepJob:
    """One expanded configuration: a trace recipe plus run_policy kwargs.

    ``seed`` is the explicit per-job seed handoff (the trace seed for
    recipe jobs, 0 for jobs over a pre-built trace, whose arrivals are
    data, not randomness) — workers must not rely on inherited RNG
    state.
    """

    index: int
    label: str
    trace: Union[TraceSpec, RequestTrace]
    params: Mapping[str, Any]
    seed: int = 0


@dataclass(frozen=True)
class JobFailure:
    """Structured record of a config that raised mid-run."""

    error_type: str
    message: str
    traceback: str


@dataclass(frozen=True)
class JobResult:
    """Outcome of one sweep job, shipped back picklable from a worker."""

    index: int
    label: str
    params: Mapping[str, Any]
    seed: int
    summary: Optional[Dict[str, float]] = None
    metrics: Optional[ServingMetrics] = None
    failure: Optional[JobFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def summary_key(self) -> str:
        """Canonical byte string of the summary (bit-identity compares)."""
        return json.dumps(self.summary, sort_keys=True)


@dataclass(frozen=True)
class SweepOutcome:
    """All job results (input order) plus sweep-level accounting."""

    results: List[JobResult]
    workers: int
    wall_s: Seconds

    @property
    def failures(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    def raise_failures(self) -> None:
        """Re-raise the first failure (comparison helpers want the old
        fail-fast behavior, not a partial table)."""
        for result in self.results:
            if result.failure is not None:
                raise RuntimeError(
                    f"sweep config {result.label!r} failed with "
                    f"{result.failure.error_type}: "
                    f"{result.failure.message}\n{result.failure.traceback}")


def _coerce_trace(trace: Any) -> Union[TraceSpec, RequestTrace]:
    if isinstance(trace, (TraceSpec, RequestTrace)):
        return trace
    if isinstance(trace, Mapping):
        if "name" not in trace:
            raise ValueError(
                "sweep trace mapping needs a 'name' key naming the "
                f"generator (one of: {', '.join(sorted(TRACE_GENERATORS))})")
        params = {k: v for k, v in trace.items() if k != "name"}
        return TraceSpec(str(trace["name"]), params)
    raise TypeError(
        "sweep trace must be a TraceSpec, a RequestTrace, or a mapping "
        "with a 'name' key")


def expand_sweep(spec: Mapping[str, Any]) -> List[SweepJob]:
    """Expand a declarative sweep spec into a deterministic job list.

    Spec keys:

    * ``trace`` (required): a :class:`TraceSpec`, a mapping like
      ``{"name": "azure", "num_requests": 100_000, "seed": 0}``, or a
      pre-built :class:`~repro.workloads.traces.RequestTrace`.
    * ``base`` (optional): keyword arguments applied to every config
      (anything :func:`repro.analysis.serving.run_policy` accepts).
    * ``grid`` (exclusive with ``configs``): mapping of axis name to a
      list of values; the cartesian product is taken in definition
      order, last axis fastest.  The special axis ``trace_seed`` sweeps
      the trace generator's seed instead of an engine knob.
    * ``configs`` (exclusive with ``grid``): explicit list of config
      mappings, each optionally carrying a ``label``.

    Unknown top-level keys raise; so does an empty expansion.
    """
    known = {"trace", "base", "grid", "configs"}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ValueError(f"unknown sweep spec keys: {', '.join(unknown)}")
    if "trace" not in spec:
        raise ValueError("sweep spec needs a 'trace'")
    trace = _coerce_trace(spec["trace"])
    base: Dict[str, Any] = dict(spec.get("base", {}))
    grid = spec.get("grid")
    configs = spec.get("configs")
    if (grid is None) == (configs is None):
        raise ValueError("sweep spec needs exactly one of 'grid' or "
                         "'configs'")

    expanded: List[Tuple[str, Dict[str, Any]]] = []
    if grid is not None:
        if not isinstance(grid, Mapping) or not grid:
            raise ValueError("'grid' must be a non-empty mapping of "
                             "axis name to a list of values")
        axes: List[Tuple[str, List[Any]]] = []
        for name, values in grid.items():
            values = list(values)
            if not values:
                raise ValueError(f"grid axis {name!r} has no values")
            axes.append((str(name), values))
        combos: List[Dict[str, Any]] = [{}]
        for name, values in axes:
            combos = [dict(combo, **{name: value})
                      for combo in combos for value in values]
        for combo in combos:
            label = ",".join(f"{k}={combo[k]}" for k, _ in axes)
            expanded.append((label, combo))
    else:
        if not isinstance(configs, Sequence) or not configs:
            raise ValueError("'configs' must be a non-empty list of "
                             "config mappings")
        for i, config in enumerate(configs):
            config = dict(config)
            label = str(config.pop("label", f"config[{i}]"))
            expanded.append((label, config))

    jobs: List[SweepJob] = []
    for index, (label, overrides) in enumerate(expanded):
        params = dict(base)
        params.update(overrides)
        job_trace = trace
        trace_seed = params.pop("trace_seed", None)
        if trace_seed is not None:
            if not isinstance(job_trace, TraceSpec):
                raise ValueError(
                    "the 'trace_seed' axis needs a trace recipe (a "
                    "TraceSpec / mapping), not a pre-built trace")
            job_trace = job_trace.with_seed(int(trace_seed))
        seed = job_trace.seed if isinstance(job_trace, TraceSpec) else 0
        jobs.append(SweepJob(index=index, label=label, trace=job_trace,
                             params=params, seed=seed))
    return jobs


def _execute_job(packed: Tuple[SweepJob, bool]) -> JobResult:
    """Run one job; never raises — failures come back structured.

    Runs identically in-process (serial path) and in a pool worker: the
    bit-identical-to-serial guarantee is this function being the single
    execution path.
    """
    job, keep_metrics = packed
    try:
        from repro.analysis.serving import run_policy
        trace = (job.trace.build() if isinstance(job.trace, TraceSpec)
                 else job.trace)
        metrics, _records = run_policy(trace, **dict(job.params))
        return JobResult(
            index=job.index, label=job.label, params=job.params,
            seed=job.seed, summary=metrics.summary(),
            metrics=metrics if keep_metrics else None)
    except Exception as exc:
        return JobResult(
            index=job.index, label=job.label, params=job.params,
            seed=job.seed,
            failure=JobFailure(error_type=type(exc).__name__,
                               message=str(exc),
                               traceback=traceback.format_exc()))


def run_jobs(jobs: Iterable[SweepJob], workers: int = 1,
             keep_metrics: bool = False) -> SweepOutcome:
    """Execute jobs, serially or over a process pool.

    ``workers <= 1`` runs in-process; anything larger fans out over a
    ``ProcessPoolExecutor`` (capped at the job count).  Results come
    back in job order either way, and per-config outputs are
    bit-identical between the two paths.  A failing config yields a
    structured failure entry; sibling jobs always complete.
    """
    job_list = list(jobs)
    if not job_list:
        raise ValueError("no jobs to run")
    packed = [(job, keep_metrics) for job in job_list]
    start = time.perf_counter()  # repro-lint: disable=R002 — host wall time of the sweep itself, never a simulated timestamp
    if workers <= 1 or len(job_list) == 1:
        results = [_execute_job(item) for item in packed]
        effective = 1
    else:
        effective = min(workers, len(job_list))
        # every job carries its seed explicitly (SweepJob.seed), so no
        # per-worker initializer seeding is needed
        with ProcessPoolExecutor(max_workers=effective) as pool:  # repro-lint: disable=R007
            results = list(pool.map(_execute_job, packed))
    wall_s = time.perf_counter() - start  # repro-lint: disable=R002 — host wall time of the sweep itself, never a simulated timestamp
    return SweepOutcome(results=results, workers=effective, wall_s=wall_s)


def run_sweep(spec: Mapping[str, Any], workers: int = 1,
              keep_metrics: bool = False) -> SweepOutcome:
    """Expand ``spec`` (see :func:`expand_sweep`) and run it."""
    return run_jobs(expand_sweep(spec), workers=workers,
                    keep_metrics=keep_metrics)
