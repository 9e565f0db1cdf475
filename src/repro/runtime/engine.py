"""Parallel, fault-tolerant execution engine for simulation campaigns.

The paper's evaluation is a large design-space sweep (36 workload
mixes x 3 schedulers x topologies/frequencies/sampling rates); every
run is independent, so the sweep parallelizes perfectly across CPU
cores.  :class:`ExecutionEngine` fans :class:`~repro.sim.campaign.RunSpec`
jobs out over a :class:`~concurrent.futures.ProcessPoolExecutor`,
retries transient worker failures with capped backoff, and narrates
progress through the structured event stream in
:mod:`repro.runtime.events`.  :func:`run_specs` is the campaign entry
point: it picks this engine, the batched engine or a shard fleet.

Guarantees:

* **Determinism** -- results are returned in submission order and are
  identical to serial execution (every run is seeded; workers ship
  results back through the same JSON codec used by the disk cache).
* **Fault tolerance** -- a job failure is retried per
  :class:`~repro.runtime.retry.RetryPolicy`; a permanent failure is
  surfaced as a :class:`~repro.runtime.events.JobFailed` event and
  handled per :class:`~repro.runtime.retry.FailurePolicy`, never as an
  unhandled traceback from a worker.  A broken worker pool degrades to
  in-process serial execution of the unfinished jobs, as does an
  environment where process spawning is unavailable.
* **Cache safety** -- cache entries are written atomically (temp file
  + ``os.replace``) so concurrent engines sharing a campaign
  directory never observe partial files; corrupt entries are treated
  as misses.
* **Durability** -- with a :class:`~repro.runtime.store.ResultStore`
  (``store=``), completed results persist across crashes; the event
  log records the campaign plan and periodic checkpoints, and
  ``run_many(resume_from=...)`` (or ``repro resume``) finishes an
  interrupted campaign without re-running completed jobs.
"""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
from concurrent import futures
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.ace.counters import AceCounterMode
from repro.config.machines import STANDARD_MACHINES, MachineConfig
from repro.obs import context as obs_context
from repro.obs import flight as obs_flight
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.runtime.events import (
    CampaignCheckpoint,
    CampaignFinished,
    CampaignPlan,
    CampaignStarted,
    CheckFailed,
    Event,
    EventSink,
    JobCached,
    JobFailed,
    JobFinished,
    JobReconciled,
    JobStarted,
    MetricsSnapshot,
    PostmortemWritten,
    SpanSnapshot,
    stamp_trace,
)
from repro.runtime.resume import ResumeState
from repro.runtime.retry import CampaignError, FailurePolicy, RetryPolicy
from repro.runtime.store import ResultStore
from repro.sim.campaign import RunSpec
from repro.sim.experiment import run_workload
from repro.sim.results import RunResult
from repro.sim.serialize import (
    ResultCacheError,
    load_run,
    run_result_from_dict,
    run_result_to_dict,
    save_run,
)


def default_jobs() -> int:
    """Worker-process count from ``REPRO_JOBS`` (default 1 = serial)."""
    value = os.environ.get("REPRO_JOBS", "").strip()
    try:
        return max(1, int(value)) if value else 1
    except ValueError:
        warnings.warn(f"ignoring invalid REPRO_JOBS={value!r}")
        return 1


class InjectedFault(RuntimeError):
    """Failure raised by the engine's fault-injection hook."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection, for tests and chaos drills.

    The plan travels to the workers with each job (it must stay
    picklable), keyed by job index:

    Attributes:
        fail_attempts: job index -> number of leading attempts that
            raise :class:`InjectedFault` (a value >= the retry
            policy's ``max_attempts`` makes the job fail permanently).
        sleep_seconds: job index -> delay injected before every
            attempt (exercises timeouts and completion reordering).
    """

    fail_attempts: dict[int, int] = field(default_factory=dict)
    sleep_seconds: dict[int, float] = field(default_factory=dict)

    def apply(self, index: int, attempt: int) -> None:
        delay = self.sleep_seconds.get(index, 0.0)
        if delay > 0:
            time.sleep(delay)
        if attempt <= self.fail_attempts.get(index, 0):
            raise InjectedFault(
                f"injected fault (job {index}, attempt {attempt})"
            )


@dataclass(frozen=True)
class Job:
    """Picklable payload shipped to a worker process."""

    index: int
    spec: RunSpec
    label: str
    machine: MachineConfig | None = None
    cache_path: str | None = None


def _execute_job(
    job: Job,
    retry: RetryPolicy,
    fault_plan: FaultPlan | None,
    collect_metrics: bool = False,
    collect_spans: bool = False,
) -> tuple[int, dict, int, float, dict | None, dict | None]:
    """Worker entry point: run one spec with retry, return plain data.

    Returns ``(index, result_dict, attempts, wall_seconds, metrics,
    spans)``; the result travels as the JSON-codec dict so the payload
    is trivially picklable and byte-identical to what the disk cache
    stores.  With ``collect_metrics``, the run executes under a fresh
    :class:`repro.obs.metrics.MetricsRegistry` (one per attempt, so a
    retried job reports only its successful attempt) and ``metrics``
    is its snapshot dict; with ``collect_spans``, likewise under a
    fresh :class:`repro.obs.tracing.SpanTracer` whose tree dict comes
    back as ``spans``; otherwise ``None``.
    """
    started = time.perf_counter()
    # Configuration errors (e.g. an unknown machine tag) are not
    # transient: build the machine once, outside the retry loop.
    machine = job.machine if job.machine is not None else job.spec.build_machine()
    attempt = 0
    metrics_data: dict | None = None
    spans_data: dict | None = None
    while True:
        attempt += 1
        try:
            if fault_plan is not None:
                fault_plan.apply(job.index, attempt)
            if collect_metrics or collect_spans:
                with ExitStack() as stack:
                    registry = (
                        stack.enter_context(obs_metrics.collecting())
                        if collect_metrics
                        else None
                    )
                    tracer = (
                        stack.enter_context(obs_tracing.collecting())
                        if collect_spans
                        else None
                    )
                    if registry is not None:
                        with registry.timer("runtime.job_seconds"):
                            result = _run_spec(machine, job.spec)
                    else:
                        result = _run_spec(machine, job.spec)
                if registry is not None:
                    metrics_data = registry.snapshot().to_dict()
                if tracer is not None:
                    spans_data = tracer.to_dict()
            else:
                result = _run_spec(machine, job.spec)
            break
        except Exception:
            if attempt >= retry.max_attempts:
                raise
            time.sleep(retry.delay(attempt))
    if job.cache_path is not None:
        save_run(result, job.cache_path)
    wall = time.perf_counter() - started
    return (
        job.index,
        run_result_to_dict(result),
        attempt,
        wall,
        metrics_data,
        spans_data,
    )


def _run_spec(machine: MachineConfig, spec: RunSpec) -> RunResult:
    return run_workload(
        machine,
        spec.benchmarks,
        spec.scheduler,
        instructions=spec.instructions,
        seed=spec.seed,
        counter_mode=AceCounterMode(spec.counter_mode),
    )


@dataclass
class JobOutcome:
    """Terminal state of one job."""

    index: int
    spec: RunSpec
    label: str
    result: RunResult | None = None
    error: str | None = None
    attempts: int = 0
    wall_seconds: float = 0.0
    cached: bool = False
    #: repro.obs metrics snapshot dict shipped back from the worker
    #: (engine ``metrics=True`` only; always ``None`` for cached jobs).
    metrics: dict | None = None
    #: repro.obs span tree dict shipped back from the worker (engine
    #: ``spans=True`` only; always ``None`` for cached jobs).
    spans: dict | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    def to_dict(self) -> dict:
        """JSON-serializable form (the shard protocol's wire format)."""
        return {
            "index": self.index,
            "spec": dataclasses.asdict(self.spec),
            "label": self.label,
            "result": (
                run_result_to_dict(self.result)
                if self.result is not None
                else None
            ),
            "error": self.error,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
            "cached": self.cached,
            "metrics": self.metrics,
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobOutcome":
        """Inverse of :meth:`to_dict`."""
        result = data.get("result")
        return cls(
            index=int(data["index"]),
            spec=RunSpec.from_dict(data["spec"]),
            label=data["label"],
            result=(
                run_result_from_dict(result) if result is not None else None
            ),
            error=data.get("error"),
            attempts=int(data.get("attempts", 0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            cached=bool(data.get("cached", False)),
            metrics=data.get("metrics"),
            spans=data.get("spans"),
        )


@dataclass
class ExecutionReport:
    """Everything the engine knows after a batch completes."""

    outcomes: list[JobOutcome]
    wall_seconds: float = 0.0
    #: Campaign-wide merged metrics (engine ``metrics=True`` only).
    metrics: "obs_metrics.RegistrySnapshot | None" = None
    #: Campaign-wide merged span forest (engine ``spans=True`` only).
    spans: "obs_tracing.SpanNode | None" = None

    @property
    def results(self) -> list[RunResult | None]:
        """Results in submission order (``None`` for failed jobs)."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def failures(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.error is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self) -> "ExecutionReport":
        if self.failures:
            raise CampaignError(self)
        return self


class ExecutionEngine:
    """Fan :class:`RunSpec` jobs out across worker processes.

    Args:
        jobs: worker-process count; ``1`` runs everything in-process
            (no pool), which is also the graceful-degradation path
            when process spawning is unavailable.
        retry: per-job :class:`RetryPolicy` (applied inside workers).
        failure_policy: what a permanent job failure means for the
            batch (abort vs. collect partial results).
        timeout_seconds: per-job wall-clock budget, measured from the
            moment the job *starts executing* on a worker -- queue
            wait while earlier jobs hold the workers does not count,
            so with ``jobs < len(specs)`` a job can never time out
            without having run.  Enforced in parallel mode (an
            in-process job cannot be preempted).  A timed-out job is
            recorded as failed with ``attempts=0`` (the attempt in
            flight was killed mid-run; with retries configured the
            true attempt number is unknowable from the parent).
            Because a running process-pool job cannot actually be
            cancelled, its worker keeps running; the late completion
            is reconciled explicitly (see :class:`JobReconciled` and
            ``orphan_grace_seconds``).
        orphan_grace_seconds: how long to keep waiting for timed-out
            jobs' workers after every other job finished, to
            reconcile their late results (``None`` = don't wait;
            still-running orphans are reported as abandoned).
        checkpoint_every: emit a :class:`CampaignCheckpoint` event
            after this many terminal job events (plus a final one),
            so a killed campaign's log can be resumed cheaply.
        sinks: event sinks receiving the progress stream.
        fault_plan: optional deterministic fault injection hook.
        checks: opt-in per-job result checker -- a callable mapping a
            :class:`RunResult` to a
            :class:`~repro.check.invariants.CheckReport` (use
            :func:`repro.check.default_run_checks` for the standard
            invariant set).  A result violating an error-severity
            invariant emits a :class:`CheckFailed` event and the job
            is treated as failed (so ``FAIL_FAST`` aborts on it and
            ``COLLECT`` keeps sibling jobs running).  Checks run in
            the parent process, on cached and executed results alike.
        metrics: collect a :mod:`repro.obs.metrics` registry inside
            every executed job (worker or in-process), emit each
            snapshot as a :class:`MetricsSnapshot` event, and merge
            them into ``ExecutionReport.metrics``.  Snapshots merge
            commutatively, so serial and parallel campaigns produce
            identical totals.  Cached jobs execute nothing and
            contribute no metrics.
        spans: collect a :mod:`repro.obs.tracing` span tree inside
            every executed job, emit each tree as a
            :class:`SpanSnapshot` event (how shard workers ship span
            trees home), and merge them into ``ExecutionReport.spans``
            via :func:`repro.obs.tracing.merge_trees`.
        flight: arm a :class:`repro.obs.flight.FlightRecorder` for the
            campaign when a result store is present.  The recorder
            rings the last ``flight_capacity`` emitted events; when a
            job fails, times out, or is abandoned as an orphan, a
            postmortem bundle is dumped under
            ``<store>/postmortems/<key>.json`` and a
            :class:`PostmortemWritten` event marks it.  ``False``
            disables the recorder entirely.
        flight_capacity: ring size of the armed flight recorder.

    The engine also mints (or inherits) a
    :class:`repro.obs.context.TraceContext` per campaign -- the
    campaign id is a stable digest of the planned run keys -- and
    stamps it, plus the per-job run key, onto every emitted event.
    """

    #: Factory for the worker pool; replaceable in tests to simulate
    #: environments without process support.
    _executor_factory = staticmethod(futures.ProcessPoolExecutor)

    #: Poll interval for the harvest loop when timeouts are armed.
    _POLL_SECONDS = 0.05

    def __init__(
        self,
        jobs: int = 1,
        *,
        retry: RetryPolicy | None = None,
        failure_policy: FailurePolicy = FailurePolicy.FAIL_FAST,
        timeout_seconds: float | None = None,
        orphan_grace_seconds: float | None = None,
        checkpoint_every: int = 10,
        sinks: Sequence[EventSink] = (),
        fault_plan: FaultPlan | None = None,
        checks=None,
        metrics: bool = False,
        spans: bool = False,
        flight: bool = True,
        flight_capacity: int = obs_flight.DEFAULT_CAPACITY,
    ):
        self.jobs = max(1, int(jobs))
        self.retry = retry if retry is not None else RetryPolicy()
        self.failure_policy = failure_policy
        self.timeout_seconds = timeout_seconds
        self.orphan_grace_seconds = orphan_grace_seconds
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.sinks = list(sinks)
        self.fault_plan = fault_plan
        self.checks = checks
        self.metrics = bool(metrics)
        self.spans = bool(spans)
        self.flight = bool(flight)
        self.flight_capacity = int(flight_capacity)
        # Per-run checkpoint bookkeeping (reset by run_many).
        self._run_keys: list[str] | None = None
        self._terminal_seen = 0
        # Per-run telemetry (armed/disarmed by run_many).
        self._trace: "obs_context.TraceContext | None" = None
        self._flight: "obs_flight.FlightRecorder | None" = None
        self._flight_store: Path | None = None
        self._flight_previous: "obs_flight.FlightRecorder | None" = None
        self._postmortem_keys: set[str] = set()
        # Submission-path queue metrics (queue.depth / queue.wait_seconds):
        # a fresh engine-side registry under metrics=True, else whatever
        # registry is ACTIVE in the parent process.
        self._queue_registry: "obs_metrics.MetricsRegistry | None" = None
        self._batch_started = 0.0
        # Lazy persistent pool for map_tasks (False = creation failed,
        # don't retry).
        self._map_executor = None

    # -- events ------------------------------------------------------

    def _emit(self, event: Event) -> None:
        trace = self._trace
        if trace is not None:
            data = trace.to_dict()
            keys = self._run_keys
            index = getattr(event, "index", None)
            if (
                keys is not None
                and isinstance(index, int)
                and 0 <= index < len(keys)
            ):
                data["run_key"] = keys[index]
            tracer = obs_tracing.ACTIVE
            if tracer is not None and len(tracer._stack) > 1:
                data["parent"] = tracer._stack[-1].label
            event = stamp_trace(event, data)
        flight = self._flight
        if flight is not None:
            flight.record(event.to_dict())
        for sink in self.sinks:
            sink.emit(event)

    # -- telemetry arming --------------------------------------------

    def _arm_telemetry(self, keys: Sequence[str], store) -> None:
        """Mint/inherit the campaign trace context; arm the recorder."""
        self._postmortem_keys = set()
        ambient = obs_context.current()
        self._trace = (
            ambient
            if ambient is not None
            else obs_context.TraceContext(
                campaign=obs_context.campaign_id(keys)
            )
        )
        if self.flight and store is not None:
            self._flight = obs_flight.FlightRecorder(
                self.flight_capacity,
                fingerprint={
                    "campaign": self._trace.campaign,
                    "failure_policy": self.failure_policy.value,
                    "jobs": self.jobs,
                    "max_attempts": self.retry.max_attempts,
                    "timeout_seconds": self.timeout_seconds,
                },
            )
            self._flight.mark_metrics_baseline()
            self._flight_store = store.directory
            # Install as the ambient recorder so in-process kernel
            # paths contribute window notes to the ring.
            self._flight_previous = obs_flight.ACTIVE
            obs_flight.enable(self._flight)

    def _disarm_telemetry(self) -> None:
        if self._flight is not None:
            if self._flight_previous is not None:
                obs_flight.enable(self._flight_previous)
            else:
                obs_flight.disable()
        self._trace = None
        self._flight = None
        self._flight_store = None
        self._flight_previous = None

    def _dump_postmortem(self, job: Job, reason: str, error: str) -> None:
        """Write a postmortem bundle for a dead job; emit its marker."""
        if self._flight is None or self._flight_store is None:
            return
        keys = self._run_keys
        key = (
            keys[job.index]
            if keys is not None and 0 <= job.index < len(keys)
            else job.spec.key()
        )
        # A timed-out orphan dies twice (timeout now, abandoned at
        # drain); the first bundle has the ring as it was at death, so
        # it wins.
        if key in self._postmortem_keys:
            return
        self._postmortem_keys.add(key)
        trace = self._trace.with_run(key) if self._trace else None
        path = obs_flight.dump_bundle(
            self._flight_store,
            key,
            label=job.label,
            reason=reason,
            error=error,
            trace=trace,
            recorder=self._flight,
        )
        self._emit(
            PostmortemWritten(
                index=job.index,
                label=job.label,
                key=key,
                reason=reason,
                path=str(path),
            )
        )

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
        if self._map_executor:
            self._map_executor.shutdown(wait=False, cancel_futures=True)
            self._map_executor = None

    # -- queue metrics ------------------------------------------------

    def _observe_queue(self, wait_seconds: float, depth: int) -> None:
        """One job left the submission queue and started executing."""
        reg = self._queue_registry
        if reg is None:
            return
        reg.timer("queue.wait_seconds").observe(wait_seconds)
        reg.gauge("queue.depth").set(float(depth))

    # -- ordered task mapping -----------------------------------------

    def _ensure_map_executor(self):
        if self._map_executor is None:
            try:
                self._map_executor = self._executor_factory(
                    max_workers=self.jobs
                )
            except (NotImplementedError, OSError, ImportError) as error:
                warnings.warn(
                    f"process pool unavailable ({error}); "
                    f"mapping in-process"
                )
                self._map_executor = False  # don't retry creation
        return self._map_executor or None

    def map_tasks(self, fn, items) -> list:
        """Ordered parallel map over picklable items (service slices).

        Results come back in item order, computed by the same function
        the serial path would call, so callers stay deterministic
        across worker counts.  The pool is created lazily, persists
        across calls (quantum-rate fan-out), and degrades to in-process
        execution when process support is unavailable or the pool
        breaks mid-map.
        """
        items = list(items)
        if self.jobs == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        executor = self._ensure_map_executor()
        if executor is None:
            return [fn(item) for item in items]
        try:
            return list(executor.map(fn, items))
        except futures.process.BrokenProcessPool:
            warnings.warn(
                "worker pool broke during map_tasks; running in-process"
            )
            self._map_executor = None
            return [fn(item) for item in items]

    # -- checkpoints -------------------------------------------------

    def _checkpoint_tick(self, outcomes: dict) -> None:
        """Count one terminal job event; emit a periodic checkpoint."""
        if self._run_keys is None:
            return
        self._terminal_seen += 1
        if self._terminal_seen % self.checkpoint_every == 0:
            self._emit_checkpoint(outcomes)

    def _emit_checkpoint(self, outcomes: dict) -> None:
        if self._run_keys is None:
            return
        keys = self._run_keys
        completed = sorted(
            keys[i] for i, o in outcomes.items() if o.ok
        )
        failed = sorted(
            keys[i] for i, o in outcomes.items() if o.error is not None
        )
        terminal = {keys[i] for i in outcomes}
        pending = sorted(k for k in keys if k not in terminal)
        self._emit(
            CampaignCheckpoint(
                completed=completed, failed=failed, pending=pending
            )
        )

    @staticmethod
    def _machine_descriptor(machines) -> dict | None:
        """Minimal plan descriptor of a single-machine override.

        Only overrides reconstructible from ``STANDARD_MACHINES`` (the
        standard topology, optionally with a small-core frequency
        change) are describable; anything else returns ``None`` and a
        resume falls back to ``spec.build_machine()``.
        """
        if not isinstance(machines, MachineConfig):
            return None
        factory = STANDARD_MACHINES.get(machines.name)
        if factory is None:
            return None
        reference = factory()
        if machines == reference:
            return {"name": machines.name}
        small_ghz = machines.small.frequency_ghz
        if machines == reference.with_small_frequency(small_ghz):
            return {
                "name": machines.name,
                "small_frequency_ghz": small_ghz,
            }
        return None

    @staticmethod
    def machine_from_descriptor(descriptor: dict | None) -> MachineConfig | None:
        """Rebuild a plan's machine override (inverse of the above)."""
        if descriptor is None:
            return None
        machine = STANDARD_MACHINES[descriptor["name"]]()
        small_ghz = descriptor.get("small_frequency_ghz")
        if small_ghz is not None:
            machine = machine.with_small_frequency(small_ghz)
        return machine

    # -- public API --------------------------------------------------

    def run_many(
        self,
        specs: Sequence[RunSpec],
        *,
        machines: MachineConfig | Sequence[MachineConfig | None] | None = None,
        cache_paths: Sequence[str | Path | None] | None = None,
        labels: Sequence[str] | None = None,
        store: "ResultStore | str | Path | None" = None,
        resume_from: "ResumeState | str | Path | None" = None,
    ) -> ExecutionReport:
        """Execute a batch of specs; results come back in spec order.

        Args:
            specs: the runs to execute.
            machines: optional machine override -- a single
                :class:`MachineConfig` applied to every spec, or one
                per spec (``None`` entries fall back to
                ``spec.build_machine()``).  Required when
                ``spec.machine`` is a custom tag rather than a
                standard topology name.
            cache_paths: optional per-spec result-cache paths;
                existing valid entries are served without executing,
                and executed results are written back atomically.
            store: optional :class:`~repro.runtime.store.ResultStore`
                (or its directory); shorthand for deriving
                ``cache_paths`` from each spec's content key, and
                recorded in the :class:`CampaignPlan` event so the
                campaign is resumable.
            resume_from: a :class:`~repro.runtime.resume.ResumeState`
                or the path of a prior run's JSONL event log.  Jobs
                the log records as completed are served from the
                result store without executing; pending and failed
                jobs re-run.  Falls back to the log's recorded store
                when ``store`` is not given.  The report is identical
                to an uninterrupted run's, except that resumed jobs
                surface as cache hits.
            labels: optional per-spec display labels for events.
        """
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        resume = resume_from
        if resume is not None and not isinstance(resume, ResumeState):
            resume = ResumeState.load(resume)
        if resume is not None:
            resume.check_specs(specs)
            if store is None and resume.store is not None:
                store = ResultStore(resume.store)
        if cache_paths is None and store is not None:
            cache_paths = [store.path_for(spec) for spec in specs]
        jobs_list = self._build_jobs(specs, machines, cache_paths, labels)
        keys = [spec.key() for spec in specs]
        self._run_keys = keys
        self._terminal_seen = 0
        self._queue_registry = (
            obs_metrics.MetricsRegistry()
            if self.metrics
            else obs_metrics.ACTIVE
        )
        self._arm_telemetry(keys, store)
        try:
            started = time.perf_counter()
            self._emit(CampaignStarted(total=len(jobs_list)))
            self._emit(
                CampaignPlan(
                    specs=[dataclasses.asdict(spec) for spec in specs],
                    keys=keys,
                    labels=[job.label for job in jobs_list],
                    store=str(store.directory) if store is not None else None,
                    machine=self._machine_descriptor(machines),
                    failure_policy=self.failure_policy.value,
                    timeout_seconds=self.timeout_seconds,
                    max_attempts=self.retry.max_attempts,
                )
            )

            outcomes: dict[int, JobOutcome] = {}
            to_run = []
            for job in jobs_list:
                cached = self._load_cached(job)
                if cached is None:
                    to_run.append(job)
                    continue
                error = self._check_result(job, cached.result)
                if error is not None:
                    self._record_failure(
                        job, error, 0, cached.wall_seconds, outcomes
                    )
                    continue
                outcomes[job.index] = cached
                self._emit(
                    JobCached(
                        index=job.index,
                        label=job.label,
                        wall_seconds=cached.wall_seconds,
                    )
                )
                self._checkpoint_tick(outcomes)

            cached_failure = any(
                outcomes[i].error is not None for i in outcomes
            )
            if (
                cached_failure
                and self.failure_policy is FailurePolicy.FAIL_FAST
            ):
                for job in to_run:
                    self._record_failure(
                        job, "skipped (fail-fast abort)", 0, 0.0, outcomes
                    )
            elif to_run:
                if self.jobs == 1 or len(to_run) == 1:
                    self._run_serial(to_run, outcomes)
                else:
                    self._run_parallel(to_run, outcomes)

            report = ExecutionReport(
                outcomes=[outcomes[i] for i in sorted(outcomes)],
                wall_seconds=time.perf_counter() - started,
            )
            if self.metrics:
                merged = obs_metrics.MetricsRegistry()
                for outcome in report.outcomes:
                    if outcome.metrics is not None:
                        merged.merge(outcome.metrics)
                engine_snapshot = self._queue_registry.snapshot()
                if engine_snapshot.series:
                    # Submission-path queueing metrics live in the parent,
                    # not in any worker; ship them as an index=-1 snapshot
                    # so replaying the event stream still reproduces the
                    # merged registry.
                    self._emit(
                        MetricsSnapshot(
                            index=-1,
                            label="engine",
                            metrics=engine_snapshot.to_dict(),
                        )
                    )
                    merged.merge(engine_snapshot)
                report.metrics = merged.snapshot()
            if self.spans:
                report.spans = obs_tracing.merge_trees(
                    obs_tracing.SpanNode.from_dict(o.spans)
                    for o in report.outcomes
                    if o.spans is not None
                )
            self._queue_registry = None
            self._emit_checkpoint(outcomes)
            self._run_keys = None
            self._emit(
                CampaignFinished(
                    total=len(report.outcomes),
                    completed=sum(1 for o in report.outcomes if o.ok),
                    cached=report.cache_hits,
                    failed=len(report.failures),
                    wall_seconds=report.wall_seconds,
                )
            )
        finally:
            self._disarm_telemetry()
        if self.failure_policy is FailurePolicy.FAIL_FAST:
            report.raise_on_failure()
        return report

    # -- batch assembly ----------------------------------------------

    def _build_jobs(self, specs, machines, cache_paths, labels) -> list[Job]:
        count = len(specs)
        if machines is None or isinstance(machines, MachineConfig):
            machines = [machines] * count
        if cache_paths is None:
            cache_paths = [None] * count
        if labels is None:
            labels = [self._default_label(spec) for spec in specs]
        if not (len(machines) == len(cache_paths) == len(labels) == count):
            raise ValueError(
                "specs, machines, cache_paths and labels must align"
            )
        return [
            Job(
                index=index,
                spec=spec,
                label=label,
                machine=machine,
                cache_path=str(path) if path is not None else None,
            )
            for index, (spec, machine, path, label) in enumerate(
                zip(specs, machines, cache_paths, labels)
            )
        ]

    @staticmethod
    def _default_label(spec: RunSpec) -> str:
        mix = "+".join(spec.benchmarks)
        return f"{spec.machine}/{spec.scheduler}/{mix}#{spec.seed}"

    def _load_cached(self, job: Job) -> JobOutcome | None:
        if job.cache_path is None:
            return None
        path = Path(job.cache_path)
        if not path.exists():
            return None
        started = time.perf_counter()
        try:
            result = load_run(path)
        except ResultCacheError:
            return None  # corrupt or partial entry: recompute
        return JobOutcome(
            index=job.index,
            spec=job.spec,
            label=job.label,
            result=result,
            attempts=0,
            wall_seconds=time.perf_counter() - started,
            cached=True,
        )

    # -- outcome recording -------------------------------------------

    def _check_result(self, job: Job, result: RunResult) -> str | None:
        """Apply the opt-in check hook; an error string means failure."""
        if self.checks is None or result is None:
            return None
        report = self.checks(result)
        if report.ok:
            return None
        names = report.invariant_names()
        detail = "; ".join(v.format() for v in report.errors[:3])
        self._emit(
            CheckFailed(
                index=job.index,
                label=job.label,
                invariants=names,
                detail=detail,
            )
        )
        return f"check failed: violated {', '.join(names)}"

    def _record_success(
        self,
        job: Job,
        data: dict,
        attempts: int,
        wall: float,
        outcomes,
        metrics_data: dict | None = None,
        spans_data: dict | None = None,
    ) -> bool:
        """Record a completed job; ``False`` when its checks failed."""
        result = run_result_from_dict(data)
        error = self._check_result(job, result)
        if error is not None:
            self._record_failure(job, error, attempts, wall, outcomes)
            return False
        outcomes[job.index] = JobOutcome(
            index=job.index,
            spec=job.spec,
            label=job.label,
            result=result,
            attempts=attempts,
            wall_seconds=wall,
            metrics=metrics_data,
            spans=spans_data,
        )
        if metrics_data is not None:
            self._emit(
                MetricsSnapshot(
                    index=job.index,
                    label=job.label,
                    metrics=metrics_data,
                )
            )
        if spans_data is not None:
            self._emit(
                SpanSnapshot(
                    index=job.index,
                    label=job.label,
                    spans=spans_data,
                )
            )
        self._emit(
            JobFinished(
                index=job.index,
                label=job.label,
                wall_seconds=wall,
                attempts=attempts,
                sser=result.sser,
                stp=result.stp,
            )
        )
        self._checkpoint_tick(outcomes)
        return True

    def _record_failure(
        self, job: Job, error: str, attempts: int, wall: float, outcomes
    ) -> None:
        outcomes[job.index] = JobOutcome(
            index=job.index,
            spec=job.spec,
            label=job.label,
            error=error,
            attempts=attempts,
            wall_seconds=wall,
        )
        self._emit(
            JobFailed(
                index=job.index,
                label=job.label,
                error=error,
                attempts=attempts,
                wall_seconds=wall,
            )
        )
        # Administrative failures (fail-fast skips/cancels) carry no
        # in-flight state worth a bundle; real deaths do.
        if not error.startswith(("skipped (", "cancelled (")):
            reason = "timeout" if error.startswith("timed out") else "failed"
            self._dump_postmortem(job, reason, error)
        self._checkpoint_tick(outcomes)

    # -- serial path -------------------------------------------------

    def _run_serial(self, jobs_list: Sequence[Job], outcomes: dict) -> None:
        aborted = False
        self._batch_started = time.perf_counter()
        remaining = len(jobs_list)
        for job in jobs_list:
            if aborted:
                self._record_failure(
                    job, "skipped (fail-fast abort)", 0, 0.0, outcomes
                )
                continue
            remaining -= 1
            self._observe_queue(
                time.perf_counter() - self._batch_started, remaining
            )
            self._emit(JobStarted(index=job.index, label=job.label))
            started = time.perf_counter()
            try:
                with obs_tracing.span("runtime.execute_job"):
                    (
                        _,
                        data,
                        attempts,
                        wall,
                        metrics_data,
                        spans_data,
                    ) = _execute_job(
                        job, self.retry, self.fault_plan, self.metrics,
                        self.spans,
                    )
            except Exception as error:
                self._record_failure(
                    job,
                    f"{type(error).__name__}: {error}",
                    self.retry.max_attempts,
                    time.perf_counter() - started,
                    outcomes,
                )
                if self.failure_policy is FailurePolicy.FAIL_FAST:
                    aborted = True
                continue
            elapsed = time.perf_counter() - started
            if (
                self.timeout_seconds is not None
                and elapsed > self.timeout_seconds
            ):
                # In-process execution cannot preempt a running job,
                # so the budget is enforced post-hoc: the finished
                # result is discarded, as the pool path discards a
                # cancelled worker's.  Shard workers (jobs=1) rely on
                # this to honor the fleet's --timeout.
                self._record_failure(
                    job,
                    f"timed out after {self.timeout_seconds:.1f}s",
                    attempts,
                    elapsed,
                    outcomes,
                )
                if self.failure_policy is FailurePolicy.FAIL_FAST:
                    aborted = True
                continue
            ok = self._record_success(
                job, data, attempts, wall, outcomes, metrics_data,
                spans_data,
            )
            if not ok and self.failure_policy is FailurePolicy.FAIL_FAST:
                aborted = True

    # -- parallel path -----------------------------------------------

    def _run_parallel(self, jobs_list: Sequence[Job], outcomes: dict) -> None:
        try:
            executor = self._executor_factory(
                max_workers=min(self.jobs, len(jobs_list))
            )
        except (NotImplementedError, OSError, ImportError) as error:
            warnings.warn(
                f"process pool unavailable ({error}); running serially"
            )
            self._run_serial(jobs_list, outcomes)
            return

        pending: dict[futures.Future, Job] = {}
        self._batch_started = time.perf_counter()
        try:
            for job in jobs_list:
                self._emit(JobStarted(index=job.index, label=job.label))
                future = executor.submit(
                    _execute_job, job, self.retry, self.fault_plan,
                    self.metrics, self.spans,
                )
                pending[future] = job
            self._harvest(
                pending, outcomes, min(self.jobs, len(jobs_list))
            )
        except futures.process.BrokenProcessPool:
            remaining = [
                job
                for job in pending.values()
                if job.index not in outcomes
            ]
            warnings.warn(
                f"worker pool broke; finishing {len(remaining)} "
                f"job(s) in-process"
            )
            self._run_serial(remaining, outcomes)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _harvest(
        self, pending: dict, outcomes: dict, max_workers: int
    ) -> None:
        track_queue = self._queue_registry is not None
        need_poll = self.timeout_seconds is not None or track_queue
        poll = self._POLL_SECONDS if need_poll else None
        total = len(pending)
        #: Futures whose queue wait has been observed (at arm time, or
        #: at completion for jobs that finished between polls).
        waited: set[futures.Future] = set()

        def observe_queue(future: futures.Future) -> None:
            if not track_queue or future in waited:
                return
            waited.add(future)
            self._observe_queue(
                time.perf_counter() - self._batch_started,
                total - len(waited),
            )
        #: future -> monotonic time at which it was first seen running.
        #: The timeout clock arms *here*, not at submission: a job
        #: queued behind earlier work accrues no budget and can never
        #: be recorded as timed out without having started.
        started: dict[futures.Future, float] = {}
        #: Timed-out futures whose worker is still running.  A running
        #: process-pool job cannot be cancelled, so its slot stays
        #: busy; we keep tracking it and reconcile the late completion
        #: with an explicit JobReconciled event.
        orphans: dict[futures.Future, Job] = {}
        try:
            while pending:
                done, _ = futures.wait(
                    pending, timeout=poll, return_when=futures.FIRST_COMPLETED
                )
                for future in done:
                    job = pending.pop(future)
                    if future.cancelled():
                        self._record_failure(
                            job, "cancelled (fail-fast abort)", 0, 0.0,
                            outcomes,
                        )
                        continue
                    observe_queue(future)
                    try:
                        (
                            _,
                            data,
                            attempts,
                            wall,
                            metrics_data,
                            spans_data,
                        ) = future.result()
                    except futures.process.BrokenProcessPool:
                        # Put the job back so the caller's serial-fallback
                        # path re-runs it alongside the other pending jobs.
                        pending[future] = job
                        raise
                    except Exception as error:
                        self._record_failure(
                            job,
                            f"{type(error).__name__}: {error}",
                            self.retry.max_attempts,
                            0.0,
                            outcomes,
                        )
                        if self.failure_policy is FailurePolicy.FAIL_FAST:
                            self._abort_pending(pending, outcomes)
                            return
                        continue
                    ok = self._record_success(
                        job, data, attempts, wall, outcomes, metrics_data,
                        spans_data,
                    )
                    if (
                        not ok
                        and self.failure_policy is FailurePolicy.FAIL_FAST
                    ):
                        self._abort_pending(pending, outcomes)
                        return
                self._reconcile_orphans(orphans)
                if need_poll:
                    now = time.monotonic()
                    # Worker slots currently held: armed pending jobs
                    # plus orphans whose worker is still grinding.
                    busy = sum(1 for f in pending if f in started)
                    busy += sum(1 for f in orphans if not f.done())
                    for future in list(pending):
                        job = pending[future]
                        begun = started.get(future)
                        if begun is None:
                            # future.running() alone over-arms: the
                            # pool flags up to max_workers+1 queued
                            # calls as running before a worker picks
                            # them up, so also require a free slot
                            # (pending iterates in submission order,
                            # which is the pool's dispatch order).
                            if future.running() and busy < max_workers:
                                started[future] = now
                                busy += 1
                                observe_queue(future)
                            continue
                        if (
                            self.timeout_seconds is None
                            or now - begun <= self.timeout_seconds
                        ):
                            continue
                        del pending[future]
                        if not future.cancel():
                            orphans[future] = job
                        # attempts=0: the attempt in flight was killed
                        # mid-run; how many attempts actually completed
                        # is unknowable from the parent (the worker may
                        # have been retrying).  The JobReconciled event
                        # carries the true count if the worker finishes.
                        self._record_failure(
                            job,
                            f"timed out after {self.timeout_seconds:.1f}s",
                            0,
                            now - begun,
                            outcomes,
                        )
                        if self.failure_policy is FailurePolicy.FAIL_FAST:
                            self._abort_pending(pending, outcomes)
                            return
        finally:
            self._drain_orphans(orphans)

    # -- orphan reconciliation ---------------------------------------

    def _reconcile_orphans(self, orphans: dict) -> None:
        """Emit a JobReconciled event for every orphan that finished."""
        for future in [f for f in orphans if f.done()]:
            job = orphans.pop(future)
            try:
                _, data, attempts, wall, _metrics, _spans = future.result()
            except Exception:
                self._emit(
                    JobReconciled(
                        index=job.index,
                        label=job.label,
                        outcome="failed",
                        attempts=self.retry.max_attempts,
                    )
                )
            else:
                # The late result stays out of the report (the job is
                # already recorded as timed out, keeping reports
                # deterministic) but the worker persisted it to the
                # result store, where a re-run or resume will find it.
                self._emit(
                    JobReconciled(
                        index=job.index,
                        label=job.label,
                        outcome="completed",
                        wall_seconds=wall,
                        attempts=attempts,
                        stored=job.cache_path is not None,
                    )
                )

    def _drain_orphans(self, orphans: dict) -> None:
        """Settle every remaining orphan at the end of the harvest."""
        if not orphans:
            return
        if self.orphan_grace_seconds:
            futures.wait(list(orphans), timeout=self.orphan_grace_seconds)
        self._reconcile_orphans(orphans)
        for future, job in list(orphans.items()):
            self._emit(
                JobReconciled(
                    index=job.index, label=job.label, outcome="abandoned"
                )
            )
            self._dump_postmortem(
                job,
                "abandoned",
                "worker still running when the campaign ended",
            )
        orphans.clear()

    def _abort_pending(self, pending: dict, outcomes: dict) -> None:
        for future in list(pending):
            job = pending.pop(future)
            future.cancel()
            self._record_failure(
                job, "cancelled (fail-fast abort)", 0, 0.0, outcomes
            )


def run_specs(
    specs: Sequence[RunSpec],
    *,
    machine: MachineConfig | Sequence[MachineConfig | None] | None = None,
    labels: Sequence[str] | None = None,
    store: "ResultStore | str | Path | None" = None,
    resume_from: "ResumeState | str | Path | None" = None,
    jobs: int = 1,
    shards: int = 1,
    batched: bool = False,
    sinks: Sequence[EventSink] = (),
    log: EventSink | None = None,
    checks=None,
    metrics: bool = False,
    failure_policy: FailurePolicy = FailurePolicy.FAIL_FAST,
    max_attempts: int = 1,
    timeout_seconds: float | None = None,
) -> ExecutionReport:
    """Run a campaign of specs; the one place that picks an executor.

    ``shards > 1`` drives a :class:`~repro.runtime.shard.ShardCoordinator`
    fleet, ``batched`` a :class:`~repro.batch.sweep.BatchedExecutionEngine`
    with ``jobs`` workers, anything else an :class:`ExecutionEngine`.
    Every executor returns the same results in spec order and writes the
    same store bytes.  ``machine`` is the single (or, off the fleet,
    per-spec) machine override; ``log`` is the durable event sink -- the
    fleet writes its canonical merged stream there, an engine treats it
    as one more sink.  Sinks stay open: the caller closes them.

    The shard plan can only switch the standard checks on or off, so a
    fleet refuses any ``checks`` other than
    :func:`repro.check.default_run_checks`.
    """
    if shards > 1:
        from repro.check import default_run_checks
        from repro.runtime.shard import ShardCoordinator

        if checks is not None and checks is not default_run_checks:
            raise ValueError(
                "a shard fleet runs only default_run_checks; custom "
                "checks need shards=1"
            )
        coordinator = ShardCoordinator(
            shards,
            batched=batched,
            metrics=metrics,
            checks=checks is not None,
            failure_policy=failure_policy,
            max_attempts=max_attempts,
            timeout_seconds=timeout_seconds,
            sinks=sinks,
            log_sink=log,
        )
        return coordinator.run(
            specs,
            machines=machine,
            labels=labels,
            store=store,
            resume_from=resume_from,
        )
    options = dict(
        failure_policy=failure_policy,
        sinks=[*sinks, log] if log is not None else sinks,
        checks=checks,
        metrics=metrics,
        timeout_seconds=timeout_seconds,
    )
    if max_attempts > 1:
        options["retry"] = RetryPolicy(
            max_attempts=max_attempts, base_delay_seconds=0.0
        )
    if batched:
        from repro.batch.sweep import BatchedExecutionEngine

        engine = BatchedExecutionEngine(jobs, **options)
    else:
        engine = ExecutionEngine(jobs, **options)
    return engine.run_many(
        specs,
        machines=machine,
        labels=labels,
        store=store,
        resume_from=resume_from,
    )
