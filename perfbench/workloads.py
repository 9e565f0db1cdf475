"""The benchmark's workloads, driven through the public entry points.

Each workload is a closed batch of work run to completion from one
process: ``repro.sim.experiment.sweep`` for the figure and campaign
workloads, ``repro.service.load.run_load_point`` for the service.
Only ``campaign-durable`` fans out, to two worker processes.

A workload has three phases:

* ``load()`` imports the program; ``prepare(seed)`` builds the inputs
  from the workload seed.  Together they are the set-up.
* ``run_pass()`` runs the timed work once and returns a :class:`Pass`.
* ``check()`` cross-checks outputs against an independent path (the
  other engine, the golden feed digest); every failure is a string.

Why these workloads: ``fig06-scalar`` is the paper's headline figure
on the scalar engine, where phase analysis and ACE accounting do most
of the work; ``fig06-batched`` is the same campaign on the batched
engine, where phase analysis is memoised and scheduling, interference
and batch bookkeeping dominate; ``campaign-durable`` is many short
runs with a result store, an event log, checks and metrics on two
workers, where runtime, I/O and checks dominate and simulation is the
minority; ``service-load`` is the only workload that runs service
admission, queueing and per-slice execution.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from spans import Boundary
from stats import read_golden_digest, run_digest, tree_bytes, tree_digest

#: The paper's Figure 6 means (Naithani et al., HPCA 2017, Section 6).
PAPER_SSER_CUT_PCT = 32.0
PAPER_STP_LOSS_VS_PERF_PCT = 6.3

SCHEDULERS = ("random", "performance", "reliability")


def untimed_region(name: str):
    """Default ``region`` factory: timed regions record no span."""
    return nullcontext()


@dataclass
class Pass:
    """One timed pass of a workload and the outputs it produced."""

    wall_s: float
    instructions: int
    digest: str
    attempted: int
    failed: int = 0
    app_quanta: int = 0
    migrations: int = 0
    #: Modelled outputs: ``{name: (value, unit)}``, deterministic.
    modelled: dict = field(default_factory=dict)
    #: Other measured values: ``{name: (value, unit)}``.
    extra: dict = field(default_factory=dict)
    #: Output-check failures found while running the pass.
    failures: list = field(default_factory=list)
    results: object = None


def _fig06_modelled(results) -> dict:
    rel, rand, perf = (results[s] for s in ("reliability", "random", "performance"))
    sser = [a.sser / b.sser for a, b in zip(rel, rand)]
    stp = [a.stp / b.stp for a, b in zip(rel, perf)]
    return {
        "sser_cut_pct": (100.0 * (1.0 - sum(sser) / len(sser)), "%"),
        "stp_loss_vs_perf_pct": (100.0 * (1.0 - sum(stp) / len(stp)), "%"),
    }


def _rows(results) -> list[tuple]:
    """Per-run ``(scheduler, index, sser, stp)`` in sweep order."""
    return [
        (name, index, r.sser, r.stp)
        for name, runs in results.items()
        for index, r in enumerate(runs)
    ]


def _totals(results) -> tuple[int, int, int]:
    """``(instructions, app_quanta, migrations)`` over every run."""
    insn = quanta = moves = 0
    for runs in results.values():
        for r in runs:
            quanta += r.quanta * len(r.apps)
            for app in r.apps:
                insn += app.instructions
                moves += app.migrations
    return insn, quanta, moves


# -- boundaries ---------------------------------------------------------

#: Simulation-side boundaries, each wrapped where its caller looks it up.
SIM_BOUNDARIES = (
    Boundary("cores.run_cycles", "repro.cores.mechanistic", "MechanisticCoreModel.run_cycles"),
    Boundary("cores.phase_eval", "repro.cores.mechanistic", "analyze_big_phase"),
    Boundary("cores.phase_eval", "repro.cores.mechanistic", "analyze_small_phase"),
    Boundary("sim.run", "repro.sim.multicore", "MulticoreSimulation.run", new_run=True),
    Boundary("sim.merge", "repro.cores.base", "QuantumResult.merged_with"),
    Boundary("sim.reference_times", "repro.sim.isolated", "ReferenceTimes.from_models"),
    Boundary("ace.measured_abc", "repro.sim.multicore", "measured_abc"),
    Boundary("memory.environments", "repro.memory.interference", "InterferenceModel.environments"),
    Boundary("sched.plan", "repro.service.placement", "SlotPlacer.plan"),
    Boundary("sched.modes.plan", "repro.sched.modes", "ModeAwareReliabilityScheduler._optimize_modes"),
    Boundary("batch.step", "repro.batch.sweep", "BatchedSweep.step"),
    Boundary(
        "batch.analyze",
        "repro.batch.sweep",
        "analyze_phase_batch",
        rows=lambda args, kwargs: len(args[0] if args else kwargs["feats"]),
    ),
    Boundary("runtime.store.save", "repro.runtime.engine", "save_run"),
    Boundary("runtime.store.save", "repro.batch.sweep", "save_run"),
    Boundary("service.step", "repro.service.server", "OpenSystem.step"),
    Boundary("service.slice", "repro.service.server", "run_slice"),
)

#: Boundaries that run in the coordinator process of a multi-worker
#: campaign (safe to wrap while workers simulate unwrapped code).
COORDINATOR_BOUNDARIES = (
    Boundary("runtime.run_many", "repro.runtime.engine", "ExecutionEngine.run_many"),
    Boundary("runtime.store.load", "repro.runtime.engine", "load_run"),
    Boundary("runtime.events.to_dict", "repro.runtime.events", "Event.to_dict"),
    Boundary("runtime.events.sink", "repro.runtime.events", "JsonlEventSink.emit"),
)

SETUP_BOUNDARIES = (
    Boundary("workloads.generate", "repro.workloads.mixes", "generate_workloads"),
    Boundary("workloads.generate", "repro.service.arrivals", "generate_workloads"),
    Boundary("workloads.profile", "repro.workloads.spec2006", "big_core_avf"),
    Boundary("workloads.profile", "repro.service.admission", "big_core_avf"),
)


def install_sim_boundaries(patcher) -> None:
    import repro.sched.modes  # noqa: F401  (loads the last Scheduler subclass)
    from repro.sched.base import Scheduler

    patcher.install(SIM_BOUNDARIES)
    patcher.install_subclass_methods("sched.plan", Scheduler, "plan_quantum")
    patcher.install_subclass_methods("sched.observe", Scheduler, "observe")


# -- workloads ----------------------------------------------------------


class Workload:
    name = ""
    #: Worker processes the workload's own pass starts.
    workers = 1
    #: Interpreters an untraced run spreads its passes over, each with
    #: its own hash seed: string hashing changes dict and set layouts,
    #: which moves the campaign's wall time by several percent.
    processes = 3
    #: Whether the traced run also times the repo's own telemetry.
    measure_obs = False

    def __init__(self, root: Path):
        self.root = root

    def load(self) -> None:
        """Import the program's entry points (part of set-up)."""
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        """Build the inputs from the workload seed (part of set-up)."""
        raise NotImplementedError

    def run_pass(self, *, jobs=None, checks=None, metrics=False, region=untimed_region) -> Pass:
        """Run the timed work once.  ``region(name)`` wraps each timed
        region (the traced run opens a root span there)."""
        raise NotImplementedError

    def check(self, passes: list[Pass]) -> list[str]:
        """Independent output checks; every failure is a message."""
        return _same_digest(passes)

    def cleanup(self) -> None:
        pass


def _same_digest(passes: list[Pass]) -> list[str]:
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        return [f"passes disagree: {len(digests)} distinct output digests"]
    return []


class Fig06(Workload):
    """Figure 6: 36 four-program mixes x 3 schedulers on 2B2S."""

    batched = False

    def load(self) -> None:
        # sweep() imports the engines on first use; import them here so
        # that cost counts as set-up, not as the first pass.
        import repro.batch.sweep  # noqa: F401
        import repro.runtime.engine  # noqa: F401
        from repro.config import STANDARD_MACHINES
        from repro.sim import experiment
        from repro.workloads import mixes

        self.experiment = experiment
        self.mixes_mod = mixes
        self.machine = STANDARD_MACHINES["2B2S"]()

    def prepare(self, seed: int) -> None:
        # Seed 42 gives the paper's mixes.
        self.mixes = self.mixes_mod.generate_workloads(4, seed=seed)

    def run_pass(self, *, jobs=None, checks=None, metrics=False, region=untimed_region) -> Pass:
        with region("bench.pass"):
            started = time.perf_counter()
            results = self.experiment.sweep(
                self.machine, self.mixes, SCHEDULERS, batched=self.batched, metrics=metrics
            )
            wall = time.perf_counter() - started
        insn, quanta, moves = _totals(results)
        return Pass(
            wall_s=wall,
            instructions=insn,
            digest=run_digest(_rows(results)),
            attempted=sum(len(v) for v in results.values()),
            app_quanta=quanta,
            migrations=moves,
            modelled=_fig06_modelled(results),
            results=results,
        )


class Fig06Scalar(Fig06):
    name = "fig06-scalar"
    #: One pass takes about 20 s and moves by about 1% between hash
    #: seeds, so one interpreter runs it.
    processes = 1

    def check(self, passes: list[Pass]) -> list[str]:
        """The batched engine must give the same per-run digest."""
        failures = _same_digest(passes)
        other = self.experiment.sweep(self.machine, self.mixes, SCHEDULERS, batched=True)
        if run_digest(_rows(other)) != passes[0].digest:
            failures.append("fig06: batched engine digest differs from scalar")
        return failures


class Fig06Batched(Fig06):
    name = "fig06-batched"
    batched = True
    #: Passes of a few seconds beat timer noise and exercise every
    #: metrics and span hook of the batched engine.
    measure_obs = True

    #: Mixes re-run on the scalar engine as the cross-check (one per
    #: category would cost a fifth of a scalar sweep; three cover the
    #: H-heavy, mixed and L-heavy ends).
    CHECK_MIXES = (0, 17, 35)

    def check(self, passes: list[Pass]) -> list[str]:
        """Sampled runs must match the scalar engine bit for bit."""
        failures = _same_digest(passes)
        results = passes[0].results
        for index in self.CHECK_MIXES:
            for name in SCHEDULERS:
                # sweep() seeds run `index` with `index`.
                scalar = self.experiment.run_workload(
                    self.machine, self.mixes[index], name, seed=index
                )
                batched = results[name][index]
                if (scalar.sser, scalar.stp) != (batched.sser, batched.stp):
                    failures.append(
                        f"fig06: batched run {name}/{index} differs from scalar"
                    )
        return failures


class CampaignDurable(Workload):
    """Short 1B1S runs with a store, an event log, checks and metrics.

    A cold pass writes the store; a warm pass re-runs the same
    campaign against it (every job a cache hit).
    """

    name = "campaign-durable"
    workers = 2
    #: Its wall time moves by up to 20% between hash seeds (three busy
    #: processes share two cores), so a run averages over six.
    processes = 6
    SEEDS = 8
    INSTRUCTIONS = 4_000_000
    SCHEDULERS = SCHEDULERS + ("modes",)

    def load(self) -> None:
        import repro.runtime.engine  # noqa: F401  (see Fig06.load)
        import repro.sched.modes  # noqa: F401
        from repro.check import default_run_checks
        from repro.config import STANDARD_MACHINES
        from repro.runtime.events import (
            CallbackSink,
            CheckFailed,
            JobFailed,
            JsonlEventSink,
        )
        from repro.runtime.retry import CampaignError
        from repro.sim import experiment
        from repro.workloads import mixes

        self.experiment = experiment
        self.mixes_mod = mixes
        self.default_run_checks = default_run_checks
        self.CallbackSink = CallbackSink
        self.JsonlEventSink = JsonlEventSink
        self.failure_events = (CheckFailed, JobFailed)
        self.CampaignError = CampaignError
        self.machine = STANDARD_MACHINES["1B1S"]()

    def prepare(self, seed: int) -> None:
        self.mixes = [
            mix
            for k in range(self.SEEDS)
            for mix in self.mixes_mod.generate_workloads(2, seed=seed * self.SEEDS + k)
        ]
        self.work = self.root / ".perfbench_work" / f"campaign-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.passes = 0
        self.findings = 0

    def checks(self, result):
        """``default_run_checks``, counting every finding."""
        report = self.default_run_checks(result)
        self.findings += len(report.violations)
        return report

    def _campaign(self, store: Path, log: Path, jobs: int, checks, counter):
        sink = self.JsonlEventSink(log)
        try:
            return self.experiment.sweep(
                self.machine,
                self.mixes,
                self.SCHEDULERS,
                instructions=self.INSTRUCTIONS,
                jobs=jobs,
                sinks=[sink, self.CallbackSink(counter)],
                checks=checks,
                metrics=True,
                store=store,
            )
        finally:
            sink.close()

    def run_pass(self, *, jobs=None, checks=None, metrics=False, region=untimed_region) -> Pass:
        jobs = self.workers if jobs is None else jobs
        checks = self.checks if checks is None else checks
        self.passes += 1
        directory = self.work / f"pass-{self.passes}"
        store, log = directory / "store", directory / "events.jsonl"
        failed = [0]
        failure_events = self.failure_events

        def count(event) -> None:
            if isinstance(event, failure_events):
                failed[0] += 1

        total = len(self.mixes) * len(self.SCHEDULERS)
        failures = []
        findings_before = self.findings
        try:
            with region("bench.pass"):
                started = time.perf_counter()
                cold = self._campaign(store, log, jobs, checks, count)
                cold_s = time.perf_counter() - started
            store_digest = tree_digest(store)
            with region("bench.resume"):
                started = time.perf_counter()
                warm = self._campaign(store, log, jobs, checks, count)
                warm_s = time.perf_counter() - started
        except self.CampaignError as error:
            shutil.rmtree(directory, ignore_errors=True)
            return Pass(0.0, 0, "", 2 * total, failed=2 * total, failures=[str(error)])
        digest = run_digest(_rows(cold))
        if run_digest(_rows(warm)) != digest:
            failures.append("campaign: warm pass results differ from the cold pass")
        if tree_digest(store) != store_digest:
            failures.append("campaign: warm pass changed the result store")
        if self.findings != findings_before:
            failures.append(
                f"campaign: default_run_checks reported "
                f"{self.findings - findings_before} finding(s)"
            )
        files, store_bytes = tree_bytes(store)
        log_bytes = log.stat().st_size
        shutil.rmtree(directory, ignore_errors=True)
        insn, quanta, moves = _totals(cold)
        return Pass(
            wall_s=cold_s,
            instructions=insn,
            digest=digest,
            attempted=2 * total,
            failed=failed[0],
            app_quanta=quanta,
            migrations=moves,
            extra={
                "resume_s": (warm_s, "s"),
                "store_files": (files, "count"),
                "store_bytes": (store_bytes, "B"),
                "events_bytes": (log_bytes, "B"),
                "findings": (self.findings - findings_before, "count"),
            },
            failures=failures,
        )

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


class ServiceLoad(Workload):
    """The CI golden service configuration over a Poisson rate ladder."""

    name = "service-load"
    #: Jobs per second: light (the golden feed's rate) to overload.
    LADDER = (800.0, 1600.0, 2400.0, 6400.0)
    ARRIVALS = 2000
    INSTRUCTIONS = 200_000
    GOLDEN = Path("tests") / "golden" / "service_feed.sha256"

    def load(self) -> None:
        from repro.check import check_service
        from repro.config import STANDARD_MACHINES
        from repro.service import ServiceConfig, make_process, service_benchmark_pool
        from repro.service.load import run_load_point

        self.check_service = check_service
        self.make_process = make_process
        self.run_load_point = run_load_point
        self.service_benchmark_pool = service_benchmark_pool
        self.config = ServiceConfig(
            machine=STANDARD_MACHINES["2B2S"](),
            queue_capacity=16,
            deadline_seconds=0.02,
        )

    def prepare(self, seed: int) -> None:
        self.golden = read_golden_digest(self.root / self.GOLDEN)
        self.pool = self.service_benchmark_pool()
        self.processes = [
            self.make_process("poisson", rate, self.pool, seed=seed, instructions=self.INSTRUCTIONS)
            for rate in self.LADDER
        ]

    def run_pass(self, *, jobs=None, checks=None, metrics=False, region=untimed_region) -> Pass:
        with region("bench.pass"):
            started = time.perf_counter()
            points = [self.run_load_point(self.config, p, self.ARRIVALS) for p in self.processes]
            wall = time.perf_counter() - started
        failures = []
        findings = 0
        for point in points:
            report = self.check_service(point.result, label=f"load@{point.rate_per_second:g}/s")
            findings += len(report.violations)
        if findings:
            failures.append(f"service: check_service reported {findings} finding(s)")
        calm = [p for p in points if p.result.shed == 0]
        if not calm:
            failures.append("service: every rate in the ladder shed jobs")
            p99 = float("nan")
        else:
            p99 = 1e3 * calm[-1].p99_wait
        jobs_run = [job for p in points for job in p.result.jobs]
        return Pass(
            wall_s=wall,
            instructions=sum(job["position"] for job in jobs_run),
            digest=run_digest((p.rate_per_second, p.digest) for p in points),
            attempted=len(points),
            failed=0,
            migrations=sum(job["migrations"] for job in jobs_run),
            modelled={
                "p99_wait_ms": (p99, "ms"),
                "shed_pct": (100.0 * points[-1].shed_rate, "%"),
            },
            extra={
                "admitted": (sum(p.result.admitted for p in points), "count"),
                "shed": (sum(p.result.shed for p in points), "count"),
                "heaviest_calm_rate": (calm[-1].rate_per_second if calm else 0.0, "1/s"),
            },
            failures=failures,
        )

    def check(self, passes: list[Pass]) -> list[str]:
        """The 800/s golden configuration must reproduce its feed."""
        failures = _same_digest(passes)
        golden = self.make_process("poisson", 800.0, self.pool, seed=0, instructions=self.INSTRUCTIONS)
        digest = self.run_load_point(self.config, golden, 1000).digest
        if digest != self.golden:
            failures.append(f"service: golden feed digest {digest} != {self.golden}")
        return failures


WORKLOADS = {
    cls.name: cls for cls in (Fig06Scalar, Fig06Batched, CampaignDurable, ServiceLoad)
}
