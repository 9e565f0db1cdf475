"""Disk-cached experiment campaigns.

A campaign is a named collection of simulation runs (machine ×
workload × scheduler × parameters).  Each run's result is persisted as
JSON under the campaign directory the first time it executes;
re-running the campaign loads cached results, so large sweeps can be
built up incrementally and analyses re-run cheaply.

Every run goes through :func:`repro.runtime.run_specs`, so campaigns
parallelize across CPU cores with ``jobs=N`` and tolerate worker
failures; cache writes are atomic, and corrupt or partial cache
entries are treated as misses rather than raising.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.ace.counters import AceCounterMode
from repro.config.machines import STANDARD_MACHINES, MachineConfig
from repro.sim.results import RunResult
from repro.workloads.mixes import WorkloadMix


@dataclass(frozen=True)
class RunSpec:
    """A single run's full specification (and cache key).

    Attributes:
        machine: topology name (``"2B2S"``) or a custom tag when a
            machine override is supplied at run time.
        benchmarks: benchmark names, one per core.
        scheduler: scheduler name.
        instructions: per-benchmark instruction count (``None`` runs
            each profile at its full length).
        seed: random-scheduler seed.
        counter_mode: ACE counter architecture.
        small_frequency_ghz: optional small-core frequency override.
        sampling: optional (period quanta, sampling quantum seconds).
    """

    machine: str
    benchmarks: tuple[str, ...]
    scheduler: str
    instructions: int | None
    seed: int = 0
    counter_mode: str = AceCounterMode.FULL.value
    small_frequency_ghz: float | None = None
    sampling: tuple[int, float] | None = None

    def key(self) -> str:
        """Stable content hash used as the cache file name.

        Derived structurally from *every* dataclass field (via
        :func:`dataclasses.asdict`), so a field added to the spec --
        a new scheduler kwarg, say -- can never be silently omitted
        from the cache key and collide two distinct runs.  The JSON
        encoding matches the previous hand-written payload exactly,
        so existing cache directories stay valid.
        """
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    @staticmethod
    def machine_fields(machine: MachineConfig) -> dict:
        """The spec fields whose :meth:`build_machine` rebuilds ``machine``.

        The small-core frequency and sampling fields are filled where
        they differ from the standard topology's, so distinct machines
        never share a cache key; a standard machine leaves both
        ``None``, keeping its key.  A machine that is not a standard
        topology keeps only its name and needs an override at run time.
        """
        fields: dict = {"machine": machine.name}
        factory = STANDARD_MACHINES.get(machine.name)
        if factory is not None:
            standard = factory()
            if machine.small.frequency_ghz != standard.small.frequency_ghz:
                fields["small_frequency_ghz"] = machine.small.frequency_ghz
            sampling = (
                machine.sampling_period_quanta,
                machine.sampling_quantum_seconds,
            )
            if sampling != (
                standard.sampling_period_quanta,
                standard.sampling_quantum_seconds,
            ):
                fields["sampling"] = sampling
        return fields

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from its :func:`dataclasses.asdict` form.

        JSON round-trips tuples as lists; this is the inverse used by
        campaign resume (:class:`repro.runtime.resume.ResumeState`) to
        rebuild specs recorded in an event log's plan record.
        """
        data = dict(data)
        data["benchmarks"] = tuple(data["benchmarks"])
        if data.get("sampling") is not None:
            data["sampling"] = tuple(data["sampling"])
        return cls(**data)

    def build_machine(self) -> MachineConfig:
        try:
            machine = STANDARD_MACHINES[self.machine]()
        except KeyError:
            raise ValueError(
                f"unknown machine {self.machine!r}; known machines: "
                f"{', '.join(STANDARD_MACHINES)}.  Specs with a custom "
                f"tag need an explicit machine override at run time."
            ) from None
        if self.small_frequency_ghz is not None:
            machine = machine.with_small_frequency(self.small_frequency_ghz)
        if self.sampling is not None:
            machine = machine.with_sampling(self.sampling[0], self.sampling[1])
        return machine


class Campaign:
    """A directory-backed collection of cached simulation runs.

    The directory is a :class:`repro.runtime.store.ResultStore` --
    one atomically-written ``<spec key>.json`` per completed run, with
    corrupt entries read as misses -- so a campaign directory doubles
    as the durable half of checkpoint/resume (``repro resume``).  Every
    method runs through :func:`repro.runtime.run_specs` with the
    campaign's store and counts its cache hits and misses.
    """

    def __init__(self, directory: str | Path):
        from repro.runtime.store import ResultStore

        self.store = ResultStore(directory)
        self.hits = 0
        self.misses = 0

    @property
    def directory(self) -> Path:
        return self.store.directory

    def _path(self, spec: RunSpec) -> Path:
        return self.store.path_for(spec)

    def is_cached(self, spec: RunSpec) -> bool:
        return self.store.contains(spec.key())

    def run(
        self, spec: RunSpec, machine: MachineConfig | None = None
    ) -> RunResult:
        """Execute a spec, or load its cached result.

        Args:
            spec: the run to execute.
            machine: optional machine override; required when
                ``spec.machine`` is a custom tag rather than one of
                the standard topology names and the run is not cached.
        """
        if machine is None and not self.is_cached(spec):
            # An uncached custom tag has nothing to run on: raise the
            # ValueError naming the override, not a job failure.
            spec.build_machine()
        return self.run_all([spec], machines=machine)[0]

    def run_all(
        self,
        specs: Sequence[RunSpec],
        *,
        machines: MachineConfig | Sequence[MachineConfig | None] | None = None,
        **options,
    ) -> list[RunResult]:
        """Execute a batch of specs against the campaign's store.

        ``options`` are :func:`~repro.runtime.engine.run_specs`'s
        (``jobs``, ``batched``, ``checks``, ``sinks``, ...).  Results
        come back in spec order; under the default fail-fast policy a
        permanent job failure raises
        :class:`~repro.runtime.retry.CampaignError`, under a collect
        policy failed entries are ``None``.
        """
        from repro.runtime.engine import run_specs

        report = run_specs(specs, machine=machines, store=self.store, **options)
        self.hits += report.cache_hits
        self.misses += report.executed
        return report.results

    def sweep(
        self,
        machine: MachineConfig,
        workloads: Sequence[WorkloadMix | Sequence[str]],
        schedulers: Sequence[str],
        instructions: int | None,
        **options,
    ) -> dict[str, list[RunResult]]:
        """Cached equivalent of :func:`repro.sim.experiment.sweep`.

        Runs the :func:`~repro.sim.experiment.sweep_specs` grid, so a
        campaign directory and a ``repro sweep --store`` share keys;
        ``options`` go to :meth:`run_all`.
        """
        from repro.sim.experiment import group_by_scheduler, sweep_specs

        specs, labels = sweep_specs(
            machine, workloads, schedulers, instructions=instructions
        )
        results = self.run_all(specs, machines=machine, labels=labels, **options)
        return group_by_scheduler(specs, results, schedulers)

    def clear(self) -> int:
        """Delete every cached result; returns the number removed."""
        return self.store.clear()
