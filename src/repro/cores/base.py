"""Core model interface.

Everything above the core models (the multicore simulator and the
schedulers) consumes only this interface: *run this application's next
instructions on this core type and report cycles plus per-structure
ACE-bit counts*.  Two implementations exist:

* :class:`repro.cores.mechanistic.MechanisticCoreModel` -- a
  first-order analytical model (interval CPI model plus Little's-law
  occupancy analysis), O(1) per quantum, used for paper-scale runs.
* the trace-driven pipeline models in `repro.cores.ooo` and
  `repro.cores.inorder`, O(instructions), used for validation and
  small-scale studies.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping
from dataclasses import dataclass
from operator import add
from types import MappingProxyType

from repro.config.cores import CoreConfig
from repro.config.structures import StructureKind

#: Fraction of architectural registers holding live (ACE) values at
#: any time; a register is ACE from write to last read, and live-range
#: studies put the live fraction around a fifth to a third.  Shared by
#: every core model (mechanistic, trace-driven) and the fault injector.
ARCH_REG_LIVE_FRACTION = 0.20

#: Structure keys used in ACE-bit breakdowns, in display order.
ACE_STRUCTURES = (
    StructureKind.ROB,
    StructureKind.ISSUE_QUEUE,
    StructureKind.LOAD_QUEUE,
    StructureKind.STORE_QUEUE,
    StructureKind.REGISTER_FILE,
    StructureKind.FUNCTIONAL_UNITS,
    StructureKind.PIPELINE_LATCHES,
)


@dataclass(frozen=True)
class MemoryEnvironment:
    """Shared-resource conditions a core sees during one quantum.

    Attributes:
        l3_share_fraction: fraction of the shared LLC capacity
            effectively available to this application (1.0 when running
            alone).
        dram_latency_multiplier: DRAM latency inflation due to
            bandwidth contention (1.0 when running alone).
    """

    l3_share_fraction: float = 1.0
    dram_latency_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.l3_share_fraction <= 1.0:
            raise ValueError("l3_share_fraction must be in (0, 1]")
        if self.dram_latency_multiplier < 1.0:
            raise ValueError("dram_latency_multiplier must be >= 1")


ISOLATED = MemoryEnvironment()


class QuantumResult:
    """What a core reports after executing part of an application.

    Per-structure quantities are stored densely: one tuple of structure
    keys and, aligned with it, one tuple of values.  Mechanistic results
    share their core type's key tuple (see
    :data:`repro.cores.mechanistic.BIG_STRUCTURES`), so merging two of
    them adds tuples element-wise instead of going through dicts.

    Attributes:
        instructions: committed (correct-path) instructions, including
            NOPs.
        cycles: elapsed core cycles.
        ace_bit_cycles: per-structure ACE bit-cycles: the integral of
            ACE bits resident in each structure over the cycles.  This
            is what the paper's hardware ACE-bit counters accumulate.
            A read-only view of ``ace_keys``/``ace``.
        occupancy_bit_cycles: per-structure *total* occupied bit-cycles
            (ACE or not); used for occupancy diagnostics.  A read-only
            view of ``occupancy_keys``/``occupancy``.
        memory_accesses: DRAM accesses issued (for bandwidth/power
            accounting).
        l3_accesses: L3 accesses issued (L2 misses).
        branch_mispredictions: mispredicted branches committed (an
            ordinary performance-counter quantity, used by
            counter-free ABC predictors).
    """

    __slots__ = (
        "instructions",
        "cycles",
        "ace_keys",
        "ace",
        "occupancy_keys",
        "occupancy",
        "memory_accesses",
        "l3_accesses",
        "branch_mispredictions",
    )

    def __init__(
        self,
        instructions: int,
        cycles: float,
        ace_bit_cycles: Mapping[StructureKind, float] | None = None,
        occupancy_bit_cycles: Mapping[StructureKind, float] | None = None,
        memory_accesses: float = 0.0,
        l3_accesses: float = 0.0,
        branch_mispredictions: float = 0.0,
    ):
        ace = ace_bit_cycles or {}
        occupancy = occupancy_bit_cycles or {}
        self.instructions = instructions
        self.cycles = cycles
        self.ace_keys = tuple(ace)
        self.ace = tuple(ace.values())
        self.occupancy_keys = tuple(occupancy)
        self.occupancy = tuple(occupancy.values())
        self.memory_accesses = memory_accesses
        self.l3_accesses = l3_accesses
        self.branch_mispredictions = branch_mispredictions

    @classmethod
    def dense(
        cls,
        instructions: int,
        cycles: float,
        keys: tuple[StructureKind, ...],
        ace: tuple[float, ...],
        occupancy: tuple[float, ...],
        memory_accesses: float,
        l3_accesses: float,
        branch_mispredictions: float,
    ) -> "QuantumResult":
        """A result whose ACE and occupancy values share one key tuple."""
        result = cls.__new__(cls)
        result.instructions = instructions
        result.cycles = cycles
        result.ace_keys = result.occupancy_keys = keys
        result.ace = ace
        result.occupancy = occupancy
        result.memory_accesses = memory_accesses
        result.l3_accesses = l3_accesses
        result.branch_mispredictions = branch_mispredictions
        return result

    @property
    def ace_bit_cycles(self) -> Mapping[StructureKind, float]:
        return MappingProxyType(dict(zip(self.ace_keys, self.ace)))

    @property
    def occupancy_bit_cycles(self) -> Mapping[StructureKind, float]:
        return MappingProxyType(dict(zip(self.occupancy_keys, self.occupancy)))

    def ace_of(self, kind: StructureKind) -> float:
        """ACE bit-cycles of one structure (0.0 if it has none)."""
        keys = self.ace_keys
        return self.ace[keys.index(kind)] if kind in keys else 0.0

    @property
    def total_ace_bit_cycles(self) -> float:
        return sum(self.ace)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def ace_bits_per_cycle(self) -> float:
        """Average ACE bits resident per cycle (the SER ~ ABC/T rate)."""
        return self.total_ace_bit_cycles / self.cycles if self.cycles else 0.0

    def avf(self, core: CoreConfig) -> float:
        """Core-level architectural vulnerability factor."""
        capacity = core.total_ace_capacity_bits
        return self.ace_bits_per_cycle() / capacity if capacity else 0.0

    def merged_with(self, other: "QuantumResult") -> "QuantumResult":
        """Accumulate another result into a combined one."""
        result = QuantumResult.__new__(QuantumResult)
        if not other.ace_keys and not other.occupancy_keys:
            # Nothing to add (an idle chunk): keep this breakdown.
            result.ace_keys, result.ace = self.ace_keys, self.ace
            result.occupancy_keys = self.occupancy_keys
            result.occupancy = self.occupancy
        elif self.ace_keys == other.ace_keys and (
            self.occupancy_keys == other.occupancy_keys
        ):
            result.ace_keys = self.ace_keys
            result.ace = tuple(map(add, self.ace, other.ace))
            result.occupancy_keys = self.occupancy_keys
            result.occupancy = tuple(map(add, self.occupancy, other.occupancy))
        else:
            result = QuantumResult(
                0,
                0.0,
                _added(self.ace_bit_cycles, other.ace_bit_cycles),
                _added(self.occupancy_bit_cycles, other.occupancy_bit_cycles),
            )
        result.instructions = self.instructions + other.instructions
        result.cycles = self.cycles + other.cycles
        result.memory_accesses = self.memory_accesses + other.memory_accesses
        result.l3_accesses = self.l3_accesses + other.l3_accesses
        result.branch_mispredictions = (
            self.branch_mispredictions + other.branch_mispredictions
        )
        return result

    def clipped(self, instructions: int) -> "QuantumResult":
        """The first ``instructions`` of this result: every other
        quantity scaled by the same fraction."""
        scale = instructions / self.instructions
        result = QuantumResult.__new__(QuantumResult)
        result.instructions = instructions
        result.cycles = self.cycles * scale
        result.ace_keys = self.ace_keys
        result.ace = tuple([v * scale for v in self.ace])
        result.occupancy_keys = self.occupancy_keys
        result.occupancy = tuple([v * scale for v in self.occupancy])
        result.memory_accesses = self.memory_accesses * scale
        result.l3_accesses = self.l3_accesses * scale
        result.branch_mispredictions = self.branch_mispredictions * scale
        return result

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"QuantumResult({fields})"

    @staticmethod
    def zero() -> "QuantumResult":
        return QuantumResult(instructions=0, cycles=0.0)


def _added(
    a: Mapping[StructureKind, float], b: Mapping[StructureKind, float]
) -> dict[StructureKind, float]:
    """Per-key sum of two breakdowns (``a``'s key order, then ``b``'s)."""
    out = dict(a)
    for kind, value in b.items():
        out[kind] = out.get(kind, 0.0) + value
    return out


class CoreModel(abc.ABC):
    """Executes slices of an application on a configured core."""

    def __init__(self, core: CoreConfig):
        self.core = core

    @abc.abstractmethod
    def run_cycles(
        self, app, start_instruction: int, cycles: float, env: MemoryEnvironment
    ) -> QuantumResult:
        """Run an application for (about) a number of cycles.

        Args:
            app: the application handle (model-specific: a
                :class:`~repro.workloads.characteristics.BenchmarkProfile`
                for the mechanistic model, a trace-backed application
                for the pipeline models).
            start_instruction: position in the application's dynamic
                instruction stream (wraps modulo the application length
                for restarted applications).
            cycles: cycle budget for the slice.
            env: shared-resource conditions.

        Returns:
            the committed instructions, actual cycles (close to the
            budget), and ACE-bit accounting for the slice.
        """
