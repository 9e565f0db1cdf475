"""First-order mechanistic core model (interval CPI + occupancy).

This model follows the mechanistic-modelling lineage the paper itself
builds on (interval analysis for CPI, Carlson et al. [4]; first-order
AVF modelling, Nair et al. [18]): per execution phase it analytically
derives

* a CPI stack (base, resource/dependency stalls, branch misprediction,
  I-cache, LLC, main-memory components -- Figure 2), and
* per-structure occupancy and ACE-bit rates (Figures 1 and 5),

for either core type, in O(1) per phase.  The multicore simulator uses
it to run paper-scale experiments (1 B-instruction applications, 1 ms
quanta) directly.

The ACE accounting mirrors the paper's counter architecture exactly:

* big core: ROB, issue queue, load queue, store queue, register file
  (architectural registers ACE all the time; physical destination
  registers ACE from finish to commit) and functional units;
* small core: pipeline-stage latches (fetch to writeback), issue
  queue, store queue, and functional units.

NOPs are non-ACE everywhere.  Wrong-path instructions are non-ACE;
their main reliability effect -- filling the ROB with un-ACE state
underneath long-latency load misses when a mispredicted branch depends
on the missing load (the mcf/libquantum effect) -- is modelled through
``branch_depends_on_load_prob``.

The model is written once.  :class:`PhaseFeatures` holds what depends
only on (phase, core, memory); the environment-dependent rest is one
body per core type, in plain arithmetic plus a ``minimum`` and a
``where`` op it is handed.  :func:`analyze_big_phase` and
:func:`analyze_small_phase` run it on Python floats;
:func:`repro.batch.analysis.analyze_phase_batch` runs it on numpy
columns of many phases and environments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config.cores import CoreConfig
from repro.config.machines import MemoryConfig
from repro.config.structures import StructureKind
from repro.cores.base import (
    ARCH_REG_LIVE_FRACTION,
    CoreModel,
    MemoryEnvironment,
    QuantumResult,
)
from repro.isa.instruction import (
    FP_WRITERS,
    INT_WRITERS,
    InstructionClass,
)

if TYPE_CHECKING:  # avoid a circular import with repro.workloads
    from repro.workloads.characteristics import (
        BenchmarkProfile,
        PhaseCharacteristics,
    )

# -- Model constants (calibrated against the trace-driven pipeline models) --

#: L1-D hit latency added to a load's producer-to-consumer latency.
_L1D_HIT_EXTRA = 3.0
#: Fraction of an L2 hit's latency the out-of-order window fails to hide.
_L2_EXPOSED_BIG = 0.25
#: Fraction of an L3 hit's latency the out-of-order window fails to hide.
_L3_EXPOSED_BIG = 0.55
#: Extra cycles of an I-cache miss beyond the L2 access itself.
_ICACHE_EXTRA = 2.0
#: Correct-path ROB entries surviving a misprediction flush.
_REFILL_OCCUPANCY = 8.0
#: Average ROB occupancy during a front-end stall, relative to base.
_FE_OCCUPANCY_FACTOR = 0.25
#: ROB fill level reached while a DRAM access blocks commit.
_MEM_OCCUPANCY_FACTOR = 0.95
#: Fraction of the ROB holding wrong-path state under a load miss when
#: the mispredicted branch depends on that load.
_WRONG_PATH_WINDOW_FRACTION = 0.85
#: Correct-path window cap: with a misprediction every N instructions,
#: at most about this fraction of N correct-path instructions can be
#: in flight at once (everything fetched past the branch is wrong
#: path, hence un-ACE).
_CORRECT_PATH_RUN_FACTOR = 0.5
#: Issue-queue occupancy as a fraction of ROB occupancy, per regime.
_IQ_FRACTION = {"base": 0.20, "fe": 0.10, "llc": 0.30, "mem": 0.30}
#: Fraction of ROB entries whose destination register is ACE
#: (finished but not committed), per regime.
_REG_LIVE_FRACTION = {"base": 0.35, "fe": 0.20, "llc": 0.50, "mem": 0.70}
#: Store-queue residency multiplier (stores linger past commit).
_STORE_RESIDENCY = 1.2
#: Pipeline slack added to backend residence time (big core, cycles).
_BACKEND_SLACK = 2.0
#: In-order issue efficiency: fraction of the dataflow ILP an in-order
#: pipeline can exploit (no reordering around stalled instructions).
_INORDER_ILP_EFFICIENCY = 0.55
#: Small-core store-queue drain time in cycles.
_SMALL_STORE_DRAIN = 3.0
#: Memory-level parallelism achievable by the small in-order core.
_SMALL_MLP = 1.0
#: Live architectural-register fraction (shared model constant).
_ARCH_REG_LIVE_FRACTION = ARCH_REG_LIVE_FRACTION

#: Structures each core type's analyzer reports, in its key order (the
#: order every per-structure sum folds in).
BIG_STRUCTURES = (
    StructureKind.ROB,
    StructureKind.ISSUE_QUEUE,
    StructureKind.LOAD_QUEUE,
    StructureKind.STORE_QUEUE,
    StructureKind.REGISTER_FILE,
    StructureKind.FUNCTIONAL_UNITS,
)
SMALL_STRUCTURES = (
    StructureKind.PIPELINE_LATCHES,
    StructureKind.ISSUE_QUEUE,
    StructureKind.STORE_QUEUE,
    StructureKind.REGISTER_FILE,
    StructureKind.FUNCTIONAL_UNITS,
)


@dataclass(frozen=True)
class PhaseAnalysis:
    """Steady-state behaviour of one phase on one core type.

    Attributes:
        ipc: committed instructions per cycle.
        cpi_components: CPI stack, keyed by component name
            (``base``, ``resource``, ``bpred``, ``icache``, ``l2``,
            ``llc``, ``mem``).
        ace_bits_per_cycle: average resident ACE bits per structure.
        occupancy_bits_per_cycle: average resident bits (ACE or not).
        dram_accesses_per_instruction: DRAM accesses per instruction.
        l3_accesses_per_instruction: L3 accesses per instruction.
    """

    ipc: float
    cpi_components: dict[str, float]
    ace_bits_per_cycle: dict[StructureKind, float]
    occupancy_bits_per_cycle: dict[StructureKind, float]
    dram_accesses_per_instruction: float
    l3_accesses_per_instruction: float

    @property
    def cpi(self) -> float:
        return sum(self.cpi_components.values())

    @property
    def total_ace_bits_per_cycle(self) -> float:
        return sum(self.ace_bits_per_cycle.values())

    def avf(self, core: CoreConfig) -> float:
        return self.total_ace_bits_per_cycle / core.total_ace_capacity_bits


def _producer_latency(chars: "PhaseCharacteristics") -> float:
    """Mean producer-to-consumer latency along dependency chains."""
    return chars.mix.average_execution_latency() + chars.mix.load * _L1D_HIT_EXTRA


def _fu_throughput_limit(core: CoreConfig, mix: dict) -> float:
    """IPC ceiling imposed by functional-unit pool throughput."""
    limit = math.inf
    for pool in core.functional_units:
        frac = mix.get(pool.instruction_class, 0.0)
        if frac > 0:
            limit = min(limit, pool.throughput / frac)
    return limit


def _register_bits_per_writer(mix: dict) -> float:
    """Mean destination-register width over register-writing instructions."""
    int_frac = sum(mix[c] for c in INT_WRITERS)
    fp_frac = sum(mix[c] for c in FP_WRITERS)
    total = int_frac + fp_frac
    if total == 0:
        return 0.0
    return (int_frac * 64.0 + fp_frac * 128.0) / total


def _writer_fraction(mix: dict) -> float:
    return sum(mix[c] for c in INT_WRITERS | FP_WRITERS)


class PhaseFeatures:
    """The environment-independent part of one (phase, core, memory).

    Everything the analysis needs that does not depend on the
    :class:`MemoryEnvironment` is computed here once, as plain floats:
    the five environment-independent CPI components (``base``,
    ``resource``, ``bpred``, ``icache``, ``l2``), their left fold
    ``cpi_prefix``, and the occupancy-model inputs.  Only the
    attributes of the given core type's model are set.
    """

    __slots__ = (
        "core",
        "__weakref__",
        # CPI stack and its environment-dependent inputs
        "base", "resource", "bpred", "icache", "l2", "cpi_prefix", "t_fe",
        "m2", "l3_mpki", "sens_headroom", "l3_lat", "dram_base", "mlp",
        # instruction mix and structure sizes
        "non_nop", "load", "store", "writer_frac", "reg_bits_per_writer",
        "iq_size", "iq_bits", "lq_size", "lq_bits", "sq_size", "sq_bits",
        "rob_size", "rob_bits", "arch_add",
        # big core: ROB occupancy per regime
        "occ_base_fixed", "occ_base_const", "fe_events", "fill_rate",
        "refill_occ", "time_to_fill", "ramp_ttf", "occ_mem",
        "wp_mem", "run_cap", "run_cap_finite",
        # small core: latch, issue-queue and store-queue occupancy
        "latch_bits", "occ_flow", "occ_fe", "occ_stall", "iq_occ_flow",
        "store_drain_extra",
        # functional units: (mix fraction, latency, max in flight, bits)
        "pools", "alu_count", "alu_bits", "extra_frac",
    )

    def __init__(
        self,
        chars: "PhaseCharacteristics",
        core: CoreConfig,
        memory: MemoryConfig,
    ) -> None:
        self.core = core
        big = core.out_of_order
        width = float(core.width)
        m1 = chars.l1d_mpki / 1000.0
        self.m2 = m2 = chars.l2_mpki / 1000.0
        # chars.l3_mpki_at_share(s) == l3_mpki + sens_headroom * (1 - s)
        self.l3_mpki = chars.l3_mpki
        headroom = max(chars.l2_mpki - chars.l3_mpki, 0.0)
        self.sens_headroom = headroom * chars.cache_sensitivity
        br = chars.branch_mpki / 1000.0
        ic = chars.icache_mpki / 1000.0
        l2_lat = float(memory.l2.latency_cycles)
        self.l3_lat = float(memory.l3.latency_cycles)
        self.dram_base = memory.dram_latency_cycles(core.frequency_ghz)

        mix = chars.mix.as_dict()
        producer_lat = _producer_latency(chars)
        if big:
            ipc_dataflow = chars.dep_distance_mean / producer_lat
        else:
            ipc_dataflow = (
                _INORDER_ILP_EFFICIENCY * chars.dep_distance_mean / producer_lat
            )
        ipc_limit = min(width, ipc_dataflow, _fu_throughput_limit(core, mix))

        p_bl = chars.branch_depends_on_load_prob
        self.base = 1.0 / width
        self.resource = 1.0 / ipc_limit - 1.0 / width
        self.icache = ic * (l2_lat + _ICACHE_EXTRA)
        if big:
            drain = producer_lat + _BACKEND_SLACK
            self.bpred = br * (core.frontend_depth + drain * (1.0 - p_bl))
            self.l2 = (m1 - m2) * l2_lat * _L2_EXPOSED_BIG
        else:
            self.bpred = br * core.frontend_depth
            self.l2 = (m1 - m2) * l2_lat  # stall-on-use: fully exposed
        # The left fold sum(components.values()) starts with these five.
        self.cpi_prefix = (
            0.0 + self.base + self.resource + self.bpred + self.icache + self.l2
        )
        self.t_fe = self.bpred + self.icache

        self.non_nop = 1.0 - chars.mix.nop
        self.store = chars.mix.store
        self.iq_size = float(core.issue_queue.entries)
        self.iq_bits = float(core.issue_queue.bits_per_entry)
        self.sq_size = float(core.store_queue.entries)
        self.sq_bits = float(core.store_queue.bits_per_entry)
        self.arch_add = (
            float(core.register_file.arch_bits) * _ARCH_REG_LIVE_FRACTION
        )

        if big:
            assert core.rob is not None and core.load_queue is not None
            self.mlp = chars.mlp
            self.load = chars.mix.load
            self.writer_frac = _writer_fraction(mix)
            self.reg_bits_per_writer = _register_bits_per_writer(mix)
            rob_size = self.rob_size = float(core.rob.entries)
            self.rob_bits = float(core.rob.bits_per_entry)
            self.lq_size = float(core.load_queue.entries)
            self.lq_bits = float(core.load_queue.bits_per_entry)
            # During dependence-bound execution the front end outruns
            # commit, so the ROB ramps toward full between front-end
            # disruptions; _big_body finishes the ramp per environment.
            self.refill_occ = min(rob_size, _REFILL_OCCUPANCY)
            self.fill_rate = max(0.0, width - ipc_limit)
            self.fe_events = br + ic
            self.occ_base_fixed = True
            self.time_to_fill = 1.0
            self.ramp_ttf = 0.0
            if self.fill_rate <= 1e-12:
                # Fetch-bound steady state: Little's law at full width.
                self.occ_base_const = min(
                    rob_size, width * (producer_lat + _BACKEND_SLACK * 2)
                )
            elif self.fe_events <= 1e-12:
                self.occ_base_const = rob_size
            else:
                self.occ_base_fixed = False
                self.occ_base_const = 0.0
                self.time_to_fill = (rob_size - self.refill_occ) / self.fill_rate
                ramp_avg = (self.refill_occ + rob_size) / 2.0
                self.ramp_ttf = ramp_avg * self.time_to_fill
            self.occ_mem = rob_size * _MEM_OCCUPANCY_FACTOR
            self.wp_mem = p_bl * _WRONG_PATH_WINDOW_FRACTION
            # With a misprediction every 1/br instructions, only about
            # half a run of correct-path instructions can be in flight
            # at once; the rest of the window holds un-ACE wrong-path
            # state.
            self.run_cap = _CORRECT_PATH_RUN_FACTOR / br if br > 0 else math.inf
            self.run_cap_finite = math.isfinite(self.run_cap)
        else:
            assert core.pipeline_latches is not None
            # Stall cycles keep the pipeline latches fully occupied;
            # flowing cycles hold roughly IPC * depth instructions.
            latches = core.pipeline_latches
            self.latch_bits = float(latches.bits_per_entry)
            self.occ_stall = float(latches.entries)
            self.occ_flow = min(self.occ_stall, ipc_limit * core.frontend_depth)
            self.occ_fe = self.occ_flow * _FE_OCCUPANCY_FACTOR
            self.iq_occ_flow = min(self.iq_size, ipc_limit)
            self.store_drain_extra = 2.0 * chars.mix.store * 10.0

        self.pools = tuple(
            (
                mix.get(pool.instruction_class, 0.0),
                float(pool.latency),
                float(pool.max_in_flight),
                float(pool.bits),
            )
            for pool in core.functional_units
        )
        # Loads/stores/branches execute on the integer ALUs for one cycle.
        alu = core.fu_pool(InstructionClass.INT_ALU)
        self.alu_count = float(alu.count)
        self.alu_bits = float(alu.bits)
        self.extra_frac = chars.mix.load + chars.mix.store + chars.mix.branch


# -- The environment-dependent model body ----------------------------------
#
# Written once, evaluated two ways: ``f`` is a PhaseFeatures and
# ``share``/``mult`` are floats, or ``f`` is a column view of many
# features and ``share``/``mult`` are numpy arrays (repro.batch).  The
# body uses plain arithmetic plus the two ops it is given, ``minimum``
# and ``where(cond, a, b)``; both branches of a ``where`` are always
# evaluated, so every division is guarded rather than branched around.
# Element-wise float64 ops round exactly like Python float ops, so the
# two evaluations agree bit for bit.


def _where(cond, a, b):
    return a if cond else b


#: The body's ops on Python floats (numpy's are np.minimum, np.where).
FLOAT_OPS = (min, _where)


def _memory_terms(f, share, mult, minimum, where):
    """(L3 misses per instruction, L3-miss-to-data latency in cycles)."""
    share = minimum(where(share < 0.0, 0.0, share), 1.0)
    m3 = minimum((f.l3_mpki + f.sens_headroom * (1.0 - share)) / 1000.0, f.m2)
    return m3, f.l3_lat + f.dram_base * mult


def _fu_bits(f, ipc, minimum):
    """Occupied functional-unit bits per cycle (NOPs never occupy a
    functional unit, so this is also the ACE rate)."""
    occupied = 0.0
    for frac, latency, max_in_flight, bits in f.pools:
        occupied = occupied + minimum(ipc * frac * latency, max_in_flight) * bits
    return occupied + minimum(ipc * f.extra_frac, f.alu_count) * f.alu_bits


def _big_body(f, share, mult, minimum, where):
    """The big core's analysis: ``(llc, mem, cpi, ipc, m3, ace, occ)``,
    ``ace``/``occ`` in :data:`BIG_STRUCTURES` order."""
    m3, dram_lat = _memory_terms(f, share, mult, minimum, where)
    llc = (f.m2 - m3) * f.l3_lat * _L3_EXPOSED_BIG
    mem = m3 * dram_lat / f.mlp
    cpi = f.cpi_prefix + llc + mem
    ipc = 1.0 / cpi

    # Regime decomposition (cycles per instruction in each regime) and
    # the ROB occupancy of each.
    t_base = cpi - mem - f.t_fe - llc
    base_interval = t_base / where(f.occ_base_fixed, 1.0, f.fe_events)
    occ_ramp = where(
        base_interval <= f.time_to_fill,
        f.refill_occ + f.fill_rate * base_interval / 2.0,
        (f.ramp_ttf + f.rob_size * (base_interval - f.time_to_fill))
        / where(base_interval != 0.0, base_interval, 1.0),
    )
    occ_base = where(f.occ_base_fixed, f.occ_base_const, occ_ramp)
    regimes = (
        (t_base, occ_base, "base", 0.0),
        (f.t_fe, occ_base * _FE_OCCUPANCY_FACTOR, "fe", 0.0),
        (llc, (occ_base + f.rob_size) / 2.0, "llc", 0.0),
        (mem, f.occ_mem, "mem", f.wp_mem),
    )

    rob = iq = lq = sq = rf = 0.0
    rob_ace = iq_ace = lq_ace = sq_ace = rf_ace = 0.0
    for t_ci, occ, regime, wrong_path in regimes:
        # Fraction of cycles spent in this regime (none if it is empty).
        weight = where(t_ci > 0.0, t_ci / cpi, 0.0)
        correct_path = 1.0 - wrong_path
        correct_path = where(
            (occ > 0) & f.run_cap_finite,
            minimum(correct_path, f.run_cap / where(occ > 0, occ, 1.0)),
            correct_path,
        )
        ace_frac = f.non_nop * correct_path
        occ_iq = minimum(f.iq_size, occ * _IQ_FRACTION[regime])
        occ_lq = minimum(f.lq_size, occ * f.load)
        occ_sq = minimum(f.sq_size, occ * f.store * _STORE_RESIDENCY)
        live_regs = occ * f.writer_frac * _REG_LIVE_FRACTION[regime]

        rob_bits = weight * occ * f.rob_bits
        iq_bits = weight * occ_iq * f.iq_bits
        lq_bits = weight * occ_lq * f.lq_bits
        sq_bits = weight * occ_sq * f.sq_bits
        rob = rob + rob_bits
        iq = iq + iq_bits
        lq = lq + lq_bits
        sq = sq + sq_bits
        rf = rf + weight * (live_regs * f.reg_bits_per_writer)
        rob_ace = rob_ace + rob_bits * ace_frac
        iq_ace = iq_ace + iq_bits * ace_frac
        lq_ace = lq_ace + lq_bits * ace_frac
        sq_ace = sq_ace + sq_bits * ace_frac
        rf_ace = rf_ace + weight * (live_regs * f.reg_bits_per_writer * ace_frac)

    fu = _fu_bits(f, ipc, minimum)
    # Live architectural registers are ACE independent of occupancy.
    return (
        llc, mem, cpi, ipc, m3,
        (rob_ace, iq_ace, lq_ace, sq_ace, rf_ace + f.arch_add, fu),
        (rob, iq, lq, sq, rf + f.arch_add, fu),
    )


def _small_body(f, share, mult, minimum, where):
    """The small core's analysis: ``(llc, mem, cpi, ipc, m3, ace,
    occ)``, ``ace``/``occ`` in :data:`SMALL_STRUCTURES` order."""
    m3, dram_lat = _memory_terms(f, share, mult, minimum, where)
    llc = (f.m2 - m3) * f.l3_lat
    mem = m3 * dram_lat / _SMALL_MLP
    cpi = f.cpi_prefix + llc + mem
    ipc = 1.0 / cpi

    t_stall = f.l2 + llc + mem
    t_flow = cpi - t_stall - f.t_fe
    sq_base = minimum(f.sq_size, ipc * f.store * _SMALL_STORE_DRAIN)
    # (cycles per instruction, latch, issue-queue, store-queue occupancy)
    regimes = (
        (t_flow, f.occ_flow, f.iq_occ_flow, sq_base),
        (f.t_fe, f.occ_fe, 0.5, sq_base * 0.5),
        (t_stall, f.occ_stall, f.iq_size,
         minimum(f.sq_size, sq_base + f.store_drain_extra)),
    )

    pl = iq = sq = 0.0
    pl_ace = iq_ace = sq_ace = 0.0
    for t_ci, occ, occ_iq, occ_sq in regimes:
        weight = where(t_ci > 0.0, t_ci / cpi, 0.0)
        pl_bits = weight * occ * f.latch_bits
        iq_bits = weight * occ_iq * f.iq_bits
        sq_bits = weight * occ_sq * f.sq_bits
        pl = pl + pl_bits
        iq = iq + iq_bits
        sq = sq + sq_bits
        pl_ace = pl_ace + pl_bits * f.non_nop
        iq_ace = iq_ace + iq_bits * f.non_nop
        sq_ace = sq_ace + sq_bits * f.non_nop

    fu = _fu_bits(f, ipc, minimum)
    # Live architectural registers are ACE on either core type (ground
    # truth).  The small core's cheap counter hardware does not measure
    # them (see repro.ace.counters.measured_abc).
    return (
        llc, mem, cpi, ipc, m3,
        (pl_ace, iq_ace, sq_ace, f.arch_add, fu),
        (pl, iq, sq, f.arch_add, fu),
    )


def _analysis(
    f: PhaseFeatures, body, structures, env: MemoryEnvironment
) -> PhaseAnalysis:
    llc, mem, cpi, ipc, m3, ace, occupancy = body(
        f, env.l3_share_fraction, env.dram_latency_multiplier, *FLOAT_OPS
    )
    return PhaseAnalysis(
        ipc=ipc,
        cpi_components={
            "base": f.base,
            "resource": f.resource,
            "bpred": f.bpred,
            "icache": f.icache,
            "l2": f.l2,
            "llc": llc,
            "mem": mem,
        },
        ace_bits_per_cycle=dict(zip(structures, ace)),
        occupancy_bits_per_cycle=dict(zip(structures, occupancy)),
        dram_accesses_per_instruction=m3,
        l3_accesses_per_instruction=f.m2,
    )


def analyze_big_phase(
    chars: "PhaseCharacteristics",
    core: CoreConfig,
    memory: MemoryConfig,
    env: MemoryEnvironment,
    features: PhaseFeatures | None = None,
) -> PhaseAnalysis:
    """Analyze one phase on the big out-of-order core.

    ``features``, if given, must be ``PhaseFeatures(chars, core,
    memory)``, built earlier; otherwise they are built here.
    """
    if not core.out_of_order:
        raise ValueError("analyze_big_phase requires an out-of-order core")
    if features is None:
        features = PhaseFeatures(chars, core, memory)
    return _analysis(features, _big_body, BIG_STRUCTURES, env)


def analyze_small_phase(
    chars: "PhaseCharacteristics",
    core: CoreConfig,
    memory: MemoryConfig,
    env: MemoryEnvironment,
    features: PhaseFeatures | None = None,
) -> PhaseAnalysis:
    """Analyze one phase on the small in-order core (``features`` as
    for :func:`analyze_big_phase`)."""
    if core.out_of_order:
        raise ValueError("analyze_small_phase requires an in-order core")
    if features is None:
        features = PhaseFeatures(chars, core, memory)
    return _analysis(features, _small_body, SMALL_STRUCTURES, env)


def model_body(core: CoreConfig):
    """The model body of a core's type and its structure order."""
    if core.out_of_order:
        return _big_body, BIG_STRUCTURES
    return _small_body, SMALL_STRUCTURES


def analyze_phase(
    chars: "PhaseCharacteristics",
    core: CoreConfig,
    memory: MemoryConfig,
    env: MemoryEnvironment,
) -> PhaseAnalysis:
    """Analyze a phase on whichever core type is given."""
    if core.out_of_order:
        return analyze_big_phase(chars, core, memory, env)
    return analyze_small_phase(chars, core, memory, env)


class MechanisticCoreModel(CoreModel):
    """O(1)-per-quantum core model driven by benchmark profiles.

    A model memoizes two things for as long as it lives, both keyed on
    the phase's ``id`` with an entry that keeps its phase (which guards
    against a recycled ``id``):

    * :attr:`features`: the phase's :class:`PhaseFeatures` on this
      model's core and memory, keyed on ``id(phase)``;
    * :attr:`memo`: the phase's analysis under one environment, keyed
      on ``(id(phase), l3_share_fraction, dram_latency_multiplier)``.
      An entry holds only values, ``(phase, cpi, DRAM accesses per
      instruction, L3 accesses per instruction, mispredictions per
      instruction, ACE bits per cycle, occupied bits per cycle)``, the
      last two in :attr:`structures` order.

    A memo miss calls the module-level :func:`analyze_big_phase` or
    :func:`analyze_small_phase` once, with the phase's memoized
    features.  Build one model per run (as
    :func:`repro.sim.multicore.default_models` does): environments
    rarely repeat across runs, so a longer-lived model only grows.
    """

    def __init__(self, core: CoreConfig, memory: MemoryConfig | None = None):
        super().__init__(core)
        self.memory = memory if memory is not None else MemoryConfig()
        self.structures = (
            BIG_STRUCTURES if core.out_of_order else SMALL_STRUCTURES
        )
        self.features: dict[int, tuple] = {}
        self.memo: dict[tuple[int, float, float], tuple] = {}

    def phase_features(self, chars: "PhaseCharacteristics") -> PhaseFeatures:
        """The phase's features on this model's core, built once."""
        entry = self.features.get(id(chars))
        if entry is None or entry[0] is not chars:
            entry = self.features[id(chars)] = (
                chars,
                PhaseFeatures(chars, self.core, self.memory),
            )
        return entry[1]

    def analyze(
        self, chars: "PhaseCharacteristics", env: MemoryEnvironment
    ) -> PhaseAnalysis:
        """A fresh analysis of the phase, from its memoized features."""
        analyze = (
            analyze_big_phase if self.core.out_of_order else analyze_small_phase
        )
        return analyze(
            chars, self.core, self.memory, env, self.phase_features(chars)
        )

    def _miss(self, chars: "PhaseCharacteristics", env: MemoryEnvironment):
        """Analyze a phase under an environment into a new memo entry."""
        analysis = self.analyze(chars, env)
        entry = self.memo[
            (id(chars), env.l3_share_fraction, env.dram_latency_multiplier)
        ] = (
            chars,
            analysis.cpi,
            analysis.dram_accesses_per_instruction,
            analysis.l3_accesses_per_instruction,
            chars.branch_mpki / 1000.0,
            # The analyzers build these dicts in structure order.
            tuple(analysis.ace_bits_per_cycle.values()),
            tuple(analysis.occupancy_bits_per_cycle.values()),
        )
        return entry

    def run_cycles(
        self,
        app: "BenchmarkProfile",
        start_instruction: int,
        cycles: float,
        env: MemoryEnvironment,
    ) -> QuantumResult:
        """Advance a profile through a cycle budget, phase by phase.

        Each phase chunk is homogeneous, so its phase's analysis applies
        uniformly across it.  The chunks fold into one result in
        :meth:`QuantumResult.merged_with`'s order: the first chunk as
        is, each later one added to the running totals.
        """
        if cycles <= 0:
            return QuantumResult.zero()
        memo = self.memo
        share = env.l3_share_fraction
        mult = env.dram_latency_multiplier
        position = start_instruction
        remaining = float(cycles)
        ace = occupancy = None
        to_phase_end = 0
        while remaining > 1e-9:
            if to_phase_end <= 0:
                # Left the phase (or just started): look up the next.
                chars, to_phase_end = app.phase_extent(position)
                entry = memo.get((id(chars), share, mult))
                if entry is None or entry[0] is not chars:
                    entry = self._miss(chars, env)
                _, cpi, dram_pi, l3_pi, branch_pi, ace_rate, occupancy_rate = (
                    entry
                )
            chunk_cycles = min(remaining, to_phase_end * cpi)
            n = int(round(chunk_cycles / cpi))
            if n <= 0:
                # Budget too small to commit a single instruction in
                # this phase; consume the remaining cycles idle.  Like
                # merged_with, an idle chunk after others adds its
                # cycles and zero accesses; alone, it has no keys.
                if ace is None:
                    return QuantumResult(instructions=0, cycles=remaining)
                total_cycles += remaining
                dram += 0.0
                l3 += 0.0
                branches += 0.0
                break
            chunk_cycles = n * cpi
            if ace is None:
                instructions = n
                total_cycles = chunk_cycles
                ace = tuple([v * chunk_cycles for v in ace_rate])
                occupancy = tuple([v * chunk_cycles for v in occupancy_rate])
                dram = dram_pi * n
                l3 = l3_pi * n
                branches = branch_pi * n
            else:
                instructions += n
                total_cycles += chunk_cycles
                ace = tuple(
                    [a + v * chunk_cycles for a, v in zip(ace, ace_rate)]
                )
                occupancy = tuple(
                    [
                        a + v * chunk_cycles
                        for a, v in zip(occupancy, occupancy_rate)
                    ]
                )
                dram += dram_pi * n
                l3 += l3_pi * n
                branches += branch_pi * n
            position += n
            to_phase_end -= n
            remaining -= chunk_cycles
        if ace is None:
            return QuantumResult.zero()
        return QuantumResult.dense(
            instructions,
            total_cycles,
            self.structures,
            ace,
            occupancy,
            dram,
            l3,
            branches,
        )
