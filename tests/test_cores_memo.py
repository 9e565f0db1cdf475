"""The mechanistic model's run-scoped phase-analysis memo.

A model memoizes its phase analyses and accounts per-structure values
densely; neither may change a single bit of what ``run_cycles``
reports.  The reference below is the plain loop the model implements:
one fresh analysis per phase chunk, accumulated through dicts.
"""

import gc

from hypothesis import given, settings, strategies as st

from repro.config import (
    MemoryConfig,
    big_core_config,
    machine_2b2s,
    small_core_config,
)
from repro.cores.base import MemoryEnvironment
from repro.cores.mechanistic import MechanisticCoreModel, analyze_phase
from repro.sched.oracle import StaticScheduler
from repro.service import (
    OpenSystem,
    ServiceConfig,
    make_process,
    service_benchmark_pool,
)
from repro.sim.multicore import MulticoreSimulation
from repro.workloads.spec2006 import benchmark

#: Multi-phase benchmarks (two or three phases each).
PHASED = ("xalancbmk", "leslie3d", "dealII", "soplex", "calculix")
CORES = {"big": big_core_config(), "small": small_core_config()}
#: A few fixed environments, so calls repeat them (memo hits); pairs
#: share one key field and differ in the other.
ENVS = (
    MemoryEnvironment(),
    MemoryEnvironment(0.5, 1.25),
    MemoryEnvironment(0.5, 1.75),
    MemoryEnvironment(0.3125, 1.25),
)


def _bits(instructions, cycles, ace, occupancy, memory, l3, branches):
    """Exact representation: ``repr`` round-trips every float."""
    return repr(
        (instructions, cycles, tuple(ace.items()), tuple(occupancy.items()),
         memory, l3, branches)
    )


def _result_bits(result):
    return _bits(
        result.instructions,
        result.cycles,
        result.ace_bit_cycles,
        result.occupancy_bit_cycles,
        result.memory_accesses,
        result.l3_accesses,
        result.branch_mispredictions,
    )


def _reference_bits(model, app, start, cycles, env):
    """``run_cycles`` without a memo, accumulated through dicts."""
    instructions, total, memory, l3, branches = 0, 0.0, 0.0, 0.0, 0.0
    ace: dict = {}
    occupancy: dict = {}
    position, remaining = start, float(cycles)
    while remaining > 1e-9:
        chars = app.phase_at(position)
        analysis = analyze_phase(chars, model.core, model.memory, env)
        cpi = analysis.cpi
        chunk = min(remaining, app.instructions_until_phase_change(position) * cpi)
        n = int(round(chunk / cpi))
        if n <= 0:
            total += remaining
            break
        chunk = n * cpi
        for k, v in analysis.ace_bits_per_cycle.items():
            ace[k] = ace.get(k, 0.0) + v * chunk
        for k, v in analysis.occupancy_bits_per_cycle.items():
            occupancy[k] = occupancy.get(k, 0.0) + v * chunk
        instructions += n
        total += chunk
        memory += analysis.dram_accesses_per_instruction * n
        l3 += analysis.l3_accesses_per_instruction * n
        branches += chars.branch_mpki / 1000.0 * n
        position += n
        remaining -= chunk
    return _bits(instructions, total, ace, occupancy, memory, l3, branches)


_env = st.one_of(
    st.sampled_from(ENVS),
    st.builds(
        MemoryEnvironment,
        st.floats(0.05, 1.0),
        st.floats(1.0, 3.0),
    ),
)
_call = st.tuples(
    st.integers(0, 3_000_000),  # start position (wraps past the end)
    st.one_of(st.floats(0.0, 2.0), st.floats(1.0, 400_000.0)),  # budget
    _env,
)


class TestMemoIsBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(CORES)),
        st.sampled_from(PHASED),
        st.integers(20_000, 1_000_000),
        st.lists(_call, min_size=1, max_size=12),
    )
    def test_memoized_matches_fresh_and_reference(
        self, core, name, instructions, calls
    ):
        memory = MemoryConfig()
        app = benchmark(name).scaled(instructions)
        model = MechanisticCoreModel(CORES[core], memory)
        # Repeat the whole sequence so the second round hits the memo.
        for start, cycles, env in calls + calls:
            memoized = model.run_cycles(app, start, cycles, env)
            fresh = MechanisticCoreModel(CORES[core], memory).run_cycles(
                app, start, cycles, env
            )
            assert _result_bits(memoized) == _result_bits(fresh)
            assert _result_bits(memoized) == _reference_bits(
                model, app, start, cycles, env
            )

    def test_phase_boundary_crossing_hits_memo(self):
        model = MechanisticCoreModel(big_core_config(), MemoryConfig())
        app = benchmark("calculix").scaled(10_000)
        env = ENVS[1]
        first = model.run_cycles(app, 7_400, 1_000_000, env)
        entries = len(model.memo)
        again = model.run_cycles(app, 7_400, 1_000_000, env)
        assert entries >= 2  # both phases of the crossing
        assert len(model.memo) == entries
        assert _result_bits(first) == _result_bits(again)
        assert _result_bits(again) == _reference_bits(
            model, app, 7_400, 1_000_000, env
        )

    def test_recycled_phase_id_is_not_a_hit(self):
        model = MechanisticCoreModel(big_core_config(), MemoryConfig())
        app = benchmark("milc").scaled(1_000_000)
        chars = app.phase_at(0)
        model.run_cycles(app, 0, 10_000, ENVS[0])
        key = next(iter(model.memo))
        other = benchmark("povray").scaled(1_000_000)
        # Plant the entry under another phase's id, as if milc's phase
        # had been freed and its id reused.
        model.memo[(id(other.phase_at(0)),) + key[1:]] = model.memo[key]
        assert model.memo[key][0] is chars
        result = model.run_cycles(other, 0, 10_000, ENVS[0])
        assert _result_bits(result) == _reference_bits(
            model, other, 0, 10_000, ENVS[0]
        )


def _live_memo_entries() -> int:
    gc.collect()
    return sum(
        len(obj.memo)
        for obj in gc.get_objects()
        if isinstance(obj, MechanisticCoreModel)
    )


class TestMemoScope:
    def test_new_simulation_starts_with_empty_memo(self):
        machine = machine_2b2s()
        profiles = [
            benchmark(n).scaled(2_000_000)
            for n in ("povray", "milc", "soplex", "bzip2")
        ]
        first = MulticoreSimulation(
            machine, profiles, StaticScheduler(machine, 4, (0, 1))
        )
        first.run()
        assert all(model.memo for model in first.models.values())
        second = MulticoreSimulation(
            machine, profiles, StaticScheduler(machine, 4, (0, 1))
        )
        for kind, model in second.models.items():
            assert model.memo == {}
            assert model is not first.models[kind]

    def test_service_load_points_leave_no_memo_behind(self):
        config = ServiceConfig(machine=machine_2b2s(), queue_capacity=8)
        before = _live_memo_entries()
        for seed in (0, 1):
            system = OpenSystem(config)
            process = make_process(
                "poisson",
                800.0,
                service_benchmark_pool(),
                seed=seed,
                instructions=200_000,
            )
            system.enqueue_arrivals(process.stream(40))
            system.run()
            # The run's slices shared its models' memos ...
            assert any(model.memo for model in system._models.values())
            del system
            # ... and nothing process-wide kept them.
            assert _live_memo_entries() == before
