"""The mechanistic model's run-scoped phase-analysis memo.

A model memoizes its phase features and analyses, accounts
per-structure values densely and folds a slice's chunks in place; none
of it may change a single bit of what ``run_cycles`` reports.  Two
references below: the plain loop the model implements (one fresh
analysis per phase chunk, accumulated through dicts), and the
chunk-and-merge loop it replaced (one ``QuantumResult`` per chunk,
folded with ``merged_with``).
"""

import gc
import weakref

from hypothesis import example, given, settings, strategies as st

from repro.config import (
    MemoryConfig,
    big_core_config,
    machine_2b2s,
    small_core_config,
)
from repro.cores import mechanistic
from repro.cores.base import MemoryEnvironment, QuantumResult
from repro.cores.mechanistic import (
    MechanisticCoreModel,
    PhaseFeatures,
    analyze_phase,
)
from repro.sched.oracle import StaticScheduler
from repro.sim.experiment import make_scheduler
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

    def test_recycled_phase_id_does_not_reuse_features(self):
        model = MechanisticCoreModel(small_core_config(), MemoryConfig())
        app = benchmark("milc").scaled(1_000_000)
        model.run_cycles(app, 0, 10_000, ENVS[0])
        other = benchmark("povray").scaled(1_000_000)
        # As if milc's phase had been freed and its id reused.
        model.features[id(other.phase_at(0))] = next(
            iter(model.features.values())
        )
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


def _chunks(model, app, start, cycles, env):
    """The phase chunks of the loop ``run_cycles`` replaced, one
    ``QuantumResult`` each; an idle chunk has no structure keys."""
    chunks = []
    position = start
    remaining = float(cycles)
    while remaining > 1e-9:
        chars, to_phase_end = app.phase_extent(position)
        analysis = analyze_phase(chars, model.core, model.memory, env)
        cpi = analysis.cpi
        chunk_cycles = min(remaining, to_phase_end * cpi)
        instructions = int(round(chunk_cycles / cpi))
        if instructions <= 0:
            chunks.append(QuantumResult(instructions=0, cycles=remaining))
            break
        chunk_cycles = instructions * cpi
        ace = analysis.ace_bits_per_cycle
        occupancy = analysis.occupancy_bits_per_cycle
        chunks.append(
            QuantumResult.dense(
                instructions,
                chunk_cycles,
                model.structures,
                tuple([ace[k] * chunk_cycles for k in model.structures]),
                tuple([occupancy[k] * chunk_cycles for k in model.structures]),
                analysis.dram_accesses_per_instruction * instructions,
                analysis.l3_accesses_per_instruction * instructions,
                chars.branch_mpki / 1000.0 * instructions,
            )
        )
        position += instructions
        remaining -= chunk_cycles
    return chunks


def _chunk_and_merge(model, app, start, cycles, env):
    """``run_cycles`` as it was: its chunks folded with ``merged_with``."""
    if cycles <= 0:
        return QuantumResult.zero()
    result = None
    for chunk in _chunks(model, app, start, cycles, env):
        result = chunk if result is None else result.merged_with(chunk)
    return result if result is not None else QuantumResult.zero()


def _assert_same_result(got, want):
    for name in QuantumResult.__slots__:
        assert getattr(got, name) == getattr(want, name), name
        assert type(getattr(got, name)) is type(getattr(want, name)), name


class TestRunCyclesFoldOrder:
    """``run_cycles`` folds its chunks in place, in the old loop's
    order: the first chunk as is, later chunks added on the left, an
    idle tail adding its cycles and ``0.0`` accesses, an idle first
    chunk giving the key-less result."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(CORES)),
        st.sampled_from(PHASED),
        st.integers(20_000, 1_000_000),
        st.integers(0, 4_000_000),  # past the end: restart wrap
        st.one_of(
            st.floats(0.0, 1.0),  # below one instruction: idle first chunk
            st.floats(1.0, 50_000.0),  # usually ends mid-phase: idle tail
            st.floats(50_000.0, 3_000_000.0),  # several phase chunks
        ),
        _env,
    )
    @example("big", "calculix", 20_000, 34_400, 3_000.5, ENVS[1])
    @example("small", "xalancbmk", 20_000, 47_900, 9_000.25, ENVS[2])
    @example("big", "soplex", 20_000, 0, 0.25, ENVS[0])
    @example("small", "dealII", 20_000, 0, 1e-10, ENVS[0])
    def test_matches_chunk_and_merge(
        self, core, name, instructions, start, cycles, env
    ):
        app = benchmark(name).scaled(instructions)
        model = MechanisticCoreModel(CORES[core], MemoryConfig())
        want = _chunk_and_merge(model, app, start, cycles, env)
        # Fresh memo, then a memo hit.
        _assert_same_result(model.run_cycles(app, start, cycles, env), want)
        _assert_same_result(model.run_cycles(app, start, cycles, env), want)

    def test_fold_cases_occur(self):
        """The strategies above reach each fold case."""
        app = benchmark("calculix").scaled(20_000)
        for core in CORES.values():
            model = MechanisticCoreModel(core, MemoryConfig())
            idle_first = model.run_cycles(app, 0, 0.25, ENVS[0])
            assert idle_first.ace_keys == ()
            assert (idle_first.instructions, idle_first.cycles) == (0, 0.25)
            # From 600 instructions before calculix's phase boundary,
            # on the profile's second pass: two committed chunks, then
            # (for some budgets) an idle tail.
            patterns = set()
            for k in range(40):
                budget = 3_000.5 + 0.37 * k
                chunks = _chunks(model, app, 34_400, budget, ENVS[1])
                patterns.add(tuple(bool(c.ace_keys) for c in chunks))
                _assert_same_result(
                    model.run_cycles(app, 34_400, budget, ENVS[1]),
                    _chunk_and_merge(model, app, 34_400, budget, ENVS[1]),
                )
            assert (True, True, False) in patterns
            assert (True, True) in patterns


def _count_calls(monkeypatch, owner, attr):
    """Wrap ``owner.attr`` and return the list its calls append to."""
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


class TestMemoAttribution:
    """Over one simulation run: each memo miss calls the module-level
    analyzer once, each phase's features are built once per core type,
    and everything lives in the run's models."""

    def _simulation(self):
        machine = machine_2b2s()
        profiles = [
            benchmark(n).scaled(3_000_000)
            for n in ("xalancbmk", "milc", "soplex", "calculix")
        ]
        scheduler = make_scheduler("random", machine, 4, seed=3)
        return MulticoreSimulation(machine, profiles, scheduler), profiles

    def test_analyzer_calls_and_feature_builds(self, monkeypatch):
        built = _count_calls(monkeypatch, PhaseFeatures, "__init__")
        sim, profiles = self._simulation()
        big = _count_calls(monkeypatch, mechanistic, "analyze_big_phase")
        small = _count_calls(monkeypatch, mechanistic, "analyze_small_phase")
        sim.run()
        models = sim.models.values()
        assert len(big) + len(small) == sum(len(m.memo) for m in models)
        assert big and small
        # Every miss hands the analyzer the model's memoized features.
        features = {
            id(f) for m in models for _, f in m.features.values()
        }
        assert all(id(call[4]) in features for call in big + small)
        phases = {id(chars) for p in profiles for _, chars in p.phases}
        assert len(built) == sum(len(m.features) for m in models)
        assert len(built) <= 2 * len(phases)

    def test_run_state_is_freed_with_the_run(self):
        sim, _ = self._simulation()
        sim.run()
        refs = [weakref.ref(m) for m in sim.models.values()]
        refs += [
            weakref.ref(f)
            for m in sim.models.values()
            for _, f in m.features.values()
        ]
        assert len(refs) > 2
        del sim
        gc.collect()
        assert all(ref() is None for ref in refs)
