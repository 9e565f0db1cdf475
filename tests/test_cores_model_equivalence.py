"""One mechanistic model, evaluated on floats and on numpy arrays.

``analyze_big_phase``/``analyze_small_phase`` run the model body of
``repro.cores.mechanistic`` on Python floats; ``analyze_phase_batch``
runs the same body on numpy columns.  The two must agree bit for bit
on every input -- including the corners where the body masks a branch
instead of taking it -- and must keep agreeing when a model constant
changes.  The batched engine must also leave no model state behind
once a sweep is gone.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch.analysis import STRUCTURE_COLUMNS, analyze_phase_batch
from repro.config import MemoryConfig, big_core_config, small_core_config
from repro.config.machines import STANDARD_MACHINES
from repro.cores import mechanistic
from repro.cores.base import MemoryEnvironment
from repro.cores.mechanistic import (
    PhaseFeatures,
    analyze_big_phase,
    analyze_small_phase,
)
from repro.sim.experiment import sweep
from repro.workloads.characteristics import (
    InstructionMix,
    PhaseCharacteristics,
)
from repro.workloads.spec2006 import SUITE

MEMORY = MemoryConfig()
CORES = {
    "big": (big_core_config(), analyze_big_phase),
    "small": (small_core_config(), analyze_small_phase),
}
SUITE_PHASES = tuple(chars for prof in SUITE.values() for _, chars in prof.phases)
ENVS = (
    MemoryEnvironment(),
    MemoryEnvironment(0.5, 1.25),
    MemoryEnvironment(0.0625, 3.5),
    MemoryEnvironment(0.9, 1.0),
)


def _scalar_row(analysis):
    """The scalar analysis in the batch's layout, as exact hex floats."""
    ace = [0.0] * len(STRUCTURE_COLUMNS)
    occupancy = [0.0] * len(STRUCTURE_COLUMNS)
    for kind, value in analysis.ace_bits_per_cycle.items():
        ace[STRUCTURE_COLUMNS.index(kind)] = value
    for kind, value in analysis.occupancy_bits_per_cycle.items():
        occupancy[STRUCTURE_COLUMNS.index(kind)] = value
    values = (
        analysis.cpi,
        *ace,
        *occupancy,
        analysis.dram_accesses_per_instruction,
        analysis.l3_accesses_per_instruction,
    )
    return [float(v).hex() for v in values]


def _batch_rows(batch):
    return [
        [
            float(v).hex()
            for v in (
                batch.cpi[i],
                *batch.ace[i],
                *batch.occupancy[i],
                batch.dram_pi[i],
                batch.l3_pi[i],
            )
        ]
        for i in range(len(batch.cpi))
    ]


def _assert_agree(cases, envs):
    """Scalar and array evaluations of ``cases`` x ``envs`` agree."""
    feats, shares, mults, expected = [], [], [], []
    for kind, chars in cases:
        core, analyze = CORES[kind]
        feat = PhaseFeatures(chars, core, MEMORY)
        for env in envs:
            feats.append(feat)
            shares.append(env.l3_share_fraction)
            mults.append(env.dram_latency_multiplier)
            expected.append(_scalar_row(analyze(chars, core, MEMORY, env)))
    assert _batch_rows(analyze_phase_batch(feats, shares, mults)) == expected


# -- random phases ---------------------------------------------------------

_FRACTIONS = st.lists(
    st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=10, max_size=10
).filter(lambda f: sum(f[1:]) > 0.05)


@st.composite
def phases(draw):
    """Valid phase characteristics, often sitting on a model corner."""
    raw = draw(_FRACTIONS)
    total = sum(raw)
    mix = InstructionMix(*(f / total for f in raw))
    l1d = draw(st.floats(0.0, 80.0))
    l2 = draw(st.one_of(st.just(0.0), st.just(l1d), st.floats(0.0, l1d)))
    l3 = draw(st.one_of(st.just(0.0), st.just(l2), st.floats(0.0, l2)))
    return PhaseCharacteristics(
        mix=mix,
        dep_distance_mean=draw(
            st.one_of(st.just(1.0), st.just(500.0), st.floats(1.0, 40.0))
        ),
        branch_mpki=draw(
            st.one_of(st.just(0.0), st.floats(0.0, 1000.0 * mix.branch))
        ),
        icache_mpki=draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0))),
        l1d_mpki=l1d,
        l2_mpki=l2,
        l3_mpki=l3,
        cache_sensitivity=draw(st.floats(0.0, 1.0)),
        mlp=draw(st.floats(1.0, 8.0)),
        branch_depends_on_load_prob=draw(st.floats(0.0, 1.0)),
    )


environments = st.builds(
    MemoryEnvironment,
    st.one_of(st.just(1.0), st.floats(1e-4, 1.0)),
    st.floats(1.0, 6.0),
)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(CORES)),
    chars=phases(),
    envs=st.lists(environments, min_size=1, max_size=4),
)
def test_scalar_and_array_agree_on_random_phases(kind, chars, envs):
    _assert_agree([(kind, chars)], envs)


def test_scalar_and_array_agree_on_the_suite():
    cases = [(kind, chars) for kind in CORES for chars in SUITE_PHASES]
    _assert_agree(cases, ENVS)


# -- the branch corners, each asserted to be reached -----------------------


def _regimes_empty(chars, env):
    """Which big-core regimes (fe, llc, mem) get no cycles."""
    analysis = analyze_big_phase(chars, CORES["big"][0], MEMORY, env)
    parts = analysis.cpi_components
    return (
        parts["bpred"] + parts["icache"] <= 0.0,
        parts["llc"] <= 0.0,
        parts["mem"] <= 0.0,
    )


def test_corner_no_mispredictions_uncaps_the_window():
    chars = PhaseCharacteristics(branch_mpki=0.0)
    feat = PhaseFeatures(chars, CORES["big"][0], MEMORY)
    assert not feat.run_cap_finite
    _assert_agree([("big", chars), ("small", chars)], ENVS)


def test_corner_fetch_bound_phase_has_no_fill_rate():
    chars = PhaseCharacteristics(dep_distance_mean=500.0, mix=InstructionMix(
        nop=0.0, int_alu=0.6, load=0.2, store=0.1, branch=0.1,
        int_mul=0.0,
    ))
    feat = PhaseFeatures(chars, CORES["big"][0], MEMORY)
    assert feat.fill_rate <= 1e-12 and feat.occ_base_fixed
    _assert_agree([("big", chars), ("small", chars)], ENVS)


def test_corner_no_front_end_events():
    chars = PhaseCharacteristics(branch_mpki=0.0, icache_mpki=0.0)
    feat = PhaseFeatures(chars, CORES["big"][0], MEMORY)
    assert feat.fill_rate > 1e-12 and feat.fe_events <= 1e-12
    assert _regimes_empty(chars, ENVS[0])[0]
    _assert_agree([("big", chars), ("small", chars)], ENVS)


def test_corner_empty_memory_regimes():
    # Every L2 miss also misses the L3 (no LLC regime), and a phase
    # that never reaches DRAM (no memory regime).
    all_miss = PhaseCharacteristics(l2_mpki=3.0, l3_mpki=3.0)
    no_dram = PhaseCharacteristics(l2_mpki=0.0, l3_mpki=0.0)
    assert _regimes_empty(all_miss, ENVS[1])[1]
    assert _regimes_empty(no_dram, ENVS[1])[1:] == (True, True)
    cases = [(kind, c) for kind in CORES for c in (all_miss, no_dram)]
    _assert_agree(cases, ENVS)


def test_llc_miss_rate_follows_the_phase_sharing_curve():
    """The model's L3 miss rate is ``PhaseCharacteristics.l3_mpki_at_share``
    (capped by the L2 miss rate), bit for bit."""
    for chars in SUITE_PHASES:
        for env in ENVS:
            analysis = analyze_big_phase(chars, CORES["big"][0], MEMORY, env)
            expected = min(
                chars.l3_mpki_at_share(env.l3_share_fraction) / 1000.0,
                chars.l2_mpki / 1000.0,
            )
            assert analysis.dram_accesses_per_instruction == expected


# -- one set of constants --------------------------------------------------

DRIFTED = (
    ("_L3_EXPOSED_BIG", 0.7),
    ("_FE_OCCUPANCY_FACTOR", 0.4),
    ("_STORE_RESIDENCY", 1.5),
    ("_SMALL_STORE_DRAIN", 4.0),
    ("_MEM_OCCUPANCY_FACTOR", 0.8),
    ("_IQ_FRACTION", {"base": 0.25, "fe": 0.15, "llc": 0.35, "mem": 0.4}),
    ("_REG_LIVE_FRACTION", {"base": 0.3, "fe": 0.25, "llc": 0.45, "mem": 0.6}),
)


@pytest.mark.parametrize("name,value", DRIFTED, ids=[d[0] for d in DRIFTED])
def test_a_changed_constant_changes_both_evaluations(monkeypatch, name, value):
    cases = [(kind, chars) for kind in CORES for chars in SUITE_PHASES[:12]]
    before = [
        _scalar_row(CORES[kind][1](chars, CORES[kind][0], MEMORY, env))
        for kind, chars in cases
        for env in ENVS
    ]
    monkeypatch.setattr(mechanistic, name, value)
    after = [
        _scalar_row(CORES[kind][1](chars, CORES[kind][0], MEMORY, env))
        for kind, chars in cases
        for env in ENVS
    ]
    assert after != before  # the constant is live in the model
    _assert_agree(cases, ENVS)


# -- no model state outlives a sweep ---------------------------------------


def test_repeated_sweeps_leave_no_model_state_behind():
    """Feature records live in the sweep, not in a process-wide cache:
    once a sweep is gone, nothing pins its machine's configs."""
    refs = []
    for _ in range(3):
        machine = STANDARD_MACHINES["1B1S"]()
        sweep(
            machine,
            [("milc", "povray")],
            ("random",),
            instructions=200_000,
            batched=True,
        )
        refs += [
            weakref.ref(machine),
            weakref.ref(machine.big),
            weakref.ref(machine.small),
            weakref.ref(machine.memory),
        ]
        del machine
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
