"""Tests for the paper-invariant registry and check runners."""

import copy

import pytest

from repro.check import (
    CheckReport,
    Severity,
    Violation,
    check_oracle,
    check_run,
    check_schedule,
    check_stack,
    default_run_checks,
    merge_reports,
    registered_invariants,
)
from repro.check.invariants import invariant
from repro.config import MemoryConfig, big_core_config, machine_1b1s
from repro.config.machines import STANDARD_MACHINES
from repro.cores.base import QuantumResult
from repro.cores.mechanistic import MechanisticCoreModel
from repro.sched.base import Assignment, SegmentPlan
from repro.sim.experiment import run_workload
from repro.sim.isolated import isolated_stats, run_isolated
from repro.sim.multicore import default_models
from repro.workloads.spec2006 import benchmark


@pytest.fixture(scope="module")
def small_run():
    machine = machine_1b1s()
    return run_workload(
        machine, ("milc", "povray"), "reliability", instructions=100_000
    )


class TestRegistry:
    def test_every_subject_kind_has_invariants(self):
        for kind in ("run", "stack", "schedule", "oracle", "differential",
                     "service"):
            assert registered_invariants(kind), kind

    def test_descriptions_and_severities(self):
        for inv in registered_invariants():
            assert inv.description, inv.name
            assert inv.severity in (Severity.ERROR, Severity.WARNING)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            @invariant("wser_definition")
            def _clash(result):
                """Never registered."""
                yield "boom", {}

    def test_unknown_subject_kind_selects_nothing(self):
        assert registered_invariants("no-such-kind") == ()


class TestReportTypes:
    def _violation(self, severity=Severity.ERROR):
        return Violation(
            invariant="wser_definition",
            severity=severity,
            subject="run-x",
            message="drifted",
            values=(("actual", 2.0), ("expected", 1.0)),
        )

    def test_violation_format_names_everything(self):
        text = self._violation().format()
        assert "ERROR" in text
        assert "wser_definition" in text
        assert "run-x" in text
        assert "expected=1.0" in text and "actual=2.0" in text

    def test_report_ok_ignores_warnings(self):
        report = CheckReport(
            subject="s",
            checked=("a",),
            violations=(self._violation(Severity.WARNING),),
        )
        assert report.ok
        assert report.warnings and not report.errors

    def test_invariant_names_dedup_first_hit_order(self):
        report = CheckReport(
            subject="s",
            checked=("a", "b"),
            violations=(
                self._violation(),
                self._violation(),
            ),
        )
        assert report.invariant_names() == ("wser_definition",)

    def test_merge_reports_concatenates(self):
        one = CheckReport(subject="a", checked=("x",),
                          violations=(self._violation(),))
        two = CheckReport(subject="b", checked=("x", "y"))
        merged = merge_reports([one, two], subject="both")
        assert merged.subject == "both"
        assert merged.checked == ("x", "y")
        assert len(merged.violations) == 1
        assert "drifted" in merged.format()


class TestRunInvariants:
    def test_clean_run_passes_every_invariant(self, small_run):
        report = check_run(small_run)
        assert report.ok and not report.violations
        assert "1B1S/reliability/milc+povray" in report.subject
        assert "wser_definition" in report.checked
        assert "OK" in report.format()

    def test_default_run_checks_is_check_run(self, small_run):
        assert default_run_checks(small_run).checked == \
            check_run(small_run).checked

    def test_negative_abc_flagged(self, small_run):
        doctored = copy.deepcopy(small_run)
        doctored.apps[0].abc_seconds = -1.0
        report = check_run(doctored, label="doctored")
        assert not report.ok
        assert "non_negative_quantities" in report.invariant_names()

    def test_zero_time_flagged(self, small_run):
        doctored = copy.deepcopy(small_run)
        doctored.apps[0].time_seconds = 0.0
        report = check_run(doctored, label="doctored")
        assert "positive_times" in report.invariant_names()

    def test_instruction_split_mismatch_flagged(self, small_run):
        doctored = copy.deepcopy(small_run)
        doctored.apps[0].instructions_big += 7
        report = check_run(doctored, label="doctored")
        assert "time_decomposition" in report.invariant_names()

    def test_abc_exceeding_occupancy_flagged(self, small_run):
        doctored = copy.deepcopy(small_run)
        doctored.apps[0].abc_seconds = \
            2.0 * doctored.apps[0].occupancy_bit_seconds + 1.0
        report = check_run(doctored, label="doctored")
        assert "abc_within_occupancy" in report.invariant_names()

    def test_impossible_speedup_is_a_warning_only(self, small_run):
        doctored = copy.deepcopy(small_run)
        doctored.apps[0].reference_time_seconds = \
            10.0 * doctored.apps[0].time_seconds
        report = check_run(doctored, label="doctored")
        assert report.ok  # warnings never fail a run
        assert "slowdown_at_least_one" in report.invariant_names()
        assert report.warnings

    def test_violation_values_name_the_offender(self, small_run):
        doctored = copy.deepcopy(small_run)
        doctored.apps[0].abc_seconds = -3.5
        report = check_run(doctored, label="doctored")
        bad = [v for v in report.errors
               if v.invariant == "non_negative_quantities"]
        assert bad and dict(bad[0].values)["abc_seconds"] == -3.5
        assert doctored.apps[0].name in bad[0].message


class TestStackInvariants:
    @pytest.fixture(scope="class")
    def stack(self):
        model = MechanisticCoreModel(big_core_config(), MemoryConfig())
        return run_isolated(model, benchmark("milc").scaled(80_000))

    def test_clean_stack_conserves_abc(self, stack):
        report = check_stack(stack, label="milc-stack")
        assert report.ok and not report.violations

    @staticmethod
    def _with_ace(result, ace):
        """A copy of ``result`` with a doctored ACE breakdown (a
        result's per-structure views are read-only)."""
        return QuantumResult(
            result.instructions,
            result.cycles,
            ace,
            result.occupancy_bit_cycles,
            result.memory_accesses,
            result.l3_accesses,
            result.branch_mispredictions,
        )

    def test_negative_structure_entry_flagged(self, stack):
        ace = dict(stack.ace_bit_cycles)
        kind = next(iter(ace))
        ace[kind] = -5.0
        doctored = self._with_ace(stack, ace)
        report = check_stack(doctored, label="doctored")
        assert "stack_conservation" in report.invariant_names()

    def test_structure_exceeding_occupancy_flagged(self, stack):
        ace = dict(stack.ace_bit_cycles)
        kind = next(iter(ace))
        extra = 2.0 * stack.occupancy_bit_cycles[kind] + 1.0
        delta = extra - ace[kind]
        ace[kind] = extra
        # Keep the total consistent so only the occupancy bound trips.
        other = [k for k in ace if k != kind][0]
        ace[other] -= delta
        doctored = self._with_ace(stack, ace)
        report = check_stack(doctored, label="doctored")
        assert "stack_within_occupancy" in report.invariant_names()


class _Plan:
    """Bare segment-plan stand-in: bypasses Assignment's validation so
    illegal schedules can be constructed for the checker to reject."""

    def __init__(self, fraction, cores):
        self.fraction = fraction
        self.assignment = type("A", (), {"core_of": tuple(cores)})()
        self.is_sampling = False


class TestScheduleInvariants:
    @pytest.fixture(scope="class")
    def machine(self):
        return STANDARD_MACHINES["2B2S"]()

    def test_legal_schedule_passes(self, machine):
        plans = [
            [SegmentPlan(1.0, Assignment((0, 1, 2, 3)))],
            [
                SegmentPlan(0.25, Assignment((2, 1, 0, 3)), True),
                SegmentPlan(0.75, Assignment((3, 2, 1, 0))),
            ],
        ]
        report = check_schedule(plans, machine, 4)
        assert report.ok and not report.violations

    def test_partial_coverage_flagged(self, machine):
        plans = [[_Plan(0.5, (0, 1, 2, 3))]]
        report = check_schedule(plans, machine, 4)
        assert "quantum_coverage" in report.invariant_names()

    def test_shared_core_flagged(self, machine):
        plans = [[_Plan(1.0, (0, 0, 1, 2))]]
        report = check_schedule(plans, machine, 4)
        assert "one_core_per_app" in report.invariant_names()

    def test_out_of_range_core_flagged(self, machine):
        plans = [[_Plan(1.0, (0, 1, 2, 9))]]
        report = check_schedule(plans, machine, 4)
        assert "one_core_per_app" in report.invariant_names()

    def test_wrong_arity_flagged(self, machine):
        plans = [[_Plan(1.0, (0, 1))]]
        report = check_schedule(plans, machine, 4)
        assert "one_core_per_app" in report.invariant_names()

    def test_overcommitted_machine_flagged(self, machine):
        plans = [[_Plan(1.0, (0, 1, 2, 3, 4, 5))]]
        report = check_schedule(plans, machine, 6)
        assert "core_capacity" in report.invariant_names()


class TestOracleInvariants:
    def test_oracle_dominates_greedy_on_real_inputs(self):
        machine = STANDARD_MACHINES["2B2S"]()
        models = default_models(machine)
        stats = [
            isolated_stats(benchmark(name).scaled(100_000),
                           models["big"], models["small"])
            for name in ("milc", "povray", "mcf", "libquantum")
        ]
        report = check_oracle(stats, machine)
        assert report.ok and not report.violations
        assert report.checked == ("oracle_dominates_greedy",)
