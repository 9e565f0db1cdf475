"""Every campaign entry point runs the same grid through `run_specs`.

`experiment.sweep` (serial, parallel, batched), `Campaign.sweep` and a
shard fleet must return identical results and write byte-identical
stores for one sweep, and a sweep's spec keys must tell apart machines
that differ in small-core frequency or sampling.
"""

import json

import pytest

from repro.config import STANDARD_MACHINES
from repro.runtime import ResultStore, run_specs
from repro.sim.campaign import Campaign, RunSpec
from repro.sim.experiment import (
    SCHEDULER_NAMES,
    group_by_scheduler,
    sweep,
    sweep_specs,
)
from repro.sim.serialize import run_result_to_dict
from repro.workloads.mixes import generate_workloads

INSTRUCTIONS = 1_000_000


def machine_1b1s():
    return STANDARD_MACHINES["1B1S"]()


def canonical(by_scheduler):
    return {
        name: [json.dumps(run_result_to_dict(r), sort_keys=True) for r in runs]
        for name, runs in by_scheduler.items()
    }


def store_tree(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.glob("*.json"))
    }


class TestEntryPointsAgree:
    def test_same_results_and_store_bytes(self, tmp_path):
        machine = machine_1b1s()
        mixes = generate_workloads(2)[:2]
        runs = {}
        for name, options in (
            ("serial", {}),
            ("jobs2", {"jobs": 2}),
            ("batched", {"batched": True}),
        ):
            runs[name] = sweep(
                machine,
                mixes,
                instructions=INSTRUCTIONS,
                store=tmp_path / name,
                **options,
            )
        runs["campaign"] = Campaign(tmp_path / "campaign").sweep(
            machine, mixes, SCHEDULER_NAMES, INSTRUCTIONS
        )
        specs, labels = sweep_specs(
            machine, mixes, instructions=INSTRUCTIONS
        )
        report = run_specs(
            specs,
            machine=machine,
            labels=labels,
            store=tmp_path / "shards",
            shards=2,
        )
        runs["shards"] = group_by_scheduler(
            specs, report.results, SCHEDULER_NAMES
        )

        expected = canonical(runs["serial"])
        assert sum(len(v) for v in expected.values()) == 6
        for name, results in runs.items():
            assert canonical(results) == expected, name
        trees = {name: store_tree(tmp_path / name) for name in runs}
        assert len(trees["serial"]) == 6
        for name, tree in trees.items():
            assert tree == trees["serial"], name

    def test_fleet_refuses_custom_checks(self):
        specs, _ = sweep_specs(
            machine_1b1s(), generate_workloads(2)[:1],
            instructions=INSTRUCTIONS,
        )
        with pytest.raises(ValueError, match="default_run_checks"):
            run_specs(specs, shards=2, checks=lambda result: None)

    def test_campaign_run_needs_override_only_on_miss(self, tmp_path):
        spec = RunSpec("custom-tag", ("povray", "milc"), "random", 500_000)
        campaign = Campaign(tmp_path)
        with pytest.raises(ValueError, match="machine override"):
            campaign.run(spec)
        first = campaign.run(spec, machine=machine_1b1s())
        assert campaign.run(spec).sser == first.sser
        assert (campaign.hits, campaign.misses) == (1, 1)


class TestSweepKeys:
    def variants(self):
        base = machine_1b1s()
        return {
            "default": base,
            "slow small cores": base.with_small_frequency(1.33),
            "sampling": base.with_sampling(20, 5e-5),
        }

    def test_specs_rebuild_their_machine(self):
        for name, machine in self.variants().items():
            specs, _ = sweep_specs(
                machine, generate_workloads(2)[:1],
                instructions=INSTRUCTIONS,
            )
            for spec in specs:
                assert spec.build_machine() == machine, name

    def test_machine_variants_get_distinct_keys(self):
        keys = {
            name: sweep_specs(
                machine, generate_workloads(2), instructions=INSTRUCTIONS
            )[0][0].key()
            for name, machine in self.variants().items()
        }
        assert len(set(keys.values())) == 3
        # A standard machine's keys are what they always were, so
        # existing stores, goldens and digests stay valid.
        assert keys["default"] == "4a346413072faed894bde2c2"

    def test_frequency_sweep_misses_a_default_store(self, tmp_path):
        base = machine_1b1s()
        mixes = generate_workloads(2)[:1]
        campaign = Campaign(tmp_path)
        campaign.sweep(base, mixes, SCHEDULER_NAMES, INSTRUCTIONS)
        slow = Campaign(tmp_path)
        results = slow.sweep(
            base.with_small_frequency(1.33), mixes, SCHEDULER_NAMES,
            INSTRUCTIONS,
        )
        assert (slow.hits, slow.misses) == (0, 3)
        assert len(ResultStore(tmp_path)) == 6
        default = campaign.sweep(base, mixes, SCHEDULER_NAMES, INSTRUCTIONS)
        assert results["random"][0].stp != default["random"][0].stp
