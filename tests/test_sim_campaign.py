"""Tests for the disk-cached campaign runner."""

import dataclasses
import hashlib
import json

import pytest

from repro.config.machines import STANDARD_MACHINES
from repro.sim.campaign import Campaign, RunSpec
from repro.workloads.mixes import WorkloadMix

NAMES = ("povray", "milc", "gobmk", "bzip2")


def _spec(**overrides):
    base = dict(
        machine="2B2S",
        benchmarks=NAMES,
        scheduler="reliability",
        instructions=2_000_000,
        seed=0,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRunSpec:
    def test_key_stable(self):
        assert _spec().key() == _spec().key()

    def test_key_sensitive_to_every_field(self):
        base = _spec().key()
        assert _spec(scheduler="random").key() != base
        assert _spec(seed=1).key() != base
        assert _spec(instructions=3_000_000).key() != base
        assert _spec(small_frequency_ghz=1.33).key() != base
        assert _spec(sampling=(5, 1e-4)).key() != base

    def test_key_audit_covers_every_field(self):
        """No spec field may ever be silently omitted from the key.

        Two specs differing in *any* single field -- including ones
        added after this test was written -- must get distinct cache
        keys, or a sweep would silently reuse another run's result.
        """
        variants = {
            "machine": "1B1S",
            "benchmarks": ("mcf", "lbm"),
            "scheduler": "performance",
            "instructions": 123,
            "seed": 99,
            "counter_mode": "rob_only",
            "small_frequency_ghz": 1.33,
            "sampling": (10, 2e-4),
        }
        fields = {f.name for f in dataclasses.fields(RunSpec)}
        missing = fields - set(variants)
        assert not missing, (
            f"RunSpec grew field(s) {sorted(missing)}; add a distinct "
            f"variant value here so the cache-key audit covers them"
        )
        base = _spec().key()
        for name, value in variants.items():
            changed = _spec(**{name: value})
            assert changed.key() != base, (
                f"changing {name!r} did not change the cache key"
            )

    def test_keys_pairwise_distinct_across_single_field_changes(self):
        specs = [
            _spec(),
            _spec(scheduler="random"),
            _spec(seed=1),
            _spec(counter_mode="rob_only"),
            _spec(sampling=(5, 1e-4)),
            _spec(small_frequency_ghz=1.33),
        ]
        keys = [s.key() for s in specs]
        assert len(set(keys)) == len(keys)

    def test_key_format_backward_compatible(self):
        """The key still hashes the original hand-written payload, so
        cache directories written before the structural derivation
        remain valid."""
        spec = _spec()
        payload = json.dumps(
            {
                "machine": spec.machine,
                "benchmarks": list(spec.benchmarks),
                "scheduler": spec.scheduler,
                "instructions": spec.instructions,
                "seed": spec.seed,
                "counter_mode": spec.counter_mode,
                "small_frequency_ghz": spec.small_frequency_ghz,
                "sampling": list(spec.sampling) if spec.sampling else None,
            },
            sort_keys=True,
        )
        expected = hashlib.sha256(payload.encode()).hexdigest()[:24]
        assert spec.key() == expected

    def test_build_machine_applies_overrides(self):
        machine = _spec(
            small_frequency_ghz=1.33, sampling=(20, 5e-5)
        ).build_machine()
        assert machine.small.frequency_ghz == pytest.approx(1.33)
        assert machine.sampling_period_quanta == 20


class TestCampaign:
    def test_cache_hit_on_second_run(self, tmp_path):
        campaign = Campaign(tmp_path)
        spec = _spec()
        first = campaign.run(spec)
        assert campaign.misses == 1 and campaign.hits == 0
        second = campaign.run(spec)
        assert campaign.hits == 1
        assert second.sser == pytest.approx(first.sser)
        assert campaign.is_cached(spec)

    def test_cache_persists_across_instances(self, tmp_path):
        Campaign(tmp_path).run(_spec())
        again = Campaign(tmp_path)
        again.run(_spec())
        assert again.hits == 1 and again.misses == 0

    def test_sweep_shapes(self, tmp_path):
        campaign = Campaign(tmp_path)
        workloads = [WorkloadMix("MHLM", NAMES)]
        results = campaign.sweep(
            STANDARD_MACHINES["2B2S"](),
            workloads,
            ("random", "reliability"),
            2_000_000,
        )
        assert set(results) == {"random", "reliability"}
        assert len(results["random"]) == 1

    def test_clear(self, tmp_path):
        campaign = Campaign(tmp_path)
        campaign.run(_spec())
        assert campaign.clear() == 1
        assert not campaign.is_cached(_spec())
