"""Every boundary the benchmark instruments still names live code.

``perfbench`` wraps functions by module path and attribute name to
attribute wall time to layers.  A boundary whose target was renamed or
removed is reported as missing and its per-layer metrics read null, so
a refactor must fail here instead of silently losing a layer.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``spans`` and ``workloads`` modules, imported
    the way ``perfbench/run.py`` imports them and unloaded afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "stats", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return (
        importlib.import_module("spans"),
        importlib.import_module("workloads"),
    )


def test_every_instrumented_boundary_resolves(perfbench):
    spans, workloads = perfbench
    with spans.Patcher(spans.SpanRecorder()) as patcher:
        workloads.install_sim_boundaries(patcher)
        patcher.install(workloads.COORDINATOR_BOUNDARIES)
        patcher.install(workloads.SETUP_BOUNDARIES)
        assert patcher.missing == set()
        expected = {
            b.name
            for group in (
                workloads.SIM_BOUNDARIES,
                workloads.COORDINATOR_BOUNDARIES,
                workloads.SETUP_BOUNDARIES,
            )
            for b in group
        }
        assert expected <= patcher.installed
