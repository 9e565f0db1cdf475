"""Tests of the benchmark's own helpers.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import spread  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def _recorder(rows):
    """A recorder holding spans ``(name, parent_index, start, end)``."""
    rec = spans.SpanRecorder()
    for name, parent, start, end in rows:
        rec.name_id.append(rec.name_index(name))
        rec.parent.append(parent)
        rec.run.append(0)
        rec.start.append(start)
        rec.end.append(end)
    return rec


def test_self_time_subtracts_children():
    rec = _recorder([
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 5.0),
        ("b", 1, 2.0, 3.0),
        ("b", 1, 3.5, 4.0),
        ("a", 0, 6.0, 9.0),
    ])
    times = rec.self_times()
    assert times["root"] == (1, pytest.approx(3.0))
    assert times["a"] == (2, pytest.approx(4.0 - 1.5 + 3.0))
    assert times["b"] == (2, pytest.approx(1.5))
    total = sum(seconds for _, seconds in times.values())
    assert total == pytest.approx(rec.duration(0))


def test_self_time_of_one_root_subtree():
    rec = _recorder([
        ("setup", -1, 0.0, 2.0),
        ("x", 0, 0.5, 1.0),
        ("pass", -1, 3.0, 7.0),
        ("x", 2, 4.0, 6.0),
    ])
    assert rec.self_times(0) == {"setup": (1, pytest.approx(1.5)), "x": (1, pytest.approx(0.5))}
    assert rec.self_times(2) == {"pass": (1, pytest.approx(2.0)), "x": (1, pytest.approx(2.0))}
    with pytest.raises(ValueError):
        rec.self_times(1)


def test_run_ids_follow_parents_and_new_runs():
    rec = spans.SpanRecorder()
    with rec.root("pass") as root:
        run_a = rec.wrap("sim.run", lambda: rec.run[rec.stack[-1]], new_run=True)
        inner = rec.wrap("inner", lambda: rec.run[rec.stack[-1]])
        first, second = run_a(), run_a()
        same = inner()
    assert first != second
    assert same == rec.run[root.index]


def test_wrapper_counts_boundary_crossings_once():
    rec = spans.SpanRecorder()

    class Base:
        def plan(self):
            return 1

    class Child(Base):
        def plan(self):
            return super().plan() + 1

    with spans.Patcher(rec) as patcher:
        patcher.install_subclass_methods("sched.plan", Base, "plan")
        with rec.root("pass") as root:
            assert Child().plan() == 2
            assert Base().plan() == 1
    assert rec.self_times(root.index)["sched.plan"][0] == 2
    assert Child.plan.__qualname__.endswith("Child.plan")
    assert "sched.plan" in patcher.installed


def test_rows_are_counted_and_patches_undone():
    module = types.ModuleType("perfbench_fake_module")
    module.analyze = lambda feats: len(feats)
    sys.modules[module.__name__] = module
    try:
        rec = spans.SpanRecorder()
        original = module.analyze
        boundary = spans.Boundary(
            "batch.analyze", module.__name__, "analyze",
            rows=lambda args, kwargs: len(args[0]),
        )
        with spans.Patcher(rec) as patcher:
            patcher.install([boundary])
            with rec.root("pass"):
                module.analyze([1, 2, 3])
                module.analyze([4])
        assert module.analyze is original
        assert rec.extra["batch.analyze.rows"] == 4
    finally:
        del sys.modules[module.__name__]


def test_missing_boundary_is_reported_not_zeroed():
    rec = spans.SpanRecorder()
    patcher = spans.Patcher(rec)
    patcher.install([
        spans.Boundary("gone.module", "perfbench_no_such_module", "f"),
        spans.Boundary("gone.attr", "json", "no_such_function"),
        spans.Boundary("gone.method", "json", "JSONDecoder.no_such_method"),
    ])
    assert patcher.missing == {"gone.module", "gone.attr", "gone.method"}
    assert not patcher.installed


def test_layer_metrics_mark_missing_as_null():
    passed = workloads.Pass(wall_s=2.0, instructions=1, digest="d", attempted=1, app_quanta=10)
    times = {"cores.phase_eval": (30, 1.0), "sim.merge": (5, 0.5)}
    metrics = run.layer_metrics(times, {}, {"sim.merge"}, 0, passed, passed, {})
    assert metrics["sim.merge.calls"]["value"] is None
    assert metrics["sim.merge.self_s"]["value"] is None
    assert metrics["cores.phase_evals"]["value"] == 30
    assert metrics["cores.evals_per_app_quantum"]["value"] == pytest.approx(3.0)
    assert metrics["service.step.calls"]["value"] == 0
    assert set(metrics) == {name for name, _ in run.PER_LAYER}


@pytest.mark.parametrize(
    "values",
    [[1.0, 2.0, 3.0, 4.0], [5.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0, 4.0, 6.0, 10.0], [2.5, 2.5]],
)
def test_quartiles_match_statistics(values):
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert stats.median(values) == statistics.median(values)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / abs(q2))


def test_quartiles_of_one_value_and_empty_sample():
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert stats.relative_spread([4.0]) == 0.0
    with pytest.raises(ValueError):
        stats.quartiles([])
    with pytest.raises(ValueError):
        stats.relative_spread([0.0, 0.0])


def test_seed_lists():
    assert spread.parse_seeds("11-14") == [11, 12, 13, 14]
    assert spread.parse_seeds("1,4,9") == [1, 4, 9]
    assert spread.parse_seeds("-3") == [-3]


def test_run_digest_sees_the_last_bit():
    a = 0.1 + 0.2
    b = math.nextafter(a, 1.0)
    assert stats.run_digest([("random", 0, a, 1.0)]) != stats.run_digest([("random", 0, b, 1.0)])
    assert stats.run_digest([("random", 0, a, 1.0)]) == stats.run_digest([("random", 0, 0.1 + 0.2, 1.0)])


def test_tree_digest_tracks_names_and_bytes(tmp_path):
    (tmp_path / "a.json").write_text("1")
    first = stats.tree_digest(tmp_path)
    assert stats.tree_digest(tmp_path) == first
    (tmp_path / "a.json").write_text("2")
    assert stats.tree_digest(tmp_path) != first
    (tmp_path / "a.json").rename(tmp_path / "b.json")
    assert stats.tree_bytes(tmp_path) == (1, 1)


def test_golden_digest_parsing(tmp_path):
    digest = "ab" * 32
    good = tmp_path / "good.sha256"
    good.write_text(f"feed sha256 @ 800/s: {digest}\n")
    assert stats.read_golden_digest(good) == digest
    bad = tmp_path / "bad.sha256"
    bad.write_text("feed sha256 @ 800/s: not-a-digest\n")
    with pytest.raises(ValueError):
        stats.read_golden_digest(bad)


def test_repo_golden_feed_file_parses():
    path = run.ROOT / workloads.ServiceLoad.GOLDEN
    if not path.exists():
        pytest.skip("no golden feed file in this checkout")
    assert len(stats.read_golden_digest(path)) == 64


def test_passes_must_agree():
    p = workloads.Pass(wall_s=1.0, instructions=1, digest="x", attempted=1)
    q = workloads.Pass(wall_s=1.0, instructions=1, digest="y", attempted=1)
    assert workloads._same_digest([p, p]) == []
    assert workloads._same_digest([p, q])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [HERE.name]


def test_exits_without_result_when_there_is_no_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "fig06-scalar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
