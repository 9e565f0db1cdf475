"""End-to-end and per-layer benchmark of the reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 42 --seconds 10 --trace 0

``NAME`` is one of ``fig06-scalar``, ``fig06-batched``,
``campaign-durable`` and ``service-load`` (see ``workloads.py``); the
seed makes the inputs (seed 42 gives the paper's Figure 6 mixes).

With ``--trace 0`` the workload's timed pass repeats until ``S``
seconds have passed, spread over fresh interpreters with hash seeds
derived from the workload seed (each runs at least one pass), and the
end-to-end metrics are reported: median pass wall time, simulated
instructions per host second, set-up time (median of five: each pass
interpreter's and those of interpreters that only set up), and peak
RSS of a pass interpreter and its workers.  The modelled outputs
(Figure 6 SSER/STP, service delay and shedding) are printed beside the
paper's values, with the host fingerprint and the output digest.

With ``--trace 1`` the workload runs once untraced and once traced:
wrappers around the program's public boundaries record spans in
memory, and each boundary's call count and self time is reported, so
every traced second lands on one layer or on ``bench.unattributed_s``.
``campaign-durable`` also runs once on its two workers with only the
coordinator's boundaries wrapped (``runtime.wait_s``), and
``fig06-batched`` times interleaved pass pairs with the program's own
metrics and span collection off and on (``obs.enabled_overhead_pct``).
Spans are written to ``.perfbench_out/spans-<workload>.npz``.

Every run checks its outputs (passes agree, the two engines agree,
campaign checks report nothing and the warm pass leaves the store
unchanged, the golden service feed reproduces).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check passed, 1 when one
failed, and 2 (with no result line) when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: ``(name, unit)`` of every end-to-end metric; all workloads report all.
END_TO_END = (
    ("wall_s", "s"),
    ("sim_minsn_per_s", "Minsn/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of every per-layer metric reported by ``--trace 1``.
#: Counts and times of a boundary a workload does not exercise read 0;
#: a boundary the program no longer has reads ``null``.
PER_LAYER = (
    ("cores.run_cycles.calls", "count"),
    ("cores.run_cycles.self_s", "s"),
    ("cores.phase_evals", "count"),
    ("cores.phase_eval.self_s", "s"),
    ("cores.evals_per_app_quantum", "1/app_quantum"),
    ("sim.run.calls", "count"),
    ("sim.run.self_s", "s"),
    ("sim.merge.calls", "count"),
    ("sim.merge.self_s", "s"),
    ("sim.reference_times.calls", "count"),
    ("sim.reference_times.self_s", "s"),
    ("ace.measured_abc.calls", "count"),
    ("ace.measured_abc.self_s", "s"),
    ("memory.environments.calls", "count"),
    ("memory.environments.self_s", "s"),
    ("sched.plan.calls", "count"),
    ("sched.plan.self_s", "s"),
    ("sched.observe.calls", "count"),
    ("sched.observe.self_s", "s"),
    ("sched.modes.plan.self_s", "s"),
    ("sched.migrations", "count"),
    ("batch.step.calls", "count"),
    ("batch.step.self_s", "s"),
    ("batch.analyze.calls", "count"),
    ("batch.analyze.rows", "count"),
    ("batch.analyze.self_s", "s"),
    ("batch.rows_per_call", "rows/call"),
    ("runtime.run_many.self_s", "s"),
    ("runtime.wait_s", "s"),
    ("runtime.jobs2.wall_s", "s"),
    ("runtime.resume_s", "s"),
    ("runtime.store.save.calls", "count"),
    ("runtime.store.save.self_s", "s"),
    ("runtime.store.save.bytes", "B"),
    ("runtime.store.load.calls", "count"),
    ("runtime.store.load.self_s", "s"),
    ("runtime.events.count", "count"),
    ("runtime.events.bytes", "B"),
    ("runtime.events.to_dict.calls", "count"),
    ("runtime.events.to_dict.self_s", "s"),
    ("runtime.events.to_dict_per_event", "1/event"),
    ("runtime.events.sink.self_s", "s"),
    ("check.run.calls", "count"),
    ("check.run.self_s", "s"),
    ("check.findings", "count"),
    ("service.step.calls", "count"),
    ("service.step.self_s", "s"),
    ("service.slice.calls", "count"),
    ("service.slice.self_s", "s"),
    ("service.admitted", "count"),
    ("service.shed", "count"),
    ("workloads.generate.self_s", "s"),
    ("workloads.profile.calls", "count"),
    ("workloads.profile.self_s", "s"),
    ("model.sser_cut_pct", "%"),
    ("model.stp_loss_vs_perf_pct", "%"),
    ("model.p99_wait_ms", "ms"),
    ("model.shed_pct", "%"),
    ("bench.traced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("obs.enabled_overhead_pct", "%"),
    ("obs.enabled_overhead_iqr_pct", "%"),
)

#: Span names whose calls and self time are reported as
#: ``<name>.calls`` / ``<name>.self_s``.
SPANS = (
    "cores.run_cycles",
    "cores.phase_eval",
    "sim.run",
    "sim.merge",
    "sim.reference_times",
    "ace.measured_abc",
    "memory.environments",
    "sched.plan",
    "sched.observe",
    "sched.modes.plan",
    "batch.step",
    "batch.analyze",
    "runtime.run_many",
    "runtime.store.save",
    "runtime.store.load",
    "runtime.events.to_dict",
    "runtime.events.sink",
    "check.run",
    "service.step",
    "service.slice",
)

#: Set-ups measured per untraced run: one per pass worker, the rest
#: in fresh interpreters that only set up.
SETUP_SAMPLES = 5

#: Interleaved collection-off/on pairs for ``obs.enabled_overhead_pct``.
OBS_PAIRS = 5

PAPER = {"sser_cut_pct": 32.0, "stp_loss_vs_perf_pct": 6.3}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def checkout_problem() -> str | None:
    """Why this directory cannot be measured, or ``None``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no program to measure: {ROOT / 'src' / 'repro'} is missing"
    return None


def make_workload(name: str):
    from workloads import WORKLOADS

    return WORKLOADS[name](ROOT)


def setup(workload, seed: int) -> float:
    """Import the program and build the inputs; seconds taken."""
    started = time.perf_counter()
    workload.load()
    workload.prepare(seed)
    return time.perf_counter() - started


def probe_setups(args, count: int) -> list[float]:
    """Set-up seconds measured in ``count`` fresh interpreters."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-probe",
    ]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def timed_passes(workload, seconds: float) -> list:
    """Repeat the timed pass until ``seconds`` have passed (once at least)."""
    passes = []
    started = time.perf_counter()
    while True:
        # Collect the previous pass's garbage outside the timed region.
        gc.collect()
        passes.append(workload.run_pass())
        if time.perf_counter() - started >= seconds:
            return passes


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def fmt(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_fingerprint(workers: int) -> dict:
    from stats import host_fingerprint

    host = host_fingerprint(workers)
    print("host: " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}" for k, v in host.items()))
    return host


def print_modelled(modelled: dict) -> None:
    for name, (value, unit) in modelled.items():
        line = f"  {name:<24} {fmt(value):>12} {unit:<8} (modelled)"
        if name in PAPER:
            paper = PAPER[name]
            line += f"  paper {paper:g}, difference {value - paper:+.2f}"
        print(line)


def write_record(args, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")


# -- untraced run -------------------------------------------------------


def pass_worker(args) -> dict:
    """Set up and run timed passes in this interpreter (one share of an
    untraced run); with ``--check``, also the workload's output checks."""
    from stats import peak_rss_mb, reap_children

    workload = make_workload(args.workload)
    setup_s = setup(workload, args.seed)
    try:
        passes = timed_passes(workload, args.seconds)
        reap_children()
        rss = peak_rss_mb()
        failures = [f for p in passes for f in p.failures]
        if args.check and all(p.wall_s > 0 for p in passes):
            failures += workload.check(passes)
    finally:
        workload.cleanup()
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "failures": failures,
        "passes": [
            {
                "wall_s": p.wall_s,
                "instructions": p.instructions,
                "digest": p.digest,
                "attempted": p.attempted,
                "failed": p.failed,
                "modelled": p.modelled,
                "extra": p.extra,
            }
            for p in passes
        ],
    }


def run_pass_workers(args, count: int) -> list[dict]:
    """``count`` pass workers one after another, each in a fresh
    interpreter with its own hash seed (derived from the workload
    seed), sharing the run's seconds; the last one runs the checks."""
    import os

    shares = []
    for j in range(count):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / count), "--pass-worker",
        ]
        if j == count - 1:
            cmd.append("--check")
        env = dict(os.environ, PYTHONHASHSEED=str((args.seed * count + j) % 2**32))
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"pass worker failed: {proc.stderr.strip()[-2000:]}")
        shares.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return shares


def untraced(args) -> tuple[dict, bool]:
    from stats import median
    from workloads import WORKLOADS

    count = WORKLOADS[args.workload].processes
    shares = run_pass_workers(args, count)
    setups = [share["setup_s"] for share in shares]
    setups += probe_setups(args, max(0, SETUP_SAMPLES - count))
    passes = [p for share in shares for p in share["passes"]]
    failures = [f for share in shares for f in share["failures"]]
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        failures.append(f"passes disagree: {len(digests)} distinct output digests across hash seeds")

    ok = [p for p in passes if p["wall_s"] > 0]
    metrics = {
        "wall_s": metric(median([p["wall_s"] for p in ok]) if ok else None, "s"),
        "sim_minsn_per_s": metric(
            median([p["instructions"] / p["wall_s"] / 1e6 for p in ok]) if ok else None, "Minsn/s"
        ),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(max(share["peak_rss_mb"] for share in shares), "MB"),
    }
    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)} processes={count} trace=0")
    host = print_fingerprint(WORKLOADS[args.workload].workers)
    print(f"digest: {passes[0]['digest']}")
    for name, unit in END_TO_END:
        print(f"  {name:<24} {fmt(metrics[name]['value']):>12} {unit}")
    if ok:
        print_modelled(ok[0]["modelled"])
        for name, (_, unit) in ok[0]["extra"].items():
            values = [p["extra"][name][0] for p in ok]
            print(f"  {name:<24} {fmt(median(values)):>12} {unit:<8} (median over passes)")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print("checks: " + ("ok" if not failures else f"{len(failures)} failed"))
    correct = not failures
    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    write_record(args, {
        "host": host,
        "digest": passes[0]["digest"],
        "passes": [{"wall_s": p["wall_s"], "instructions": p["instructions"]} for p in passes],
        "setups_s": setups,
        "failures": failures,
        "result": result,
    })
    return result, correct


# -- traced run ---------------------------------------------------------


def traced(args) -> tuple[dict, bool]:
    from spans import Boundary, Patcher, SpanRecorder
    from stats import quartiles, reap_children
    from workloads import (
        COORDINATOR_BOUNDARIES,
        SETUP_BOUNDARIES,
        install_sim_boundaries,
    )

    workload = make_workload(args.workload)
    recorder = SpanRecorder()
    roots: list = []

    def region(name: str):
        root = recorder.root(name)
        roots.append(root)
        return root

    workload.load()
    with Patcher(recorder) as patcher:
        patcher.install(SETUP_BOUNDARIES)
        with recorder.root("bench.setup") as setup_root:
            workload.prepare(args.seed)
    missing = set(patcher.missing)
    failures: list[str] = []
    extra_metrics: dict = {}
    coordinator: dict = {}
    try:
        base = workload.run_pass(jobs=1)
        checks = getattr(workload, "checks", None)
        with Patcher(recorder) as patcher:
            install_sim_boundaries(patcher)
            patcher.install(COORDINATOR_BOUNDARIES)
            if checks is not None:
                checks = recorder.wrap("check.run", checks)
            traced_pass = workload.run_pass(jobs=1, checks=checks, region=region)
        missing |= patcher.missing
        pass_roots = [r.index for r in roots]
        passes = [base, traced_pass]

        if workload.workers > 1:
            # Coordinator-side view of the multi-worker run: workers
            # simulate unwrapped code, the coordinator's waits are spans.
            roots.clear()
            with Patcher(recorder) as patcher:
                patcher.install(COORDINATOR_BOUNDARIES)
                patcher.install([Boundary("runtime.wait", "concurrent.futures", "wait")])
                wrapped = None if checks is None else recorder.wrap("check.run", workload.checks)
                parallel = workload.run_pass(checks=wrapped, region=region)
            missing |= patcher.missing
            passes.append(parallel)
            coordinator = _merge_times(recorder, [r.index for r in roots])
            extra_metrics["runtime.wait_s"] = coordinator.get("runtime.wait", (0, 0.0))[1]
            extra_metrics["runtime.jobs2.wall_s"] = parallel.wall_s

        if workload.measure_obs:
            overheads, obs_digests = obs_overhead(workload, OBS_PAIRS)
            extra_metrics["obs_overheads_pct"] = overheads
            q1, q2, q3 = quartiles(overheads)
            extra_metrics["obs.enabled_overhead_pct"] = q2
            extra_metrics["obs.enabled_overhead_iqr_pct"] = q3 - q1
            if obs_digests != {base.digest}:
                failures.append("obs: collection changed the sweep's outputs")

        failures += [f for p in passes for f in p.failures]
        failures += workload.check(passes)
    finally:
        workload.cleanup()
        reap_children()

    times = _merge_times(recorder, pass_roots)
    root_names = {recorder.names[recorder.name_id[i]] for i in pass_roots}
    unattributed = sum(times.pop(name)[1] for name in root_names)
    traced_wall = sum(recorder.duration(i) for i in pass_roots)
    attributed = sum(seconds for _, seconds in times.values())
    gap = traced_wall - attributed - unattributed
    if abs(gap) > 1e-6 * max(1.0, traced_wall):
        failures.append(f"attribution: layers leave {gap:.6f} s of {traced_wall:.3f} s unexplained")
    extra_metrics["bench.traced_wall_s"] = traced_wall
    extra_metrics["bench.unattributed_s"] = unattributed
    metrics = layer_metrics(
        times,
        recorder.self_times(setup_root.index),
        missing,
        recorder.extra["batch.analyze.rows"],
        base,
        traced_pass,
        extra_metrics,
    )

    print(f"perfbench {args.workload} seed={args.seed} trace=1")
    host = print_fingerprint(workload.workers)
    print(f"digest: {base.digest}")
    _print_layers(times, unattributed, traced_wall)
    if coordinator:
        print(f"coordinator of the {workload.workers}-worker run (wall {extra_metrics['runtime.jobs2.wall_s']:.3f} s):")
        for name, (calls, seconds) in sorted(coordinator.items(), key=lambda kv: -kv[1][1]):
            print(f"  {name:<24} {calls:8d} calls {seconds:10.3f} s self")
    for name, unit in PER_LAYER:
        print(f"  {name:<34} {fmt(metrics[name]['value']):>14} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print("checks: " + ("ok" if not failures else f"{len(failures)} failed"))

    recorder.save(OUT / f"spans-{args.workload}.npz", {"host": host, "seed": args.seed})
    correct = not failures
    result = {
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    write_record(args, {
        "host": host,
        "digest": base.digest,
        "obs_overheads_pct": extra_metrics.get("obs_overheads_pct"),
        "failures": failures,
        "result": result,
    })
    return result, correct


def _merge_times(recorder, root_indices) -> dict:
    merged: dict[str, tuple[int, float]] = {}
    for index in root_indices:
        for name, (calls, seconds) in recorder.self_times(index).items():
            c, s = merged.get(name, (0, 0.0))
            merged[name] = (c + calls, s + seconds)
    return merged


def layer_metrics(times, setup_times, missing, rows, base, traced_pass, extra) -> dict:
    """Every ``PER_LAYER`` metric from span self times and pass outputs.

    ``rows`` is the number of phase rows ``analyze_phase_batch`` was
    handed in the traced pass.
    """
    units = dict(PER_LAYER)
    values: dict = {}

    def span_stat(name: str, stat: int, source=times):
        return None if name in missing else source.get(name, (0, 0.0))[stat]

    for name in SPANS:
        for suffix, stat in ((".calls", 0), (".self_s", 1)):
            if name + suffix in units:
                values[name + suffix] = span_stat(name, stat)
    values["workloads.generate.self_s"] = span_stat("workloads.generate", 1, setup_times)
    values["workloads.profile.calls"] = span_stat("workloads.profile", 0, setup_times)
    values["workloads.profile.self_s"] = span_stat("workloads.profile", 1, setup_times)

    def ratio(num, den):
        return None if num is None or den is None else (num / den if den else 0.0)

    if "batch.analyze" in missing:
        rows = None
    values["batch.analyze.rows"] = rows
    values["batch.rows_per_call"] = ratio(rows, values["batch.analyze.calls"])
    phase = span_stat("cores.phase_eval", 0)
    evals = None if phase is None or rows is None else phase + rows
    values["cores.phase_evals"] = evals
    # Base: app-quanta of the runs (service: the slices it executed).
    app_quanta = traced_pass.app_quanta or span_stat("service.slice", 0)
    values["cores.evals_per_app_quantum"] = ratio(evals, app_quanta)
    values["sched.migrations"] = traced_pass.migrations

    pass_extra = traced_pass.extra
    values["runtime.resume_s"] = base.extra.get("resume_s", (0.0, "s"))[0]
    values["runtime.store.save.bytes"] = pass_extra.get("store_bytes", (0, "B"))[0]
    events = span_stat("runtime.events.sink", 0)
    values["runtime.events.count"] = events
    values["runtime.events.bytes"] = pass_extra.get("events_bytes", (0, "B"))[0]
    values["runtime.events.to_dict_per_event"] = ratio(values["runtime.events.to_dict.calls"], events)
    values["check.findings"] = pass_extra.get("findings", (0, "count"))[0]
    values["service.admitted"] = pass_extra.get("admitted", (0, "count"))[0]
    values["service.shed"] = pass_extra.get("shed", (0, "count"))[0]
    for name in ("sser_cut_pct", "stp_loss_vs_perf_pct", "p99_wait_ms", "shed_pct"):
        values[f"model.{name}"] = traced_pass.modelled.get(name, (0.0, ""))[0]
    values["bench.trace_overhead_pct"] = ratio(100.0 * (traced_pass.wall_s - base.wall_s), base.wall_s)
    for name in ("runtime.wait_s", "runtime.jobs2.wall_s", "obs.enabled_overhead_pct",
                 "obs.enabled_overhead_iqr_pct", "bench.traced_wall_s", "bench.unattributed_s"):
        values[name] = extra.get(name, 0.0)
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}


def obs_overhead(workload, pairs: int) -> tuple[list[float], set[str]]:
    """Percent slowdown with the repo's own collection on (metrics plus
    an active span tracer), over interleaved off/on pass pairs."""
    from repro.obs import tracing

    overheads, digests = [], set()
    for k in range(pairs):
        wall = {}
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                with tracing.collecting():
                    p = workload.run_pass(metrics=True)
            else:
                p = workload.run_pass()
            wall[on] = p.wall_s
            digests.add(p.digest)
        overheads.append(100.0 * (wall[True] / wall[False] - 1.0))
    return overheads, digests


LAYERS = ("cores", "sim", "ace", "memory", "sched", "batch", "runtime", "check", "service", "workloads")


def _print_layers(times, unattributed: float, traced_wall: float) -> None:
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, (_, seconds) in times.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    print(f"self time by layer (traced wall {traced_wall:.3f} s):")
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        share = 100.0 * seconds / traced_wall if traced_wall else 0.0
        print(f"  {layer:<10} {seconds:10.3f} s {share:6.1f} %")
    share = 100.0 * unattributed / traced_wall if traced_wall else 0.0
    print(f"  {'(bench)':<10} {unattributed:10.3f} s {share:6.1f} %  unattributed")


# -- entry --------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = value
        code = max(code, proc.returncode)
        print()
    print(json.dumps(combined, sort_keys=True))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = checkout_problem()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup(make_workload(args.workload), args.seed)}))
        return 0
    if args.pass_worker:
        print(json.dumps(pass_worker(args)))
        return 0
    result, correct = (traced if args.trace else untraced)(args)
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
