"""Golden regression corpus for the figure pipelines.

Small-workload runs of the evaluation pipelines are frozen as JSON
under ``tests/golden/`` and every comparison replays the pipeline and
diffs the result field-by-field with explicit tolerances.  A golden
mismatch names the exact field path and both values, so a perturbed
metric (or a perturbed golden file) fails with an actionable report.

Regenerate after an *intentional* output change with::

    repro check --update-goldens

and review the diff like any other code change.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.check.invariants import (
    CheckReport,
    Severity,
    Violation,
    check_run,
    merge_reports,
)
from repro.sim.results import RunResult

#: Where the corpus lives, relative to the repository root.
DEFAULT_GOLDEN_DIR = Path("tests/golden")

#: Format marker embedded in every golden file.
GOLDEN_FORMAT_VERSION = 1

#: Relative tolerance for float comparisons (same-platform replays are
#: bit-exact; the slack absorbs cross-platform libm differences).
GOLDEN_REL_TOL = 1e-6

#: Instruction budget for golden runs: small enough to replay in
#: seconds, large enough to exercise several scheduler quanta.
_GOLDEN_INSTRUCTIONS = 200_000

_SCHEDULERS = ("random", "performance", "reliability")


def _run_payload(result: RunResult) -> dict[str, Any]:
    """The frozen view of one run: headline metrics + per-app fields."""
    return {
        "machine": result.machine_name,
        "quanta": result.quanta,
        "duration_seconds": result.duration_seconds,
        "sser": result.sser,
        "stp": result.stp,
        "antt": result.antt,
        "apps": [
            {
                "name": app.name,
                "instructions": app.instructions,
                "abc_seconds": app.abc_seconds,
                "time_seconds": app.time_seconds,
                "reference_time_seconds": app.reference_time_seconds,
                "wser": app.wser,
                "migrations": app.migrations,
            }
            for app in result.apps
        ],
    }


def _sweep_payload(
    machine_name: str,
    mixes: list[tuple[str, tuple[str, ...]]],
    runs: list[RunResult],
    *,
    batched: bool = False,
) -> dict[str, Any]:
    """Run each mix under each scheduler; freeze runs + normalized curves.

    The grid is :func:`repro.sim.experiment.sweep`'s (seed = mix
    index); ``batched`` runs it through the cross-run batched engine,
    whose golden must agree with the scalar pipeline's (pinned by
    ``tests/test_batch_properties``).
    """
    from repro.config.machines import STANDARD_MACHINES
    from repro.sim.experiment import sweep

    by_scheduler = sweep(
        STANDARD_MACHINES[machine_name](),
        [names for _, names in mixes],
        _SCHEDULERS,
        instructions=_GOLDEN_INSTRUCTIONS,
        batched=batched,
    )
    payload: dict[str, Any] = {"machine": machine_name, "runs": {}}
    for scheduler in _SCHEDULERS:
        rows = []
        for (category, _), result in zip(mixes, by_scheduler[scheduler]):
            runs.append(result)
            entry = _run_payload(result)
            entry["category"] = category
            rows.append(entry)
        payload["runs"][scheduler] = rows
    base = by_scheduler["random"]
    payload["normalized"] = {
        scheduler: {
            "sser": sorted(
                r.sser / b.sser for r, b in zip(by_scheduler[scheduler], base)
            ),
            "stp": sorted(
                r.stp / b.stp for r, b in zip(by_scheduler[scheduler], base)
            ),
        }
        for scheduler in ("performance", "reliability")
    }
    return payload


def _pipeline_fig06_1b1s(runs: list[RunResult]) -> dict[str, Any]:
    """Figure 6 shape at toy scale: three two-program mixes on 1B1S."""
    return _sweep_payload("1B1S", _FIG06_MIXES, runs)


#: The Figure 6 toy mixes, shared by the scalar and batched goldens.
_FIG06_MIXES = [
    ("HM", ("milc", "povray")),
    ("HL", ("zeusmp", "mcf")),
    ("ML", ("gobmk", "libquantum")),
]


def _pipeline_fig06_batched(runs: list[RunResult]) -> dict[str, Any]:
    """The fig06 pipeline replayed through the batched engine."""
    return _sweep_payload("1B1S", _FIG06_MIXES, runs, batched=True)


def _pipeline_fig07_2b2s(runs: list[RunResult]) -> dict[str, Any]:
    """Figure 7 shape at toy scale: two four-program mixes on 2B2S."""
    mixes = [
        ("HHLL", ("milc", "zeusmp", "mcf", "libquantum")),
        ("MMMM", ("gobmk", "bzip2", "hmmer", "sjeng")),
    ]
    return _sweep_payload("2B2S", mixes, runs)


def _pipeline_oracle_fig03(runs: list[RunResult]) -> dict[str, Any]:
    """Figure 3 shape at toy scale: oracle enumeration on 2B2S."""
    from repro.config.machines import STANDARD_MACHINES
    from repro.sched.oracle import (
        best_sser_schedule,
        best_stp_schedule,
        enumerate_schedules,
    )
    from repro.sim.isolated import isolated_stats
    from repro.sim.multicore import default_models
    from repro.workloads.spec2006 import benchmark

    machine = STANDARD_MACHINES["2B2S"]()
    names = ("milc", "povray", "mcf", "libquantum")
    models = default_models(machine)
    stats = [
        isolated_stats(
            benchmark(name).scaled(_GOLDEN_INSTRUCTIONS),
            models["big"],
            models["small"],
        )
        for name in names
    ]
    schedules = sorted(
        enumerate_schedules(stats, machine), key=lambda s: s.big_apps
    )
    best_sser = best_sser_schedule(stats, machine)
    best_stp = best_stp_schedule(stats, machine)
    return {
        "machine": machine.name,
        "benchmarks": list(names),
        "schedules": [
            {
                "big_apps": list(s.big_apps),
                "sser": s.sser,
                "stp": s.stp,
            }
            for s in schedules
        ],
        "best_sser_big_apps": list(best_sser.big_apps),
        "best_stp_big_apps": list(best_stp.big_apps),
        "ser_gain": 1.0 - best_sser.sser / best_stp.sser,
        "stp_loss": 1.0 - best_sser.stp / best_stp.stp,
    }


#: The frozen pipelines: name -> builder(runs_out) -> payload.
GOLDEN_PIPELINES: dict[str, Callable[[list[RunResult]], dict[str, Any]]] = {
    "fig06_1b1s": _pipeline_fig06_1b1s,
    "fig06_batched": _pipeline_fig06_batched,
    "fig07_2b2s": _pipeline_fig07_2b2s,
    "oracle_fig03": _pipeline_oracle_fig03,
}


def golden_path(directory: str | Path, name: str) -> Path:
    return Path(directory) / f"{name}.json"


def regenerate_goldens(
    directory: str | Path = DEFAULT_GOLDEN_DIR,
    names: Iterable[str] | None = None,
) -> list[Path]:
    """Re-run the pipelines and overwrite the golden files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names if names is not None else GOLDEN_PIPELINES:
        payload = GOLDEN_PIPELINES[name]([])
        path = golden_path(directory, name)
        path.write_text(
            json.dumps(
                {
                    "format_version": GOLDEN_FORMAT_VERSION,
                    "pipeline": name,
                    "payload": payload,
                },
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
        written.append(path)
    return written


def _diff(
    expected: Any, actual: Any, path: str, rel_tol: float
) -> Iterable[tuple[str, dict[str, float]]]:
    """Yield (message, values) for every field-level mismatch."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(expected):
            if key not in actual:
                yield f"field {path}.{key} missing from the new run", {}
                continue
            yield from _diff(
                expected[key], actual[key], f"{path}.{key}", rel_tol
            )
        for key in sorted(set(actual) - set(expected)):
            yield f"new run grew unexpected field {path}.{key}", {}
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield (
                f"field {path} length changed",
                {"actual": len(actual), "expected": len(expected)},
            )
            return
        for index, (e, a) in enumerate(zip(expected, actual)):
            yield from _diff(e, a, f"{path}[{index}]", rel_tol)
    elif isinstance(expected, bool) or isinstance(actual, bool):
        if expected != actual:
            yield f"field {path} changed from {expected!r} to {actual!r}", {}
    elif isinstance(expected, (int, float)) and isinstance(
        actual, (int, float)
    ):
        if isinstance(expected, int) and isinstance(actual, int):
            if expected != actual:
                yield (
                    f"field {path} changed",
                    {"actual": actual, "expected": expected},
                )
        elif not math.isclose(
            expected, actual, rel_tol=rel_tol, abs_tol=0.0
        ):
            yield (
                f"field {path} drifted beyond rel_tol={rel_tol}",
                {"actual": actual, "expected": expected},
            )
    elif expected != actual:
        yield f"field {path} changed from {expected!r} to {actual!r}", {}


def compare_goldens(
    directory: str | Path = DEFAULT_GOLDEN_DIR,
    names: Iterable[str] | None = None,
    *,
    rel_tol: float = GOLDEN_REL_TOL,
) -> CheckReport:
    """Replay the pipelines and diff them against the frozen corpus.

    Every :class:`RunResult` produced along the way is also pushed
    through the run-level invariants, so a metrics regression surfaces
    both as a named invariant violation and as golden field drift.
    """
    directory = Path(directory)
    reports: list[CheckReport] = []
    for name in names if names is not None else GOLDEN_PIPELINES:
        label = f"golden/{name}"
        path = golden_path(directory, name)
        if not path.exists():
            reports.append(
                CheckReport(
                    subject=label,
                    checked=("golden_match",),
                    violations=(
                        Violation(
                            invariant="golden_match",
                            severity=Severity.ERROR,
                            subject=label,
                            message=(
                                f"golden file {path} is missing; run "
                                f"`repro check --update-goldens`"
                            ),
                        ),
                    ),
                )
            )
            continue
        frozen = json.loads(path.read_text())
        runs: list[RunResult] = []
        payload = GOLDEN_PIPELINES[name](runs)
        violations = [
            Violation(
                invariant="golden_match",
                severity=Severity.ERROR,
                subject=label,
                message=message,
                values=tuple(sorted(values.items())),
            )
            for message, values in _diff(
                frozen.get("payload"), payload, name, rel_tol
            )
        ]
        reports.append(
            CheckReport(
                subject=label,
                checked=("golden_match",),
                violations=tuple(violations),
            )
        )
        for index, result in enumerate(runs):
            reports.append(check_run(result, label=f"{label}/run[{index}]"))
    return merge_reports(reports, subject=f"goldens@{directory}")
