"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload fig06-batched --seeds 11-20 --seconds 15

Runs ``perfbench/run.py`` once per seed, one after another, and prints
each end-to-end metric's median and spread: the distance between the
first and third quartile of the per-seed values
(``statistics.quantiles(values, n=4)``) as a share of their median,
beside the metric's bound from ``BENCHMARK.json``.  Exits 1 when a run
fails its checks or a spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    """``"11-20"`` or ``"1,4,9"`` to a list of seeds."""
    if "-" in text.strip("-"):
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",") if part]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    code = 0
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            code = 1
        row = {name: result["metrics"][name]["value"] for name in bounds}
        for name, value in row.items():
            values[name].append(value)
        shown = " ".join(f"{name}={value:.6g}" for name, value in row.items())
        print(f"{args.workload} seed={seed} correct={result['correct']} {shown}", flush=True)
    for name, bound in bounds.items():
        q1, q2, q3 = quartiles(values[name])
        spread = relative_spread(values[name])
        verdict = "ok" if spread <= bound / 3 else "over a third of bound" if spread <= bound else "OVER BOUND"
        print(f"{name:<18} median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} bound {bound} {verdict}")
        if spread > bound and name != "setup_s":
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
