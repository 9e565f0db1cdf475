"""Small helpers shared by the benchmark: robust statistics, output
digests, the host fingerprint and peak memory.

Standard library only, so importing this module costs nothing that
the benchmark's set-up time would have to explain.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Iterable, Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median's magnitude."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("relative spread of a zero-median sample")
    return (q3 - q1) / abs(q2)


def run_digest(rows: Iterable[tuple]) -> str:
    """sha256 over ``repr`` lines of result rows.

    ``repr`` of a float round-trips exactly, so two engines agree on
    the digest only if every value agrees to the last bit.
    """
    h = hashlib.sha256()
    for row in rows:
        h.update((" ".join(repr(v) for v in row) + "\n").encode())
    return h.hexdigest()


def tree_digest(directory: Path) -> str:
    """sha256 over the names and bytes of every file under a directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def tree_bytes(directory: Path) -> tuple[int, int]:
    """``(files, bytes)`` under a directory."""
    files = [p for p in directory.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def read_golden_digest(path: Path) -> str:
    """The sha256 in a ``feed sha256 @ RATE/s: HEX`` golden line."""
    text = path.read_text().strip()
    digest = text.rsplit(":", 1)[-1].strip()
    if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
        raise ValueError(f"{path}: no sha256 digest in {text!r}")
    return digest


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint(workers: int) -> dict:
    """What a number depends on besides the code: compare figures
    only between equal fingerprints."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workers": workers,
    }


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every multiprocessing child of this process ended.

    Process pools shut down without waiting; the children must be
    reaped before their peak RSS shows in ``RUSAGE_CHILDREN`` and
    before the benchmark may exit.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(5.0)
            break
        time.sleep(0.01)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
