"""Small statistics helpers and the machine fingerprint.

Percentiles are taken from raw samples (nearest rank), never from
histogram buckets; spreads are the inter-quartile distance as a share of
the median, the same rule the acceptance driver applies to ten runs.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Sequence

LAB_DIR = Path(__file__).resolve().parent
REPO_ROOT = LAB_DIR.parent.parent


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``p`` in (0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(serializer: str, event_loop: str, quick: bool) -> dict:
    """What must match before two result files may be compared."""
    return {
        "nproc": os.cpu_count() or 0,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "serializer": serializer,
        "event_loop": event_loop,
        "quick": quick,
    }


def git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def add_source_path() -> None:
    """Put the program under test (``src/``) on ``sys.path``.

    The benchmark command names no path outside its own directory, so the
    entry points call this instead of relying on ``PYTHONPATH``.  A
    checkout without ``src/repro`` is refused here, before any result can
    be printed.
    """
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program to measure under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
