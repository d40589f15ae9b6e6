"""Helpers shared by the three workloads: seeded input generation, pinned
configuration, statistics and run metadata.

Nothing here imports :mod:`repro`; the benchmark's inputs, oracles and
statistics stay independent of the program they measure.
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import random
import resource
import sqlite3
import statistics
import subprocess
from typing import Dict, List, Optional, Sequence, Tuple

#: Environment variables through which the program picks a storage backend,
#: planner mode or replication mode when the builder does not.  Every
#: workload clears them and sets each knob explicitly, so a CI matrix leg or
#: a developer's shell cannot change what is measured.
KNOB_ENV = ("REPRO_STORE_BACKEND", "REPRO_PLANNER", "REPRO_REPLICATION")

#: Seed used when none is given, and a second seed kept out of tuning so a
#: later claim can be checked on data it was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def clear_knob_env() -> Dict[str, Optional[str]]:
    """Remove the program's knob variables; returns what they were."""
    return {name: os.environ.pop(name, None) for name in KNOB_ENV}


class Zipf:
    """Seeded ranks ``0..size-1`` with weight ``1 / (rank + 1) ** exponent``."""

    def __init__(self, size: int, exponent: float, rng: random.Random):
        self.rng = rng
        total = 0.0
        self._cumulative: List[float] = []
        for rank in range(1, size + 1):
            total += 1.0 / rank ** exponent
            self._cumulative.append(total)
        self._total = total

    def rank(self) -> int:
        return bisect.bisect_left(self._cumulative, self.rng.random() * self._total)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #

def tail(samples: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest whole percentile with at least ten samples beyond it.

    Uses the nearest-rank percentile, so exactly ``n - rank`` samples lie
    beyond the returned value.  Returns ``(percentile, value)``, or ``None``
    when fewer than twenty samples leave no percentile at or above the
    median with ten samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in range(99, 49, -1):
        rank = max(1, math.ceil(percentile * n / 100))
        if n - rank >= TAIL_MIN_BEYOND:
            return percentile, ordered[rank - 1]
    return None


def summary(samples: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, tail and count of one sample set."""
    values = list(samples)
    out: Dict[str, object] = {"n": len(values)}
    if not values:
        return out
    out["p50"] = statistics.median(values)
    out["mean"] = statistics.fmean(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    found = tail(values)
    if found is not None:
        out["tail_percentile"], out["tail"] = found
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# run metadata
# --------------------------------------------------------------------------- #

def git_commit(root: str) -> str:
    """The commit of ``root`` when it is a git checkout, else ``"unknown"``."""
    git_dir = os.path.join(root, ".git")
    if not os.path.exists(git_dir):
        return "unknown"
    try:
        done = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_metadata(root: str, seed: int) -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "seed": seed,
        "sqlite_version": sqlite3.sqlite_version,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }
