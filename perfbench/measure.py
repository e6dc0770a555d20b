"""Summary statistics, set-up probes and the run environment."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "TAIL_PERCENTILE",
    "REF_S",
    "tail_rank",
    "tail_value",
    "reference_s",
    "scaled_s",
    "input_times",
    "peak_rss_mb",
    "probe_setup",
    "environment",
]

#: The percentile, over a workload's inputs, that every workload reports
#: as its tail: the time of its slower inputs.
TAIL_PERCENTILE = 75.0

#: Iterations of the reference loop, a fixed piece of pure-Python work
#: that does not touch ``ccdae``.
REF_LOOP = 40_000
#: The reference loop's time at nominal host speed, about what it takes on
#: an undisturbed 2.0 GHz Sapphire Rapids vCPU with CPython 3.11.
REF_S = 0.0025


def tail_rank(n: int, percentile: float) -> int:
    """1-based nearest rank of ``percentile`` among ``n`` sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < percentile < 100:
        raise ValueError("percentile must be in (0, 100)")
    return max(1, math.ceil(percentile / 100.0 * n - 1e-9))


def tail_value(samples, percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = tail_rank(len(ordered), percentile)
    return ordered[rank - 1], len(ordered) - rank


def reference_s() -> float:
    """How long the reference loop takes now: the shorter of two runs."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def scaled_s(item) -> float:
    """The item's time at nominal host speed.

    On a shared host the CPU speed can drift by tens of percent over
    seconds to minutes. The item's CPU work is scaled by ``REF_S`` over the
    reference loop's time around the item; the time it spent waiting on a
    server's latency is wall time and stays as it is.
    """
    return item.wait + (item.seconds - item.wait) * REF_S / item.ref


def input_times(items) -> dict[str, float]:
    """Input -> the median scaled time of that input's successful items."""
    scaled: dict[str, list[float]] = {}
    for it in items:
        if it.ok:
            scaled.setdefault(it.input, []).append(scaled_s(it))
    return {key: statistics.median(times) for key, times in scaled.items()}


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{root!r}, {src!r}]
from perfbench import workloads
workloads.make({name!r}, {seed!r})
setup_s = time.perf_counter() - t0
from perfbench.measure import reference_s
print(setup_s, reference_s())
"""


def probe_setup(root: Path, name: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """Set-up seconds (import, backend, dataset) in fresh interpreters, each
    with the reference loop's time right after it."""
    code = _PROBE.format(root=str(root), src=str(root / "src"), name=name, seed=seed)
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, capture_output=True,
            text=True, timeout=120, check=True,
        )
        setup_s, ref_s = map(float, done.stdout.strip().splitlines()[-1].split())
        runs.append((setup_s, ref_s))
    return runs


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        size = _read(str(index / "size"))
        if level in ("2", "3") and size:
            out[f"L{level}"] = size
        elif level == "1" and kind == "Data" and size:
            out["L1d"] = size
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
        "seed": seed,
    }
