"""Helpers shared by the benchmark's workloads: paths, /proc readers, stats."""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

#: Root of the checkout the benchmark runs from (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch state the benchmark keeps between runs (digests of past runs).
WORK = ROOT / ".perfbench"

class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (set-up or run is broken)."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def process_cpu_clock(pid: int) -> int:
    """Clock id of process ``pid``'s CPU time (all threads), for
    :func:`time.clock_gettime`: nanosecond resolution, where
    ``/proc/<pid>/stat`` counts 10 ms ticks.  Linux's encoding of
    ``clock_getcpuclockid``: ``(~pid << 3) | CPUCLOCK_SCHED``.
    """
    return (~pid << 3) | 2


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    if not values:
        raise BenchError("percentile of an empty sample")
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def _calibration_s() -> float:
    """Best of three timings of a fixed pure-Python loop on this CPU."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(100_000):
            table[i % 4096] = table.get(i % 4096, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


def split_cpus(allowed: Optional[Set[int]] = None) -> List[int]:
    """Two CPUs of ``allowed`` (default: this process's), the one that
    runs a fixed loop faster first.

    The vCPUs of a shared host are often contended unequally, by up to
    2x, and which one is contended changes every few seconds; measuring
    on the faster one, re-checked that often, makes runs depend less on
    it.  One CPU twice on a 1-CPU host.  Takes about 0.1 s.
    """
    current = os.sched_getaffinity(0)
    cpus = sorted(current if allowed is None else allowed)[:2]
    if len(cpus) < 2:
        return [cpus[0], cpus[0]]
    speed = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = _calibration_s()
    finally:
        os.sched_setaffinity(0, current)
    return sorted(cpus, key=speed.get)


def load_digests() -> Dict[str, str]:
    path = WORK / "digests.json"
    if not path.is_file():
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_digests(digests: Dict[str, str]) -> None:
    WORK.mkdir(exist_ok=True)
    tmp = WORK / "digests.json.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    os.replace(tmp, WORK / "digests.json")
