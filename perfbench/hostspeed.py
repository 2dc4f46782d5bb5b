"""Host-speed reference: a fixed kernel timed next to every measured section.

The benchmark runs on a few cores of a shared host whose speed drifts with
the load of other tenants: the same cold sweep pass took 14 s on a quiet
host and 20-29 s on a busy one, a fixed Python loop slowed by the same
factor, and the virtual CPUs reported almost no steal time, so the
slowdown is contention for the physical cores, which CPU time alone does
not remove.

So the benchmark times :func:`reference` - a fixed mix of interpreted
Python, C-level JSON encoding/decoding and numpy sorting, the kinds of
work the program spends its time in - next to each measured section, and
reports the section's time scaled by ``REFERENCE_S / (reference time)``:
seconds on a host where the kernel takes ``REFERENCE_S``.  CPU times are
scaled by the kernel's CPU time and wall times by its wall time.  On a
quiet host the scaled and raw times agree; on a busy one the scaled time
stays put.  The kernel is benchmark code, so no change to the program can
move it.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import Callable, List, Sequence, Tuple, TypeVar

import numpy as np

#: The kernel's median time on a quiet 2-vCPU Intel Xeon VM (Python 3,
#: numpy), i.e. the host speed the scaled times are expressed at.
REFERENCE_S = 0.0205
#: Kernel runs per reference time.
RUNS = 3

_RNG = np.random.default_rng(20151025)
_ARRAY = _RNG.integers(0, 2**40, size=400_000)
_PROBES = np.sort(_RNG.integers(0, 2**40, size=20_000))
_DOC = [
    {"name": f"task-{i}", "stage": i % 17, "hits": list(range(i % 23)),
     "ratio": i / 7.0, "flags": {"copy": bool(i % 2), "limited": bool(i % 3)}}
    for i in range(1_500)
]

T = TypeVar("T")


def _kernel() -> int:
    total = 0
    for i in range(110_000):
        total += (i * 7) ^ (i >> 3)
    counts: dict = {}
    for i in range(30_000):
        key = i % 997
        counts[key] = counts.get(key, 0) + i
    doc = json.loads(json.dumps(_DOC))
    ordered = np.sort(_ARRAY)
    found = np.searchsorted(ordered, _PROBES)
    return total + len(counts) + len(doc) + int(found[-1])


def reference() -> Tuple[float, float]:
    """(wall, CPU) seconds the kernel takes right now in this thread: the
    medians of ``RUNS`` back-to-back runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        walls, cpus = [], []
        for _ in range(RUNS):
            wall, cpu = time.perf_counter(), time.thread_time()
            _kernel()
            cpus.append(time.thread_time() - cpu)
            walls.append(time.perf_counter() - wall)
        return statistics.median(walls), statistics.median(cpus)
    finally:
        if enabled:
            gc.enable()


def reference_cpu_s() -> float:
    return reference()[1]


def scale(section_s: float, before_s: float, after_s: float) -> float:
    """``section_s`` at reference speed, given the kernel's times around it."""
    return section_s * 2.0 * REFERENCE_S / (before_s + after_s)


def scale_all(sections: Sequence[float], references: Sequence[float]) -> List[float]:
    """Section ``i`` is bracketed by ``references[i]`` and ``references[i + 1]``."""
    if len(references) != len(sections) + 1:
        raise ValueError("need one reference time more than sections")
    return [scale(s, references[i], references[i + 1])
            for i, s in enumerate(sections)]


def bracketed(measure: Callable[[], Tuple[T, float]]) -> Tuple[T, float]:
    """Run ``measure``, which returns a value and a CPU time, between two
    kernel runs; returns the value and the CPU time at reference speed."""
    before = reference_cpu_s()
    value, cpu_s = measure()
    return value, scale(cpu_s, before, reference_cpu_s())


def factor(references: Sequence[float]) -> float:
    """Reference speed / the median speed of a whole session."""
    return REFERENCE_S / statistics.median(references)


if __name__ == "__main__":
    samples = [reference() for _ in range(30)]
    for clock, values in (("wall", [s[0] for s in samples]),
                          ("cpu", [s[1] for s in samples])):
        print(f"reference kernel {clock}: median {statistics.median(values):.5f} s, "
              f"min {min(values):.5f} s, max {max(values):.5f} s "
              f"(REFERENCE_S = {REFERENCE_S})")
