"""Speed probe: a fixed pure-Python kernel timed next to every op.

The host this benchmark was tuned on shares its physical cores with other
machines.  The same op took anywhere from 150 to 300 ms within a few
minutes, and its CPU time moved with its wall time, so the CPU itself ran
slower: neither a longer run nor CPU time averages that out.  A fixed
kernel timed right after each op slows down by nearly the same factor.
Scaling each op's time by ``NOMINAL_NS / kernel time`` reports it at one
nominal speed; across 20-second windows this cut the spread of median
latency from 13-16% to about 2%.

The kernel mimics the program's two kinds of work, not its code: a complex
two-amplitude step loop that draws one uniform per step, and float text
formatting and parsing.  It never changes with the program.

A workload whose ops run Python in several threads (the sweep's worker
pool) is probed with the kernel in as many threads: their time then also
carries the cost of handing the interpreter lock between threads, which a
single-thread probe misses.  On the sweep this cut the spread from 7% to 4%,
where a single-thread probe doubled it.
"""

from __future__ import annotations

import json
import math
import threading
import time

import numpy as np

# kernel time at the nominal speed: about its median on the tuning host
NOMINAL_NS = 8_000_000

_STEPS = 1500
_VALUES = [i * 0.123456789 for i in range(600)]


def _rotate(c1: complex, c2: complex, cos_half: float, sin_half: float) -> tuple[complex, complex]:
    return cos_half * c1 - 1j * sin_half * c2, cos_half * c2 - 1j * sin_half * c1


def _kernel(uniform) -> float:
    c1, c2 = 1.0 + 0j, 0j
    cos_half, sin_half = math.cos(0.01), math.sin(0.01)
    a, b = math.sqrt(0.46), math.sqrt(0.54)
    plus = 0
    for _ in range(_STEPS):
        c1, c2 = _rotate(c1, c2, cos_half, sin_half)
        p = 0.46 * (c1.real * c1.real + c1.imag * c1.imag) + 0.54 * (c2.real * c2.real + c2.imag * c2.imag)
        if uniform() < min(1.0, max(0.0, p)):
            c1, c2 = a * c1, b * c2
            plus += 1
        else:
            c1, c2 = b * c1, a * c2
        norm = math.sqrt(c1.real * c1.real + c1.imag * c1.imag + c2.real * c2.real + c2.imag * c2.imag)
        c1, c2 = c1 / norm, c2 / norm
    text = ",".join(repr(v) for v in _VALUES)
    return plus + len(json.dumps(_VALUES, indent=2)) + sum(float(x) for x in text.split(","))


def _repeat(reps: int) -> None:
    uniform = np.random.default_rng(0).random
    for _ in range(reps):
        _kernel(uniform)


class SpeedProbe:
    """Times the kernel; ``scale`` turns a measured time into a nominal one.

    With ``threads`` > 1 each of that many threads runs the kernel 3 times,
    so that the lock changes hands a few times within one probe.
    """

    def __init__(self, threads: int = 1) -> None:
        self.threads = threads
        self.reps = 1 if threads == 1 else 3
        self.nominal_ns = NOMINAL_NS * threads * self.reps
        self.last = self.measure()

    def measure(self) -> int:
        workers = [threading.Thread(target=_repeat, args=(self.reps,)) for _ in range(self.threads - 1)]
        start = time.perf_counter_ns()
        for worker in workers:
            worker.start()
        _repeat(self.reps)
        for worker in workers:
            worker.join()
        return time.perf_counter_ns() - start

    def start(self) -> None:
        """Measure the kernel just before the timed work."""
        self.last = self.measure()

    def scale(self) -> float:
        """Factor for the interval since the previous call (or construction).

        Call it right after the timed work: it measures the kernel once more
        and uses the geometric mean of the kernel times before and after.
        Back-to-back ops share the measurement between them.
        """
        before, after = self.last, self.measure()
        self.last = after
        return self.nominal_ns / math.sqrt(before * after)
