"""Times in reference seconds, steady against the host's changing speed.

The benchmark runs on a few cores of a shared host, whose speed for one
process swings by up to 2x over tenths of a second to minutes as other
tenants contend for its cores and caches; CPU time swings with wall
time, so the process is slowed, not descheduled.  A fixed kernel of the
same kinds of work as the CLI (sorting, dict and string handling, numpy
calls on small arrays in a Python loop, a list-based merge loop) slows
down with it.  So the kernel is timed EDGE_SAMPLES times just before
and just after every timed span and, from a SIGALRM handler, every
TICK_S seconds inside it, and the span is reported as

    reference seconds = (wall seconds - time in the handler) * REF_KERNEL_S / (mean kernel time)

that is, the span's time on a host where the kernel takes REF_KERNEL_S
(about its median on the 2-vCPU VM the benchmark was built on).  The
handler runs in the main thread between bytecodes, so no thread or
process is added, and its own time is taken out of the span.  The
kernel never calls panelmean, so a change to the program cannot change
it, and it runs with the garbage collector off, so the program's heap
cannot either.  On that VM a kernel of one tight integer loop and large
numpy passes caught only half of the swings, and kernel times from the
edges alone missed the fast swings inside a one-second invocation.
"""

from __future__ import annotations

import gc
import json
import random
import signal
import time

import numpy as np

REF_KERNEL_S = 0.004
EDGE_SAMPLES = 3
TICK_S = 0.1

_rand = random.Random(0)
_RECORDS = [(_rand.random(), _rand.randrange(50), str(i)) for i in range(2_400)]
_NOISY = [_rand.gauss(0.0, 1.0) + 0.001 * i for i in range(2_000)]


def _records() -> float:
    """Sort, group, JSON round trip, format and parse."""
    groups: dict[int, list[float]] = {}
    for x, key, _ in sorted(_RECORDS):
        groups.setdefault(key, []).append(x)
    back = json.loads(json.dumps({str(k): v[:5] for k, v in groups.items()}))
    lines = [f"{k},{len(v)},{sum(v):.5f}" for k, v in groups.items()]
    return sum(float(line.split(",")[2]) for line in lines) + len(back)


def _small_arrays() -> float:
    """numpy calls on arrays of a few elements, one subject at a time."""
    rng = np.random.default_rng(2)
    coef = np.array([0.5, 1.0])
    acc = 0.0
    for _ in range(40):
        t = np.sort(rng.uniform(0.0, 3.0, rng.integers(2, 7)))
        rate = np.diff(t, prepend=0.0) * np.exp(rng.normal(size=2) @ coef)
        acc += float(np.cumsum(rng.poisson(rate))[-1]) + float(np.log1p(t).sum())
    return acc


def _merge_blocks() -> int:
    """Pool adjacent decreasing values into blocks, on Python lists."""
    means: list[float] = []
    weights: list[float] = []
    for y in _NOISY:
        means.append(y)
        weights.append(1.0)
        while len(means) > 1 and means[-2] > means[-1]:
            w = weights[-2] + weights[-1]
            m = (means[-2] * weights[-2] + means[-1] * weights[-1]) / w
            means.pop()
            weights.pop()
            means[-1], weights[-1] = m, w
    return len(means)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _records()
        _small_arrays()
        _merge_blocks()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def edge() -> list[float]:
    """Kernel times for one edge of a span."""
    return [kernel_seconds() for _ in range(EDGE_SAMPLES)]


def reference(wall: float, kernel_times: list[float]) -> float:
    """`wall` seconds in reference seconds, given the kernel's times
    around and inside the span."""
    return wall * REF_KERNEL_S * len(kernel_times) / sum(kernel_times)


def measured(call, ticks: bool = True):
    """Run `call()`, timing the kernel around it and, with `ticks`, inside
    it; returns (wall seconds, reference seconds, its result).  The wall
    seconds leave out the time spent in the kernel."""
    inside: list[float] = []
    in_handler = [0.0]

    def tick(signum, frame):
        t0 = time.perf_counter()
        inside.append(kernel_seconds())
        in_handler[0] += time.perf_counter() - t0

    kernel_times = edge()
    if ticks:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    t0 = time.perf_counter()
    try:
        result = call()
    finally:
        wall = time.perf_counter() - t0
        if ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    wall -= in_handler[0]
    kernel_times += inside + edge()
    return wall, reference(wall, kernel_times), result
