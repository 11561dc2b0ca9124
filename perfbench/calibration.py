"""The host-speed calibration that scales the benchmark's host times.

On a shared host, other tenants' work on the same physical core slows
this program by up to two times, in spells of seconds to minutes, and
the slowdown is not reported as steal time, so CPU time and wall time
both carry it. On a 2-vCPU VM the same repetition took 1.2 s to 2.8 s,
and the mean over thirty seconds of repetitions still moved by a fifth
from one half-minute to the next.

``run.py`` therefore pins itself, and so every repetition it starts, to
one CPU and times :func:`kernel` on that CPU before the first
repetition and after each one; an untraced repetition also times it
about once a second while it runs (:class:`PeriodicCalibration`). Every
host time of a repetition is scaled by the mean of ``REFERENCE_S / t``
over the kernel times ``t`` taken during and on either side of it, and
so reads as the seconds the repetition would take on a core that runs
the kernel in ``REFERENCE_S``. The kernel is fixed stdlib code that no
change to the program can speed up or slow down, so any change to the
program shows in the scaled times in full. Scaling cut the spread of
thirty-second means (their interquartile range over the median) from
about 0.2 to about 0.04 on that VM.
"""

from __future__ import annotations

import heapq
import os
import signal
import time

__all__ = ["REFERENCE_S", "PeriodicCalibration", "kernel", "pin_to_one_cpu"]

#: The kernel's time on an uncontended core of the 2 GHz Xeon VM the
#: baseline was recorded on (the lower decile of 200 timings).
REFERENCE_S = 0.031


class _Item:
    __slots__ = ("key", "count")

    def __init__(self, key: int):
        self.key = key
        self.count = 0


def _consumer():
    total = 0
    while True:
        item = yield total
        item.count += 1
        total += item.key


def kernel() -> float:
    """Seconds to run a fixed mix of interpreter work.

    Half arithmetic and dictionary updates, half what a discrete-event
    simulator does most: heap pushes and pops of tuples, attribute
    updates on small objects and generator resumption.
    """
    # simlint: ignore[DET001] host time is what the benchmark measures
    started = time.perf_counter()
    total = 0
    for value in range(150_000):
        total += value * value % 7
    table = {}
    for value in range(30_000):
        table[value % 997] = table.get(value % 997, 0) + 1
    heap, consumer = [], _consumer()
    next(consumer)
    items = [_Item(key) for key in range(512)]
    for value in range(15_000):
        heapq.heappush(heap, ((value * 2654435761) % 100003, value,
                              items[value * 7919 % 512]))
        if len(heap) > 256:
            consumer.send(heapq.heappop(heap)[2])
    # simlint: ignore[DET001] host time is what the benchmark measures
    return time.perf_counter() - started


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU, so
    the kernel is timed on the core the repetitions run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class PeriodicCalibration:
    """Times :func:`kernel` about once a second of a repetition.

    A ``SIGALRM`` handler runs the kernel between two bytecodes of the
    program and moves the origin of ``spans`` (a ``tracing.Spans``)
    forward by the handler's duration, so no span includes it.
    """

    PERIOD_S = 1.0

    def __init__(self, spans):
        self.spans = spans
        #: The kernel's time at each tick, in seconds.
        self.times = []

    def _tick(self, _signum, _frame) -> None:
        # simlint: ignore[DET001] host time is what the benchmark measures
        started = time.monotonic_ns()
        self.times.append(kernel())
        # simlint: ignore[DET001] host time is what the benchmark measures
        self.spans.origin_ns += time.monotonic_ns() - started

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
