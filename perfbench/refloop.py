"""Host speed, measured by a reference loop that shares no code with
holosim, so that only the host moves it.

A reported time is a call's wall time divided by the host's slowdown
during the call: the mean, over samples taken before the call, after it
and every TICK_SECONDS during it, of the loop's time over its nominal
time.  The result reads as seconds on a host that runs the loop in
REF_SECONDS.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

# the loop's fastest time on the 2-vCPU Xeon host the benchmark was
# defined on
REF_SECONDS = 0.008
TICK_SECONDS = 0.05
PARTS = 20


def reference_loop_s(parts: int = PARTS) -> float:
    """A fixed pure-Python loop of dict, tuple and integer work; its
    time is proportional to parts."""
    t0 = perf_counter()
    table: dict = {}
    acc = 0
    for i in range(1500 * parts):
        key = (i & 127, i & 3)
        table[key] = table.get(key, 0) + 1
        acc += len(key) * i % 7
    for _ in range(2 * parts):
        acc += len(dict(table))
    return perf_counter() - t0


@contextmanager
def ticks():
    """Yields a list that a SIGALRM handler fills, every TICK_SECONDS,
    with the time of one part of the reference loop, run in between the
    interrupted code's bytecodes."""
    samples: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(reference_loop_s(1)))
    signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def slowdown(before: float, samples: list[float], after: float) -> float:
    """Mean of the sampled loop times over their nominal times."""
    factors = [before / REF_SECONDS, after / REF_SECONDS]
    factors += [s * PARTS / REF_SECONDS for s in samples]
    return sum(factors) / len(factors)
