"""The benchmark's yardsticks: fixed work it times between round trips.

The machines this benchmark runs on are shared, and their speed drifts by
up to a third over minutes, in runs longer than a benchmark run can be.
Each run therefore times a yardstick around its round trips, and the
gated round-trip metrics are ratios to it: they compare the program with
the machine it ran on, at that time. A workload uses the yardstick whose
work is most like its own: a carry-less multiply in the benchmark's own
code for work in one process, a fresh interpreter importing numpy for
work in fresh processes. Neither runs library code, so no change to the
library can move them. Changing one makes earlier runs incomparable.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

_BITS = 2123
_A = random.Random("reference/a").getrandbits(_BITS)
_B = random.Random("reference/b").getrandbits(_BITS)


def _mul(a: int, b: int) -> int:
    acc = 0
    while b:
        low = b & -b
        acc ^= a << (low.bit_length() - 1)
        b ^= low
    return acc


def _karatsuba(a: int, b: int, nbits: int) -> int:
    if nbits <= 256:
        return _mul(a, b)
    m = (nbits + 1) // 2
    mask = (1 << m) - 1
    a0, a1, b0, b1 = a & mask, a >> m, b & mask, b >> m
    p0 = _karatsuba(a0, b0, m)
    p1 = _karatsuba(a1, b1, nbits - m)
    pm = _karatsuba(a0 ^ a1, b0 ^ b1, m)
    return p0 ^ ((pm ^ p0 ^ p1) << m) ^ (p1 << (2 * m))


def _multiply() -> None:
    _karatsuba(_A, _B, _BITS)


def _interpreter() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True)


# name: (work, timings whose median is reported)
YARDSTICKS = {"multiply": (_multiply, 3), "interpreter": (_interpreter, 1)}


def time_ns(name: str) -> int:
    """Wall time of the named yardstick, in nanoseconds."""
    work, repeats = YARDSTICKS[name]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        work()
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[repeats // 2]
