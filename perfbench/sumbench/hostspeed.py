"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared host the speed a process gets drifts by tens of percent over
seconds, as other tenants come and go, and it slows the benchmark's ops
and this kernel alike, in bursts shorter than a second.  So each op is
followed by a run of the kernel, and ``scale`` multiplies the op's time by
a reference time over the kernel's time around it: the times read as they
would on a host where the kernel takes the reference time.  ``scatter``
runs the kernel in-process (``measure``, against ``REFERENCE_S``).  The
CLI workloads and the set-up probes, whose time goes mostly to starting
an interpreter and importing modules, run it in a fresh interpreter
(``measure_child``, against ``CHILD_REFERENCE_S``), timed from spawn to
exit as their own children are.  The kernel does the kind of work sumkit
does (Fraction products summed into a dict keyed by tuples) and never
calls sumkit, so a change to sumkit moves the scaled times exactly as it
moves the raw ones.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# the scale: about the kernel's time on an uncontended core of a 2-core
# Xeon VM under CPython 3.11
REFERENCE_S = 0.015

# the same for a child that runs the kernel once, from spawn to exit:
# interpreter start, importing this module (fractions, statistics) and
# the kernel, which is what the CLI workloads scale their times to
CHILD_REFERENCE_S = 0.1

_SIDE = 9


def kernel() -> int:
    """Square a fixed two-variable series with Fraction coefficients,
    truncated in the first variable; return the number of terms."""
    a = {(i, j): Fraction(i + 1, j + 2)
         for i in range(_SIDE) for j in range(_SIDE)}
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), x in a.items():
        for (k, l), y in a.items():
            if i + k < _SIDE + 2:
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + x * y
    return len(out)


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def measure_child() -> float:
    """Seconds a fresh interpreter takes to import this module, run the
    kernel once and exit, from spawn to exit."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "sumbench.hostspeed"], env=env,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - t0


# kernel samples whose median scales one op: the runs just before and just
# after it and the next one, so that one disturbed run does not disturb it
WINDOW = 3


def scale(times: list[float], kernel_s: list[float],
          reference: float = REFERENCE_S) -> list[float]:
    """``times[i]`` scaled by ``reference`` over the median kernel time of
    the ``WINDOW`` samples centred on ``kernel_s[i]``; unchanged when no
    kernel time was measured."""
    if not kernel_s:
        return list(times)
    half = WINDOW // 2
    return [t * reference
            / statistics.median(kernel_s[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]


if __name__ == "__main__":
    kernel()

