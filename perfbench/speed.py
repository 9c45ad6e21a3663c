"""The host's current speed, read from a fixed pure-Python loop.

A shared host's speed can halve within a second and stay so for minutes:
other tenants on the same cores slow every instruction this process runs,
and process CPU time grows with wall time, so no clock removes it.  ``spin``
times a fixed loop of interpreter work between the benchmark's operations;
an operation's time divided by the spin times around it, times
``SPIN_REF_S``, is its time at the reference speed.
"""

import time

SPIN_LOOPS = 2400
# The spin's time on a quiet host: one vCPU of a 2.1 GHz Xeon, CPython 3.11.
SPIN_REF_S = 1.0e-3


def spin() -> float:
    """Seconds one fixed loop of interpreter work takes now.

    Strings and numbers only: no container the garbage collector tracks,
    so collector settings made by the program leave the spin unchanged.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(SPIN_LOOPS):
        total += len("%d:%r" % (i, i * 0.5))
    return time.perf_counter() - t0


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between spins ``before`` and ``after``, scaled
    to the speed at which a spin takes ``SPIN_REF_S``."""
    return seconds * 2 * SPIN_REF_S / (before + after)
