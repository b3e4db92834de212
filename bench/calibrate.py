"""Correction of measured times for the speed of the machine at the moment.

On a shared virtual machine the same computation can take twice as long
from one minute to the next, because other tenants load the host.  A run
therefore times a fixed pure-Python reference computation right before and
right after each measured interval and scales the interval by
``NOMINAL_S / reference``: a corrected time is the time the interval would
have taken while the reference ran in ``NOMINAL_S``.  The reference does not
call condrsa, so a change to the program moves corrected times fully.
"""

from __future__ import annotations

import time

REFERENCE_ITERATIONS = 2_000_000

#: median time of `reference` on the machine the baseline was measured on
#: (2-core Intel Xeon VM at 2.1 GHz, Python 3.11.7)
NOMINAL_S = 0.15


def reference() -> float:
    """Seconds taken by one run of the reference computation."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """The factor that scales a time measured between reference times
    ``before`` and ``after`` to the nominal machine speed."""
    return NOMINAL_S / ((before + after) / 2)
