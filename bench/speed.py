"""Machine speed, measured by a fixed computation of the benchmark's own.

On a shared machine the same computation can take half as long again from
one minute to the next, as other tenants come and go.  Over four minutes of
repeated degree-8 catalogue builds on a 2-core machine, the build time
ranged over 72% of its median, and it moved with the time of this module's
sample (correlation 0.80).  So the benchmark samples the machine next to the
work it times and reports seconds scaled to a reference speed: measured
seconds * REFERENCE_S / (median sample time).  The sample is enumerating
Sym(7) by closure, the same kind of work (permutations as bytes, hashing,
allocation) as the program's inner loops, and it does not use the package,
so a faster program does not make it faster.
"""

from __future__ import annotations

import statistics
import time

from checks import closure

# Sym(7), generated by a 7-cycle and a transposition: 5040 elements
_GENERATORS = (bytes([1, 2, 3, 4, 5, 6, 0]), bytes([1, 0, 2, 3, 4, 5, 6]))

# Median sample time on the machine where the reference figures in
# README.md were taken, so that reference seconds read as seconds there.
REFERENCE_S = 0.050


def sample() -> float:
    """Seconds one enumeration of Sym(7) takes now."""
    t0 = time.perf_counter()
    closure(7, _GENERATORS)
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Factor from measured seconds to reference seconds."""
    return REFERENCE_S / statistics.median(samples)
