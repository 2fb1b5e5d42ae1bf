"""How fast the machine runs at this moment, against a fixed reference loop.

The CPU of a shared machine changes speed in phases that last from
seconds to minutes, because of load from outside the benchmark; on the
two-vCPU Intel Xeon virtual machine the benchmark was built on (Python
3.11.7) the same job runs up to 1.9x slower in a slow phase. A phase can
outlast a whole run, so no estimate taken from the run's own timings can
remove it. The benchmark therefore times a fixed pure-Python loop, which
the program never runs, next to every timed job, and divides the job's
time by how much slower than its nominal time the loop ran. The results
are seconds at reference speed: the time the job takes when the loop
runs in REFERENCE_S.

A slow phase does not slow all work alike. The loop sums Fractions:
Python-level calls, small objects made and freed, gcd on small integers,
which is the kind of work every reptheory layer does. Its slowdown
followed that of sn_table, weyl_count, enumerate_indecomposables and
gl2_verify (proportionally, within 0.85-1.15 on a log scale) better than
loops of integer arithmetic, dictionary lookups or tuple building did.
"""

from fractions import Fraction
from time import perf_counter

# The usual time of reference_loop(), read right after a job, on the
# machine above, so that times at reference speed read about as the
# seconds measured there. Only the ratio to it matters when two commits
# are compared.
REFERENCE_S = 0.0004
LOOPS = 3


def reference_loop():
    t0 = perf_counter()
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, i + 3)
    return perf_counter() - t0


def slowness():
    """The fastest of a few reference loops over the nominal time: 1.0 at
    reference speed, 1.5 when the machine runs 1.5x slower."""
    return min(reference_loop() for _ in range(LOOPS)) / REFERENCE_S
