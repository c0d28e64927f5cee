"""A fixed reference loop that measures how fast the host runs right now.

The host's CPU speed drifts by up to 2x over seconds to minutes (see
README.md, Host noise), and that drift, not the program, dominated the
spread of raw timings between runs.  The run therefore times this loop
between its timed calls and reports its times scaled to the reference
host: the CPU time t of the calls since the last measurement becomes
t * REF_S / (the loop's CPU time now).

The loop uses no bmstab code, so a change to bmstab cannot move it.  It
is pure Python, as most of bmstab's time is: Fraction arithmetic, a dict
and a frozenset of small tuples, sorting.  numpy kernels were tried in it
and dropped: their time hardly moves when the host slows the interpreter
down, so they only diluted the measurement.
"""

from __future__ import annotations

import time
from fractions import Fraction

# CPU time of one `reference_loop()` on the reference host (2-vCPU KVM
# guest, Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
REF_S = 0.035


def reference_loop() -> int:
    """Fixed work of about REF_S seconds that allocates well under 1 MB, all
    freed when it returns, so it does not move peak_rss_mb."""
    acc = Fraction(0)
    for k in range(1, 1500):
        acc += Fraction(k, k * k + 1)
    counts = {}
    for i in range(60000):
        key = (i % 47, i % 43)
        counts[key] = counts.get(key, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    cells = frozenset((i, j) for i in range(60) for j in range(60))
    return len(ranked) + len(cells) + acc.denominator % 7


def timed() -> float:
    """The median CPU time of three reference loops.  The first loop after a
    large call often runs slow on caches the call left cold, and a timer
    interrupt can land in any one loop; the median drops both."""
    times = []
    for _ in range(3):
        start = time.process_time()
        reference_loop()
        times.append(time.process_time() - start)
    return sorted(times)[1]
