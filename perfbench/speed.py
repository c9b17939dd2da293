"""Machine-speed calibration for the benchmark's time metrics.

On a shared 2-vCPU virtual machine the CPU speed drifts by 20-40% over
tens of seconds, so runs of the same code made a minute apart differ by as
much.  CPU time (time.process_time) is 85-100% of the ops' wall time there
and spreads between runs nearly as much, so it is no steadier clock.  The
benchmark therefore times a fixed pure-Python reference loop before every
op, on the op's CPU, and reports each time at the nominal speed:

    reported = measured wall time * NOMINAL_S / median(reference wall times)

The median runs over the samples taken on the op's CPU before the ops
within WIDTH of it: the two vCPUs drift separately, and a single 5 ms
sample varies by about 30% (interquartile range over median), too much to
scale by alone.  NOMINAL_S is a constant, so a change to the program moves
a reported time by the same factor as it moves the wall time at any one
machine speed.  The raw wall times are in the result file beside the
scaled ones.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.005   # about reference()'s wall time on a 2-vCPU x86-64 VM, CPython 3.11
WIDTH = 6


def reference():
    """About 5 ms of the kinds of work k3mod does: small-integer arithmetic,
    Fractions, tuples as dict keys, list comprehensions."""
    acc, table, rows, s = Fraction(0), {}, [], 0
    for i in range(1, 250):
        acc += Fraction(i % 17 - 8, i % 13 + 1)
        row = tuple(j * i % 11 - 5 for j in range(24))
        rows.append(row)
        table[row] = table.get(row, 0) + 1
        s += sum(a * b for a, b in zip(row, rows[i // 2]))
    for i in range(25000):
        s += i * i % 7
    return acc, len(table), s


def sample():
    """Wall time of one reference() call, in seconds, with the cyclic garbage
    collector off so that the heap the program left does not count."""
    gc.disable()
    try:
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        gc.enable()


def scales(refs, cpus):
    """Per-op scale from the reference samples `refs[i]` taken before op i on
    CPU `cpus[i]`."""
    out = []
    for i, cpu in enumerate(cpus):
        near = [t for j in range(max(0, i - WIDTH), min(len(cpus), i + WIDTH + 1))
                if cpus[j] == cpu for t in refs[j]]
        out.append(NOMINAL_S / statistics.median(near))
    return out
