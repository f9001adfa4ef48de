"""The machine's momentary speed, read from a fixed block of Python work.

The reference box (2 vCPUs shared with other tenants) runs the same work up
to 1.6x slower or faster from one second, or one minute, to the next, and
every op time of a run moves with it.  The benchmark therefore times this
fixed block next to the work it measures and reports times scaled to a
machine on which the block takes ``REF_S``:

    scaled time = measured time * REF_S / block time around it

The block is the kind of work the library does (small-int arithmetic, dict
and list traffic in the interpreter), so the machine's swings move both
alike: over runs whose readings ranged from 1.9 to 3.5 ms, raw throughput
moved by up to 1.4x and scaled throughput by a few percent.  ``REF_S`` is
the block's time in the box's fast phase, so scaled times read close to
wall times there.  The block is the benchmark's own code, but it runs in
the measuring process, so the state a program leaves there can move it a
little (see perfbench/README.md).  Raw wall times and the readings are
kept in every result's detail file next to the scaled times.
"""

from __future__ import annotations

from time import perf_counter

REF_S = 0.002  # one reading in the reference box's fast phase
REPEATS = 3  # a reading is the fastest of this many blocks


def block() -> int:
    """A fixed amount of interpreter work, about 2 ms on the reference box."""
    table: dict[int, int] = {}
    x = 1
    for i in range(7000):
        x = (x * 1103515245 + 12345) % 2147483648
        table[x & 1023] = table.get(x & 1023, 0) + i
    return sum(sorted(table.values()))


def reading() -> float:
    """Seconds for one block: the fastest of REPEATS, so that a single
    interruption does not count as a slow machine."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        block()
        best = min(best, perf_counter() - t0)
    return best
