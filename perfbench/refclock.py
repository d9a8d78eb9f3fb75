"""Timing in reference seconds, which a shared host's speed swings cancel out of.

The machines this benchmark runs on share their cores with other
tenants, and a core's speed can change by a factor of two for seconds at
a time; the CPU time of a process swings just as much.  So every timed
section is interleaved with short slices of a fixed pure-Python loop
(``calibration_slice``): one before, one after, and one every
``INTERVAL_S`` of wall time from a SIGALRM handler, which runs between
bytecodes of whatever the program is doing.  The slices' own time is
taken out of the section, and what is left is scaled by how much slower
or faster the slices ran than ``NOMINAL_SLICE_S``:

    reference seconds = (wall - slice time) * NOMINAL_SLICE_S
                        / harmonic mean of the slice times

A section therefore reads as it would on a core that runs one slice in
``NOMINAL_SLICE_S``.  Both constants are fixed, so two commits measured
with the same benchmark code compare directly.  README.md gives the
spreads measured in wall time and in reference seconds.
"""

from __future__ import annotations

import math
import signal
import time
from array import array

INTERVAL_S = 0.005
NOMINAL_SLICE_S = 1.5e-4  # one slice on a quiet core of a 2-core VM, Python 3.11


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _turn(p: _Point, t: float) -> _Point:
    c, s = math.cos(t), math.sin(t)
    return _Point(p.x * c - p.y * s, p.x * s + p.y * c)


def calibration_slice(n: int = 150) -> int:
    """A fixed mix of the interpreter work the program does: float,
    complex and math calls, small tuples and slotted objects, function
    calls and list appends.

    At most a few dozen of its objects are alive at once: a slice runs in
    the middle of the program's own allocations, and a larger live set
    would leave the heap more fragmented, and the peak RSS higher, the
    more slices a run takes.
    """
    acc = []
    count = 0
    x = 0.5
    p = _Point(1.0, 0.0)
    for i in range(n):
        z = complex(x, 1.0 - x) * complex(math.cos(x), -math.sin(x))
        x = 3.9 * x * (1.0 - x)
        acc.append((z.real, z.imag))
        p = _turn(p, 0.001 * i)
        if p.x > 0.5:
            acc.append(p)
        if len(acc) >= 32:
            count += len(acc)
            acc.clear()
    return count + len(acc)


class ReferenceClock:
    """Measures sections of work in reference seconds (see module doc)."""

    def __init__(self, interval: float = INTERVAL_S,
                 nominal: float = NOMINAL_SLICE_S, slice_fn=calibration_slice,
                 clock=time.perf_counter):
        self.interval = interval
        self.nominal = nominal
        self.slice_fn = slice_fn
        self.clock = clock

    def _timed_slice(self) -> float:
        t0 = self.clock()
        self.slice_fn()
        return self.clock() - t0

    def measure(self, fn):
        """Run ``fn()``; return (its result, reference seconds, wall seconds).

        The wall seconds leave out the slices taken inside the section.
        """
        # slices inside the section, their total time, and the sum of the
        # inverses of all slice times; kept unboxed so that a slice leaves
        # no object behind among the program's allocations
        sums = array("d", [0.0, 0.0, 0.0])
        busy = closed = False

        def on_alarm(*_args):
            nonlocal busy
            # skip a slice if the last one is still running (the host
            # stalled it for a whole interval) or the section has ended
            if busy or closed:
                return
            busy = True
            d = self._timed_slice()
            sums[0] += 1.0
            sums[1] += d
            sums[2] += 1.0 / d
            busy = False

        previous = signal.signal(signal.SIGALRM, on_alarm)
        try:
            before = self._timed_slice()
            t0 = self.clock()
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
            try:
                result = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                closed = True
                t1 = self.clock()
            after = self._timed_slice()
        finally:
            signal.signal(signal.SIGALRM, previous)
        count, inside, inverse = sums
        wall = t1 - t0 - inside
        # the harmonic mean of slice times is the mean speed; a slice the
        # host preempted weighs little in it
        harmonic = (count + 2.0) / (inverse + 1.0 / before + 1.0 / after)
        return result, wall * self.nominal / harmonic, wall
