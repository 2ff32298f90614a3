"""Host speed, sampled with a fixed probe while the program runs.

The benchmark shares its host with other machines' work.  On the 2-core
Xeon VM the bounds were calibrated on, the CPU switches many times a
minute between a fast state and one up to about 1.9 times slower, and
the same run took from 8 s to 15 s within a few minutes.  CPU time
drifts with wall time, so neither measures the program alone.

:class:`HostClock` measures how fast the host is while the program
runs.  Every ``PERIOD_S`` of wall time a ``SIGALRM`` handler times the
two parts of :class:`Probe`, the same fixed interpreter work each time.
The host's speed at that tick is the geometric mean of the two parts'
speeds, each its reference time over its time now.
:meth:`HostClock.scaled` multiplies the program's time in an interval
by the mean speed over it, which gives the time the program would have
taken on the calibration host in a fast spell.  A slow spell that slows
the program slows the probe alike, so the scaled time stays put.  A
change to the program does not touch the probe, which lives here and
not in ``src/``, so it shows in full.

The handler's own time is counted and taken out of every interval.  The
probe allocates no object the cyclic collector tracks, so it triggers no
collection in the program, and it shares no state with the program, so
it changes nothing the program computes.
"""

from __future__ import annotations

import array
import bisect
import math
import random
import signal
import time

#: Wall-clock time between two probes.
PERIOD_S = 0.025
#: Time of each probe part, inside the handler, on the 2-core Xeon VM
#: the bounds were calibrated on, in a fast spell.  A scaled interval
#: reads in seconds of that host when fast.
COMPUTE_REF_S = 0.00020
MEMORY_REF_S = 0.00026
#: Samples on either side of a short interval: its speed is the mean
#: over at least ``2 * WINDOW_SAMPLES`` probes around it.
WINDOW_SAMPLES = 8


class Probe:
    """The fixed work timed on every tick, in two parts.

    ``compute`` is integer bytecode on a few locals, which stays in the
    core's caches and tracks the core's speed.  ``memory`` reads random
    doubles of an 8 MB array, which misses the caches and tracks the
    memory system.  The program does both kinds of work.

    The parts were chosen by timing nine candidates round-robin, every
    10 ms, behind ``socialtube_10k`` and ``socialtube_1k`` runs while
    the host swung between speeds (run times spread by 14%).  Scaled by
    the geometric mean of these two, the runs spread by 2.8% and 2.4%.
    A probe that did 16k-slot dict updates and 4 MB array reads in one
    loop left 6% and 13%: the dict shares the caches with the program,
    so its speed followed what the program was doing as well as the
    host.
    """

    def __init__(self, steps: int = 3000, doubles: int = 1 << 20) -> None:
        rng = random.Random(20140630)
        self.steps = steps
        self.array = array.array("d", [0.5]) * doubles
        self.order = [rng.randrange(doubles) for _ in range(steps)]

    def compute(self) -> int:
        value = 0
        for step in range(self.steps):
            value = (value * 31 + step) & 0xFFFF
        return value

    def memory(self) -> float:
        values = self.array
        total = 0.0
        for index in self.order:
            total += values[index]
        return total


class HostClock:
    """Samples host speed on a wall-clock timer between ``start`` and ``stop``.

    Read ``now()`` around an interval, then, once the clock has stopped,
    ask ``scaled(begin, end)`` for the program's time in it: handler time
    taken out, and scaled to the calibration host in a fast spell.
    """

    def __init__(self) -> None:
        self.probe = Probe()
        self.tick_at = array.array("d")
        #: Host speed at each tick, as a share of the reference.
        self.speeds = array.array("d")
        #: Wall time spent in the handler so far.
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probe.compute()
        middle = time.perf_counter()
        self.probe.memory()
        end = time.perf_counter()
        self.tick_at.append(start)
        self.speeds.append(math.sqrt(COMPUTE_REF_S / (middle - start) * MEMORY_REF_S / (end - middle)))
        self.stolen += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> tuple:
        """A mark to pass to :meth:`scaled`: (wall time, handler time)."""
        return time.perf_counter(), self.stolen

    def speed(self, begin: float, end: float) -> float:
        """Mean host speed, as a share of the reference, over [begin, end].

        An interval with fewer than ``2 * WINDOW_SAMPLES`` probes in it
        takes that many around its middle instead.
        """
        first = bisect.bisect_left(self.tick_at, begin)
        last = bisect.bisect_right(self.tick_at, end)
        if last - first < 2 * WINDOW_SAMPLES:
            centre = bisect.bisect_left(self.tick_at, (begin + end) / 2.0)
            last = min(len(self.tick_at), centre + WINDOW_SAMPLES)
            first = max(0, last - 2 * WINDOW_SAMPLES)
        window = self.speeds[first:last]
        if not window:
            raise RuntimeError("no host-speed samples: was the clock started?")
        return sum(window) / len(window)

    def net(self, begin: tuple, end: tuple) -> float:
        """The program's wall time between two marks: handler time taken out."""
        return (end[0] - begin[0]) - (end[1] - begin[1])

    def scaled(self, begin: tuple, end: tuple) -> float:
        """The program's time between two marks, in reference seconds."""
        return self.net(begin, end) * self.speed(begin[0], end[0])
