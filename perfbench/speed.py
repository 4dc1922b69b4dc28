"""Timings scaled by the machine's speed, measured while the program runs.

On a shared host the speed of one core can change by half within
seconds and drift by a quarter over minutes, whatever the program does.
A fixed probe of pure-Python integer work (a small matrix product and a
dict count, the kind of work torusbt spends its time on) is timed before
and after every timed section, and every ``PROBE_EVERY_S`` of the
process's CPU time inside it (``SIGPROF``). The probes' time is taken
out of the section's time, and the rest is scaled by
``REFERENCE_PROBE_S`` over the mean probe time around the section:

    scaled = (wall - probe time) * REFERENCE_PROBE_S / mean(probe times)

So a scaled time is the section's time at the speed where one probe
takes ``REFERENCE_PROBE_S``. The probe is part of the benchmark, not of
torusbt, so no change to the program moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

# CPU time between two probes inside a section.
PROBE_EVERY_S = 0.02
# A section that holds fewer probes than this (all its own, with the ones
# just before and after it) takes its speed from the last MIN_PROBES.
MIN_PROBES = 8
# Median probe time on the machine named in README.md.
REFERENCE_PROBE_S = 0.00027

_MATRIX = [[(i * 7 + j * 3) % 11 - 5 for j in range(12)] for i in range(12)]


def _work() -> None:
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*_MATRIX)]
               for row in _MATRIX]
    counts: dict = {}
    for row in product:
        for v in row:
            counts[v % 97] = counts.get(v % 97, 0) + 1


def probe() -> float:
    """Seconds that one fixed piece of pure-Python integer work takes. It
    is run once untimed first, so that what the program left in the
    caches does not count in the time."""
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Gauge:
    """Times sections of one process at a scaled speed.

    Use ``with gauge.section() as s:`` around the work; afterwards
    ``s.seconds`` is its wall time without the probes and ``s.scaled``
    that time at the reference speed. The probe history is kept across
    sections, for short sections (see ``MIN_PROBES``).
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._probe_s = 0.0

    def _on_prof(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self._probe_s += time.perf_counter() - start

    def section(self) -> "Section":
        return Section(self)


class Section:
    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge
        self.seconds = self.scaled = 0.0
        self.factor = 1.0

    def __enter__(self) -> "Section":
        g = self.gauge
        g.probes.append(probe())
        self._first = len(g.probes) - 1
        g._probe_s = 0.0
        self._old = signal.signal(signal.SIGPROF, g._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
        g = self.gauge
        self.seconds = max(wall - g._probe_s, 0.0)
        g.probes.append(probe())
        window = g.probes[max(0, min(self._first, len(g.probes) - MIN_PROBES)):]
        self.factor = REFERENCE_PROBE_S / statistics.mean(window)
        self.scaled = self.seconds * self.factor
