"""Machine-speed probe that the end-to-end times are normalised by.

On a shared VM the same work can take anywhere from 1x to 2x as long. The
slow spells last from under a second to minutes and differ between the
VM's CPUs, so raw wall times of two runs made minutes apart differ by more
than any useful regression bound. While a `Probe` is active, a timer
interrupts the process every INTERVAL_S and runs a fixed pure-Python
breadth-first search over a fixed random graph. The probe shares no code
with hlmenger, but it stresses the interpreter the way the verifier's flow
loops do, on the same CPU and at the same moment, so it slows down exactly
when the timed work does. `adjust` takes the probe's own time out of an
interval and returns the factor REFERENCE_S / (median probe time around
it). Multiplying a time by that factor gives the time on a machine whose
probe takes REFERENCE_S. A change to hlmenger moves normalised times as
much as raw ones. A change in machine speed moves neither.

The timer is for single-process work only. While worker processes keep
both CPUs busy, a probe in the parent would measure its contention with
them, not the machine, so with `timer=False` only the bursts between
requests sample the speed.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# median probe time in the fast spells of a 2-vCPU VM with Python 3.11.7
REFERENCE_S = 0.005
INTERVAL_S = 0.1
MARGIN_S = 1.0        # probe samples this close to an interval also count
BURST = 5

_VERTICES = 2000
_DEGREE = 6
_ROOTS = 10


class Probe:
    """Context manager that samples the machine's speed while active."""

    def __init__(self, timer: bool = True):
        self.timer = timer
        rng = random.Random(20220211)
        self._adj = [[rng.randrange(_VERTICES) for _ in range(_DEGREE)]
                     for _ in range(_VERTICES)]
        self.samples: list[tuple[float, float]] = []   # (start, end)
        self._busy = False
        self._previous = None

    def _search(self) -> None:
        adj = self._adj
        for root in range(_ROOTS):
            seen = [False] * _VERTICES
            seen[root] = True
            frontier = [root]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if not seen[v]:
                            seen[v] = True
                            nxt.append(v)
                frontier = nxt

    def _sample(self) -> None:
        start = time.perf_counter()
        self._search()
        self.samples.append((start, time.perf_counter()))

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self._sample()
            self._busy = False

    def burst(self) -> None:
        """BURST samples back to back, between timed intervals."""
        for _ in range(BURST):
            self._sample()

    def __enter__(self) -> "Probe":
        self.burst()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def adjust(self, start: float, end: float) -> tuple[float, float]:
        """(length of [start, end] minus the probe runs inside it,
        REFERENCE_S / median probe time within MARGIN_S of it)."""
        inside = sum(max(0.0, min(e, end) - max(s, start))
                     for s, e in self.samples)
        near = [e - s for s, e in self.samples
                if start - MARGIN_S < e and s < end + MARGIN_S]
        if not near:
            raise RuntimeError("no probe sample near the timed interval")
        return end - start - inside, REFERENCE_S / statistics.median(near)
