"""Host-speed-corrected timing: wall time rescaled to a host at full speed.

The shared hosts this benchmark runs on switch between full speed and
about half speed many times a second, and the share of slow time drifts
over minutes, so raw wall time of the same pass moves by 20% or more
between runs.  A `Clock` samples the host's speed *during* the timed code:
an interval timer (SIGALRM, every INTERVAL_S) runs a tiny fixed stdlib
loop, `micro_probe`, twice and records how long the second run took.  The
first run only brings the probe's code and data back into the caches the
timed code has just used, so the reading tracks the host, not the cache
footprint of the program.  Each stretch of wall time between two samples
is then weighted by REF_PROBE_S / probe time, the speed the host had in
that stretch, and the stretches are summed:

    corrected = sum(dt_i * REF_PROBE_S / probe_i)

So a host running at half speed for a stretch counts that stretch half.
The probe's own time is left out of dt_i; it adds about 2% to the raw
wall time.  REF_PROBE_S is the probe's time on a 2-vCPU VM at full speed,
so `corrected` reads as the seconds the timed code would take there.  The
probe uses no `schroeder` code: a change to the program moves the timed
code and never the yardstick.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.005
REF_PROBE_S = 34e-6


def micro_probe() -> float:
    """A fixed loop of small Fraction and dict operations; returns its time."""
    t = time.perf_counter()
    acc, d = Fraction(0), {}
    for i in range(1, 16):
        k = (i % 7, i % 5)
        d[k] = d.get(k, 0) + i
        acc += Fraction(i % 11 + 1, i % 13 + 1)
    return time.perf_counter() - t


class Clock:
    """Wall time and speed-corrected time of the code between start() and stop()."""

    def __init__(self):
        self._t0 = self._last = 0.0
        self._probe = REF_PROBE_S
        self.corrected = 0.0

    def _tick(self, _signum, _frame) -> None:
        now = time.perf_counter()
        micro_probe()
        p = micro_probe()
        self.corrected += (now - self._last) * REF_PROBE_S / p
        self._probe = p
        self._last = time.perf_counter()

    def start(self) -> None:
        self.corrected = 0.0
        micro_probe()
        self._probe = micro_probe()
        signal.signal(signal.SIGALRM, self._tick)
        self._t0 = self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop sampling; returns (wall seconds, corrected seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # The stretch after the last sample runs at the last speed seen.
        self.corrected += (end - self._last) * REF_PROBE_S / self._probe
        return end - self._t0, self.corrected
