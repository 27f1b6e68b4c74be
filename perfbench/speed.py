"""Host-speed probe: scales timings so that drift of a shared host cancels.

On a shared 2-vCPU VM the same Fraction-heavy code ran up to 30% faster
or slower from one ten-second stretch to the next, in CPU time as well as
wall time.  The probe times a fixed loop of standard-library ``Fraction``
arithmetic between ops and, from SIGALRM, inside long ones.  Over ten
seeds per workload, the quartile spread of a pass's wall time was 17-47%
raw and 2.8-3.8% scaled.  A scaled time is ``raw * REFERENCE_S / probe``:
seconds at the host speed on which the probe loop takes REFERENCE_S.
The loop uses no dcposets code, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.02
PROBE_EVERY_S = 0.5
# a single probe is noisy at sub-second scale; op latencies use the probes
# within this many seconds either side, which still follows the drift
SMOOTH_S = 2.0


def reference_loop() -> Fraction:
    x = Fraction(0)
    for i in range(1, 4000):
        x += Fraction(i % 13 + 1, i % 17 + 1)
    return x


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def tick(self) -> None:
        """Probe if the last probe is older than PROBE_EVERY_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def start_timer(self) -> None:
        """Also probe from SIGALRM every PROBE_EVERY_S, so ops lasting seconds are sampled inside.

        The handler runs between bytecodes of the main thread; callers
        subtract ``probe_seconds`` from any interval they time.
        """

        def on_alarm(signum, frame):
            try:
                self.probe()
            except RecursionError:  # interrupted a deep recursion; skip this sample
                pass

        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_seconds(self, start: float, end: float) -> float:
        """Time spent probing inside [start, end]."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        return sum(self.took[lo:hi])

    def scale_op(self, start: float, seconds: float) -> float:
        return self.scale(start - SMOOTH_S, start + seconds + SMOOTH_S)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe time in [start, end] and the probes bracketing it."""
        lo = max(bisect.bisect_left(self.at, start) - 1, 0)
        hi = min(bisect.bisect_right(self.at, end) + 1, len(self.at))
        took = self.took[lo:hi]
        return REFERENCE_S * len(took) / sum(took)
