"""Wall time corrected for how fast the shared host runs at the moment.

On a shared virtual machine the speed of a vCPU drifts, in phases of seconds
to minutes, by up to twofold: the same sweep pass took from 10 to 17 s in
runs a few minutes apart, with process CPU time moving along with wall time.  No run length within the benchmark's time limit averages that
out, so each interval is corrected by the speed measured inside it.

While a HostClock runs, a SIGALRM timer interrupts the program every
SAMPLE_EVERY_S and runs a fixed pure-Python loop, recording when it started
and how long it took.  The loop runs on the same vCPU, in the same process,
between two bytecodes of the program, so it sees the host as the program
does.  An interval's corrected time is its wall time, less the loops inside
it, times REFERENCE_S / (the mean loop time inside it): the time the interval
would have taken on a host where the loop takes REFERENCE_S.  An interval too
short to hold a sample uses the samples next to it.  The raw wall time stays
available, and run.py prints it beside the corrected one.

The program under test must not use SIGALRM or ITIMER_REAL itself.
"""

import signal
import statistics
import time
from bisect import bisect_left

SAMPLE_EVERY_S = 0.05
# A fixed constant: corrected times read in seconds of a host on which the
# reference loop takes this long.  On a 2-vCPU KVM guest of a 2.1 GHz Xeon the
# loop took 330 to 540 us, so corrected times there read 15 to 45% below raw.
REFERENCE_S = 330e-6


def reference_loop(n=1500):
    """Small tuples built, hashed and kept on a short stack: the kind of work
    the streamed enumeration does.  Of the loops tried on a 2-vCPU KVM guest,
    this one tracked the time of the shell-to-q=2 job best: over 37 runs of
    that job in 150 s, the coefficient of variation of its time was 0.19 raw
    and 0.04 corrected, where plain integer arithmetic reached 0.066 and
    lookups in a 30 MB dict 0.082."""
    s, stack = 0, []
    for i in range(n):
        t = (i, i + 1, i & 7)
        stack.append(t)
        if len(stack) > 64:
            stack.pop()
        s ^= hash(t)
    return s


class HostClock:
    """Context manager that samples host speed; see the module docstring."""

    def __init__(self):
        self.starts, self.durations = [], []
        self._old_handler = None

    def _sample(self, signum=None, frame=None):
        t = time.perf_counter()
        reference_loop()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def __enter__(self):
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()

    def corrected(self, t0, t1):
        """Corrected seconds of the interval [t0, t1] of perf_counter time."""
        i, j = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        inside = self.durations[i:j]
        near = inside or self.durations[max(i - 1, 0):i + 1]
        return (t1 - t0 - sum(inside)) * REFERENCE_S / statistics.fmean(near)
