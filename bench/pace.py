"""Machine speed, sampled while the program runs with a fixed reference loop.

The shared machines this benchmark runs on switch, for seconds to
minutes at a time, into states up to about 1.8x slower, and the guest
sees no steal time.  A timer signal runs `reference_work` every EVERY_S
of wall time, in the main thread between two bytecodes, so samples land
inside long program calls too.  A round's time is its wall time less the
samples inside it, and its pace is the mean reference time while it ran.
Program time divided by pace varies several times less between machine
states than program time does.  Paced times are reported in seconds at
the speed where `reference_work` takes REFERENCE_S.

`reference_work` must never change: paced figures are comparable only
between runs that used the same reference.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

import numpy as np

# Seconds of one reference_work call on an uncontended core of an Intel
# Xeon at 2.0 GHz with numpy 2.4 and Python 3.11.  A fixed scale only.
REFERENCE_S = 1.2e-3
# Wall seconds between samples.
EVERY_S = 0.05

_STACK = np.random.default_rng(12345).standard_normal((6, 6, 6))


def reference_work():
    """Small-array numpy, interpreter overhead and JSON, like the program."""
    a = (_STACK + _STACK.transpose(0, 2, 1)) / 2
    total = 0.0
    for _ in range(10):
        p = np.einsum("aij,bjk->abik", a, a)
        c = p - p.transpose(1, 0, 2, 3)
        total += float(np.sum(c * c))
        for b in a:
            total += float(np.trace(b)) + float(np.max(np.abs(b - b.T)))
        a = a / np.sqrt(np.sum(a * a))
    json.loads(json.dumps(a.tolist()))
    return total


def sample():
    """Median seconds of three reference calls, for use outside a Pacer."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def paced(seconds, pace):
    """Program seconds scaled to the reference speed."""
    return seconds * REFERENCE_S / pace


class Pacer:
    """Context manager that samples reference_work on a SIGALRM timer."""

    def __init__(self):
        self.samples = []  # (start, end) of each reference call, in order

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_work()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def attribute(self, rounds):
        """Set each round's program seconds and pace from the samples.

        A sample runs to its end before the program resumes, so one that
        starts inside a round also ends inside it.  A round with no sample
        inside takes the mean of the samples on either side.
        """
        if not self.samples:
            self._sample(None, None)
        starts = [s for s, _ in self.samples]
        for r in rounds:
            i, j = bisect.bisect_left(starts, r.start), bisect.bisect_left(starts, r.end)
            inside = [end - start for start, end in self.samples[i:j]]
            r.seconds = r.end - r.start - sum(inside)
            if not inside:
                inside = [end - start for start, end in self.samples[max(i - 1, 0):i + 1]]
            r.pace = statistics.mean(inside)
