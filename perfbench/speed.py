"""The host's speed, sampled throughout a run, to correct the run's times.

On a shared virtual machine the program's CPU time moves with what other
tenants run on the same cores: a sweep took 7 s in one minute and 13 s a few
minutes later, with no steal time to show for it. A :class:`SpeedGauge`
samples that speed while the run measures. A profiling timer fires every
:data:`TICK_S` of CPU time, and its handler runs one fixed chunk of
interpreter and small-numpy work (:func:`reference`), the same mix the
program spends its time in, and adds up that chunk's CPU time. Each timed
sample (a set-up, a sweep, a request) is then scaled by :data:`REFERENCE_S`
over the chunk times around it (:meth:`SpeedGauge.scaled`), which reads it
as CPU seconds at a fixed reference speed. Measured on a 2-core Xeon VM, this
cut the spread between repeated sweeps from 0.105 to 0.036 of the median,
and between the median latencies of blocks of 1,200 synthetic requests from
0.23 to 0.08.

Times are thread CPU time: the program runs on this one thread, and process
CPU time reads stale while a process-wide timer is armed. :meth:`clock`
leaves out the time spent in the handler.
"""

from __future__ import annotations

import signal
from time import thread_time

import numpy as np

TICK_S = 0.004  # the handler costs about 2.5% of the run
REFERENCE_S = 100e-6  # one chunk, as run in the handler on a 2-core Xeon VM at a typical speed
WINDOW = 5  # chunks on either side of a sample that also set its speed

_W = np.linspace(0.0, 1.0, 64).reshape(8, 8)


def reference() -> int:
    """One chunk of fixed work: dict and tuple updates, string building, small matmuls."""
    counts = {}
    acc = 0
    v = np.ones(8)
    for i in range(60):
        key = (i % 7, i % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += len(str(i)) + sum(key)
        if i % 6 == 0:
            v = np.tanh(_W @ v)
    return acc


class SpeedGauge:
    """Reference chunks run from a profiling timer while the gauge is entered."""

    def __init__(self):
        self.durations = []  # CPU seconds of each reference chunk, in order
        self.spent = 0.0  # their sum
        self._previous = None

    def _tick(self, signum=None, frame=None):
        start = thread_time()
        reference()
        duration = thread_time() - start
        self.durations.append(duration)
        self.spent += duration

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def clock(self) -> float:
        """CPU seconds of this thread, without the reference chunks."""
        return thread_time() - self.spent

    def start(self) -> tuple:
        return len(self.durations), self.clock()

    def stop(self, started: tuple) -> tuple:
        """A sample: CPU seconds since ``started``, first chunk, end of its chunks."""
        first, t0 = started
        return self.clock() - t0, first, len(self.durations)

    def scaled(self, sample: tuple) -> float:
        """The sample's CPU seconds at the reference speed.

        The factor is the mean of REFERENCE_S over each chunk's time, over
        the chunks that ran during the sample and WINDOW on either side, so a
        2-ms request is scaled by the speed around it and a 10-s sweep by the
        speed throughout. Before any chunk has run, one runs now.
        """
        cpu, first, end = sample
        if not self.durations:
            self._tick()
        lo = max(0, first - WINDOW)
        window = self.durations[lo:min(len(self.durations), end + WINDOW)]
        return cpu * REFERENCE_S * sum(1.0 / d for d in window) / len(window)
