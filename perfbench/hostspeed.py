"""Host-speed sampler and the nominal-speed clock of the untraced mode.

The benchmark's cores are shared with other tenants, and the speed they
give this process changes from one moment to the next: on a 2-vCPU VM a
fixed small computation alternates between about 5.6 and 9.5 ms in
stretches of tens of milliseconds, the mix drifts over minutes, and the
same loop took from 1.9 to 2.7 CPU seconds in ten back-to-back repeats.

While a timed section runs, ``ITIMER_REAL`` interrupts the process every
``INTERVAL_S`` and the handler times ``_probe``, a fixed mix of small
linear algebra and interpreter work like the package's own.  ``clock``
counts the process CPU time outside the handler, each stretch between two
samples scaled by ``NOMINAL_PROBE_S`` over the probe time at its start:
it reads seconds at the nominal host speed.  The probe does not touch
gpexpect, so a change to the package moves what ``clock`` measures and
leaves the scale alone.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# seconds between samples; a sample costs about 0.25 ms.  The timer
# is a wall-clock one: an armed CPU-time timer (ITIMER_PROF) makes Linux
# report process CPU time in whole scheduler ticks.
INTERVAL_S = 0.005
# probe time at the nominal speed: about the median over five runs each of
# refit_xsq_1d and multitheta_sin3x_1d of the mean probe time in their
# loops, on a 2-vCPU Intel Xeon VM (2.1 GHz), so that clock reads close
# to CPU seconds on that host
NOMINAL_PROBE_S = 2.3e-4

_RNG = np.random.default_rng(0)
_B = _RNG.standard_normal((20, 20))
_A = _B @ _B.T + 20.0 * np.eye(20)
_RHS = _RNG.standard_normal(20)
_EYE = np.eye(20)


def _probe() -> float:
    total = 0.0
    for i in range(4):
        chol = np.linalg.cholesky(_A + (i * 1e-6) * _EYE)
        total += float(np.exp(-np.linalg.solve(chol, _RHS) ** 2).sum())
        total += sum(j * 0.5 for j in range(30))
    return total


class SpeedSampler:
    """Times ``_probe`` at a steady rate while ``running``."""

    def __init__(self):
        self.samples: list = []  # probe CPU seconds
        self._busy = 0.0  # CPU seconds spent in the handler
        self._mark = 0.0  # _cpu() at the end of the last sample
        self._nominal = 0.0  # clock() at the end of the last sample
        self._in_sample = False

    def _cpu(self) -> float:
        return time.process_time() - self._busy

    def _sample(self, signum=None, frame=None) -> None:
        if self._in_sample:  # a tick that arrived while the last one ran
            return
        self._in_sample = True
        t0 = time.process_time()
        if self.samples:
            self._nominal += (t0 - self._busy - self._mark) * NOMINAL_PROBE_S / self.samples[-1]
        _probe()
        self.samples.append(time.process_time() - t0)
        self._busy += time.process_time() - t0
        self._mark = self._cpu()
        self._in_sample = False

    def clock(self) -> float:
        """CPU seconds outside the handler, at the nominal host speed."""
        while True:
            count = len(self.samples)
            value = self._nominal + (self._cpu() - self._mark) * NOMINAL_PROBE_S / self.samples[-1]
            if len(self.samples) == count:  # no sample landed mid-read
                return value

    def overhead(self) -> float:
        """Share of the process CPU time spent sampling."""
        return self._busy / time.process_time()

    def speed(self) -> float:
        """Mean host speed over all samples, as a share of the nominal speed."""
        return NOMINAL_PROBE_S / statistics.mean(self.samples)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
