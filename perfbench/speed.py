"""Host-speed correction for wall times measured on a shared machine.

On a small shared host the same pass of a workload can run 50% slower for
minutes at a time, in CPU time as well as wall time: other tenants change
how fast the core runs, not how long this process waits for it. A
SpeedMeter times a fixed calibration kernel, independent of vel, every
INTERVAL_S seconds while it is active (from SIGALRM, so the samples fall
inside the timed work), and `factor` gives the host's speed relative to
nominal: the mean of nominal_s / sample. Multiplying a wall time by the
factor converts it to seconds at nominal speed.

Work of different kinds speeds up and slows down by different amounts, so
there are two kernels. ARRAY (small-array FFTs and einsums) tracked the
radial workloads best and SCALAR (a scalar solve_ivp integration) tracked
the dilation ODEs best, among the candidates tried: an interpreter loop,
small matvecs, a 512x512 matvec, and these two.
"""

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

INTERVAL_S = 0.05
_FIELD = np.linspace(-1.0, 1.0, 3 * 16 * 8 * 8).reshape(3, 16, 8, 8)
_DIFF = np.linspace(-1.0, 1.0, 64).reshape(8, 8)


def _array_kernel():
    for _ in range(6):
        spec = np.fft.rfft(_FIELD, axis=-1)
        np.einsum("ij,...jm->...im", _DIFF, spec.real, optimize=True)
        np.fft.irfft(spec, n=8, axis=-1)
        np.einsum("i...,i...->...", _FIELD, _FIELD)


def _forced_oscillator(t, y):
    return (y[1], -y[1] - y[0] + float(np.power(1.0 + t, -0.8)))


def _scalar_kernel():
    solve_ivp(_forced_oscillator, (0.0, 1.0), (1.0, 0.0), method="RK45",
              rtol=1e-8, atol=1e-8)


@dataclass(frozen=True)
class Calibration:
    """A fixed kernel and its duration at nominal speed.

    The nominal durations are round figures near those seen on a 2-vCPU
    2.1 GHz Xeon VM; they only scale the corrected times.
    """

    kernel: Callable[[], None]
    nominal_s: float

    def sample(self):
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start


ARRAY = Calibration(_array_kernel, 5.0e-4)
SCALAR = Calibration(_scalar_kernel, 8.0e-4)


class SpeedMeter:
    """Samples a calibration kernel on a wall-clock timer while active."""

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append(self.calibration.sample())

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self):
        """Host speed over the active period relative to nominal (1 = nominal)."""
        if not self.samples:  # too short to sample: measure once now
            self.samples.append(self.calibration.sample())
        nominal = self.calibration.nominal_s
        return statistics.fmean(nominal / s for s in self.samples)


def nominal_seconds(calibration, fn, *args):
    """Run fn(*args); return (wall seconds, seconds at nominal host speed)."""
    with SpeedMeter(calibration) as meter:
        start = time.perf_counter()
        fn(*args)
        wall = time.perf_counter() - start
    return wall, wall * meter.factor()
