"""Host times normalised to a reference machine speed.

The benchmark runs on shared CPUs whose speed drifts by tens of percent
over tens of seconds, for every process alike.  Raw host times of one
fixed workload then spread by more than any useful regression bound
between runs.  :class:`SpeedClock` cancels that drift: a fixed probe
kernel runs between operations, and each operation's host time is
rescaled by the probe times measured just before and just after it::

    ref_s = host_s * reference probe time / mean(probe before, probe after)

``ref_s`` is the time the operation would take on a host where the
probe takes its reference time.  The probe is benchmark code only, so a
change to the program moves ``ref_s`` exactly as it moves the host time.
Raw host times are reported alongside.

The probe mirrors what a workload spends its time in: interpreted
Python with small complex linear algebra for all of them, plus a
16384-point FFT pair for a workload whose time is FFT-bound (the
service).  The FFT part is left out elsewhere because its speed varies
from process to process independently of the interpreter-bound code.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median probe time on the reference host (2-CPU x86-64 container,
#: Python 3.11, numpy 2.4), without and with the FFT part.  Only a
#: scale: it converts probe units back to seconds of roughly that host.
REFERENCE_PROBE_S = {False: 1.6e-3, True: 2.6e-3}

_RNG = np.random.default_rng(2014)
_MATRIX = _RNG.standard_normal((2, 2)) + 1j * _RNG.standard_normal((2, 2))
_STREAM = _RNG.standard_normal(16384) + 1j * _RNG.standard_normal(16384)


def probe_kernel(fft=False):
    """The fixed calibration work (about REFERENCE_PROBE_S of CPU)."""
    total = 0.0
    for i in range(4000):
        total += (i * 0.5) ** 0.5
    for _ in range(200):
        total += abs(np.linalg.det(_MATRIX)) + float(np.abs(_MATRIX).sum())
    if fft:
        spectrum = np.fft.fft(_STREAM)
        total += float(np.fft.ifft(spectrum * _STREAM).real[0])
    return total


class SpeedClock:
    """Times operations in host seconds and in reference seconds."""

    def __init__(self, fft=False):
        self.fft = bool(fft)
        self.reference_s = REFERENCE_PROBE_S[self.fft]
        #: Host seconds of every probe run so far.
        self.probes = []
        self._last = self.probe()

    def probe(self):
        t0 = time.perf_counter()
        probe_kernel(self.fft)
        dt = time.perf_counter() - t0
        self.probes.append(dt)
        return dt

    @property
    def probe_s(self):
        """Host seconds spent probing (not part of any operation)."""
        return sum(self.probes)

    def time(self, fn, *args, **kwargs):
        """``(result, host_s, ref_s)`` of one call of ``fn``."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        host_s = time.perf_counter() - t0
        before, after = self._last, self.probe()
        self._last = after
        return result, host_s, host_s * self.reference_s * 2 / (before
                                                                 + after)

    @property
    def speed(self):
        """Host speed relative to the reference (>1: faster)."""
        return self.reference_s / statistics.median(self.probes)
