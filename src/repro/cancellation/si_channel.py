"""The self-interference channel between a radio's TX and RX ports.

Physical composition (following the full-duplex literature the paper
builds on [11, 10]):

* the circulator's direct leakage — strong (~-15 dB) and essentially
  instantaneous;
* near-field reflections from the antenna interface and environment —
  a handful of components delayed by nanoseconds to tens of
  nanoseconds, 20-40 dB below the leakage;
* for MIMO, cross-talk between antenna chains at similar levels.

All component delays are physical (seconds) and generally sub-sample at
20 Msps, so the channel is exposed both as an exact frequency response
over the signal band and as a fractional-delay time-domain operator.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.units import db_to_linear


class SelfInterferenceChannel:
    """A sum of discrete physical paths from TX to RX.

    Parameters
    ----------
    delays_s / gains:
        Parallel arrays of path delays (seconds) and complex gains
        (amplitude, includes carrier phase).
    carrier_hz:
        Carrier for baseband phase rotation of each path.
    """

    def __init__(self, delays_s, gains, carrier_hz=2.45e9):
        delays = np.atleast_1d(np.asarray(delays_s, dtype=float))
        gains = np.atleast_1d(np.asarray(gains, dtype=complex))
        if delays.shape != gains.shape:
            raise ValueError("delays and gains must have the same shape")
        if np.any(delays < 0):
            raise ValueError("path delays must be non-negative")
        self.delays_s = delays
        self.gains = gains
        self.carrier_hz = float(carrier_hz)

    @classmethod
    def typical(cls, carrier_hz=2.45e9, circulator_isolation_db=15.0,
                num_near=3, num_environment=3, rng=None):
        """Draw a typical circulator + reflections SI channel.

        Three delay scales, matching the full-duplex cancellation
        literature the prototype builds on:

        * the circulator leakage at ~200 ps, ``circulator_isolation_db``
          below the TX — the dominant component;
        * near-field reflections (antenna interface, board) at
          300 ps - 1.5 ns, 10-25 dB below the leakage — inside the
          analog board's tap span, so analog cancellation can null them;
        * environmental reflections at 5-40 ns, 45-60 dB below the
          leakage — outside the analog span, left for the (long, causal)
          digital filter.
        """
        rng = make_rng(rng)
        delays = [200e-12]  # circulator electrical length
        gains = [db_to_linear(-circulator_isolation_db)
                 * np.exp(1j * rng.uniform(0, 2 * np.pi))]
        for _ in range(num_near):
            delays.append(rng.uniform(300e-12, 1.5e-9))
            level_db = circulator_isolation_db + rng.uniform(10.0, 25.0)
            gains.append(db_to_linear(-level_db)
                         * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        for _ in range(num_environment):
            delays.append(rng.uniform(5e-9, 40e-9))
            level_db = circulator_isolation_db + rng.uniform(45.0, 60.0)
            gains.append(db_to_linear(-level_db)
                         * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        return cls(np.array(delays), np.array(gains), carrier_hz=carrier_hz)

    def frequency_response(self, baseband_freqs_hz):
        """Exact response at baseband frequencies (includes carrier phase)."""
        f = np.atleast_1d(np.asarray(baseband_freqs_hz, dtype=float))
        total = self.carrier_hz + f
        phases = np.exp(-2j * np.pi * np.outer(total, self.delays_s))
        return phases @ self.gains

    def _kernel_cache_key(self):
        # Content hash: the channel is fully determined by its paths.
        return ("si-channel", self.delays_s.tobytes(),
                self.gains.tobytes(), self.carrier_hz)

    def apply(self, x, sample_rate_hz):
        """Pass a baseband block through the SI channel.

        Linear (zero-padded) application with the band-edge window of
        :func:`repro.dsp.spectrum.apply_frequency_response` standing in
        for the front-end filters.
        """
        from repro.dsp.spectrum import apply_frequency_response

        return apply_frequency_response(x, self.frequency_response,
                                        sample_rate_hz,
                                        cache_key=self._kernel_cache_key())

    def as_stage(self, sample_rate_hz):
        """The channel as a streaming stage (cached spectral kernel).

        Useful for composing full streaming loops — e.g.
        ``Chain([relay_stages..., si_channel.as_stage(fs)])`` — where the
        kernel is designed once per channel realisation and shared by
        every chain built from it.
        """
        from repro.runtime.spectral import FrequencyResponseStage

        return FrequencyResponseStage(
            self.frequency_response, sample_rate_hz,
            cache_key=self._kernel_cache_key(), name="si-channel")

    def isolation_db(self):
        """Passive isolation: -20 log10 of the aggregate gain magnitude.

        Evaluated at band centre; this is the starting point before any
        active cancellation.
        """
        h0 = self.frequency_response(np.array([0.0]))[0]
        mag = abs(h0)
        if mag == 0:
            return float("inf")
        return float(-20.0 * np.log10(mag))

    def discrete_taps(self, sample_rate_hz, num_taps=8):
        """A causal FIR approximation at the given sample rate.

        Least-squares fit of ``num_taps`` T-spaced taps to the exact
        in-band response; used as ground truth for estimator tests.
        """
        freqs = np.linspace(-0.5, 0.5, 129, endpoint=False) * sample_rate_hz
        desired = self.frequency_response(freqs)
        k = np.arange(num_taps)
        basis = np.exp(-2j * np.pi * np.outer(freqs / sample_rate_hz, k))
        taps, *_ = np.linalg.lstsq(basis, desired, rcond=None)
        return taps
