"""The combined cancellation chain and its end-to-end bookkeeping.

Ties together the SI channel model, the analog board, the causal digital
canceller and the noise-injection tuner into the full receive path of a
FastForward relay, and measures the figure the paper reports in §3.3:
108-110 dB of total cancellation (the theoretical maximum being 110 dB —
20 dBm transmit power over a -90 dBm noise floor).

The chain runs *oversampled* relative to the 20 MHz signal, as the
hardware does (WARP baseband clocks are several times the signal
bandwidth).  Oversampling is load-bearing for causal digital
cancellation: the signal occupies a narrow slice of the sampled band, so
the fractional-delay SI response can be matched in-band by a causal FIR
with small, implementable tap norms — at critical sampling the same fit
would need ~120 dB of out-of-band boost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cancellation.analog import AnalogCancellationBoard
from repro.cancellation.digital import (
    CausalDigitalCanceller,
    estimate_si_response_spectral,
)
from repro.cancellation.si_channel import SelfInterferenceChannel
from repro.cancellation.tuning import NoiseInjectionTuner
from repro.channel.noise import DEFAULT_NOISE_FLOOR_DBM
from repro.utils.rng import make_rng
from repro.utils.units import power_to_db
from repro.utils.validation import ensure_complex_1d


def bandlimited_gaussian(num_samples, power_dbm, occupied_fraction, rng):
    """Band-limited complex Gaussian noise at a given total power.

    Used both for OFDM-like relayed traffic (the signal statistically
    matches Gaussian once many subcarriers add up) and for the injected
    tuning probe, which passes the same TX filters and is therefore
    confined to the same band.
    """
    if not 0.0 < occupied_fraction <= 1.0:
        raise ValueError(
            f"occupied_fraction must be in (0, 1], got {occupied_fraction}")
    x = rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples)
    spec = np.fft.fft(x)
    freqs = np.fft.fftfreq(num_samples)
    spec[np.abs(freqs) > occupied_fraction / 2.0] = 0.0
    x = np.fft.ifft(spec)
    power = 10.0 ** (power_dbm / 10.0)
    return x * np.sqrt(power / np.mean(np.abs(x) ** 2))


@dataclass
class CancellationReport:
    """Measured cancellation split across stages."""

    analog_db: float
    digital_db: float
    total_db: float
    residual_power_dbm: float

    def __str__(self):
        return (f"analog {self.analog_db:.1f} dB + digital "
                f"{self.digital_db:.1f} dB = {self.total_db:.1f} dB total "
                f"(residual {self.residual_power_dbm:.1f} dBm)")


class CancellationPipeline:
    """Analog + causal digital cancellation against a given SI channel.

    Usage: construct with (or draw) an SI channel, call :meth:`tune`
    once with training traffic, then :meth:`cancel` per block, or
    :meth:`measure` for the full §3.3-style evaluation.

    Parameters
    ----------
    signal_bandwidth_hz:
        The relayed signal's bandwidth (20 MHz WiFi).
    oversample:
        Ratio of the cancellation hardware's sample rate to the signal
        bandwidth (8 by default, i.e. 160 Msps).
    """

    def __init__(self, si_channel: SelfInterferenceChannel = None,
                 signal_bandwidth_hz=20e6, oversample=8,
                 converter_delay_s=50e-9,
                 noise_floor_dbm=DEFAULT_NOISE_FLOOR_DBM,
                 digital_taps=CausalDigitalCanceller.DEFAULT_NUM_TAPS,
                 rng=None):
        if oversample < 1:
            raise ValueError(f"oversample must be >= 1, got {oversample}")
        rng = make_rng(rng)
        self.si_channel = si_channel or SelfInterferenceChannel.typical(rng=rng)
        self.signal_bandwidth_hz = float(signal_bandwidth_hz)
        self.oversample = int(oversample)
        self.sample_rate_hz = self.signal_bandwidth_hz * self.oversample
        #: Fraction of the sampled band the signal occupies (52/64 tones).
        self.occupied_fraction = (52.0 / 64.0) / self.oversample
        # DAC + ADC group delay: everything that happens at RF appears
        # in the digital receive view shifted right by this much.  The
        # bulk delay is what makes the digital-view SI channel causal
        # with margin — without it the anticausal sinc near-tails of the
        # sub-sample RF delays would cap causal cancellation ~30 dB
        # below the analog residual.
        self.converter_delay_s = float(converter_delay_s)
        self.converter_delay_samples = int(
            round(self.converter_delay_s * self.sample_rate_hz))
        self.noise_floor_dbm = float(noise_floor_dbm)
        self.analog = AnalogCancellationBoard(carrier_hz=self.si_channel.carrier_hz)
        self.digital = CausalDigitalCanceller(num_taps=digital_taps)
        self.tuner = NoiseInjectionTuner(sample_rate_hz=self.sample_rate_hz)
        self._rng = rng
        self._tuned = False

    def _rf_to_digital(self, x):
        """Shift an RF-domain waveform into the digital receive view."""
        d = self.converter_delay_samples
        if d == 0:
            return np.asarray(x, dtype=complex)
        x = np.asarray(x, dtype=complex)
        return np.concatenate([np.zeros(d, dtype=complex), x[: x.size - d]])

    def _tuning_grid(self, n=65):
        """In-band frequency grid (Hz) used for analog tuning."""
        half = self.occupied_fraction / 2.0 * self.sample_rate_hz
        return np.linspace(-half, half, n)

    def make_traffic(self, num_samples, power_dbm, rng=None):
        """Relayed-traffic stand-in: band-limited Gaussian at power."""
        rng = make_rng(rng if rng is not None else self._rng)
        return bandlimited_gaussian(num_samples, power_dbm,
                                    self.occupied_fraction, rng)

    def make_probe(self, num_samples, tx_power_dbm, rng=None):
        """The injected tuning probe: 30 dB below TX, same band."""
        rng = make_rng(rng if rng is not None else self._rng)
        return bandlimited_gaussian(
            num_samples, tx_power_dbm - self.tuner.probe_backoff_db,
            self.occupied_fraction, rng)

    def rx_with_si(self, tx_signal, external_signal=None, rng=None):
        """What the relay's RX port sees: external signal + leaked TX + noise.

        The noise carries the (in-band) -90 dBm floor; the RX chain is
        assumed to have filtered out-of-band noise already.
        """
        tx = ensure_complex_1d(tx_signal, "tx_signal")
        rng = make_rng(rng if rng is not None else self._rng)
        si = self._rf_to_digital(self.si_channel.apply(tx, self.sample_rate_hz))
        noise = bandlimited_gaussian(tx.size, self.noise_floor_dbm,
                                     self.occupied_fraction, rng)
        out = si + noise
        if external_signal is not None:
            ext = ensure_complex_1d(external_signal, "external_signal")
            if ext.size != tx.size:
                raise ValueError("external signal must match the TX length")
            out = out + ext
        return out

    def _estimate_response_on_grid(self, reference, received, grid):
        """Probe-based spectral estimate interpolated onto the grid."""
        freqs, resp, mask = estimate_si_response_spectral(
            reference, received, nfft=512)
        f_hz = freqs[mask] * self.sample_rate_hz
        order = np.argsort(f_hz)
        f_sorted, h_sorted = f_hz[order], resp[mask][order]
        real = np.interp(grid, f_sorted, h_sorted.real)
        imag = np.interp(grid, f_sorted, h_sorted.imag)
        return real + 1j * imag

    def tune(self, tx_power_dbm=20.0, training_samples=131072, iterations=4,
             online=False, rng=None):
        """Tune both stages using the noise-injection procedure of §3.3.

        With ``online=False`` (initial bring-up) the relay transmits the
        probe alone during a quiet slot, so the estimate is limited only
        by the noise floor.  With ``online=True`` the probe rides 30 dB
        under live relayed traffic — the scenario where naive TX/RX
        correlation falls into the trap of §3.3 (TX is a delayed copy of
        RX, so the tuner would learn ``alpha(f) + H(f)`` and cancel the
        desired signal).  Correlating against the probe only is immune,
        but each pass resolves the channel just ~15 dB deep through the
        traffic, so the board is retargeted iteratively, each pass
        estimating the *residual* channel — the prototype's "tuned from
        baseband after observing the residual" loop (§4.3).

        The causal digital filter is then trained on the full known TX
        stream (traffic + probe), which is safe for the *digital* stage
        because its taps are strictly causal and the relay's loop delay
        keeps past TX uncorrelated with the current source sample.
        """
        rng = make_rng(rng if rng is not None else self._rng)
        grid = self._tuning_grid()

        for _ in range(max(1, iterations)):
            probe = self.make_probe(training_samples, tx_power_dbm, rng=rng)
            if online:
                traffic = self.make_traffic(training_samples, tx_power_dbm,
                                            rng=rng)
                tx = traffic + probe
            else:
                tx = probe
            rx = self.rx_with_si(tx, rng=rng)
            after_analog = rx + self._rf_to_digital(
                self.analog.apply(tx, self.sample_rate_hz))
            residual_resp = self._estimate_response_on_grid(
                probe, after_analog, grid)
            # The digital view carries the known converter phase ramp;
            # divide it out to recover the RF-domain residual, which is
            # (H_si + H_board): retarget the board at the implied SI.
            ramp = np.exp(-2j * np.pi * grid * self.converter_delay_samples
                          / self.sample_rate_hz)
            rf_residual = residual_resp / ramp
            si_estimate = rf_residual - self.analog.response(grid)
            self.analog.tune(si_estimate, grid)
            if not online:
                break  # offline estimates are noise-limited already

        # Train the digital stage on a fresh traffic block through the
        # now-tuned analog board.
        traffic = self.make_traffic(training_samples, tx_power_dbm, rng=rng)
        probe = self.make_probe(training_samples, tx_power_dbm, rng=rng)
        tx = traffic + probe
        rx = self.rx_with_si(tx, rng=rng)
        residual = rx + self._rf_to_digital(
            self.analog.apply(tx, self.sample_rate_hz))
        self.digital.train(tx, residual)
        self._tuned = True

    def cancel(self, rx_samples, tx_samples):
        """Run a block through analog then digital cancellation."""
        if not self._tuned:
            raise RuntimeError("call tune() before cancel()")
        rx = ensure_complex_1d(rx_samples, "rx_samples")
        tx = ensure_complex_1d(tx_samples, "tx_samples")
        analog_wave = self._rf_to_digital(
            self.analog.apply(tx, self.sample_rate_hz))
        after_analog = rx + analog_wave
        return self.digital.cancel(after_analog, tx)

    def measure(self, tx_power_dbm=20.0, num_samples=32768, rng=None):
        """Reproduce the §3.3 measurement: stage-by-stage cancellation.

        Transmits fresh traffic through the SI channel (no external
        signal), cancels, and reports dB per stage.  Total cancellation
        is capped by the noise floor: with 20 dBm TX and a -90 dBm floor
        the best observable figure is 110 dB.
        """
        if not self._tuned:
            self.tune(tx_power_dbm=tx_power_dbm, rng=rng)
        rng = make_rng(rng if rng is not None else self._rng)
        tx = self.make_traffic(num_samples, tx_power_dbm, rng=rng)
        rx = self.rx_with_si(tx, rng=rng)

        analog_wave = self._rf_to_digital(
            self.analog.apply(tx, self.sample_rate_hz))
        after_analog = rx + analog_wave
        after_digital = self.digital.cancel(after_analog, tx)

        # Skip the digital filter's warm-up transient.
        skip = self.digital.num_taps
        p_rx = np.mean(np.abs(rx[skip:]) ** 2)
        p_analog = np.mean(np.abs(after_analog[skip:]) ** 2)
        p_digital = np.mean(np.abs(after_digital[skip:]) ** 2)

        analog_db = float(power_to_db(p_rx / max(p_analog, 1e-30)))
        digital_db = float(power_to_db(p_analog / max(p_digital, 1e-30)))
        residual_dbm = float(power_to_db(max(p_digital, 1e-30)))
        total_db = float(tx_power_dbm - residual_dbm)
        return CancellationReport(analog_db=analog_db, digital_db=digital_db,
                                  total_db=total_db,
                                  residual_power_dbm=residual_dbm)
