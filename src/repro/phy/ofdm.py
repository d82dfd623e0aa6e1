"""OFDM modulation/demodulation with cyclic-prefix handling.

The cyclic prefix is the star of the paper: any extra path whose delay
relative to the first arrival stays inside the CP folds into the
per-subcarrier channel gain instead of causing inter-symbol interference
(§3.1, Fig. 4).  The FastForward relay exploits this by keeping its
processing latency far below the CP so its (amplified, filtered) copy is
absorbed as one more multipath term.
"""

from __future__ import annotations

import numpy as np

from repro.phy.params import OfdmParams
from repro.utils.validation import ensure_complex_1d

#: 802.11 pilot polarity sequence (first 127 symbols, repeats).
_PILOT_POLARITY = np.array([
    1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1, -1, -1, 1, 1, -1,
    1, 1, -1, 1, 1, 1, 1, 1, 1, -1, 1, 1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, 1,
    -1, -1, -1, 1, -1, 1, -1, -1, 1, -1, -1, 1, 1, 1, 1, 1, -1, 1, 1, 1, -1, 1,
    -1, 1, 1, -1, -1, 1, 1, 1, -1, 1, -1, -1, -1, 1, -1, 1, -1, -1, 1, -1, -1,
    1, 1, 1, 1, 1, -1, -1, 1, -1, -1, -1, 1, 1, 1, -1, -1, -1, -1, 1, -1, -1,
    1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, -1,
], dtype=float)


class OfdmModulator:
    """Map frequency-domain data symbols to a time-domain IQ stream."""

    def __init__(self, params: OfdmParams):
        self.params = params
        self._data_idx = np.asarray(params.data_subcarriers, dtype=int)
        self._pilot_idx = np.asarray(params.pilot_subcarriers, dtype=int)

    def pilot_values(self, symbol_index):
        """Pilot symbols for OFDM symbol ``symbol_index`` (BPSK, rotating)."""
        polarity = _PILOT_POLARITY[symbol_index % _PILOT_POLARITY.size]
        base = np.ones(self._pilot_idx.size, dtype=complex)
        if base.size:
            base[-1] = -1.0  # the 802.11 pattern (1, 1, 1, -1)
        return polarity * base

    def pilot_values_many(self, symbol_indices):
        """Pilot symbols for many OFDM symbols, shape ``(n, n_pilots)``.

        Row ``i`` equals ``pilot_values(symbol_indices[i])``.
        """
        indices = np.asarray(symbol_indices, dtype=int).ravel()
        polarity = _PILOT_POLARITY[indices % _PILOT_POLARITY.size]
        base = np.ones(self._pilot_idx.size, dtype=complex)
        if base.size:
            base[-1] = -1.0
        return polarity[:, None] * base

    def modulate_symbol(self, data_symbols, symbol_index=0):
        """One OFDM symbol (with CP) from ``num_data_subcarriers`` symbols."""
        p = self.params
        data_symbols = ensure_complex_1d(data_symbols, "data_symbols")
        if data_symbols.size != p.num_data_subcarriers:
            raise ValueError(
                f"expected {p.num_data_subcarriers} data symbols, "
                f"got {data_symbols.size}")
        # Tone scaling makes the time-domain mean power exactly 1 for
        # unit-power constellations; the unitary FFT pair (ifft*sqrt(N),
        # fft/sqrt(N)) keeps the round trip transparent.
        tone_scale = np.sqrt(p.fft_size / p.num_used_subcarriers)
        grid = np.zeros(p.fft_size, dtype=complex)
        grid[self._data_idx % p.fft_size] = data_symbols * tone_scale
        grid[self._pilot_idx % p.fft_size] = self.pilot_values(symbol_index) * tone_scale
        time_sym = np.fft.ifft(grid) * np.sqrt(p.fft_size)
        return np.concatenate([time_sym[-p.cp_len:], time_sym]) if p.cp_len else time_sym

    def modulate(self, data_symbols, start_symbol_index=0):
        """A burst of OFDM symbols from a flat data-symbol array.

        All symbols of the burst are gridded and IFFT'd in one batched
        pass; per-symbol output is bitwise identical to
        :meth:`modulate_symbol` (batched FFTs process rows
        independently).
        """
        p = self.params
        data_symbols = ensure_complex_1d(data_symbols, "data_symbols")
        if data_symbols.size % p.num_data_subcarriers:
            raise ValueError(
                f"data length {data_symbols.size} not a multiple of "
                f"{p.num_data_subcarriers}")
        blocks = data_symbols.reshape(-1, p.num_data_subcarriers)
        n_syms = blocks.shape[0]
        if not n_syms:
            return np.array([], dtype=complex)
        tone_scale = np.sqrt(p.fft_size / p.num_used_subcarriers)
        grid = np.zeros((n_syms, p.fft_size), dtype=complex)
        grid[:, self._data_idx % p.fft_size] = blocks * tone_scale
        pilots = self.pilot_values_many(
            start_symbol_index + np.arange(n_syms))
        grid[:, self._pilot_idx % p.fft_size] = pilots * tone_scale
        time_syms = np.fft.ifft(grid, axis=-1) * np.sqrt(p.fft_size)
        if p.cp_len:
            time_syms = np.concatenate(
                [time_syms[:, -p.cp_len:], time_syms], axis=1)
        return time_syms.reshape(-1)

    def modulate_grid(self, grid):
        """One OFDM symbol (with CP) from a full fft_size frequency grid.

        Used for preambles and sounding symbols where the caller controls
        every tone directly.  ``grid`` is indexed by FFT bin (DC at 0).
        """
        p = self.params
        grid = ensure_complex_1d(grid, "grid")
        if grid.size != p.fft_size:
            raise ValueError(f"grid must have {p.fft_size} bins, got {grid.size}")
        time_sym = np.fft.ifft(grid) * np.sqrt(p.fft_size)
        return np.concatenate([time_sym[-p.cp_len:], time_sym]) if p.cp_len else time_sym


class OfdmDemodulator:
    """Recover frequency-domain symbols from a time-domain IQ stream."""

    def __init__(self, params: OfdmParams):
        self.params = params
        self._data_idx = np.asarray(params.data_subcarriers, dtype=int)
        self._pilot_idx = np.asarray(params.pilot_subcarriers, dtype=int)

    def demodulate_symbol(self, samples):
        """FFT one OFDM symbol; returns the full frequency grid.

        ``samples`` must be exactly ``symbol_len`` samples (CP included);
        the CP is discarded before the FFT.
        """
        p = self.params
        samples = ensure_complex_1d(samples, "samples")
        if samples.size != p.symbol_len:
            raise ValueError(
                f"expected {p.symbol_len} samples, got {samples.size}")
        body = samples[p.cp_len:]
        return np.fft.fft(body) / np.sqrt(p.fft_size)

    def demodulate_symbols(self, samples, num_symbols=None):
        """FFT a burst of OFDM symbols; returns ``(num_symbols, fft)`` grids.

        Row ``i`` is bitwise identical to ``demodulate_symbol`` on the
        ``i``-th ``symbol_len`` slice (batched FFTs process rows
        independently).  Extra trailing samples are ignored; raises if
        the stream is too short for ``num_symbols``.
        """
        p = self.params
        samples = ensure_complex_1d(samples, "samples")
        available = samples.size // p.symbol_len
        if num_symbols is None:
            num_symbols = available
        if num_symbols > available:
            raise ValueError(
                f"stream has {available} whole symbols, need {num_symbols}")
        bodies = samples[: num_symbols * p.symbol_len].reshape(
            num_symbols, p.symbol_len)[:, p.cp_len:]
        return np.fft.fft(bodies, axis=-1) / np.sqrt(p.fft_size)

    def extract_data(self, grid):
        """Data-subcarrier values from full frequency grid(s).

        Accepts one grid ``(fft,)`` or a stack ``(..., fft)``; the tone
        axis is always the last one.
        """
        p = self.params
        tone_scale = np.sqrt(p.fft_size / p.num_used_subcarriers)
        return grid[..., self._data_idx % p.fft_size] / tone_scale

    def demodulate(self, samples, num_symbols=None):
        """Demodulate a burst; returns an array (num_symbols, n_data).

        Extra trailing samples are ignored; raises if the stream is too
        short for ``num_symbols``.
        """
        return self.extract_data(self.demodulate_symbols(samples, num_symbols))
