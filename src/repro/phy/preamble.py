"""802.11-style preamble generation: L-STF, L-LTF and HT-LTFs.

The preamble does triple duty in this reproduction, exactly as in the
paper:

* packet detection and coarse/fine CFO estimation use the repeating STF
  and the twice-repeated LTF (§4.1);
* channel estimation at the destination — and at the relay, which is why
  relay latency must stay within the CP *for the preamble too* — uses
  the LTF (and per-stream HT-LTFs for MIMO);
* the uplink sender-fingerprinting scheme measures ~10 STF subcarriers
  through the client->relay channel and nearest-neighbour matches them
  (§6, Fig. 20).
"""

from __future__ import annotations

import numpy as np

from repro.phy.params import OfdmParams

#: The 802.11 L-LTF tone values on subcarriers -26..26 (0 at DC).
_LTF_26 = np.array([
    1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1,
    1, 1, 1, 1,
    0,
    1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1,
    -1, 1, 1, 1, 1,
], dtype=float)

#: The 802.11 L-STF occupies every 4th tone in -24..24 with these values.
_STF_TONES = {
    -24: 1 + 1j, -20: -1 - 1j, -16: 1 + 1j, -12: -1 - 1j, -8: -1 - 1j,
    -4: 1 + 1j, 4: -1 - 1j, 8: -1 - 1j, 12: 1 + 1j, 16: 1 + 1j,
    20: 1 + 1j, 24: 1 + 1j,
}


def ltf_frequency_symbol(params: OfdmParams):
    """Full-FFT frequency grid of one LTF symbol (BPSK on used tones).

    For the 64-point WiFi grids this is the standard L-LTF extended to
    the HT-20 tone plan; for other numerologies a deterministic BPSK
    pattern is synthesised over the used tones.
    """
    grid = np.zeros(params.fft_size, dtype=complex)
    used = params.used_subcarriers()
    if params.fft_size == 64:
        for k in used:
            if -26 <= k <= 26:
                grid[k % 64] = _LTF_26[k + 26]
            else:
                # HT-20 extends to +-28; extend with alternating BPSK.
                grid[k % 64] = 1.0 if (k % 2 == 0) else -1.0
    else:
        # Deterministic pseudo-BPSK derived from the tone index.
        for k in used:
            grid[k % params.fft_size] = 1.0 if ((k * 2654435761) >> 3) % 2 == 0 else -1.0
    return grid


def stf_time_symbol(params: OfdmParams):
    """One period of the STF as time samples (fft_size/4 for WiFi grids).

    The STF grid only occupies every 4th tone, so its time signal has
    period ``fft_size/4``; detectors exploit that short periodicity.
    """
    grid = np.zeros(params.fft_size, dtype=complex)
    if params.fft_size == 64:
        for k, v in _STF_TONES.items():
            grid[k % 64] = v * np.sqrt(13.0 / 6.0)
    else:
        used = [k for k in params.used_subcarriers() if k % 4 == 0 and k != 0]
        for k in used:
            angle = (k * 2654435761) % 4
            grid[k % params.fft_size] = np.exp(1j * np.pi * angle / 2.0) * np.sqrt(2.0)
    time = np.fft.ifft(grid) * np.sqrt(params.fft_size)
    period = params.fft_size // 4
    return time[:period]


def stf_tone_indices(params: OfdmParams):
    """Signed indices of the tones the STF occupies (for fingerprinting)."""
    if params.fft_size == 64:
        return tuple(sorted(_STF_TONES))
    return tuple(k for k in params.used_subcarriers() if k % 4 == 0 and k != 0)


class Preamble:
    """Generates and measures the full preamble of a PPDU.

    Layout (all durations for the 20 MHz grid):

    ==========  =======================  ==========================
    field       contents                 samples
    ==========  =======================  ==========================
    L-STF       10 repetitions of the    160 (8 us)
                16-sample STF period
    L-LTF       2 x fft_size LTF body    2*fft_size + 2*cp (~8 us)
                with a double-length CP
    HT-LTFs     one per spatial stream   num_streams * symbol_len
    ==========  =======================  ==========================
    """

    STF_REPEATS = 10

    def __init__(self, params: OfdmParams, num_streams=1):
        if num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {num_streams}")
        self.params = params
        self.num_streams = num_streams
        self._stf_period = stf_time_symbol(params)
        self._ltf_grid = ltf_frequency_symbol(params)
        ltf_body = np.fft.ifft(self._ltf_grid) * np.sqrt(params.fft_size)
        self._ltf_body = ltf_body

    @property
    def stf_samples(self):
        """Total L-STF length in samples."""
        return self._stf_period.size * self.STF_REPEATS

    @property
    def ltf_samples(self):
        """Total L-LTF length in samples (double CP + two bodies)."""
        return 2 * self.params.cp_len + 2 * self.params.fft_size

    @property
    def ht_ltf_samples(self):
        """Total HT-LTF length (one OFDM symbol per stream)."""
        return self.num_streams * self.params.symbol_len

    @property
    def total_samples(self):
        """Full preamble length in samples."""
        return self.stf_samples + self.ltf_samples + self.ht_ltf_samples

    def stf(self):
        """The L-STF field: repeated short training periods."""
        return np.tile(self._stf_period, self.STF_REPEATS)

    def ltf(self):
        """The L-LTF field: double-length CP then two LTF bodies."""
        p = self.params
        cp = self._ltf_body[-2 * p.cp_len:] if p.cp_len else np.array([], dtype=complex)
        return np.concatenate([cp, self._ltf_body, self._ltf_body])

    def ht_ltf(self, stream_index):
        """The HT-LTF symbol for one spatial stream.

        Streams are orthogonalised in time (each stream transmits its
        LTF in its own slot and is silent in the others), which keeps
        per-stream channel estimation a simple per-slot division.
        """
        if not 0 <= stream_index < self.num_streams:
            raise ValueError(
                f"stream_index must be in [0, {self.num_streams}), got {stream_index}")
        p = self.params
        body = self._ltf_body
        sym = np.concatenate([body[-p.cp_len:], body]) if p.cp_len else body
        slots = np.zeros((self.num_streams, sym.size), dtype=complex)
        slots[stream_index] = sym
        return slots.reshape(-1)

    def per_stream_waveforms(self):
        """Per-stream preamble waveforms, shape (num_streams, total).

        Stream 0 carries the legacy STF+LTF; all streams carry their own
        HT-LTF slot.  This matches the 802.11n practice of sounding each
        stream separately while keeping legacy fields decodable.
        """
        total = self.total_samples
        waves = np.zeros((self.num_streams, total), dtype=complex)
        legacy = np.concatenate([self.stf(), self.ltf()])
        waves[0, : legacy.size] = legacy
        offset = legacy.size
        for s in range(self.num_streams):
            waves[s, offset:] += self.ht_ltf(s)
        return waves

    def ltf_reference_grid(self):
        """The known LTF frequency grid used for channel estimation."""
        return self._ltf_grid.copy()
