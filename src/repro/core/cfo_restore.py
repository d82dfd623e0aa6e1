"""CFO correct-process-restore (paper §4.1).

The relayed copy must look to the client like one more multipath from
the *source*, which means it must carry the source's carrier frequency
offset, not the relay's.  But the relay's own processing (digital
cancellation regression, CNF pre-filtering) wants a CFO-free signal.
The trick: measure the source CFO once, derotate on ingest, process,
re-rotate by exactly the same amount on egress — phase-continuously, so
consecutive chunks stitch seamlessly.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ensure_complex_1d


class CfoRestorer:
    """Derotate on ingest, re-rotate identically on egress.

    One instance per (source, relay) pair; both directions count their
    own samples, and each sample's phase follows from its index in the
    stream alone, so any chunking rotates bit-identically to one whole
    call.  Chunks may be 1-D (one IQ stream) or ``(streams, n)`` — all
    MIMO chains share the source's single oscillator, so one rotation
    vector broadcasts across every row.
    """

    def __init__(self, cfo_hz, sample_rate_hz):
        self.cfo_hz = float(cfo_hz)
        self.sample_rate_hz = float(sample_rate_hz)
        self._ingested = 0
        self._egressed = 0

    def reset(self):
        """Restart both sample counters."""
        self._ingested = 0
        self._egressed = 0

    def _rotate(self, x, sign, start):
        """Apply ``exp(j*sign*2*pi*f*n/fs)`` at stream indices from ``start``."""
        x = np.asarray(x, dtype=complex)
        if x.ndim not in (1, 2):
            raise ValueError(f"x must be 1-D or (streams, n), got {x.shape}")
        n = np.arange(start, start + x.shape[-1])
        rot = np.exp(1j * (sign * 2.0 * np.pi * self.cfo_hz * n
                           / self.sample_rate_hz))
        return x * rot  # broadcasts over every stream row

    def correct(self, x):
        """Remove the source CFO from an ingest chunk."""
        out = self._rotate(x, -1.0, self._ingested)
        self._ingested += out.shape[-1]
        return out

    def restore(self, x):
        """Re-apply the source CFO to an egress chunk."""
        out = self._rotate(x, 1.0, self._egressed)
        self._egressed += out.shape[-1]
        return out

    def process(self, x, processor):
        """correct -> processor(x) -> restore, in one call.

        ``processor`` must preserve length; the returned chunk carries
        the original CFO as if the relay's oscillator never existed.
        """
        clean = self.correct(x)
        processed = ensure_complex_1d(processor(clean), "processor output")
        if processed.size != x.size:
            raise ValueError(
                f"processor changed the length: {x.size} -> {processed.size}")
        return self.restore(processed)
