"""Overlap-save streaming application of a cached spectral kernel.

:class:`FrequencyResponseStage` is the streaming replacement for the
seed's whole-signal zero-padded FFT: the windowed response is compiled
once into a short FIR kernel (see :mod:`repro.runtime.kernels`) and
applied hop by hop with the overlap-save method.  The FFT is sized from
the kernel alone (``next_pow2(4 * L)``), so hop boundaries sit at fixed
stream positions whatever the push sizes: pushing one sample at a time,
prime-sized blocks, or the whole frame in one call produce bit-identical
samples.  Every hop that is ready is transformed in one batched FFT, so
long streams pay no per-hop Python loop.

The kernel's anticausal part (``precursor`` samples) is compensated
inside the stage: output samples are emitted ``precursor`` samples after
the corresponding input arrives, and :meth:`flush` drains the remainder,
so a full stream maps length-``n`` input to length-``n`` output aligned
exactly like the one-shot path.  The lookahead is reported through
:attr:`latency_samples` for the paper's CP latency budget.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.runtime.chain import Stage
from repro.runtime.kernels import DEFAULT_TAIL_REL, cached_windowed_kernel
from repro.utils.signal_ops import next_pow2


class FrequencyResponseStage(Stage):
    """Stream blocks through an analytically-known frequency response.

    Parameters
    ----------
    response_fn:
        ``response_fn(freqs_hz) -> complex`` on a baseband grid; return
        shape ``(F,)`` for a scalar (SISO) response or ``(F, K, K)`` for
        a per-bin MIMO matrix response (blocks are then ``(K, n)``).
    sample_rate_hz:
        Baseband sample rate.
    cache_key:
        Stable identity of the response for the process-wide kernel
        cache; ``None`` compiles a private kernel.
    flat_fraction / stop_fraction:
        Band-edge window shape (see
        :func:`repro.runtime.kernels.band_edge_window`).
    tail_rel:
        Truncation tolerance of the compiled kernel (relative RMS).
    """

    def __init__(self, response_fn, sample_rate_hz, flat_fraction=0.35,
                 stop_fraction=0.48, cache_key=None,
                 tail_rel=DEFAULT_TAIL_REL, name="freq-response"):
        self.sample_rate_hz = float(sample_rate_hz)
        self.name = name
        self.kernel = cached_windowed_kernel(
            cache_key, response_fn, sample_rate_hz, flat_fraction,
            stop_fraction, tail_rel=tail_rel)
        length = self.kernel.length
        # Each transform carries L-1 samples of history and a hop of
        # about 3L new ones.
        self.fft_size = next_pow2(4 * length)
        self.hop = self.fft_size - (length - 1)
        self._spectrum = self.kernel.spectrum(self.fft_size)
        self._streams = self._spectrum.shape[0] if self.kernel.is_matrix \
            else None
        self.reset()

    @property
    def latency_samples(self):
        """Lookahead: the kernel's anticausal (precursor) length."""
        return self.kernel.precursor

    def reset(self):
        """Clear history, buffers and sample counters."""
        self._history = None       # last L-1 input samples, allocated lazily
        self._pending = []         # input blocks awaiting a full hop
        self._pending_count = 0
        self._in_count = 0
        self._out_count = 0
        self._skip = self.kernel.precursor
        # Leading (non-sample) shape of the stream.  A scalar response
        # latches it from the first block: () for a plain 1-D stream or
        # (batch,) for a stack of independent streams filtered in one
        # batched pass (each row convolves independently — FFT rows are
        # bitwise identical to the 1-D path).  Matrix responses couple
        # their rows, so the lead stays pinned to (streams,).
        self._lead = None if self._streams is None else (self._streams,)

    # -- internals --------------------------------------------------------

    def _coerce(self, x):
        x = np.asarray(x, dtype=complex)
        if self._streams is None:
            if x.ndim not in (1, 2):
                raise ValueError(
                    "scalar-response stage expects 1-D blocks or a "
                    f"(batch, n) stack, got {x.shape}")
            if self._lead is None:
                self._lead = x.shape[:-1]
            elif x.shape[:-1] != self._lead:
                raise ValueError(
                    f"block leading shape {x.shape[:-1]} does not match "
                    f"this stream's {self._lead}; reset() between batches")
        else:
            if x.ndim != 2 or x.shape[0] != self._streams:
                raise ValueError(
                    f"expected ({self._streams}, n) blocks, got {x.shape}")
        return x

    def _empty(self):
        return np.zeros((self._lead or ()) + (0,), dtype=complex)

    def _convolve(self, hops):
        """Overlap-save over the first ``hops`` whole hops pending."""
        length = self.kernel.length
        if self._history is None:
            self._history = np.zeros(
                (self._lead or ()) + (length - 1,), dtype=complex)
        segment = np.concatenate([self._history, *self._pending], axis=-1)
        end = length - 1 + hops * self.hop
        # Copies, not views: a view would pin the whole segment until
        # the next call.
        self._history = segment[..., end - (length - 1):end].copy()
        rest = segment[..., end:].copy()
        self._pending = [rest] if rest.shape[-1] else []
        self._pending_count = rest.shape[-1]
        # Read-only view of the hops' overlapping windows, one per row.
        step = segment.strides[-1]
        windows = as_strided(
            segment, segment.shape[:-1] + (hops, self.fft_size),
            segment.strides[:-1] + (self.hop * step, step), writeable=False)
        spec = np.fft.fft(windows, axis=-1)
        if self._streams is None:
            # In place: one fewer FFT-sized temporary per call.
            out_spec = np.multiply(self._spectrum, spec, out=spec)
        else:
            out_spec = np.einsum("rtm,tkm->rkm", self._spectrum, spec)
        y = np.fft.ifft(out_spec, axis=-1)[..., length - 1:]
        return y.reshape(y.shape[:-2] + (-1,))

    def _drain(self, x, is_input):
        """Buffer ``x``, run every full hop, and emit aligned output."""
        n = x.shape[-1]
        if is_input:
            self._in_count += n
        if n:
            self._pending.append(x)
            self._pending_count += n
        hops = self._pending_count // self.hop
        if not hops:
            return self._empty()
        out = self._convolve(hops)
        if self._skip:
            drop = min(self._skip, out.shape[-1])
            out = out[..., drop:]
            self._skip -= drop
        # Never emit beyond the samples actually ingested (zero padding
        # pushed by flush() must not lengthen the stream).
        out = out[..., : self._in_count - self._out_count]
        self._out_count += out.shape[-1]
        return out

    # -- Stage interface --------------------------------------------------

    def process_block(self, x):
        """Push a block; return every output sample that is now ready."""
        x = self._coerce(x)
        if x.shape[-1] == 0:
            return self._empty()
        return self._drain(x, is_input=True)

    def flush(self):
        """Drain the tail so total output length equals total input."""
        if self._out_count == self._in_count:
            return self._empty()
        # Zeros past the lookahead, rounded up to a whole hop: one drain
        # emits every remaining sample.
        precursor = self.kernel.precursor
        pad = -(self._pending_count + precursor) % self.hop + precursor
        return self._drain(
            np.zeros((self._lead or ()) + (pad,), dtype=complex),
            is_input=False)
