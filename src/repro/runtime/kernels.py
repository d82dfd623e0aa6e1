"""Cached spectral kernels for the streaming runtime.

The seed implementation re-derived the whole windowed frequency-response
grid — ``response_fn`` evaluated on a ``next_pow2(2n)``-point grid plus
the raised-cosine band-edge window — on *every* ``process`` call.  Here
the response is compiled **once** into a time-domain FIR kernel and
reused for every block and every frame of a configured link.  The
kernel is the windowed impulse response truncated where the excluded
tail falls below ``tail_rel`` of its RMS mass, so its length follows
the tolerance.  Self-interference modelling keeps
:data:`DEFAULT_TAIL_REL` (~-114 dB); the relay's signal path compiles
at :data:`repro.core.relay.SIGNAL_PATH_TAIL_REL` (~-61 dB).  A
linearly interpolated CNF response decays only as 1/t^2, so that
choice is the difference between thousands of taps and a few hundred.
The kernel cache is keyed on the response's identity, the sample
rate, the window shape and the tolerance; the FFT of the kernel is
additionally memoised per transform size.

Design notes
------------
* The band-edge window (flat to ``flat_fraction * fs``, raised-cosine to
  zero at ``stop_fraction * fs``) models the TX-reconstruction / RX
  anti-alias filters every physical front end has — identical to
  :func:`repro.dsp.spectrum.apply_frequency_response`.
* Kernels may be **matrix valued**: a ``(n_streams, n_streams, L)``
  kernel realises the per-bin MIMO CNF filters as one streaming
  convolution.
* The kernel keeps an explicit *precursor* (anticausal) segment.  The
  ideal constructive response generally needs a small advance (the
  via-relay path is longer than the direct one); a streaming stage
  realises it with ``precursor`` samples of lookahead — exactly the
  latency the paper budgets against the cyclic prefix.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.utils.signal_ops import next_pow2

#: Default analysis-grid length for compiling a response into a kernel.
DEFAULT_GRID_SIZE = 8192

#: Default relative RMS mass allowed outside the truncated kernel
#: (~-114 dB — below the cancellation depths the repo measures).
DEFAULT_TAIL_REL = 2e-6


def band_edge_window(freqs_hz, sample_rate_hz, flat_fraction=0.35,
                     stop_fraction=0.48):
    """The raised-cosine band-edge window on a frequency grid.

    Flat to ``flat_fraction * fs``, cosine-squared roll-off to zero at
    ``stop_fraction * fs`` — the front-end filter model shared by the
    one-shot and streaming spectral paths.
    """
    if not 0.0 < flat_fraction < stop_fraction <= 0.5:
        raise ValueError("need 0 < flat_fraction < stop_fraction <= 0.5")
    af = np.abs(np.asarray(freqs_hz, dtype=float)) / sample_rate_hz
    window = np.ones(af.shape)
    taper = (af > flat_fraction) & (af < stop_fraction)
    window[taper] = np.cos(
        0.5 * np.pi * (af[taper] - flat_fraction)
        / (stop_fraction - flat_fraction)) ** 2
    window[af >= stop_fraction] = 0.0
    return window


@dataclass
class SpectralKernel:
    """A compiled frequency response: truncated FIR + memoised spectra.

    ``fir`` has the time axis last — shape ``(L,)`` for a scalar
    response or ``(n_out, n_in, L)`` for a matrix response — and starts
    with ``precursor`` anticausal samples: the true output at index
    ``i`` is the causal convolution's output at ``i + precursor``.
    """

    fir: np.ndarray
    precursor: int
    sample_rate_hz: float
    _spectra: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._spectra_lock = threading.Lock()

    def __getstate__(self):
        # Kernels ride along when sweep tasks are shipped to process
        # workers; locks don't pickle, so rebuild one on arrival.
        state = self.__dict__.copy()
        state.pop("_spectra_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._spectra_lock = threading.Lock()

    @property
    def length(self):
        """Number of FIR taps."""
        return self.fir.shape[-1]

    @property
    def is_matrix(self):
        """True for a MIMO (matrix-valued) kernel."""
        return self.fir.ndim == 3

    def spectrum(self, fft_size):
        """The kernel's FFT at ``fft_size`` bins (memoised per size).

        Thread-safe: a cached kernel is shared by every stage (and, with
        the thread-backed sweep executor, every worker) that processes
        the same link, so concurrent first calls must not duplicate or
        tear the memo.
        """
        if fft_size < self.length:
            raise ValueError(
                f"fft_size {fft_size} shorter than kernel ({self.length})")
        with self._spectra_lock:
            if fft_size not in self._spectra:
                self._spectra[fft_size] = np.fft.fft(self.fir, fft_size,
                                                     axis=-1)
            return self._spectra[fft_size]


def design_windowed_kernel(response_fn, sample_rate_hz, flat_fraction=0.35,
                           stop_fraction=0.48, grid_size=DEFAULT_GRID_SIZE,
                           tail_rel=DEFAULT_TAIL_REL):
    """Compile ``response_fn`` into a truncated time-domain kernel.

    ``response_fn(freqs_hz)`` returns the complex response on a baseband
    grid — shape ``(F,)``, or ``(F, n_out, n_in)`` for a matrix
    response.  The windowed response is inverse-transformed and its
    impulse response truncated symmetrically so the excluded tail holds
    at most ``tail_rel`` of the total RMS mass.
    """
    grid_size = next_pow2(grid_size)
    freqs = np.fft.fftfreq(grid_size, d=1.0 / sample_rate_hz)
    h = np.asarray(response_fn(freqs), dtype=complex)
    if h.shape[0] != grid_size or h.ndim not in (1, 3):
        raise ValueError(
            f"response_fn must return (F,) or (F, K, K), got {h.shape}")
    window = band_edge_window(freqs, sample_rate_hz, flat_fraction,
                              stop_fraction)
    if h.ndim == 3:
        window = window[:, None, None]
    g = np.fft.ifft(h * window, axis=0)
    if g.ndim == 3:
        g = np.moveaxis(g, 0, -1)          # -> (n_out, n_in, G)
        profile = np.sqrt(np.sum(np.abs(g) ** 2, axis=(0, 1)))
    else:
        profile = np.abs(g)

    # Smallest half-width m such that energy outside time indices
    # [-m, +m] (circularly: head [0, m], tail [G-m, G)) is <= tail_rel^2
    # of the total.
    energy = profile ** 2
    total = float(energy.sum())
    half = grid_size // 2
    head = np.cumsum(energy[: half + 1])           # head[m] = E[0..m]
    tail = np.concatenate([[0.0], np.cumsum(energy[::-1][: half + 1])])
    included = head[: half + 1] + tail[: half + 1]
    excluded = np.maximum(total - included, 0.0)
    ok = np.flatnonzero(excluded <= (tail_rel ** 2) * max(total, 1e-300))
    m = int(ok[0]) if ok.size else half - 1
    m = int(np.clip(m, 8, half - 1))

    fir = np.concatenate([g[..., grid_size - m:], g[..., : m + 1]], axis=-1)
    return SpectralKernel(fir=fir, precursor=m,
                          sample_rate_hz=float(sample_rate_hz))


@dataclass
class CacheStats:
    """Hit/miss counters of the process-wide kernel cache."""

    hits: int = 0
    misses: int = 0
    size: int = 0

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class KernelCache:
    """A bounded, thread-safe LRU cache of compiled spectral kernels.

    Keys combine the response identity supplied by the caller with every
    parameter that shapes the kernel: ``(cache_key, sample_rate, window
    fractions, tail tolerance)``.  Per-FFT-size spectra are memoised on
    the cached :class:`SpectralKernel` itself.
    """

    def __init__(self, max_entries=64):
        self.max_entries = int(max_entries)
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key, builder):
        """The kernel for ``key``, building (and caching) it on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
        kernel = builder()
        with self._lock:
            self._misses += 1
            self._entries[key] = kernel
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return kernel

    def clear(self):
        """Empty the cache and zero the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def stats(self):
        """A snapshot of hit/miss counters and current size."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              size=len(self._entries))


_GLOBAL_CACHE = KernelCache()


def kernel_cache():
    """The process-wide kernel cache shared by all spectral stages.

    Per-process by construction: sweep workers spawned by
    :mod:`repro.exec` each build (or fork-inherit a snapshot of) their
    own cache, and every mutation is lock-guarded, so parallel sweeps
    cannot corrupt it — results stay independent of worker layout.
    """
    return _GLOBAL_CACHE


def cached_windowed_kernel(cache_key, response_fn, sample_rate_hz,
                           flat_fraction=0.35, stop_fraction=0.48,
                           tail_rel=DEFAULT_TAIL_REL):
    """Fetch or compile the kernel for a stable ``cache_key``.

    With ``cache_key=None`` the kernel is compiled fresh (no caching) —
    correct for ad-hoc lambdas whose identity cannot be established.
    """
    def build():
        return design_windowed_kernel(response_fn, sample_rate_hz,
                                      flat_fraction, stop_fraction,
                                      tail_rel=tail_rel)

    if cache_key is None:
        return build()
    full_key = (cache_key, float(sample_rate_hz), float(flat_fraction),
                float(stop_fraction), float(tail_rel))
    return _GLOBAL_CACHE.get(full_key, build)
