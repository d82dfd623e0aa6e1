"""Analog tap-delay-line model with picosecond taps and tunable gains.

This models the two analog boards in the FastForward prototype:

* the **analog cancellation board** — 8 taps spaced 100–200 ps apart with
  digital step attenuators adjustable in 0.25 dB steps from 0 to
  31.75 dB (paper §4.3);
* the **analog CNF filter** — 4 taps spaced 100 ps apart (a quarter
  wavelength at 2.45 GHz) whose gains rotate the relayed signal to any
  phase over the full 360 degrees (paper §3.4, Fig. 10).

At complex baseband, a physical delay of ``tau`` seconds at carrier
``f_c`` appears as a phase rotation ``exp(-j 2 pi f_c tau)`` *and* a
baseband delay ``exp(-j 2 pi f tau)`` across the signal band.  For
picosecond taps the baseband term is nearly flat over 20 MHz — that
near-flatness is exactly why a handful of analog taps can realise a
common rotation for all subcarriers while the digital pre-filter handles
per-subcarrier differences.
"""

from __future__ import annotations

import numpy as np

from repro.utils.units import db_to_linear
from repro.utils.validation import ensure_complex_1d


class AnalogTapDelayLine:
    """A bank of fixed delays with tunable complex gains.

    Parameters
    ----------
    tap_delays_s:
        Physical delay of each tap in seconds (e.g. multiples of 100 ps).
    carrier_hz:
        RF carrier frequency; sets the per-tap carrier phase rotation.
    max_attenuation_db / attenuation_step_db:
        Model of the digital step attenuators.  Gains set through
        :meth:`set_attenuations_db` are quantised to the step and clipped
        to [0, max]; :meth:`set_gains` bypasses quantisation for ideal
        analyses.
    """

    def __init__(self, tap_delays_s, carrier_hz=2.45e9,
                 max_attenuation_db=31.75, attenuation_step_db=0.25):
        delays = np.atleast_1d(np.asarray(tap_delays_s, dtype=float))
        if delays.size == 0:
            raise ValueError("need at least one tap delay")
        if np.any(delays < 0):
            raise ValueError("tap delays must be non-negative")
        self.tap_delays_s = delays
        self.carrier_hz = float(carrier_hz)
        self.max_attenuation_db = float(max_attenuation_db)
        self.attenuation_step_db = float(attenuation_step_db)
        # Gains default to fully attenuated (board powered but flat off).
        self.gains = np.zeros(delays.size, dtype=complex)

    @property
    def num_taps(self):
        """Number of delay taps on the board."""
        return self.tap_delays_s.size

    def carrier_phases(self):
        """Carrier-phase rotation of each tap: ``-2 pi f_c tau`` (radians)."""
        return -2.0 * np.pi * self.carrier_hz * self.tap_delays_s

    def set_gains(self, gains):
        """Set ideal (unquantised) complex tap gains."""
        gains = np.atleast_1d(np.asarray(gains, dtype=complex))
        if gains.shape != self.tap_delays_s.shape:
            raise ValueError(
                f"expected {self.num_taps} gains, got shape {gains.shape}")
        self.gains = gains.copy()

    def set_attenuations_db(self, attenuations_db, signs=None):
        """Program the step attenuators (quantised, clipped, real gains).

        ``signs`` optionally flips tap polarity (+1/-1), modelling the
        through/inverted coupler paths on the physical board.
        """
        att = np.atleast_1d(np.asarray(attenuations_db, dtype=float))
        if att.shape != self.tap_delays_s.shape:
            raise ValueError(
                f"expected {self.num_taps} attenuations, got shape {att.shape}")
        step = self.attenuation_step_db
        quantised = np.clip(np.round(att / step) * step, 0.0, self.max_attenuation_db)
        gains = db_to_linear(-quantised)
        if signs is not None:
            signs = np.atleast_1d(np.asarray(signs, dtype=float))
            if signs.shape != gains.shape:
                raise ValueError("signs must match the number of taps")
            gains = gains * np.sign(signs)
        self.gains = gains.astype(complex)
        return quantised

    def drift_gains(self, rng, amp_sigma_db=0.1, phase_sigma_rad=0.02):
        """Perturb the realised tap gains in place (one drift step).

        Models attenuator/phase-shifter drift with temperature and
        supply: each tap's magnitude moves by a Gaussian step in dB and
        its phase by a Gaussian step in radians.  Call once per
        simulated interval with per-√interval sigmas for a random walk;
        :class:`repro.faults.impairments.TapDriftStage` applies the
        same walk to a stream when the board itself is not in the loop.
        Taps at exactly zero stay zero (a powered-down tap does not
        drift on).  Returns the new gains.
        """
        amp_db = rng.normal(0.0, float(amp_sigma_db), self.num_taps)
        phase = rng.normal(0.0, float(phase_sigma_rad), self.num_taps)
        factor = db_to_linear(amp_db) * np.exp(1j * phase)
        self.gains = np.where(self.gains == 0, 0.0, self.gains * factor)
        return self.gains

    def quantize_gains(self, gains):
        """Quantise ideal complex gains to the attenuator grid.

        The board realises a complex gain per tap as magnitude (stepped
        attenuator) times the tap's fixed carrier phase; residual phase
        error is folded into the returned gains so analyses can measure
        the quantisation penalty.
        """
        gains = np.atleast_1d(np.asarray(gains, dtype=complex))
        mags = np.abs(gains)
        step = self.attenuation_step_db
        with np.errstate(divide="ignore"):
            att_db = np.where(mags > 0, -20.0 * np.log10(np.maximum(mags, 1e-20)), np.inf)
        quantised = np.clip(np.round(att_db / step) * step, 0.0, self.max_attenuation_db)
        new_mags = np.where(np.isinf(att_db), 0.0, db_to_linear(-quantised))
        phases = np.where(mags > 0, gains / np.maximum(mags, 1e-20), 0.0)
        return new_mags * phases

    def frequency_response(self, baseband_freqs_hz):
        """Complex response at baseband frequencies (Hz, signal band).

        ``H(f) = sum_k g_k exp(-j 2 pi (f_c + f) tau_k)`` — each tap
        contributes its carrier rotation and a gentle in-band slope.
        """
        f = np.atleast_1d(np.asarray(baseband_freqs_hz, dtype=float))
        total_freq = self.carrier_hz + f
        phases = np.exp(-2j * np.pi * np.outer(total_freq, self.tap_delays_s))
        return phases @ self.gains

    def _kernel_cache_key(self):
        # Content hash: the realised filter is fully determined by the
        # tap layout, the programmed gains and the carrier.
        return ("analog-tdl", self.tap_delays_s.tobytes(),
                self.gains.tobytes(), self.carrier_hz)

    def apply(self, x, sample_rate_hz):
        """Filter a baseband block through the analog line.

        Each tap delays the baseband signal by ``tau_k`` (fractional
        samples) and rotates it by the carrier phase; applied linearly
        with the band-edge window of
        :func:`repro.dsp.spectrum.apply_frequency_response` standing in
        for the surrounding front-end filters.
        """
        from repro.dsp.spectrum import apply_frequency_response

        x = ensure_complex_1d(x, "x")
        if x.size == 0:
            return x.copy()
        return apply_frequency_response(x, self.frequency_response,
                                        sample_rate_hz,
                                        cache_key=self._kernel_cache_key())

    def as_stage(self, sample_rate_hz, block_size=4096):
        """The board as a streaming stage with its current gain settings.

        Returns a :class:`repro.runtime.spectral.FrequencyResponseStage`
        whose spectral kernel is cached on the tap layout and gains, so
        repeated chains over an unchanged board skip the kernel design.
        Reprogramming the gains afterwards does *not* retune an
        already-built stage — build a new one.
        """
        from repro.runtime.spectral import FrequencyResponseStage

        return FrequencyResponseStage(
            self.frequency_response, sample_rate_hz, block_size=block_size,
            cache_key=self._kernel_cache_key(), name="analog-line")

    def solve_gains_for_response(self, baseband_freqs_hz, desired_response,
                                 max_gain=None):
        """Least-squares tap gains approximating a desired response.

        Because the taps sit a fraction of a wavelength apart, their
        in-band responses are nearly collinear and the unconstrained LS
        solution wants enormous mutually-cancelling gains — which step
        attenuators (gain <= 1) cannot realise.  ``max_gain`` activates
        a ridge-regularised solve whose regulariser is bisected until
        every tap gain fits the hardware range; this is what a physical
        tuning loop converges to.
        """
        f = np.atleast_1d(np.asarray(baseband_freqs_hz, dtype=float))
        d = np.atleast_1d(np.asarray(desired_response, dtype=complex))
        if f.shape != d.shape:
            raise ValueError("frequency grid and desired response must match")
        total_freq = self.carrier_hz + f
        basis = np.exp(-2j * np.pi * np.outer(total_freq, self.tap_delays_s))
        gains, *_ = np.linalg.lstsq(basis, d, rcond=None)
        if max_gain is None or np.abs(gains).max() <= max_gain:
            return gains
        return bounded_ridge_solve(basis.conj().T @ basis,
                                   basis.conj().T @ d, 1e3,
                                   max_gain=max_gain)


def bounded_ridge_solve(gram, rhs, hi_scale, max_gain=1.0):
    """Ridge solution ``(gram + lam I) g = rhs`` with ``max |g| <= max_gain``.

    ``lam`` is bisected geometrically for 60 rounds on
    ``[1e-12, hi_scale]`` times the Gram's mean eigenvalue
    (``trace / Q``) and the solution at the final feasible bound is
    returned — the tuning loop that keeps picosecond-spaced taps inside
    the step attenuators' range.  Batched over leading axes: ``gram``
    is ``(..., Q, Q)`` Hermitian and ``rhs`` is ``(..., Q)``.  One
    ``eigh`` per Gram turns every trial into
    ``V diag(1/(s + lam)) V^H rhs``, a few element-wise ops instead of
    a linear solve.
    """
    gram = np.asarray(gram, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    scale = np.real(np.trace(gram, axis1=-2, axis2=-1)) / gram.shape[-1]
    lo = 1e-12 * scale
    hi = hi_scale * scale
    s, v = np.linalg.eigh(gram)
    r = (v.conj().swapaxes(-1, -2) @ rhs[..., None])[..., 0]

    def solve(lam):
        return (v @ (r / (s + lam[..., None]))[..., None])[..., 0]

    for _ in range(60):
        lam = np.sqrt(lo * hi)
        over = np.abs(solve(lam)).max(axis=-1) > max_gain
        lo = np.where(over, lam, lo)
        hi = np.where(over, hi, lam)
    return solve(hi)
