"""Splitting the CNF response between digital and analog stages (§3.4).

The ideal constructive response ``H_c(f_i)`` needs sub-nanosecond phase
control (100 ps rotates 2.45 GHz by 90 degrees), far finer than the
digital sample grid.  The paper's split:

* a **digital pre-filter** ``h_p`` — at most 4 taps within a 50 ns
  delay budget — handles the coarse, frequency-*selective* part
  (different subcarriers need different rotations);
* the **analog CNF filter** ``H_a`` — 4 taps spaced 100 ps (quarter
  wavelength at 2.45 GHz) — applies the fine common rotation.

The joint problem  ``min sum_i |H_a(f_i) * H_p(f_i) - H_c(f_i)|^2``  is
biconvex: fixing either stage makes the other a linear least-squares
solve.  Alternating those two solves is the textbook sequential-convex-
programming recipe the paper cites [7].

The solver is one array program over a leading batch axis: a stack of
targets (the relay's slid candidates) runs through the same alternating
steps together — stacked SVD least squares for the digital and the
unconstrained analog solves, and one ``eigh`` per analog Gram for the
bounded ridge (:func:`repro.dsp.tapped_delay_line.bounded_ridge_solve`).
A single target is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.fir import fir_frequency_response
from repro.dsp.tapped_delay_line import AnalogTapDelayLine, bounded_ridge_solve


@dataclass
class CnfFilterDecomposition:
    """Result of the digital/analog split.

    ``digital_taps`` run at ``digital_rate_hz``; ``analog_line`` holds
    the tuned 4-tap delay line.  ``response(freqs)`` evaluates the
    realised cascade; ``fit_error_db`` is the band mean-square deviation
    from the ideal response (0 dB means the approximation is as large as
    the target itself — good fits are -20 dB and below).
    """

    digital_taps: np.ndarray
    digital_rate_hz: float
    analog_line: AnalogTapDelayLine
    target_freqs_hz: np.ndarray
    target_response: np.ndarray
    fit_error_db: float

    def digital_response(self, freqs_hz):
        """Pre-filter response at baseband frequencies."""
        return fir_frequency_response(
            self.digital_taps, np.asarray(freqs_hz, dtype=float) / self.digital_rate_hz)

    def analog_response(self, freqs_hz):
        """Analog CNF filter response at baseband frequencies."""
        return self.analog_line.frequency_response(freqs_hz)

    def response(self, freqs_hz):
        """The realised cascade response H_a(f) * H_p(f)."""
        return self.digital_response(freqs_hz) * self.analog_response(freqs_hz)

    def digital_group_delay_s(self):
        """Energy-weighted pre-filter delay in seconds (latency input)."""
        energy = np.abs(self.digital_taps) ** 2
        total = energy.sum()
        if total == 0:
            return 0.0
        mean_tap = float(np.dot(np.arange(self.digital_taps.size), energy) / total)
        return mean_tap / self.digital_rate_hz

    def worst_case_digital_delay_s(self):
        """Last-tap delay — the conservative latency bound."""
        return (self.digital_taps.size - 1) / self.digital_rate_hz


def decompose_cnf_filter(freqs_hz, desired_response, digital_taps=4,
                         digital_rate_hz=80e6, analog_taps=4,
                         analog_spacing_s=100e-12, carrier_hz=2.45e9,
                         iterations=12, quantize=True,
                         delay_slack_s=None, weights=None):
    """Alternating-LS split of ``desired_response`` into the two stages.

    Parameters mirror the prototype: a 4-tap pre-filter at 80 Msps
    (12.5 ns/tap, 50 ns budget) and a 4-tap/100 ps analog line spanning
    the full 360 degrees at 2.45 GHz.  ``quantize`` applies the analog
    board's 0.25 dB attenuator grid on the final pass.

    The ideal constructive response often contains an *advance* ramp
    (the via-relay path is longer than the direct one, and perfect
    alignment would need negative delay) that no causal filter can
    realise.  ``weights`` let the caller emphasise the subcarriers that
    matter (where the relayed path is strong); ``delay_slack_s`` slides
    the target by that delay, for callers that sweep slid variants and
    select by a downstream figure of merit (see
    :meth:`repro.core.relay.FastForwardRelay.configure_siso_link`).

    A 1-D ``desired_response`` returns one
    :class:`CnfFilterDecomposition`.  A ``(B, n_sc)`` stack returns a
    list of ``B``, solved together; ``weights`` may then be ``(n_sc,)``
    or ``(B, n_sc)`` and ``delay_slack_s`` a scalar or ``(B,)``.
    """
    freqs = np.asarray(freqs_hz, dtype=float)
    target = np.asarray(desired_response, dtype=complex)
    if freqs.ndim != 1 or target.shape[-1:] != freqs.shape \
            or target.ndim > 2:
        raise ValueError("freqs and desired response must have equal shapes")
    if digital_taps < 1 or analog_taps < 1:
        raise ValueError("both stages need at least one tap")
    targets = np.atleast_2d(target)
    if delay_slack_s is not None:
        slack = np.broadcast_to(np.asarray(delay_slack_s, dtype=float),
                                targets.shape[:1])
        targets = targets * np.exp(-2j * np.pi * freqs * slack[:, None])
    if weights is None:
        w = np.ones(targets.shape)
    else:
        w = np.sqrt(np.maximum(np.asarray(weights, dtype=float), 0.0))
        if w.shape[-1:] != freqs.shape or w.ndim > 2:
            raise ValueError("weights must match the frequency grid")
        w = np.broadcast_to(w, targets.shape)

    line = AnalogTapDelayLine(np.arange(analog_taps) * analog_spacing_s,
                              carrier_hz=carrier_hz)
    digital_basis = np.exp(-2j * np.pi * np.outer(freqs / digital_rate_hz,
                                                  np.arange(digital_taps)))
    analog_basis = np.exp(-2j * np.pi * np.outer(carrier_hz + freqs,
                                                 line.tap_delays_s))
    rhs = targets * w
    # Initialise the digital stage as a pure pass-through.
    h_p = np.zeros((targets.shape[0], digital_taps), dtype=complex)
    h_p[:, 0] = 1.0

    def solve_digital(g):
        ha_resp = (analog_basis @ g[..., None])[..., 0]
        return _stacked_lstsq(digital_basis * (ha_resp * w)[..., None], rhs)

    for _ in range(max(1, iterations)):
        hp_resp = (digital_basis @ h_p[..., None])[..., 0]
        g = _solve_analog(analog_basis * (hp_resp * w)[..., None], rhs)
        # Scale the gains to the top of the attenuators' range (best
        # quantisation SNR); the digital re-solve absorbs the headroom.
        peak = np.abs(g).max(axis=1, keepdims=True)
        g = g / np.where((peak > 0) & (peak < 1.0), peak, 1.0)
        h_p = solve_digital(g)

    if quantize:
        g = line.quantize_gains(g)
        h_p = solve_digital(g)

    realised = (digital_basis @ h_p[..., None])[..., 0] \
        * (analog_basis @ g[..., None])[..., 0]
    target_power = np.mean((np.abs(targets) * w) ** 2, axis=1)
    err = np.mean((np.abs(realised - targets) * w) ** 2, axis=1) \
        / np.maximum(target_power, 1e-30)
    fit_error_db = 10.0 * np.log10(np.maximum(err, 1e-30))

    out = []
    for b in range(targets.shape[0]):
        row_line = AnalogTapDelayLine(line.tap_delays_s.copy(),
                                      carrier_hz=carrier_hz)
        row_line.set_gains(g[b])
        out.append(CnfFilterDecomposition(
            digital_taps=h_p[b],
            digital_rate_hz=float(digital_rate_hz),
            analog_line=row_line,
            target_freqs_hz=freqs,
            target_response=targets[b],
            fit_error_db=float(fit_error_db[b]),
        ))
    return out if target.ndim == 2 else out[0]


def _stacked_lstsq(a, b):
    """Minimum-norm least squares per row: ``a`` (B, m, n), ``b`` (B, m).

    Uses ``np.linalg.lstsq``'s default cutoff (``eps * max(m, n)``
    relative to the largest singular value).
    """
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    return (np.linalg.pinv(a, rcond=rcond) @ b[..., None])[..., 0]


def _solve_analog(weighted, rhs):
    """Analog gains per row, bounded to the attenuators' |g| <= 1.

    The analog taps sit fractions of a wavelength apart, so the
    unconstrained LS wants huge mutually-cancelling gains that the
    step attenuators cannot realise.  Rows where it does so get the
    ridge-bounded solve; the caller rebalances overall magnitude into
    the digital stage (the cascade H_a * H_p is invariant under that
    exchange).
    """
    g = _stacked_lstsq(weighted, rhs)
    over = np.abs(g).max(axis=1) > 1.0
    if over.any():
        a = weighted[over]
        a_h = a.conj().swapaxes(1, 2)
        g[over] = bounded_ridge_solve(
            a_h @ a, (a_h @ rhs[over][..., None])[..., 0], 1e6)
    return g
