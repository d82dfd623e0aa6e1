"""Construct-and-forward filter computation (paper §3.2).

SISO, per subcarrier (Eq. 1): the destination receives

    SNR_d = |h_sd + h_rd * F * A * h_sr|^2 * P / N_d,
    N_d   = sigma_d^2 + |h_rd * F * A|^2 * sigma_r^2

The filter response ``F`` carries unit magnitude (amplification is A's
job), so the optimum simply rotates the relayed path onto the direct
path: ``F = exp(j(angle(h_sd) - angle(h_rd * h_sr)))``.

MIMO (Eq. 2): maximise ``det(H_sd + H_rd F A H_sr)`` over a unitary
K x K filter ``F``, a non-convex problem the paper solves numerically.
Here: an SVD-aligned initialisation (match H_rd's strong input
directions to H_sr's strong output directions) refined by gradient-free
optimisation over the unitary group, plus a cheap per-subcarrier scalar
phase alignment so one matrix optimisation serves the whole band.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro.utils.units import db_to_linear, db_to_power


def siso_cnf_phase(h_sd, h_sr, h_rd):
    """Per-subcarrier unit-modulus constructive filter (SISO optimum).

    All inputs are arrays of per-subcarrier channel gains; the returned
    ``F`` rotates the relayed path into phase alignment with the direct
    path at every subcarrier.  Subcarriers where the relayed path
    vanishes get F = 1.
    """
    h_sd = np.asarray(h_sd, dtype=complex)
    h_sr = np.asarray(h_sr, dtype=complex)
    h_rd = np.asarray(h_rd, dtype=complex)
    relay_path = h_rd * h_sr
    out = np.ones(np.broadcast(h_sd, relay_path).shape, dtype=complex)
    nz = np.abs(relay_path) > 0
    # When the direct path is zero any phase works; align to real axis.
    direct_phase = np.where(np.abs(h_sd) > 0, np.angle(h_sd), 0.0)
    out[nz] = np.exp(1j * (direct_phase[nz] - np.angle(relay_path[nz])))
    return out


def siso_destination_snr(h_sd, h_sr, h_rd, filter_response, amplification_db,
                         tx_power_dbm=20.0, noise_floor_dbm=-90.0,
                         relay_noise_floor_dbm=None):
    """Eq. 1: per-subcarrier destination SNR (dB) with the relay active.

    ``filter_response`` is the (possibly decomposition-approximated)
    CNF response per subcarrier; pass 0 to model the relay off (keeps
    broadcasting semantics simple for sweeps).
    """
    h_sd = np.asarray(h_sd, dtype=complex)
    h_sr = np.asarray(h_sr, dtype=complex)
    h_rd = np.asarray(h_rd, dtype=complex)
    f = np.asarray(filter_response, dtype=complex)
    if relay_noise_floor_dbm is None:
        relay_noise_floor_dbm = noise_floor_dbm
    a = db_to_linear(amplification_db)  # power-dB gain -> amplitude factor
    p_tx = 10.0 ** (tx_power_dbm / 10.0)
    sigma_d2 = 10.0 ** (noise_floor_dbm / 10.0)
    sigma_r2 = 10.0 ** (relay_noise_floor_dbm / 10.0)

    h_eff = h_sd + h_rd * f * a * h_sr
    relay_noise_gain = np.abs(h_rd * f * a) ** 2
    n_d = sigma_d2 + relay_noise_gain * sigma_r2
    snr_lin = np.abs(h_eff) ** 2 * p_tx / n_d
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.maximum(snr_lin, 1e-30))


def _unitary_from_params(theta, k):
    """Map k*k real parameters to a unitary matrix via exp(j * Hermitian)."""
    theta = np.asarray(theta, dtype=float)
    herm = np.zeros((k, k), dtype=complex)
    idx = 0
    for i in range(k):
        herm[i, i] = theta[idx]
        idx += 1
    for i in range(k):
        for j in range(i + 1, k):
            herm[i, j] = theta[idx] + 1j * theta[idx + 1]
            herm[j, i] = np.conj(herm[i, j])
            idx += 2
    vals, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def _svd_aligned_init(h_sr, h_rd):
    """F0 = V_rd @ U_sr^H: route H_sr's strong output directions into
    H_rd's strong input directions, maximising the relay path's singular
    values before any phase tuning."""
    u_sr, _, _ = np.linalg.svd(h_sr)
    _, _, vh_rd = np.linalg.svd(h_rd)
    return vh_rd.conj().T @ u_sr.conj().T


def mimo_cnf_filter(h_sd, h_sr, h_rd, amplification_db, refine=True):
    """Eq. 2: unitary F maximising |det(H_sd + H_rd F A H_sr)|.

    ``h_*`` are single-subcarrier (or band-average) matrices: H_sd is
    (N, M), H_sr is (K, M), H_rd is (N, K).  Returns the K x K unitary.
    The SVD-aligned initialisation is already near-optimal for rank
    expansion; ``refine`` runs Nelder-Mead over the unitary group to
    pick up the remaining phase alignment.
    """
    h_sd = np.asarray(h_sd, dtype=complex)
    h_sr = np.asarray(h_sr, dtype=complex)
    h_rd = np.asarray(h_rd, dtype=complex)
    k = h_sr.shape[0]
    if h_rd.shape[1] != k:
        raise ValueError(
            f"H_sr has {k} relay antennas but H_rd expects {h_rd.shape[1]}")
    a = db_to_linear(amplification_db)
    f0 = _svd_aligned_init(h_sr, h_rd)

    def neg_det(theta):
        f = _unitary_from_params(theta, k) @ f0
        m = h_sd + h_rd @ f @ (a * h_sr)
        return -abs(np.linalg.det(m))

    if not refine:
        return f0
    best = minimize(neg_det, np.zeros(k * k), method="Nelder-Mead",
                    options={"maxiter": 400, "xatol": 1e-4, "fatol": 1e-8})
    return _unitary_from_params(best.x, k) @ f0


def band_phase_alignment(h_sd, h_sr, h_rd, f0, amplification_db):
    """Per-subcarrier scalar phase on top of one band-level unitary.

    ``h_*`` here are arrays of per-subcarrier matrices, shape
    ``(n_sc, ., .)``.  For each subcarrier the best ``phi`` maximising
    ``|det(H_sd + e^{j phi} H_rd F0 A H_sr)|`` is found on a fine grid —
    det is a polynomial in ``e^{j phi}`` so a 64-point grid search is
    accurate and cheap.  Returns the phase array ``phi``.  All
    ``n_sc x 64`` determinants are one stacked ``det``.
    """
    h_sd = np.asarray(h_sd, dtype=complex)
    h_sr = np.asarray(h_sr, dtype=complex)
    h_rd = np.asarray(h_rd, dtype=complex)
    a = db_to_linear(amplification_db)
    phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    relay_term = h_rd @ np.asarray(f0, dtype=complex) @ (a * h_sr)
    candidates = h_sd[:, None] \
        + np.exp(1j * phis)[None, :, None, None] * relay_term[:, None]
    return phis[np.argmax(np.abs(np.linalg.det(candidates)), axis=1)]


def mimo_effective_channel(h_sd, h_sr, h_rd, f, amplification_db):
    """H_eff = H_sd + H_rd F A H_sr for one subcarrier."""
    a = db_to_linear(amplification_db)
    return (np.asarray(h_sd, dtype=complex)
            + np.asarray(h_rd, dtype=complex) @ np.asarray(f, dtype=complex)
            @ (a * np.asarray(h_sr, dtype=complex)))


def mimo_stream_sinrs_with_relay(h_sd, h_sr, h_rd, f, amplification_db,
                                 tx_power_dbm=20.0, noise_floor_dbm=-90.0,
                                 relay_noise_floor_dbm=None):
    """Post-MMSE stream SINRs (linear) including relayed noise colouring.

    The destination noise is ``sigma_d^2 I + A^2 sigma_r^2 (H_rd F)(H_rd
    F)^H`` — the relay's own receiver noise arrives through the
    relay->destination channel.  The effective channel is whitened
    against it before the standard MMSE SINR formula.
    """
    from repro.phy.mimo import mimo_stream_sinrs

    if relay_noise_floor_dbm is None:
        relay_noise_floor_dbm = noise_floor_dbm
    h_sd = np.asarray(h_sd, dtype=complex)
    a2 = db_to_power(amplification_db)  # power gain
    sigma_d2 = 10.0 ** (noise_floor_dbm / 10.0)
    sigma_r2 = 10.0 ** (relay_noise_floor_dbm / 10.0)
    p_per_stream = 10.0 ** (tx_power_dbm / 10.0) / h_sd.shape[1]

    h_eff = mimo_effective_channel(h_sd, h_sr, h_rd, f, amplification_db)
    relay_mix = np.asarray(h_rd, dtype=complex) @ np.asarray(f, dtype=complex)
    noise_cov = sigma_d2 * np.eye(h_sd.shape[0]) \
        + a2 * sigma_r2 * (relay_mix @ relay_mix.conj().T)
    vals, vecs = np.linalg.eigh(noise_cov)
    whiten = (vecs / np.sqrt(np.maximum(vals, 1e-30))) @ vecs.conj().T
    h_white = whiten @ h_eff * np.sqrt(p_per_stream)
    return mimo_stream_sinrs(h_white, 1.0)
