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
directions to H_sr's strong output directions), turned by a few fixed
phase/permutation rotations into several starts, each refined by a
damped Riemannian Newton ascent of ``log|det|`` on the unitary group.
All subcarrier groups and all starts are one stacked array program.  A
cheap per-subcarrier scalar phase alignment then lets one matrix per
group serve every tone in it.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.phy.mimo import multiplexing_stream_sinrs
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


#: Newton steps every start takes (Eq. 2 solver).
NEWTON_ITERATIONS = 10
#: Initial Levenberg damping, relative to the Hessian's spectral radius.
_INITIAL_DAMPING = 1e-2


def _svd_aligned_init(h_sr, h_rd):
    """F0 = V_rd @ U_sr^H: route H_sr's strong output directions into
    H_rd's strong input directions, maximising the relay path's singular
    values before any phase tuning.  Works on stacks ``(..., ., .)``."""
    u_sr, _, _ = np.linalg.svd(h_sr)
    _, _, vh_rd = np.linalg.svd(h_rd)
    return vh_rd.conj().swapaxes(-1, -2) @ u_sr.conj().swapaxes(-1, -2)


@functools.lru_cache(maxsize=None)
def _unitary_group_tables(k):
    """Fixed tables of the K x K solver, shapes in parentheses.

    * ``rotations`` (8, K, K): the starts are ``F0 @ R`` for the
      identity and the reversal permutation, each times the relative
      phase ramps ``diag(i^(q n))``, ``q = 0..3``.  The first is F0.
    * ``basis`` (P, K*K), P = K^2: the skew-Hermitian generators of
      the tangent space ``F @ Omega``, flattened.
    * ``linear`` (K*K, P + P*P) and ``quadratic`` (K^4, P*P): with
      ``y = vec(Y)``, ``Re(y @ linear)`` holds the gradient
      ``Re tr(Y E_p)`` and the symmetrised ``Re tr(Y E_p E_q)``, and
      ``Re((y kron y) @ quadratic)`` holds ``Re tr(Y E_p Y E_q)``.
    """
    basis = []
    for i in range(k):
        e = np.zeros((k, k), dtype=complex)
        e[i, i] = 1j
        basis.append(e)
    for i in range(k):
        for j in range(i + 1, k):
            e = np.zeros((k, k), dtype=complex)
            e[i, j], e[j, i] = 1.0, -1.0
            basis.append(e)
            e = np.zeros((k, k), dtype=complex)
            e[i, j] = e[j, i] = 1j
            basis.append(e)
    basis = np.array(basis)
    p = len(basis)
    gradient = basis.transpose(0, 2, 1).reshape(p, k * k).T
    pairs = basis[:, None] @ basis[None, :]
    pairs = 0.5 * (pairs + pairs.transpose(1, 0, 2, 3))
    curvature = pairs.transpose(0, 1, 3, 2).reshape(p * p, k * k).T
    quadratic = np.einsum("pjk,qli->ijklpq", basis, basis).reshape(
        k ** 4, p * p)
    phases = np.exp(0.5j * np.pi * np.outer(np.arange(4), np.arange(k)))
    rotations = np.array([perm * ramp for perm in (np.eye(k), np.eye(k)[::-1])
                          for ramp in phases])
    tables = (rotations, basis.reshape(p, k * k),
              np.concatenate([gradient, curvature], axis=1), quadratic)
    for table in tables:            # cached and shared: read-only
        table.flags.writeable = False
    return tables


def _newton_ascent(f, h_sd, h_sr, h_rd):
    """Damped Riemannian Newton ascent of log|det M| from every lane.

    ``f`` (L, K, K) holds the unitary starts, one per lane, with the
    lane's channels ``h_sd`` (L, N, N), ``h_sr`` (L, K, N) (amplitude
    already folded in) and ``h_rd`` (L, N, K).  With
    ``M = H_sd + H_rd F H_sr`` and ``F -> F exp(Omega)``, the gradient
    and Hessian of ``log|det M|`` in the skew-Hermitian basis come from
    ``Y = H_sr M^-1 H_rd F`` alone:

        g_p  = Re tr(Y E_p)
        H_pq = Re[tr(Y (E_p E_q + E_q E_p) / 2) - tr(Y E_p Y E_q)]

    Each step solves ``(sigma I - H) x = g`` with the Levenberg shift
    ``sigma`` above the Hessian's largest eigenvalue, so it is always an
    ascent direction, and retracts by the Cayley transform, so F stays
    unitary.  Every lane accepts or rejects its own step and adapts its
    own damping.  Lanes whose M is singular have no gradient and stay
    where they are.  Returns ``(f, log|det M|)`` per lane.
    """
    lanes, k = f.shape[0], f.shape[-1]
    p = k * k
    _, basis, linear, quadratic = _unitary_group_tables(k)
    eye_k = np.eye(k)
    eye_n = np.eye(h_sd.shape[-1])
    relay_mix = h_rd @ f
    m = h_sd + relay_mix @ h_sr
    logdet = np.linalg.slogdet(m)[1]
    damping = np.full(lanes, _INITIAL_DAMPING)
    for _ in range(NEWTON_ITERATIONS):
        live = np.isfinite(logdet)[:, None, None]
        # Singular lanes solve against I (no raise) and are zeroed.
        m_inv_mix = np.linalg.solve(np.where(live, m, eye_n), relay_mix)
        y = np.where(live, h_sr @ m_inv_mix, 0.0)
        y = y.reshape(lanes, p)
        terms = (y @ linear).real
        grad = terms[:, :p]
        y_kron_y = (y[:, :, None] * y[:, None, :]).reshape(lanes, p * p)
        hess = (terms[:, p:] - (y_kron_y @ quadratic).real).reshape(
            lanes, p, p)
        w, v = np.linalg.eigh(hess)
        radius = np.maximum(np.abs(w).max(axis=-1), 1e-300)
        shift = np.maximum(w[:, -1], 0.0) + damping * radius
        coef = (grad[:, None, :] @ v)[:, 0] / (shift[:, None] - w)
        omega = ((v @ coef[:, :, None])[..., 0] @ basis).reshape(lanes, k, k)
        cayley = np.linalg.solve(eye_k - 0.5 * omega, eye_k + 0.5 * omega)
        f_new = f @ cayley
        mix_new = h_rd @ f_new
        m_new = h_sd + mix_new @ h_sr
        logdet_new = np.linalg.slogdet(m_new)[1]
        better = logdet_new > logdet
        keep = better[:, None, None]
        f = np.where(keep, f_new, f)
        relay_mix = np.where(keep, mix_new, relay_mix)
        m = np.where(keep, m_new, m)
        logdet = np.where(better, logdet_new, logdet)
        damping = np.where(better, damping / 4.0, damping * 8.0)
    return f, logdet


def mimo_cnf_filter(h_sd, h_sr, h_rd, amplification_db, refine=True):
    """Eq. 2: unitary F maximising |det(H_sd + H_rd F A H_sr)|.

    ``h_*`` are single-subcarrier (or band-average) matrices: H_sd is
    (N, M), H_sr is (K, M), H_rd is (N, K) — or stacks of G such
    problems, ``(G, ., .)``, solved together.  Returns the K x K
    unitary, or a ``(G, K, K)`` stack.  The SVD-aligned initialisation
    is already near-optimal for rank expansion; ``refine`` runs
    :data:`NEWTON_ITERATIONS` damped Newton steps on the unitary group
    from it and from seven fixed rotations of it, and keeps the best
    start.  A problem whose M is singular at every start keeps the
    SVD-aligned init.
    """
    h_sd = np.asarray(h_sd, dtype=complex)
    h_sr = np.asarray(h_sr, dtype=complex)
    h_rd = np.asarray(h_rd, dtype=complex)
    k = h_sr.shape[-2]
    if h_rd.shape[-1] != k:
        raise ValueError(
            f"H_sr has {k} relay antennas but H_rd expects {h_rd.shape[-1]}")
    f0 = _svd_aligned_init(h_sr, h_rd)
    if not refine:
        return f0
    single = h_sd.ndim == 2
    if single:
        h_sd, h_sr, h_rd, f0 = h_sd[None], h_sr[None], h_rd[None], f0[None]
    groups = h_sd.shape[0]
    rotations = _unitary_group_tables(k)[0]
    starts = len(rotations)
    a = db_to_linear(amplification_db)
    f, logdet = _newton_ascent(
        (f0[:, None] @ rotations).reshape(-1, k, k),
        np.repeat(h_sd, starts, axis=0), np.repeat(a * h_sr, starts, axis=0),
        np.repeat(h_rd, starts, axis=0))
    # A problem singular at every start never moves, and argmax keeps
    # the first of equal values: start 0, the SVD-aligned init.
    best = np.argmax(logdet.reshape(groups, starts), axis=1)
    out = f.reshape(groups, starts, k, k)[np.arange(groups), best]
    return out[0] if single else out


def band_phase_alignment(h_sd, h_sr, h_rd, f0, amplification_db):
    """Per-subcarrier scalar phase on top of a band- or group-level unitary.

    ``h_*`` here are arrays of per-subcarrier matrices, shape
    ``(n_sc, ., .)``; ``f0`` is one K x K unitary for the whole band or
    one per subcarrier, ``(n_sc, K, K)`` (each group's solve repeated
    over its tones).  For each subcarrier the best ``phi`` maximising
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
    if relay_noise_floor_dbm is None:
        relay_noise_floor_dbm = noise_floor_dbm
    h_sd = np.asarray(h_sd, dtype=complex)
    a2 = db_to_power(amplification_db)  # power gain
    sigma_d2 = 10.0 ** (noise_floor_dbm / 10.0)
    sigma_r2 = 10.0 ** (relay_noise_floor_dbm / 10.0)

    h_eff = mimo_effective_channel(h_sd, h_sr, h_rd, f, amplification_db)
    relay_mix = np.asarray(h_rd, dtype=complex) @ np.asarray(f, dtype=complex)
    noise_cov = sigma_d2 * np.eye(h_sd.shape[0]) \
        + a2 * sigma_r2 * (relay_mix @ relay_mix.conj().T)
    return multiplexing_stream_sinrs(h_eff, noise_cov,
                                     10.0 ** (tx_power_dbm / 10.0))
