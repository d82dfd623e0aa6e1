"""MIMO detection, stream SINRs and rank analysis.

The second half of FastForward's gain story (Fig. 2, §5.3) is *rank*:
indoor pinholes collapse the MIMO matrix to effectively one strong
eigen-direction, and the relay's independent path restores the second.
:func:`effective_rank` and :func:`mimo_stream_sinrs` quantify exactly
that, and are what the throughput model consumes.
"""

from __future__ import annotations

import numpy as np

from repro.utils.units import power_to_db


def zf_detect(h, y):
    """Zero-forcing detection: pseudo-inverse of ``h`` applied to ``y``.

    ``h`` is (num_rx, num_tx) for one subcarrier; ``y`` is (num_rx,).
    """
    h = np.asarray(h, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return np.linalg.pinv(h) @ y


def mmse_detect(h, y, noise_var):
    """Linear MMSE detection for one subcarrier.

    ``x_hat = (H^H H + noise_var I)^-1 H^H y`` assuming unit-power
    transmit streams.
    """
    if noise_var <= 0:
        raise ValueError(f"noise_var must be positive, got {noise_var}")
    h = np.asarray(h, dtype=complex)
    y = np.asarray(y, dtype=complex)
    num_tx = h.shape[1]
    gram = h.conj().T @ h + noise_var * np.eye(num_tx)
    return np.linalg.solve(gram, h.conj().T @ y)


def mimo_stream_sinrs(h, noise_var, detector="mmse"):
    """Post-detection SINR of each spatial stream (linear).

    For MMSE the exact per-stream SINR is ``1/[(I + H^H H / n)^-1]_kk - 1``;
    for ZF it is ``1 / (n * [(H^H H)^-1]_kk)``.  These are the standard
    closed forms for unit-power streams.
    """
    if noise_var <= 0:
        raise ValueError(f"noise_var must be positive, got {noise_var}")
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError(f"h must be 2-D (num_rx, num_tx), got shape {h.shape}")
    num_tx = h.shape[1]
    gram = h.conj().T @ h
    if detector == "mmse":
        inv = np.linalg.inv(np.eye(num_tx) + gram / noise_var)
        diag = np.real(np.diag(inv))
        diag = np.clip(diag, 1e-15, 1.0)
        return 1.0 / diag - 1.0
    if detector == "zf":
        try:
            inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            # Singular channel: ZF cannot separate the streams at all.
            return np.zeros(num_tx)
        diag = np.real(np.diag(inv))
        return 1.0 / (noise_var * np.maximum(diag, 1e-30))
    raise ValueError(f"unknown detector {detector!r}; use 'mmse' or 'zf'")


def multiplexing_stream_sinrs(h, noise_cov, tx_power):
    """Per-stream MMSE SINRs (linear) of spatial multiplexing in coloured noise.

    ``h`` is ``(..., num_rx, num_tx)`` — one channel or a stack, e.g. one
    per subcarrier — and ``noise_cov`` the matching ``(..., num_rx,
    num_rx)`` noise covariance.  ``tx_power`` is split equally over the
    ``num_tx`` streams.  Each channel is whitened by ``noise_cov^-1/2``
    and then takes the MMSE closed form of :func:`mimo_stream_sinrs` at
    unit noise; a whole stack is one array program.
    """
    h = np.asarray(h, dtype=complex)
    vals, vecs = np.linalg.eigh(np.asarray(noise_cov, dtype=complex))
    whiten = (vecs / np.sqrt(np.maximum(vals, 1e-30))[..., None, :]) \
        @ vecs.conj().swapaxes(-1, -2)
    h_white = whiten @ h * np.sqrt(tx_power / h.shape[-1])
    gram = h_white.conj().swapaxes(-1, -2) @ h_white
    inv = np.linalg.inv(np.eye(h.shape[-1]) + gram)
    diag = np.clip(np.real(np.diagonal(inv, axis1=-2, axis2=-1)), 1e-15, 1.0)
    return 1.0 / diag - 1.0


def effective_rank(h, threshold_db=15.0):
    """Number of usable spatial streams of a channel matrix.

    Counts singular values within ``threshold_db`` of the largest — a
    practical definition of "independent strong paths": a 2x2 channel
    through a pinhole has a huge singular-value spread and effective
    rank 1 even though its algebraic rank is 2.
    """
    h = np.asarray(h, dtype=complex)
    sv = np.linalg.svd(h, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0:
        return 0
    ratio_db = power_to_db((sv / sv[0]) ** 2)
    return int(np.sum(ratio_db >= -abs(threshold_db)))


def condition_number_db(h):
    """Condition number of the channel in dB (power ratio of extremes)."""
    sv = np.linalg.svd(np.asarray(h, dtype=complex), compute_uv=False)
    if sv.size == 0 or sv[-1] <= 0:
        return float("inf")
    return float(power_to_db((sv[0] / sv[-1]) ** 2))


def water_filling(channel_gains, total_power, noise_var=1.0):
    """Water-filling power allocation over parallel channels.

    ``channel_gains`` are |h|^2 values; returns per-channel powers
    summing to ``total_power``.  Used by capacity-bound diagnostics.
    """
    g = np.asarray(channel_gains, dtype=float)
    if np.any(g < 0):
        raise ValueError("channel gains must be non-negative")
    if total_power <= 0:
        raise ValueError(f"total_power must be positive, got {total_power}")
    active = g > 0
    inv = np.zeros_like(g)
    inv[active] = noise_var / g[active]
    order = np.argsort(inv)
    # Try k strongest channels until the water level covers them all.
    powers = np.zeros_like(g)
    for k in range(int(active.sum()), 0, -1):
        idx = order[:k]
        level = (total_power + inv[idx].sum()) / k
        alloc = level - inv[idx]
        if np.all(alloc >= 0):
            powers[idx] = alloc
            break
    return powers
