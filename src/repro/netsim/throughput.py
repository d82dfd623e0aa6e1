"""PHY-layer throughput: the paper's evaluation metric.

"The metric we use is PHY layer throughput which is defined as the
optimal bitrate that can be used at any location given the SNR and the
MIMO rank" (§5) — no MAC, no rate adaptation.  For MIMO the AP picks
the better of two transmit modes, exactly the idealised-AP assumption:

* two-stream spatial multiplexing with per-stream MCS (MMSE receiver);
* single-stream eigen-beamforming with the full power budget.
"""

from __future__ import annotations

import numpy as np

from repro.phy.mimo import multiplexing_stream_sinrs
from repro.phy.rates import effective_snr_db, mimo_phy_rate_mbps, phy_rate_mbps
from repro.utils.units import power_to_db


def siso_rate_mbps(per_subcarrier_snr_db):
    """Rate from per-subcarrier SNRs: EESM collapse, then the MCS table."""
    return phy_rate_mbps(effective_snr_db(per_subcarrier_snr_db))


def _eigen_beamforming_snrs(h_eff, noise_cov, tx_power):
    """Per-subcarrier best single-stream SNR (linear).

    The AP beamforms along the generalised dominant direction of
    ``H^H R^-1 H`` with the full power budget.  All subcarriers are one
    stacked ``inv`` / ``eigvalsh``.
    """
    gram = h_eff.conj().swapaxes(-1, -2) @ np.linalg.inv(noise_cov) @ h_eff
    return tx_power * np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0)


def mimo_rate_mbps(h_eff, noise_cov, tx_power_dbm=20.0):
    """Best-mode MIMO PHY rate for per-subcarrier effective channels.

    ``h_eff``: (n_sc, N, M); ``noise_cov``: (n_sc, N, N).  Returns the
    larger of the multiplexing and beamforming mode rates — "the optimal
    bitrate ... given the SNR and the MIMO rank".
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    noise_cov = np.asarray(noise_cov, dtype=complex)
    tx_power = 10.0 ** (tx_power_dbm / 10.0)

    stream_snrs = multiplexing_stream_sinrs(h_eff, noise_cov, tx_power)
    per_stream_eff = [effective_snr_db(power_to_db(
        np.maximum(stream_snrs[:, k], 1e-12)))
        for k in range(stream_snrs.shape[1])]
    rate_mux = mimo_phy_rate_mbps(per_stream_eff)

    bf_snrs = _eigen_beamforming_snrs(h_eff, noise_cov, tx_power)
    rate_bf = phy_rate_mbps(effective_snr_db(power_to_db(
        np.maximum(bf_snrs, 1e-12))))
    return max(rate_mux, rate_bf)


def ap_only_siso_rate(h_sd, tx_power_dbm=20.0, noise_floor_dbm=-90.0):
    """Direct-link SISO rate."""
    p_tx = 10.0 ** (tx_power_dbm / 10.0)
    noise = 10.0 ** (noise_floor_dbm / 10.0)
    snrs = power_to_db(np.maximum(np.abs(h_sd) ** 2 * p_tx / noise, 1e-30))
    return siso_rate_mbps(snrs)


def ap_only_mimo_rate(h_sd, tx_power_dbm=20.0, noise_floor_dbm=-90.0):
    """Direct-link MIMO rate; ``h_sd`` is (n_sc, N, M)."""
    h_sd = np.asarray(h_sd, dtype=complex)
    noise = 10.0 ** (noise_floor_dbm / 10.0)
    n_rx = h_sd.shape[1]
    cov = np.broadcast_to(noise * np.eye(n_rx),
                          (h_sd.shape[0], n_rx, n_rx)).copy()
    return mimo_rate_mbps(h_sd, cov, tx_power_dbm=tx_power_dbm)


def ff_siso_rate(relay, extra_path_delay_s=0.0):
    """SISO rate with a configured FastForward (or repeater) relay."""
    return siso_rate_mbps(relay.destination_snr_db(extra_path_delay_s))


def ff_mimo_rate(relay, extra_path_delay_s=0.0):
    """MIMO rate with a configured FastForward (or repeater) relay."""
    h_eff, noise_cov = relay.mimo_effective_channels(extra_path_delay_s)
    return mimo_rate_mbps(h_eff, noise_cov,
                          tx_power_dbm=relay.config.tx_power_dbm)


def usable_streams(h_eff, noise_cov, tx_power_dbm=20.0, min_snr_db=2.0):
    """Number of spatial streams the channel can actually sustain.

    The operational "number of MIMO spatial streams possible" of Fig. 2:
    full multiplexing counts only if *every* stream's post-MMSE
    effective SNR clears the lowest MCS; otherwise the channel falls
    back to a single beamformed stream, which counts if its SNR does —
    rank deficiency and plain low SNR both remove streams.
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    noise_cov = np.asarray(noise_cov, dtype=complex)
    tx_power = 10.0 ** (tx_power_dbm / 10.0)
    stream_snrs = multiplexing_stream_sinrs(h_eff, noise_cov, tx_power)
    all_streams_ok = all(
        effective_snr_db(power_to_db(np.maximum(stream_snrs[:, k], 1e-12)))
        >= min_snr_db
        for k in range(stream_snrs.shape[1]))
    if all_streams_ok:
        return stream_snrs.shape[1]
    bf = _eigen_beamforming_snrs(h_eff, noise_cov, tx_power)
    if effective_snr_db(power_to_db(np.maximum(bf, 1e-12))) >= min_snr_db:
        return 1
    return 0


def snr_field_db(h, tx_power_dbm=20.0, noise_floor_dbm=-90.0):
    """Effective SNR of a per-subcarrier SISO channel (heatmap helper)."""
    p_tx = 10.0 ** (tx_power_dbm / 10.0)
    noise = 10.0 ** (noise_floor_dbm / 10.0)
    snrs = power_to_db(np.maximum(np.abs(h) ** 2 * p_tx / noise, 1e-30))
    return effective_snr_db(snrs)
