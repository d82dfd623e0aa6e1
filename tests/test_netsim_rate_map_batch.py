"""The subcarrier-stacked MIMO rate map against the loops it replaced.

The oracles below are the per-subcarrier loops verbatim: the relay's
effective channels and noise covariances, the whitened MMSE stream
SINRs of spatial multiplexing, and the eigen-beamforming SNR.  The
stacked versions must agree with them to floating-point noise, and
the AP-only and half-duplex rates built on them to 1e-9.
"""

import numpy as np
import pytest

import repro.netsim.throughput as throughput
from repro.core.latency import ISI_ICI_FACTOR
from repro.core.relay import FastForwardRelay
from repro.netsim import ap_only_mimo_rate
from repro.netsim.experiments import _collect_clients
from repro.netsim.testbed import Testbed, paper_scenarios
from repro.phy.mimo import mimo_stream_sinrs, multiplexing_stream_sinrs
from repro.utils.units import db_to_linear, db_to_power
from tests.nelder_mead_oracle import configured_clients

#: In-CP, past-CP (ISI + ICI) and far past-CP via-path delays.
DELAYS_S = (0.0, 300e-9, 1e-6)


def effective_channels_oracle(relay, extra_path_delay_s):
    """Per-subcarrier loop of ``FastForwardRelay.mimo_effective_channels``."""
    cfg = relay.config
    rho = relay._isi_fraction(extra_path_delay_s)
    a = db_to_linear(relay.amplification_db)
    a2 = db_to_power(relay.amplification_db)
    sigma_d2 = 10.0 ** (cfg.noise_floor_dbm / 10.0)
    sigma_r2 = 10.0 ** (cfg.relay_noise_floor_dbm / 10.0)
    p_per_stream = 10.0 ** (cfg.tx_power_dbm / 10.0) / relay._h_sd.shape[2]
    n_sc, n_rx, _ = relay._h_sd.shape
    h_eff = np.empty_like(relay._h_sd)
    noise_cov = np.empty((n_sc, n_rx, n_rx), dtype=complex)
    eye = np.eye(n_rx)
    for s in range(n_sc):
        f = np.exp(1j * relay._mimo_phases[s]) * relay._mimo_f0[s]
        relay_term = relay._h_rd[s] @ f @ (a * relay._h_sr[s])
        h_eff[s] = relay._h_sd[s] + np.sqrt(rho) * relay_term
        relay_mix = relay._h_rd[s] @ f
        cov = sigma_d2 * eye \
            + a2 * sigma_r2 * (relay_mix @ relay_mix.conj().T)
        if rho < 1.0:
            lost = (ISI_ICI_FACTOR * (1.0 - rho) * p_per_stream
                    * np.mean(np.abs(relay_term) ** 2)
                    * relay._h_sd.shape[2])
            cov = cov + lost * eye
        recirc = relay._recirculation_factor(extra_path_delay_s)
        if recirc > 0.0:
            cov = cov + recirc * p_per_stream \
                * (relay_term @ relay_term.conj().T)
        noise_cov[s] = cov
    return h_eff, noise_cov


def multiplexing_oracle(h_eff, noise_cov, tx_power):
    """Per-subcarrier loop of whitened MMSE stream SINRs (linear)."""
    n_sc, _, n_streams = h_eff.shape
    p_stream = tx_power / n_streams
    out = np.empty((n_sc, n_streams))
    for s in range(n_sc):
        vals, vecs = np.linalg.eigh(noise_cov[s])
        whiten = (vecs / np.sqrt(np.maximum(vals.real, 1e-30))) \
            @ vecs.conj().T
        h_white = whiten @ h_eff[s] * np.sqrt(p_stream)
        out[s] = mimo_stream_sinrs(h_white, 1.0)
    return out


def beamforming_oracle(h_eff, noise_cov, tx_power):
    """Per-subcarrier loop of the best single-stream SNR (linear)."""
    n_sc = h_eff.shape[0]
    out = np.empty(n_sc)
    for s in range(n_sc):
        r_inv = np.linalg.inv(noise_cov[s])
        gram = h_eff[s].conj().T @ r_inv @ h_eff[s]
        vals = np.linalg.eigvalsh(gram)
        out[s] = tx_power * max(float(vals[-1].real), 0.0)
    return out


@pytest.fixture(scope="module")
def relays():
    """8 real MIMO relays (2 per scenario), configured."""
    return [relay for relay, _ in configured_clients(8, seed=11)]


class TestStackedAgainstLoops:
    @pytest.mark.parametrize("delay", DELAYS_S)
    def test_effective_channels(self, relays, delay):
        for relay in relays:
            h_eff, cov = relay.mimo_effective_channels(delay)
            h_ref, cov_ref = effective_channels_oracle(relay, delay)
            np.testing.assert_allclose(h_eff, h_ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(cov, cov_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("delay", DELAYS_S)
    def test_stream_snrs(self, relays, delay):
        tx_power = 100.0
        for relay in relays:
            h_eff, cov = relay.mimo_effective_channels(delay)
            np.testing.assert_allclose(
                multiplexing_stream_sinrs(h_eff, cov, tx_power),
                multiplexing_oracle(h_eff, cov, tx_power), rtol=1e-9)
            np.testing.assert_allclose(
                throughput._eigen_beamforming_snrs(h_eff, cov, tx_power),
                beamforming_oracle(h_eff, cov, tx_power), rtol=1e-9)

    def test_relay_stream_sinrs_reuse_the_helper(self, relays):
        for relay in relays:
            h_eff, cov = relay.mimo_effective_channels()
            ref = multiplexing_oracle(
                h_eff, cov, 10.0 ** (relay.config.tx_power_dbm / 10.0))
            np.testing.assert_allclose(
                relay.stream_sinrs_db(),
                10.0 * np.log10(np.maximum(ref, 1e-30)), rtol=0, atol=1e-9)

    def test_recirculation_factor_once_per_call(self, relays, monkeypatch):
        relay = relays[0]
        calls = []
        original = FastForwardRelay._recirculation_factor

        def counting(self, extra_path_delay_s, max_copies=12):
            calls.append(extra_path_delay_s)
            return original(self, extra_path_delay_s, max_copies)

        monkeypatch.setattr(FastForwardRelay, "_recirculation_factor",
                            counting)
        relay.mimo_effective_channels(300e-9)
        assert calls == [300e-9]


class TestBaselineRates:
    def test_ap_only_and_half_duplex_rates_match_loops(self, monkeypatch):
        # The two rates the panel holds to 1e-9: AP-only on the direct
        # channel, and the two hops the half-duplex router relays over.
        channels = []
        for s_idx, scenario in enumerate(paper_scenarios()):
            testbed = Testbed(scenario, seed=40 + s_idx)
            positions, seeds = _collect_clients(testbed, 3, 140 + s_idx)
            for client, seed in zip(positions, seeds):
                rng = np.random.default_rng(seed)
                channels.append(testbed.mimo_triple(client, rng)[0])
                channels.extend(testbed.hop_mimo_channels(client, rng))
        stacked = [ap_only_mimo_rate(h) for h in channels]
        monkeypatch.setattr(throughput, "multiplexing_stream_sinrs",
                            multiplexing_oracle)
        monkeypatch.setattr(throughput, "_eigen_beamforming_snrs",
                            beamforming_oracle)
        looped = [ap_only_mimo_rate(h) for h in channels]
        assert any(r > 0 for r in looped)
        np.testing.assert_allclose(stacked, looped, rtol=1e-9, atol=1e-9)
