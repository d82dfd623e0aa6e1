"""Construct-and-forward filter math (Eq. 1 and Eq. 2)."""

import numpy as np
import pytest

from repro.core import (
    mimo_cnf_filter,
    mimo_effective_channel,
    mimo_stream_sinrs_with_relay,
    siso_cnf_phase,
    siso_destination_snr,
)
from repro.core.cnf_filter import band_phase_alignment
from repro.utils import make_rng
from repro.utils.units import db_to_linear
from tests.nelder_mead_oracle import unitary_from_params


def _random_channels(rng, n=16):
    h = lambda: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return h(), h(), h()


class TestSisoPhase:
    def test_unit_modulus(self):
        rng = make_rng(0)
        f = siso_cnf_phase(*_random_channels(rng))
        assert np.allclose(np.abs(f), 1.0)

    def test_aligns_relay_path_with_direct(self):
        rng = make_rng(1)
        h_sd, h_sr, h_rd = _random_channels(rng)
        f = siso_cnf_phase(h_sd, h_sr, h_rd)
        combined = h_rd * f * h_sr
        # Relayed term now points along the direct term everywhere.
        phase_error = np.angle(combined * np.conj(h_sd))
        assert np.abs(phase_error).max() < 1e-9

    def test_is_the_optimum(self):
        rng = make_rng(2)
        h_sd, h_sr, h_rd = _random_channels(rng, n=8)
        f_opt = siso_cnf_phase(h_sd, h_sr, h_rd)
        best = np.abs(h_sd + h_rd * f_opt * h_sr)
        for _ in range(50):
            f_rand = np.exp(2j * np.pi * rng.random(8))
            other = np.abs(h_sd + h_rd * f_rand * h_sr)
            assert np.all(best >= other - 1e-9)

    def test_zero_relay_path_defaults_to_one(self):
        f = siso_cnf_phase(np.ones(4), np.zeros(4), np.ones(4))
        assert np.allclose(f, 1.0)


class TestSisoSnr:
    def test_constructive_beats_blind(self):
        rng = make_rng(3)
        h_sd, h_sr, h_rd = [0.001 * h for h in _random_channels(rng)]
        f_cnf = siso_cnf_phase(h_sd, h_sr, h_rd)
        snr_cnf = siso_destination_snr(h_sd, h_sr, h_rd, f_cnf, 40.0)
        snr_blind = siso_destination_snr(h_sd, h_sr, h_rd,
                                         np.ones_like(f_cnf), 40.0)
        assert np.mean(snr_cnf) > np.mean(snr_blind)

    def test_relay_noise_counted(self):
        h = np.ones(4) * 1e-4
        f = np.ones(4)
        quiet = siso_destination_snr(h, h, h, f, 60.0,
                                     relay_noise_floor_dbm=-120.0)
        noisy = siso_destination_snr(h, h, h, f, 60.0,
                                     relay_noise_floor_dbm=-80.0)
        assert np.all(quiet > noisy)

    def test_zero_filter_recovers_direct_only(self):
        rng = make_rng(4)
        h_sd, h_sr, h_rd = [0.001 * h for h in _random_channels(rng)]
        snr = siso_destination_snr(h_sd, h_sr, h_rd, np.zeros_like(h_sd), 60.0)
        direct = 10 * np.log10(np.abs(h_sd) ** 2 * 100.0 / 1e-9)
        assert np.allclose(snr, direct, atol=1e-9)


class TestUnitaryParametrisation:
    def test_produces_unitary(self):
        rng = make_rng(5)
        for _ in range(10):
            u = unitary_from_params(rng.standard_normal(4), 2)
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-10)

    def test_zero_params_is_identity(self):
        assert np.allclose(unitary_from_params(np.zeros(4), 2), np.eye(2))


class TestMimoCnf:
    def _draw(self, rng, scale=1e-3):
        g = lambda: scale * (rng.standard_normal((2, 2))
                             + 1j * rng.standard_normal((2, 2)))
        return g(), g(), g()

    def test_returns_unitary(self):
        rng = make_rng(6)
        h_sd, h_sr, h_rd = self._draw(rng)
        f = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0)
        assert np.allclose(f @ f.conj().T, np.eye(2), atol=1e-8)

    def test_beats_identity_filter(self):
        rng = make_rng(7)
        wins = 0
        for _ in range(10):
            h_sd, h_sr, h_rd = self._draw(rng)
            f = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0)
            det_opt = abs(np.linalg.det(
                mimo_effective_channel(h_sd, h_sr, h_rd, f, 40.0)))
            det_eye = abs(np.linalg.det(
                mimo_effective_channel(h_sd, h_sr, h_rd, np.eye(2), 40.0)))
            wins += det_opt >= det_eye - 1e-12
        assert wins == 10

    def test_refinement_improves_on_init(self):
        rng = make_rng(8)
        h_sd, h_sr, h_rd = self._draw(rng)
        f0 = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0, refine=False)
        f1 = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0, refine=True)
        d0 = abs(np.linalg.det(mimo_effective_channel(h_sd, h_sr, h_rd, f0, 40.0)))
        d1 = abs(np.linalg.det(mimo_effective_channel(h_sd, h_sr, h_rd, f1, 40.0)))
        assert d1 >= d0 - 1e-12

    def test_antenna_count_mismatch(self):
        with pytest.raises(ValueError):
            mimo_cnf_filter(np.eye(2), np.ones((3, 2)), np.ones((2, 2)), 40.0)

    def test_rank_expansion_through_pinhole(self):
        # The flagship effect: direct channel rank-1, relay adds an
        # independent path, the combined channel supports two streams.
        from repro.channel import pinhole_mimo
        from repro.phy.mimo import effective_rank

        rng = make_rng(9)
        h_sd = 1e-3 * pinhole_mimo(2, 2, leakage=0.0, rng=rng)
        h_sr = 1e-2 * (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
        h_rd = 1e-2 * (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
        f = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0)
        h_eff = mimo_effective_channel(h_sd, h_sr, h_rd, f, 40.0)
        assert effective_rank(h_sd, threshold_db=40.0) == 1
        assert effective_rank(h_eff, threshold_db=40.0) == 2
        # The pinhole's second singular value is exactly zero; the relay
        # path reopens it.
        sv_direct = np.linalg.svd(h_sd, compute_uv=False)
        sv_eff = np.linalg.svd(h_eff, compute_uv=False)
        assert sv_direct[1] < 1e-12
        assert sv_eff[1] > 1e-4


class TestStreamSinrs:
    def test_relay_lifts_both_streams(self):
        from repro.channel import pinhole_mimo

        rng = make_rng(10)
        h_sd = 3e-4 * pinhole_mimo(2, 2, leakage=0.02, rng=rng)
        h_sr = 1e-2 * (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
        h_rd = 1e-2 * (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
        f = mimo_cnf_filter(h_sd, h_sr, h_rd, 37.0)
        with_relay = mimo_stream_sinrs_with_relay(h_sd, h_sr, h_rd, f, 37.0)
        without = mimo_stream_sinrs_with_relay(
            h_sd, np.zeros((2, 2)), h_rd, f, 0.0)
        assert np.sort(with_relay)[0] > np.sort(without)[0]

    def test_band_phase_alignment_shape(self):
        rng = make_rng(11)
        n_sc = 7
        h = lambda: 1e-3 * (rng.standard_normal((n_sc, 2, 2))
                            + 1j * rng.standard_normal((n_sc, 2, 2)))
        h_sd, h_sr, h_rd = h(), h(), h()
        f0 = np.eye(2, dtype=complex)
        phases = band_phase_alignment(h_sd, h_sr, h_rd, f0, 30.0)
        assert phases.shape == (n_sc,)
        assert np.all((phases >= 0) & (phases < 2 * np.pi))

    @pytest.mark.parametrize("k", [2, 3])
    def test_band_phase_alignment_matches_scalar_search(self, k):
        # The per-subcarrier, per-phase loop the stacked det replaced.
        def scalar_search(h_sd, h_sr, h_rd, f0, amplification_db):
            a = db_to_linear(amplification_db)
            phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
            out = np.empty(h_sd.shape[0])
            for s in range(h_sd.shape[0]):
                relay_term = h_rd[s] @ f0 @ (a * h_sr[s])
                dets = [abs(np.linalg.det(h_sd[s] + np.exp(1j * p)
                                          * relay_term)) for p in phis]
                out[s] = phis[int(np.argmax(dets))]
            return out

        rng = make_rng(12 + k)
        n_sc = 48
        h = lambda: 1e-3 * (rng.standard_normal((n_sc, k, k))
                            + 1j * rng.standard_normal((n_sc, k, k)))
        h_sd, h_sr, h_rd = h(), h(), h()
        f0 = mimo_cnf_filter(h_sd.mean(axis=0), h_sr.mean(axis=0),
                             h_rd.mean(axis=0), 30.0, refine=False)
        np.testing.assert_array_equal(
            band_phase_alignment(h_sd, h_sr, h_rd, f0, 30.0),
            scalar_search(h_sd, h_sr, h_rd, f0, 30.0))
