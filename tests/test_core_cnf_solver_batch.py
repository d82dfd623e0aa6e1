"""The batched Newton solve of Eq. 2 against the Nelder-Mead it replaced.

The oracle (:mod:`tests.nelder_mead_oracle`) is the scalar solve
verbatim: scipy Nelder-Mead over an ``exp(j * Hermitian)`` chart of
U(K), one subcarrier group at a time.  The batched solver must never
land more than 0.1% below it in |det| on real testbed groups, posed
exactly as ``configure_mimo_link`` poses them, and every row of a batch
must be the single-problem call.
"""

import warnings

import numpy as np
import pytest

import repro.core.relay as relay_module
from repro.core import FastForwardRelay, mimo_cnf_filter
from repro.core.cnf_filter import _svd_aligned_init
from repro.core.relay import group_means
from repro.utils import make_rng
from tests.nelder_mead_oracle import (abs_det, configured_clients,
                                      nelder_mead_cnf_filter)

#: No group's |det| may fall further than this below Nelder-Mead's.
NM_REL_TOL = 1e-3


@pytest.fixture(scope="module")
def clients():
    """24 real clients (6 per scenario): 168 Eq. 2 groups."""
    return configured_clients(24, seed=7)


def _draw(rng, shape, scale=1e-3):
    return scale * (rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape))


def _unitary_error(f):
    k = f.shape[-1]
    return np.abs(f @ f.conj().swapaxes(-1, -2) - np.eye(k)).max()


class TestAgainstNelderMead:
    def test_no_group_below_nelder_mead(self, clients):
        rel = []
        for relay, groups in clients:
            a_db = relay.amplification_db
            f_newton = mimo_cnf_filter(*groups, a_db)
            f_nm = np.array([nelder_mead_cnf_filter(*g, a_db)
                             for g in zip(*groups)])
            rel.append(abs_det(*groups, f_newton, a_db)
                       / abs_det(*groups, f_nm, a_db) - 1.0)
        rel = np.concatenate(rel)
        assert rel.size == 168
        assert rel.min() >= -NM_REL_TOL, (
            f"{int(np.sum(rel < -NM_REL_TOL))} groups below Nelder-Mead, "
            f"worst {rel.min():.2e}")

    def test_rows_equal_single_calls(self, clients):
        for relay, groups in clients[::6]:
            batch = mimo_cnf_filter(*groups, relay.amplification_db)
            for b, group in enumerate(zip(*groups)):
                np.testing.assert_array_equal(
                    batch[b], mimo_cnf_filter(*group, relay.amplification_db))

    def test_unitary(self, clients):
        for relay, groups in clients:
            f = mimo_cnf_filter(*groups, relay.amplification_db)
            assert _unitary_error(f) < 1e-10

    def test_relay_installs_one_batched_solve(self, clients, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return mimo_cnf_filter(*args, **kwargs)

        monkeypatch.setattr(relay_module, "mimo_cnf_filter", counting)
        configured, groups = clients[0]
        triple = (configured._h_sd, configured._h_sr, configured._h_rd)
        relay = FastForwardRelay(configured.config)
        relay.configure_mimo_link(*triple)
        assert calls == [(7, 2, 2)]
        f_groups = mimo_cnf_filter(*groups, relay.amplification_db)
        n_sc = triple[0].shape[0]
        np.testing.assert_array_equal(
            relay._mimo_f0, f_groups[np.arange(n_sc) // 8])


class TestShapesAndEdges:
    def test_group_means_match_slices(self):
        h = _draw(make_rng(20), (52, 2, 2))
        means = group_means(h, 8)
        assert means.shape == (7, 2, 2)
        for g in range(7):
            np.testing.assert_allclose(means[g],
                                       h[8 * g:8 * g + 8].mean(axis=0),
                                       rtol=1e-13)

    def test_three_relay_antennas(self):
        # K = 3 between 2x2 endpoints: H_rd is (2, 3), F is 3 x 3.
        rng = make_rng(21)
        for _ in range(4):
            h_sd = _draw(rng, (2, 2))
            h_sr = _draw(rng, (3, 2), 1e-2)
            h_rd = _draw(rng, (2, 3), 1e-2)
            f = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0)
            assert f.shape == (3, 3)
            assert _unitary_error(f) < 1e-10
            f_nm = nelder_mead_cnf_filter(h_sd, h_sr, h_rd, 40.0)
            assert abs_det(h_sd, h_sr, h_rd, f, 40.0) \
                >= (1.0 - NM_REL_TOL) * abs_det(h_sd, h_sr, h_rd, f_nm, 40.0)

    def test_singular_lanes_keep_the_svd_init(self):
        # No direct path and a relay that reaches only one destination
        # antenna: M = H_rd F A H_sr is singular for every F.
        rng = make_rng(22)
        h_sd = _draw(rng, (3, 2, 2))
        h_sr = _draw(rng, (3, 2, 2), 1e-2)
        h_rd = _draw(rng, (3, 2, 2), 1e-2)
        h_sd[1] = 0.0
        h_rd[1, 1, :] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0)
        assert np.all(np.isfinite(f))
        np.testing.assert_array_equal(f[1],
                                      _svd_aligned_init(h_sr[1], h_rd[1]))
        for b in (0, 2):
            np.testing.assert_array_equal(
                f[b], mimo_cnf_filter(h_sd[b], h_sr[b], h_rd[b], 40.0))

    def test_unrefined_stack_is_the_svd_init(self):
        rng = make_rng(23)
        h_sd, h_sr, h_rd = (_draw(rng, (5, 2, 2)) for _ in range(3))
        f0 = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0, refine=False)
        assert f0.shape == (5, 2, 2)
        for b in range(5):
            np.testing.assert_allclose(
                f0[b], _svd_aligned_init(h_sr[b], h_rd[b]), atol=1e-12)

    def test_refined_stack_never_below_init(self):
        rng = make_rng(24)
        h_sd, h_sr, h_rd = (_draw(rng, (16, 2, 2)) for _ in range(3))
        f0 = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0, refine=False)
        f1 = mimo_cnf_filter(h_sd, h_sr, h_rd, 40.0)
        assert np.all(abs_det(h_sd, h_sr, h_rd, f1, 40.0)
                      >= abs_det(h_sd, h_sr, h_rd, f0, 40.0))
