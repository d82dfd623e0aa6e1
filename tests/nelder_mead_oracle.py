"""The scalar Nelder-Mead solve of Eq. 2, kept as an oracle.

``repro.core.cnf_filter.mimo_cnf_filter`` once refined the SVD-aligned
init with scipy's Nelder-Mead over an ``exp(j * Hermitian)``
parametrisation of U(K), one subcarrier group at a time.  The batched
Newton ascent replaced it; this module keeps that solve so tests can
hold the new one to it, group by group, on real testbed channels.
"""

import numpy as np
from scipy.optimize import minimize

from repro.core.cnf_filter import _svd_aligned_init
from repro.core.relay import FastForwardRelay, RelayConfig, group_means
from repro.netsim.experiments import _collect_clients
from repro.netsim.testbed import Testbed, paper_scenarios
from repro.utils.units import db_to_linear


def unitary_from_params(theta, k):
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


def nelder_mead_cnf_filter(h_sd, h_sr, h_rd, amplification_db):
    """Eq. 2 for one group: Nelder-Mead over U(K) from the SVD init."""
    h_sd = np.asarray(h_sd, dtype=complex)
    h_sr = np.asarray(h_sr, dtype=complex)
    h_rd = np.asarray(h_rd, dtype=complex)
    k = h_sr.shape[0]
    a = db_to_linear(amplification_db)
    f0 = _svd_aligned_init(h_sr, h_rd)

    def neg_det(theta):
        f = unitary_from_params(theta, k) @ f0
        m = h_sd + h_rd @ f @ (a * h_sr)
        return -abs(np.linalg.det(m))

    best = minimize(neg_det, np.zeros(k * k), method="Nelder-Mead",
                    options={"maxiter": 400, "xatol": 1e-4, "fatol": 1e-8})
    return unitary_from_params(best.x, k) @ f0


def abs_det(h_sd, h_sr, h_rd, f, amplification_db):
    """|det(H_sd + H_rd F A H_sr)|, stacked over any leading axes."""
    a = db_to_linear(amplification_db)
    return np.abs(np.linalg.det(h_sd + h_rd @ f @ (a * h_sr)))


def configured_clients(num_clients, seed, group_size=8):
    """Eq. 2 problems exactly as ``configure_mimo_link`` poses them.

    Draws ``num_clients`` clients over the four paper scenarios the way
    the Figs. 12/13/15 sweep does, configures a relay on each, and
    returns one ``(relay, (h_sd, h_sr, h_rd))`` per client: the relay
    as configured, and its stacked group-mean channels.
    """
    out = []
    scenarios = paper_scenarios()
    for s_idx, scenario in enumerate(scenarios):
        testbed = Testbed(scenario, seed=seed + s_idx)
        positions, seeds = _collect_clients(
            testbed, max(1, num_clients // len(scenarios)), seed + 100 + s_idx)
        for client, client_seed in zip(positions, seeds):
            triple = testbed.mimo_triple(client,
                                         np.random.default_rng(client_seed))
            relay = FastForwardRelay(RelayConfig(params=testbed.params))
            relay.configure_mimo_link(*triple, group_size=group_size)
            out.append((relay, tuple(group_means(h, group_size)
                                     for h in triple)))
    return out
