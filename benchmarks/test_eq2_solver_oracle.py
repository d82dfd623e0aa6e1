"""Eq. 2 solver: batched Newton vs the Nelder-Mead it replaced, at scale.

Every Eq. 2 problem of 160 real clients (1,120 subcarrier groups, 40
clients per scenario), posed exactly as ``configure_mimo_link`` poses
them, solved by both.  No group's |det(H_sd + H_rd F A H_sr)| may land
more than 0.1% below Nelder-Mead's.  Tier-1 runs the same check on 168
groups (``tests/test_core_cnf_solver_batch.py``).
"""

import numpy as np

from benchmarks.conftest import print_table, run_once
from repro.core import mimo_cnf_filter
from tests.nelder_mead_oracle import (abs_det, configured_clients,
                                      nelder_mead_cnf_filter)


def _relative_dets(clients):
    rel = []
    for relay, groups in clients:
        a_db = relay.amplification_db
        f_nm = np.array([nelder_mead_cnf_filter(*g, a_db)
                         for g in zip(*groups)])
        rel.append(abs_det(*groups, mimo_cnf_filter(*groups, a_db), a_db)
                   / abs_det(*groups, f_nm, a_db) - 1.0)
    return np.concatenate(rel)


def test_eq2_solver_vs_nelder_mead(benchmark, experiment_seed):
    rel = run_once(benchmark, _relative_dets,
                   configured_clients(160, seed=experiment_seed))

    print_table(
        "Eq. 2 — batched Newton vs Nelder-Mead, |det| per group",
        [
            ("groups", f"{rel.size}"),
            ("worst vs NM (relative)", f"{rel.min():+.1e}"),
            ("median vs NM (relative)", f"{np.median(rel):+.1e}"),
            ("best vs NM", f"{100 * rel.max():+.2f}%"),
            ("groups > 0.1% above NM", f"{int(np.sum(rel > 1e-3))}"),
        ],
        paper_note="Eq. 2 is solved 'numerically' (§3.2); no method given",
    )

    assert rel.size >= 1000
    assert rel.min() >= -1e-3
