"""The batched §3.4 split against the scalar solver it replaced.

The oracles below are the scalar implementation verbatim: one
alternating-LS decomposition per target with the ridge ``lambda``
bisected by 60 separate ``np.linalg.solve`` calls, and the relay's
22-candidate loop selecting by strict improvement.  The batched solver
must select the same (slide, pass) candidate and realise the same
responses.
"""

import numpy as np
import pytest

import repro.core.relay as relay_module
from repro.core import FastForwardRelay, decompose_cnf_filter
from repro.core.cnf_filter import siso_cnf_phase
from repro.dsp.tapped_delay_line import AnalogTapDelayLine
from repro.phy.params import WIFI_20MHZ
from repro.utils import make_rng
from repro.utils.units import db_to_linear

FREQS = WIFI_20MHZ.subcarrier_freqs_hz()
TAUS = np.linspace(-25e-9, 75e-9, 11)


def decompose_oracle(freqs, target, digital_taps=4, digital_rate_hz=80e6,
                     analog_taps=4, analog_spacing_s=100e-12,
                     carrier_hz=2.45e9, iterations=12, quantize=True,
                     delay_slack_s=None, weights=None):
    """Scalar alternating-LS split (returns taps, gains, fit in dB)."""
    freqs = np.asarray(freqs, dtype=float)
    target = np.asarray(target, dtype=complex)
    if delay_slack_s:
        target = target * np.exp(-2j * np.pi * freqs * float(delay_slack_s))
    if weights is None:
        w = np.ones_like(freqs)
    else:
        w = np.sqrt(np.maximum(np.asarray(weights, dtype=float), 0.0))
    line = AnalogTapDelayLine(np.arange(analog_taps) * analog_spacing_s,
                              carrier_hz=carrier_hz)
    h_p = np.zeros(digital_taps, dtype=complex)
    h_p[0] = 1.0
    k = np.arange(digital_taps)
    digital_basis = np.exp(-2j * np.pi * np.outer(freqs / digital_rate_hz, k))
    analog_basis = np.exp(-2j * np.pi * np.outer(carrier_hz + freqs,
                                                 line.tap_delays_s))

    def solve_analog(hp_resp):
        weighted = analog_basis * (hp_resp * w)[:, None]
        gram = weighted.conj().T @ weighted
        rhs = weighted.conj().T @ (target * w)
        g = np.linalg.lstsq(weighted, target * w, rcond=None)[0]
        if np.abs(g).max() <= 1.0:
            return g
        scale = np.real(np.trace(gram)) / gram.shape[0]
        lo, hi = 1e-12 * scale, 1e6 * scale
        for _ in range(60):
            lam = np.sqrt(lo * hi)
            g = np.linalg.solve(gram + lam * np.eye(gram.shape[0]), rhs)
            if np.abs(g).max() > 1.0:
                lo = lam
            else:
                hi = lam
        return np.linalg.solve(gram + hi * np.eye(gram.shape[0]), rhs)

    for _ in range(max(1, iterations)):
        g = solve_analog(digital_basis @ h_p)
        peak = np.abs(g).max()
        if 0 < peak < 1.0:
            g = g / peak
        line.set_gains(g)
        weighted = digital_basis * ((analog_basis @ line.gains) * w)[:, None]
        h_p, *_ = np.linalg.lstsq(weighted, target * w, rcond=None)
    if quantize:
        line.set_gains(line.quantize_gains(line.gains))
        weighted = digital_basis * ((analog_basis @ line.gains) * w)[:, None]
        h_p, *_ = np.linalg.lstsq(weighted, target * w, rcond=None)

    realised = (digital_basis @ h_p) * (analog_basis @ line.gains)
    target_power = np.mean((np.abs(target) * w) ** 2)
    err = np.mean((np.abs(realised - target) * w) ** 2) / max(target_power,
                                                              1e-30)
    return realised, float(10.0 * np.log10(max(err, 1e-30)))


def best_decomposition_oracle(relay, ideal):
    """The scalar 22-candidate scan; returns ((tau, pass), resp, fit)."""
    cfg = relay.config
    a = db_to_linear(relay.amplification_db)
    relay_mag = np.abs(relay._h_rd * relay._h_sr)
    direct_mag = np.abs(relay._h_sd)
    base_weights = relay_mag * (direct_mag + 0.05 * direct_mag.max() + 1e-30)
    p_tx = 10.0 ** (cfg.tx_power_dbm / 10.0)
    sigma_d2 = 10.0 ** (cfg.noise_floor_dbm / 10.0)
    best, best_metric = None, -np.inf
    for tau_i, tau in enumerate(TAUS):
        weights = base_weights
        for pass_i in range(2):
            resp, fit = decompose_oracle(
                FREQS, ideal, carrier_hz=cfg.params.carrier_hz,
                delay_slack_s=tau, weights=weights)
            peak = np.abs(resp).max()
            if peak > 0:
                resp = resp / peak
            h_eff = relay._h_sd + relay._h_rd * resp * a * relay._h_sr
            snr = np.abs(h_eff) ** 2 * p_tx / sigma_d2
            metric = float(np.sum(np.log2(1.0 + snr)))
            if metric > best_metric:
                best, best_metric = ((tau_i, pass_i), resp, fit), metric
            weights = base_weights / np.maximum(np.abs(resp), 0.25) ** 2
    return best


def random_channel(rng, scale, max_delay_s=120e-9, paths=4):
    """Per-subcarrier response of a random few-path channel."""
    delays = rng.uniform(0.0, max_delay_s, paths)
    gains = (rng.standard_normal(paths) + 1j * rng.standard_normal(paths))
    gains *= scale * np.exp(-delays / 50e-9)
    return np.exp(-2j * np.pi * np.outer(FREQS, delays)) @ gains


def random_link(seed):
    rng = make_rng(seed)
    return (random_channel(rng, 10 ** rng.uniform(-4.5, -3.0)),
            random_channel(rng, 10 ** rng.uniform(-3.5, -2.5)),
            random_channel(rng, 10 ** rng.uniform(-3.5, -2.5)))


def random_batch(seed, rows=5):
    """Targets, weights and slacks drawn like the relay's candidates."""
    rng = make_rng(seed)
    targets, weights = [], []
    for _ in range(rows):
        h_sd, h_sr, h_rd = random_link(int(rng.integers(1 << 30)))
        targets.append(siso_cnf_phase(h_sd, h_sr, h_rd))
        weights.append(rng.exponential(1.0, FREQS.size))
    slacks = rng.uniform(-30e-9, 80e-9, rows)
    return np.array(targets), np.array(weights), slacks


@pytest.mark.parametrize("quantize", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_matches_scalar_oracle(seed, quantize):
    targets, weights, slacks = random_batch(seed)
    batch = decompose_cnf_filter(FREQS, targets, quantize=quantize,
                                 delay_slack_s=slacks, weights=weights)
    assert len(batch) == len(targets)
    for row, target, w, tau in zip(batch, targets, weights, slacks):
        resp, fit = decompose_oracle(FREQS, target, quantize=quantize,
                                     delay_slack_s=tau, weights=w)
        assert np.abs(row.response(FREQS) - resp).max() <= 1e-6
        assert abs(row.fit_error_db - fit) <= 0.05


@pytest.mark.parametrize("quantize", [True, False])
def test_each_row_equals_its_batch_of_one(quantize):
    targets, weights, slacks = random_batch(7)
    batch = decompose_cnf_filter(FREQS, targets, quantize=quantize,
                                 delay_slack_s=slacks, weights=weights)
    for b, row in enumerate(batch):
        alone = decompose_cnf_filter(FREQS, targets[b], quantize=quantize,
                                     delay_slack_s=slacks[b],
                                     weights=weights[b])
        assert np.array_equal(row.digital_taps, alone.digital_taps)
        assert np.array_equal(row.analog_line.gains, alone.analog_line.gains)
        assert row.fit_error_db == alone.fit_error_db


def test_shared_weights_and_scalar_slack_broadcast():
    targets, weights, _ = random_batch(3, rows=3)
    batch = decompose_cnf_filter(FREQS, targets, delay_slack_s=10e-9,
                                 weights=weights[0])
    for row, target in zip(batch, targets):
        alone = decompose_cnf_filter(FREQS, target, delay_slack_s=10e-9,
                                     weights=weights[0])
        assert np.array_equal(row.response(FREQS), alone.response(FREQS))


def test_batch_shape_mismatches_rejected():
    targets, weights, slacks = random_batch(4, rows=3)
    with pytest.raises(ValueError):
        decompose_cnf_filter(FREQS, targets, delay_slack_s=slacks[:2])
    with pytest.raises(ValueError):
        decompose_cnf_filter(FREQS, targets, weights=weights[:2])
    with pytest.raises(ValueError):
        decompose_cnf_filter(FREQS, targets[0], delay_slack_s=slacks)


@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15, 16])
def test_relay_selects_the_oracle_candidate(seed, monkeypatch):
    batches = []
    decompose = relay_module.decompose_cnf_filter

    def spy(*args, **kwargs):
        batches.append(decompose(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(relay_module, "decompose_cnf_filter", spy)
    relay = FastForwardRelay().configure_siso_link(*random_link(seed))
    assert len(batches) == 2 and all(len(b) == TAUS.size for b in batches)
    chosen = relay.decomposition
    picked = [(t, p) for p in range(2) for t in range(TAUS.size)
              if batches[p][t] is chosen]

    ideal = siso_cnf_phase(relay._h_sd, relay._h_sr, relay._h_rd)
    index, resp, fit = best_decomposition_oracle(relay, ideal)
    assert picked == [index]
    assert np.abs(relay.filter_response - resp).max() <= 1e-6
    assert abs(chosen.fit_error_db - fit) <= 0.05
