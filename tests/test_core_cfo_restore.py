"""CFO correct-process-restore (§4.1)."""

import numpy as np
import pytest

from repro.core import CfoRestorer
from repro.phy.sync import apply_cfo, estimate_cfo
from repro.utils import make_rng


class TestCorrectRestore:
    def test_identity_processor_preserves_signal(self):
        rng = make_rng(0)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        x_cfo = apply_cfo(x, 40e3, 20e6)
        restorer = CfoRestorer(40e3, 20e6)
        out = restorer.process(x_cfo, lambda s: s)
        assert np.allclose(out, x_cfo, atol=1e-12)

    def test_correct_removes_rotation(self):
        x = np.ones(128, dtype=complex)
        x_cfo = apply_cfo(x, 100e3, 20e6)
        restorer = CfoRestorer(100e3, 20e6)
        clean = restorer.correct(x_cfo)
        assert np.allclose(clean, 1.0, atol=1e-12)

    def test_restore_reapplies_rotation(self):
        restorer = CfoRestorer(100e3, 20e6)
        out = restorer.restore(np.ones(64, dtype=complex))
        expected = apply_cfo(np.ones(64, dtype=complex), 100e3, 20e6)
        assert np.allclose(out, expected)

    def test_chunked_matches_whole(self):
        rng = make_rng(1)
        x = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        whole = CfoRestorer(33e3, 20e6)
        out_whole = whole.process(x, lambda s: 2.0 * s)
        chunked = CfoRestorer(33e3, 20e6)
        out_chunks = np.concatenate([
            chunked.process(x[:100], lambda s: 2.0 * s),
            chunked.process(x[100:180], lambda s: 2.0 * s),
            chunked.process(x[180:], lambda s: 2.0 * s),
        ])
        assert np.array_equal(out_whole, out_chunks)

    def test_length_changing_processor_rejected(self):
        restorer = CfoRestorer(10e3, 20e6)
        with pytest.raises(ValueError):
            restorer.process(np.ones(32, dtype=complex), lambda s: s[:-1])


class TestEndToEndCfoPreservation:
    def test_destination_sees_source_cfo(self):
        # The §4.1 contract: the relayed signal carries the SOURCE's
        # CFO, so the client's estimator sees one consistent offset.
        rng = make_rng(2)
        n = np.arange(2048)
        periodic = np.exp(2j * np.pi * (n % 16) / 16.0)
        source_cfo = 60e3
        at_relay = apply_cfo(periodic, source_cfo, 20e6)

        restorer = CfoRestorer(source_cfo, 20e6)
        relayed = restorer.process(at_relay, lambda s: 0.5 * s)

        est = estimate_cfo(relayed, 16, 20e6, num_repeats=64)
        assert est == pytest.approx(source_cfo, rel=1e-3)

    def test_processing_without_restore_breaks_cfo(self):
        # Sanity check on the failure mode the trick avoids.
        n = np.arange(2048)
        periodic = np.exp(2j * np.pi * (n % 16) / 16.0)
        at_relay = apply_cfo(periodic, 60e3, 20e6)
        restorer = CfoRestorer(60e3, 20e6)
        corrected_only = restorer.correct(at_relay)
        est = estimate_cfo(corrected_only, 16, 20e6, num_repeats=64)
        assert abs(est) < 1e3  # CFO gone: destination would be confused

    def test_reset(self):
        restorer = CfoRestorer(10e3, 20e6)
        a = restorer.restore(np.ones(32, dtype=complex))
        restorer.reset()
        b = restorer.restore(np.ones(32, dtype=complex))
        assert np.allclose(a, b)
