"""Batched relay frame processing (`process_batch`) — bit-identity."""

import numpy as np
import pytest

from repro.channel import PropagationModel, fig1_home
from repro.core import FastForwardRelay
from repro.netsim.experiments import (
    latency_sweep_experiment,
    siso_gains_experiment,
)
from repro.phy.params import WIFI_20MHZ
from repro.utils import make_rng


@pytest.fixture(scope="module")
def configured_relay():
    plan, ap, relay_pos = fig1_home()
    pm = PropagationModel(plan, rms_delay_spread_s=30e-9)
    used = WIFI_20MHZ.used_subcarriers()
    client = np.array([1.5, 6.3])

    def draw(a, b, r):
        return pm.siso_channel(a, b, WIFI_20MHZ.sample_period_s,
                               num_taps=4, rng=r).frequency_response(used, 64)

    rngs = [make_rng(i) for i in (1, 2, 3)]
    h_sd = draw(ap, client, rngs[0])
    h_sr = draw(ap, relay_pos, rngs[1])
    h_rd = draw(relay_pos, client, rngs[2])
    return FastForwardRelay().configure_siso_link(h_sd, h_sr, h_rd)


def _frames(rng, lengths):
    return [rng.normal(size=n) + 1j * rng.normal(size=n) for n in lengths]


class TestProcessBatch:
    def test_matches_serial_process(self, configured_relay):
        rng = make_rng(11)
        frames = _frames(rng, [900, 900, 1500, 900, 2100])
        serial = [configured_relay.process(f) for f in frames]
        batched = configured_relay.process_batch(frames)
        assert len(batched) == len(frames)
        for got, want in zip(batched, serial):
            assert np.array_equal(got, want)

    def test_matches_with_cfo(self, configured_relay):
        rng = make_rng(12)
        frames = _frames(rng, [1200, 1200, 800])
        serial = [configured_relay.process(
            f, sample_rate_hz=WIFI_20MHZ.bandwidth_hz, cfo_hz=25e3)
            for f in frames]
        batched = configured_relay.process_batch(
            frames, sample_rate_hz=WIFI_20MHZ.bandwidth_hz, cfo_hz=25e3)
        for got, want in zip(batched, serial):
            assert np.array_equal(got, want)

    def test_serial_after_batch_unchanged(self, configured_relay):
        # Batch processing must not corrupt the memoised chain state.
        rng = make_rng(13)
        frames = _frames(rng, [1000, 1000])
        before = configured_relay.process(frames[0])
        configured_relay.process_batch(frames)
        after = configured_relay.process(frames[0])
        assert np.array_equal(before, after)

    def test_empty_batch(self, configured_relay):
        assert configured_relay.process_batch([]) == []

    def test_rejects_non_1d_frames(self, configured_relay):
        with pytest.raises(ValueError):
            configured_relay.process_batch([np.zeros((2, 100),
                                                     dtype=complex)])


#: Each runner with a small sweep and the output keys it must keep.
_BLOCK_RUNNERS = {
    "siso": (siso_gains_experiment, {"num_clients": 6, "seed": 3},
             ("ap_only", "half_duplex", "fastforward")),
    "latency": (latency_sweep_experiment,
                {"latencies_ns": (100, 300, 500), "num_clients": 8,
                 "seed": 3},
                ("latency_ns", "median_gain")),
}


class TestClientBlocks:
    """``block_size`` sets clients per dispatched chunk, nothing else."""

    @pytest.fixture(scope="class")
    def references(self):
        return {name: runner(jobs=1, cache=False, **kwargs)
                for name, (runner, kwargs, _) in _BLOCK_RUNNERS.items()}

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("block_size", [None, 1, 4])
    @pytest.mark.parametrize("name", sorted(_BLOCK_RUNNERS))
    def test_blocked_experiment_bit_identical(self, references, name,
                                              block_size, backend):
        runner, kwargs, keys = _BLOCK_RUNNERS[name]
        jobs = 1 if backend == "serial" else 2
        out = runner(jobs=jobs, backend=backend, cache=False,
                     block_size=block_size, **kwargs)
        for key in keys:
            assert np.array_equal(references[name][key], out[key])

    def test_block_size_and_chunk_size_together_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            siso_gains_experiment(num_clients=2, seed=3, jobs=1, cache=False,
                                  block_size=2, chunk_size=None)
