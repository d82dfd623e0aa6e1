"""Stage adapters, the kernel cache and ChainTrace instrumentation."""

import numpy as np
import pytest

from repro.cancellation.digital import CausalDigitalCanceller
from repro.cancellation.si_channel import SelfInterferenceChannel
from repro.core.relay import (
    SIGNAL_PATH_TAIL_REL,
    FastForwardRelay,
    RelayConfig,
)
from repro.dsp.fir import FirFilter
from repro.dsp.tapped_delay_line import AnalogTapDelayLine
from repro.phy.params import WIFI_20MHZ
from repro.runtime import (
    Chain,
    ChainTrace,
    DigitalCancellationStage,
    GainStage,
    StreamingFirStage,
    FrequencyResponseStage,
    design_windowed_kernel,
    kernel_cache,
)
from repro.runtime.kernels import (
    DEFAULT_GRID_SIZE,
    DEFAULT_TAIL_REL,
    band_edge_window,
)

FS = WIFI_20MHZ.bandwidth_hz


def _rms(a, b):
    return float(np.sqrt(np.mean(np.abs(a - b) ** 2)))


def _noise(n, seed, rows=None):
    rng = np.random.default_rng(seed)
    shape = (rows, n) if rows else n
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestStreamingFirStage:
    def test_matches_whole_block_fir(self):
        taps = np.array([1.0, -0.4 + 0.2j, 0.1j, 0.05])
        stage = StreamingFirStage(taps)
        x = _noise(500, 1)
        blocks = [stage.process_block(x[i:i + 33]) for i in range(0, 500, 33)]
        streamed = np.concatenate(blocks)
        assert _rms(streamed, FirFilter(taps).apply(x)) <= 1e-12

    def test_reset_clears_state(self):
        taps = np.array([1.0, 0.5])
        stage = StreamingFirStage(taps)
        x = _noise(64, 2)
        first = stage.process_block(x)
        stage.reset()
        assert _rms(stage.process_block(x), first) <= 1e-12


class TestDigitalCancellationStage:
    def test_streaming_matches_one_shot_cancel(self):
        rng = np.random.default_rng(3)
        tx = _noise(2000, 4)
        leak = FirFilter(np.array([0.3, 0.1 - 0.05j, 0.02j])).apply(tx)
        canceller = CausalDigitalCanceller(num_taps=24)
        canceller.train(tx, leak)
        one_shot = canceller.cancel(leak, tx)
        stage = canceller.as_stage()
        assert isinstance(stage, DigitalCancellationStage)
        outs = []
        for i in range(0, 2000, 77):
            stage.push_tx(tx[i:i + 77])
            outs.append(stage.process_block(leak[i:i + 77]))
        assert _rms(np.concatenate(outs), one_shot) <= 1e-10
        # residual well below the raw leakage
        assert np.mean(np.abs(one_shot) ** 2) < 1e-3 * np.mean(
            np.abs(leak) ** 2)

    def test_requires_queued_tx(self):
        stage = CausalDigitalCanceller(num_taps=4).as_stage()
        with pytest.raises(ValueError):
            stage.process_block(np.zeros(8, dtype=complex))


class TestAsStageAdapters:
    def test_analog_line_stage_matches_apply(self):
        line = AnalogTapDelayLine(np.array([0.0, 100e-12, 200e-12]))
        line.set_gains(np.array([0.5, 0.3j, -0.2]))
        x = _noise(3000, 5)
        one_shot = line.apply(x, FS)
        stage = line.as_stage(FS)
        stage.reset()
        assert _rms(stage.run(x), one_shot) <= 1e-10

    def test_si_channel_stage_matches_apply(self):
        chan = SelfInterferenceChannel.typical(rng=7)
        x = _noise(2500, 8)
        one_shot = chan.apply(x, FS)
        stage = chan.as_stage(FS)
        stage.reset()
        assert _rms(stage.run(x), one_shot) <= 1e-10


def _truncation_error(kernel, response_fn):
    """Relative RMS distance of ``kernel`` from its untruncated response."""
    freqs = np.fft.fftfreq(DEFAULT_GRID_SIZE, d=1.0 / FS)
    target = np.asarray(response_fn(freqs), dtype=complex)
    window = band_edge_window(freqs, FS)
    target = target * (window if target.ndim == 1 else window[:, None, None])
    taps = np.moveaxis(kernel.fir, -1, 0)
    grid = np.zeros((DEFAULT_GRID_SIZE,) + taps.shape[1:], dtype=complex)
    grid[: kernel.length] = taps
    # The taps start ``precursor`` samples before time zero.
    realised = np.fft.fft(np.roll(grid, -kernel.precursor, axis=0), axis=0)
    return np.linalg.norm(realised - target) / np.linalg.norm(target)


def _draw_relay(mode, seed=17):
    rng = np.random.default_rng(seed)
    freqs = WIFI_20MHZ.subcarrier_freqs_hz()
    shape = (freqs.size,) if mode != "mimo" else (freqs.size, 2, 2)

    def draw():
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    relay = FastForwardRelay(RelayConfig(
        use_decomposition=mode == "siso-decomposition"))
    if mode == "mimo":
        relay.configure_mimo_link(draw(), draw(), draw())
        return relay, relay.make_mimo_chain(), relay._mimo_response_fn()
    relay.configure_siso_link(draw(), draw(), draw())
    return relay, relay.make_siso_chain(), relay._siso_response_fn()


class TestKernelTolerances:
    """The relay compiles at the signal-path bound, SI models do not."""

    @pytest.mark.parametrize("mode", ["siso-interpolated",
                                      "siso-decomposition", "mimo"])
    def test_relay_cnf_kernel_within_signal_path_bound(self, mode):
        _, chain, response_fn = _draw_relay(mode)
        stage = next(s for s in chain.stages
                     if isinstance(s, FrequencyResponseStage))
        error = _truncation_error(stage.kernel, response_fn)
        assert error <= SIGNAL_PATH_TAIL_REL
        assert stage.kernel.length < design_windowed_kernel(
            response_fn, FS).length

    def test_si_models_keep_default_tolerance(self):
        line = AnalogTapDelayLine(np.array([0.0, 100e-12, 200e-12]))
        line.set_gains(np.array([0.5, 0.3j, -0.2]))
        chan = SelfInterferenceChannel.typical(rng=7)
        for model in (line, chan):
            kernel = model.as_stage(FS).kernel
            reference = design_windowed_kernel(model.frequency_response, FS)
            assert np.array_equal(kernel.fir, reference.fir)
            assert _truncation_error(
                kernel, model.frequency_response) <= DEFAULT_TAIL_REL


class TestKernelCache:
    def test_repeated_builds_hit_the_cache(self):
        cache = kernel_cache()
        cache.clear()
        line = AnalogTapDelayLine(np.array([0.0, 100e-12]))
        line.set_gains(np.array([0.7, 0.2j]))
        x = _noise(1000, 9)
        line.apply(x, FS)
        first = cache.stats()
        line.apply(x, FS)
        line.apply(x, FS)
        after = cache.stats()
        assert first.misses >= 1
        assert after.misses == first.misses          # no re-design
        assert after.hits >= first.hits + 2

    def test_gain_change_is_a_new_kernel(self):
        cache = kernel_cache()
        cache.clear()
        line = AnalogTapDelayLine(np.array([0.0, 100e-12]))
        line.set_gains(np.array([0.7, 0.2j]))
        x = _noise(500, 10)
        line.apply(x, FS)
        line.set_gains(np.array([0.1, 0.9]))
        line.apply(x, FS)
        assert cache.stats().misses == 2

    def test_relay_reconfigure_invalidates_kernel(self):
        cache = kernel_cache()
        cache.clear()
        rng = np.random.default_rng(11)
        freqs = WIFI_20MHZ.subcarrier_freqs_hz()

        def draw():
            return (rng.normal(size=freqs.size)
                    + 1j * rng.normal(size=freqs.size))

        relay = FastForwardRelay(RelayConfig())
        relay.configure_siso_link(draw(), draw(), draw())
        x = _noise(1500, 12)
        y1 = relay.process(x)
        misses_one_link = cache.stats().misses
        relay.process(x)
        assert cache.stats().misses == misses_one_link
        relay.configure_siso_link(draw(), draw(), draw())
        y2 = relay.process(x)
        assert cache.stats().misses > misses_one_link
        assert _rms(y1, y2) > 1e-6    # genuinely different link

    def test_matrix_kernel_design(self):
        rng = np.random.default_rng(13)

        def matrix_response(f):
            n = np.asarray(f).size
            base = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            return np.broadcast_to(base, (n, 2, 2)).copy()

        kernel = design_windowed_kernel(matrix_response, FS)
        assert kernel.is_matrix
        assert kernel.fir.shape[:2] == (2, 2)
        assert 0 < kernel.precursor < kernel.length


class TestChainTrace:
    def test_trace_accumulates_per_stage(self):
        chain = Chain([GainStage(6.0), GainStage(-6.0)])
        trace = ChainTrace()
        x = _noise(400, 14)
        chain.run(x, trace=trace)
        assert list(trace.stages) == ["amplify", "amplify-2"]
        first = trace.stages["amplify"]
        assert first.calls >= 1
        assert first.samples_in == 400
        assert first.samples_out == 400
        assert first.wall_s >= 0.0
        assert first.gain_db == pytest.approx(6.0, abs=1e-6)
        assert trace.total_wall_s >= first.wall_s

    def test_trace_through_relay_process(self):
        rng = np.random.default_rng(15)
        freqs = WIFI_20MHZ.subcarrier_freqs_hz()

        def draw():
            return (rng.normal(size=freqs.size)
                    + 1j * rng.normal(size=freqs.size))

        relay = FastForwardRelay(RelayConfig())
        relay.configure_siso_link(draw(), draw(), draw())
        trace = ChainTrace()
        x = _noise(2000, 16)
        relay.process(x, cfo_hz=800.0, trace=trace)
        assert set(trace.stages) == {"cfo-correct", "cnf-filter",
                                     "amplify", "cfo-restore"}
        # Length-preserving end to end: every stage saw the whole stream.
        assert trace.stages["cfo-restore"].samples_out == 2000
        report = trace.report()
        for name in trace.stages:
            assert name in report

    def test_clear_resets_accumulators(self):
        trace = ChainTrace()
        trace.record("s", 0.01, np.ones(4, dtype=complex),
                     np.ones(4, dtype=complex))
        trace.clear()
        assert trace.stages == {}
        assert trace.total_wall_s == 0.0
