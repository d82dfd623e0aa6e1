"""The assembled FastForward relay device.

Two views of the same machine:

* **link level** — given the three per-subcarrier channels (source->
  destination, source->relay, relay->destination) the relay computes its
  constructive filter, its amplification, and the resulting destination
  SNRs / MIMO stream SINRs, including relayed noise and (when its
  latency budget is blown) the ISI penalty.  This is what the
  throughput experiments consume.
* **sample level** — :meth:`FastForwardRelay.process` pushes an IQ
  stream through the realised digital pre-filter, analog CNF line,
  amplification and CFO restore, producing the waveform the relay
  would transmit.  Integration tests run real PPDUs through it.

The sample-level path runs on the streaming runtime
(:mod:`repro.runtime`): a configured relay *is* a
:class:`repro.runtime.chain.Chain` of stages — CFO correct, an
overlap-save spectral stage with a cached kernel, amplification, CFO
restore — that fixed-size blocks are pumped through with state
carry-over.  :meth:`FastForwardRelay.process` and
:meth:`FastForwardRelay.process_mimo` are thin one-shot wrappers over
that chain; :meth:`FastForwardRelay.make_siso_chain` /
:meth:`FastForwardRelay.make_mimo_chain` hand the chain itself to
streaming callers.
"""

from __future__ import annotations

import itertools
import weakref

from dataclasses import dataclass, field

import numpy as np

from repro.core.amplification import select_amplification_db
from repro.core.cfo_restore import CfoRestorer
from repro.core.cnf_filter import (
    band_phase_alignment,
    mimo_cnf_filter,
    siso_cnf_phase,
)
from repro.core.decomposition import decompose_cnf_filter
from repro.core.latency import ISI_ICI_FACTOR, LatencyBudget, isi_useful_fraction
from repro.phy.mimo import multiplexing_stream_sinrs
from repro.phy.params import OfdmParams, WIFI_20MHZ
from repro.phy.rates import MCS_TABLE
from repro.telemetry.collector import current_collector
from repro.utils.units import db_to_linear, db_to_power, power_to_db
from repro.utils.validation import ensure_finite

#: Monotone link tokens keying the spectral-kernel cache (one token per
#: configured link, so reconfiguring never reuses a stale kernel).
_LINK_TOKENS = itertools.count()

#: Truncation tolerance (relative RMS error) of the relay's CNF kernel:
#: 30 dB under the SNR the top MCS needs (31 dB at MCS 9, so ~-61 dB),
#: so truncation never costs the forwarded signal a rate step.  The
#: self-interference models keep the far tighter
#: :data:`repro.runtime.kernels.DEFAULT_TAIL_REL`.
SIGNAL_PATH_TAIL_REL = 10.0 ** (
    -(max(entry.min_snr_db for entry in MCS_TABLE) + 30.0) / 20.0)


def group_means(h, group_size):
    """Means of a per-subcarrier stack over groups of adjacent tones.

    ``h`` is ``(n_sc, ., .)``; group ``g`` holds subcarriers
    ``g * group_size`` up to the next group (the last may be short).
    Returns the ``(n_groups, ., .)`` group-mean channels the Eq. 2
    solve runs on.
    """
    starts = np.arange(0, h.shape[0], group_size)
    sizes = np.diff(np.append(starts, h.shape[0]))
    return np.add.reduceat(h, starts, axis=0) / sizes[:, None, None]


@dataclass
class RelayConfig:
    """Operating configuration of a FastForward relay.

    ``params`` uses a ``default_factory`` so no mutable state is ever
    shared between configs (``OfdmParams`` is frozen as well — belt and
    braces against one relay's numerology leaking into another).
    """

    params: OfdmParams = field(default_factory=lambda: WIFI_20MHZ)
    cancellation_db: float = 110.0
    loop_margin_db: float = 3.0
    noise_margin_db: float = 3.0
    #: Disable to get the blind amplify-and-forward repeater of §5.5.
    use_cnf: bool = True
    #: Disable the §3.5 noise rule (the blind repeater ignores it).
    noise_safe: bool = True
    #: Realise the SISO filter through the digital/analog decomposition
    #: (adds the §3.4 approximation error) instead of using the ideal F.
    use_decomposition: bool = True
    latency: LatencyBudget = field(default_factory=LatencyBudget)
    #: Delay spread of the over-the-air channels; it consumes CP budget
    #: alongside processing latency (the CP must cover latency + extra
    #: path delay + the tail of the multipath spread).
    channel_delay_spread_s: float = 150e-9
    tx_power_dbm: float = 20.0
    noise_floor_dbm: float = -90.0
    relay_noise_floor_dbm: float = -90.0


class FastForwardRelay:
    """A construct-and-forward full-duplex relay.

    Call :meth:`configure_siso_link` or :meth:`configure_mimo_link`
    with per-subcarrier channels (from estimation or a channel model),
    then query :meth:`destination_snr_db` / :meth:`stream_sinrs_db`.
    """

    def __init__(self, config: RelayConfig = None):
        self.config = config or RelayConfig()
        self._mode = None
        self._h_sd = None
        self._h_sr = None
        self._h_rd = None
        self._filter_response = None   # SISO: per-subcarrier complex
        self._mimo_f0 = None           # MIMO: band unitary
        self._mimo_phases = None       # MIMO: per-subcarrier scalar phase
        self._decomposition = None
        self.amplification_db = 0.0
        # Streaming runtime state: a fresh token per configured link
        # keys the spectral-kernel cache; built chains are memoised per
        # (mode, sample rate, CFO) until the link changes.
        self._link_token = None
        self._chains = {}
        # Auto-wired telemetry, one entry per live collector: the trace
        # and the resolved metric points are reused across process()
        # calls, so per-call instrumentation setup stays off the
        # streaming path.
        self._telemetry_memo = weakref.WeakKeyDictionary()

    def _invalidate_chains(self):
        """A new link means new kernels: drop memoised chains."""
        self._link_token = f"ff-relay-{next(_LINK_TOKENS)}"
        self._chains = {}

    # -- configuration ---------------------------------------------------

    def _rd_attenuation_db(self, h_rd):
        """Band-mean relay->destination attenuation in dB."""
        power = np.mean(np.abs(h_rd) ** 2)
        if power <= 0:
            return float("inf")
        return float(-power_to_db(power))

    def configure_siso_link(self, h_sd, h_sr, h_rd):
        """Install per-subcarrier SISO channels and compute the filter."""
        h_sd = np.asarray(h_sd, dtype=complex)
        h_sr = np.asarray(h_sr, dtype=complex)
        h_rd = np.asarray(h_rd, dtype=complex)
        if not h_sd.shape == h_sr.shape == h_rd.shape:
            raise ValueError("per-subcarrier channel arrays must match")
        self._mode = "siso"
        self._h_sd, self._h_sr, self._h_rd = h_sd, h_sr, h_rd
        self._invalidate_chains()
        cfg = self.config
        self.amplification_db = select_amplification_db(
            cfg.cancellation_db, self._rd_attenuation_db(h_rd),
            loop_margin_db=cfg.loop_margin_db,
            noise_margin_db=cfg.noise_margin_db,
            noise_safe=cfg.noise_safe)
        if not cfg.use_cnf:
            self._filter_response = np.ones_like(h_sd)
            self._decomposition = None
            return self
        ideal = siso_cnf_phase(h_sd, h_sr, h_rd)
        if cfg.use_decomposition:
            self._decomposition, self._filter_response = \
                self._best_decomposition(ideal)
        else:
            self._decomposition = None
            self._filter_response = ideal
        return self

    def _best_decomposition(self, ideal):
        """Decompose the ideal SISO filter, selecting by realised gain.

        The ideal response usually contains a linear-phase ramp no
        causal 4-tap stage can follow (perfect alignment of a longer
        via-path needs an advance).  Sweeping slid variants of the
        target and scoring each candidate by the *constructive gain it
        actually achieves* finds the best realisable compromise — the
        practical counterpart of the paper's SCP solve.
        """
        cfg = self.config
        freqs = cfg.params.subcarrier_freqs_hz()
        a = db_to_linear(self.amplification_db)
        relay_mag = np.abs(self._h_rd * self._h_sr)
        direct_mag = np.abs(self._h_sd)
        base_weights = relay_mag * (direct_mag + 0.05 * direct_mag.max() + 1e-30)
        p_tx = 10.0 ** (cfg.tx_power_dbm / 10.0)
        sigma_d2 = 10.0 ** (cfg.noise_floor_dbm / 10.0)

        def capacity_metric(resp):
            # Sum-log-SNR punishes the per-subcarrier dips a plain power
            # sum would forgive — matching how coded OFDM actually pays
            # for deeply faded tones.
            h_eff = self._h_sd + self._h_rd * resp * a * self._h_sr
            snr = np.abs(h_eff) ** 2 * p_tx / sigma_d2
            return np.sum(np.log2(1.0 + snr), axis=-1)

        # Every slide is one row of a batch; the second pass reweights
        # each row from its own first-pass response.
        taus = np.linspace(-25e-9, 75e-9, 11)
        targets = np.broadcast_to(ideal, (taus.size, ideal.size))
        weights = base_weights
        cands, resps = [], []
        for _ in range(2):
            batch = decompose_cnf_filter(
                freqs, targets, carrier_hz=cfg.params.carrier_hz,
                delay_slack_s=taus, weights=weights)
            resp = np.array([cand.response(freqs) for cand in batch])
            # The filter's gain is bounded by unity (extra gain belongs
            # to the capped amplification); scale so the strongest
            # subcarrier uses the full budget.
            peak = np.abs(resp).max(axis=1, keepdims=True)
            resp = resp / np.where(peak > 0, peak, 1.0)
            cands.append(batch)
            resps.append(resp)
            # Constant-modulus reweighting: pull up the dips.
            weights = base_weights / np.maximum(np.abs(resp), 0.25) ** 2
        # Candidates in (slide, pass) order: argmax keeps the first of
        # equal metrics, as a strict-improvement scan would.
        metrics = np.stack([capacity_metric(r) for r in resps], axis=1)
        tau_i, pass_i = np.unravel_index(np.argmax(metrics), metrics.shape)
        return cands[pass_i][tau_i], resps[pass_i][tau_i]

    def configure_mimo_link(self, h_sd, h_sr, h_rd, group_size=8):
        """Install per-subcarrier MIMO channels, shapes (n_sc, ., .).

        ``h_sd``: (n_sc, N, M); ``h_sr``: (n_sc, K, M); ``h_rd``:
        (n_sc, N, K).  One unitary is optimised per group of
        ``group_size`` adjacent subcarriers (channels are correlated
        across neighbouring tones, so group-level solves capture most of
        the per-tone optimum at a fraction of the cost); all groups are
        one stacked :func:`repro.core.cnf_filter.mimo_cnf_filter` call on
        the group-mean channels (:func:`group_means`).  Per-subcarrier
        scalar phases refine each group's filter (see
        :func:`repro.core.cnf_filter.band_phase_alignment`).
        """
        h_sd = np.asarray(h_sd, dtype=complex)
        h_sr = np.asarray(h_sr, dtype=complex)
        h_rd = np.asarray(h_rd, dtype=complex)
        if h_sd.ndim != 3 or h_sr.ndim != 3 or h_rd.ndim != 3:
            raise ValueError("MIMO channels must be (n_sc, rx, tx) arrays")
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self._mode = "mimo"
        self._h_sd, self._h_sr, self._h_rd = h_sd, h_sr, h_rd
        self._invalidate_chains()
        cfg = self.config
        self.amplification_db = select_amplification_db(
            cfg.cancellation_db, self._rd_attenuation_db(h_rd),
            loop_margin_db=cfg.loop_margin_db,
            noise_margin_db=cfg.noise_margin_db,
            noise_safe=cfg.noise_safe)
        k = h_sr.shape[1]
        n_sc = h_sd.shape[0]
        if not cfg.use_cnf:
            self._mimo_f0 = np.broadcast_to(
                np.eye(k, dtype=complex), (n_sc, k, k)).copy()
            self._mimo_phases = np.zeros(n_sc)
            return self
        f_groups = mimo_cnf_filter(
            *(group_means(h, group_size) for h in (h_sd, h_sr, h_rd)),
            self.amplification_db)
        self._mimo_f0 = f_groups[np.arange(n_sc) // group_size]
        self._mimo_phases = band_phase_alignment(
            h_sd, h_sr, h_rd, self._mimo_f0, self.amplification_db)
        return self

    # -- link-level results ----------------------------------------------

    def _recirculation_factor(self, extra_path_delay_s, max_copies=12):
        """Power factor of loop-recirculated copies that land past the CP.

        Amplifying within ``loop_margin`` of the cancellation leaves a
        residual that re-circulates: copy ``k`` is ``k * (A - C)`` dB
        down and ``k`` loop-latencies further delayed.  Copies still
        inside the CP are more (weak) multipath; the rest is
        interference.  Returns ``sum_k r^k * (1 - rho_k)`` relative to
        the relayed signal's power — the cost of the blind repeater's
        "amplify as much as the cancellation" policy (§5.5).
        """
        cfg = self.config
        r = db_to_power(self.amplification_db - cfg.cancellation_db)
        if r <= 1e-6:
            return 0.0
        base = (cfg.latency.total_s() + max(extra_path_delay_s, 0.0)
                + cfg.channel_delay_spread_s)
        total = 0.0
        for k in range(1, max_copies + 1):
            delay = base + k * cfg.latency.total_s()
            excess = max(delay - cfg.params.cp_duration_s, 0.0)
            rho_k = isi_useful_fraction(excess, cfg.params)
            total += (r ** k) * (1.0 - rho_k)
        return total

    def _isi_fraction(self, extra_path_delay_s):
        """Useful-power fraction of the relayed copy (1.0 inside CP).

        The CP must absorb processing latency, the via-path's extra
        flight time *and* the multipath delay spread already riding on
        the channels.
        """
        total = (self.config.latency.total_s()
                 + max(extra_path_delay_s, 0.0)
                 + self.config.channel_delay_spread_s)
        excess = total - self.config.params.cp_duration_s
        return isi_useful_fraction(max(excess, 0.0), self.config.params)

    def destination_snr_db(self, extra_path_delay_s=0.0, *, channels=None):
        """Per-subcarrier destination SNR (dB), SISO mode.

        ``extra_path_delay_s`` is the additional over-the-air delay of
        the source->relay->destination route relative to the direct
        path; it eats into the CP budget alongside processing latency.

        ``channels`` optionally supplies a ``(h_sd, h_sr, h_rd)`` triple
        to evaluate against while keeping the *configured* filter and
        amplification — i.e. what a relay tuned on old sounding reports
        actually delivers once the air has moved on.  Omit it to
        evaluate on the configured link.
        """
        if self._mode != "siso":
            raise RuntimeError("configure_siso_link first")
        cfg = self.config
        if channels is None:
            h_sd, h_sr, h_rd = self._h_sd, self._h_sr, self._h_rd
        else:
            h_sd, h_sr, h_rd = (np.asarray(h, dtype=complex)
                                for h in channels)
        a = db_to_linear(self.amplification_db)
        p_tx = 10.0 ** (cfg.tx_power_dbm / 10.0)
        sigma_d2 = 10.0 ** (cfg.noise_floor_dbm / 10.0)
        sigma_r2 = 10.0 ** (cfg.relay_noise_floor_dbm / 10.0)

        relay_path = h_rd * self._filter_response * a * h_sr
        rho = self._isi_fraction(extra_path_delay_s)
        if rho >= 1.0:
            h_eff = h_sd + relay_path
            isi = 0.0
        else:
            # Past the CP the copies no longer combine coherently and
            # the lost fraction interferes twice (ISI + ICI).
            h_eff = np.sqrt(np.abs(h_sd) ** 2
                            + rho * np.abs(relay_path) ** 2)
            isi = (ISI_ICI_FACTOR * (1.0 - rho)
                   * np.abs(relay_path) ** 2 * p_tx)
        relay_noise = np.abs(h_rd * self._filter_response * a) ** 2 * sigma_r2
        recirc = (self._recirculation_factor(extra_path_delay_s)
                  * np.abs(relay_path) ** 2 * p_tx)
        denom = sigma_d2 + relay_noise + isi + recirc
        snr = np.abs(h_eff) ** 2 * p_tx / denom
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(np.maximum(snr, 1e-30))

    def mimo_effective_channels(self, extra_path_delay_s=0.0):
        """Per-subcarrier (H_eff, noise_cov) with the relay active.

        Returns ``(h_eff, noise_cov)`` of shapes (n_sc, N, M) and
        (n_sc, N, N).  The relayed copy's ISI loss (when the latency
        budget is blown) shrinks its useful part and adds the lost
        power to the noise, exactly as in :meth:`destination_snr_db`.
        """
        if self._mode != "mimo":
            raise RuntimeError("configure_mimo_link first")
        cfg = self.config
        rho = self._isi_fraction(extra_path_delay_s)
        a = db_to_linear(self.amplification_db)
        a2 = db_to_power(self.amplification_db)
        sigma_d2 = 10.0 ** (cfg.noise_floor_dbm / 10.0)
        sigma_r2 = 10.0 ** (cfg.relay_noise_floor_dbm / 10.0)
        n_tx = self._h_sd.shape[2]
        p_per_stream = 10.0 ** (cfg.tx_power_dbm / 10.0) / n_tx
        eye = np.eye(self._h_sd.shape[1])
        f = np.exp(1j * self._mimo_phases)[:, None, None] * self._mimo_f0
        relay_mix = self._h_rd @ f
        relay_term = relay_mix @ (a * self._h_sr)
        h_eff = self._h_sd + np.sqrt(rho) * relay_term
        noise_cov = sigma_d2 * eye \
            + a2 * sigma_r2 * (relay_mix @ relay_mix.conj().swapaxes(-1, -2))
        if rho < 1.0:
            lost = (ISI_ICI_FACTOR * (1.0 - rho) * p_per_stream
                    * np.mean(np.abs(relay_term) ** 2, axis=(1, 2)) * n_tx)
            noise_cov = noise_cov + lost[:, None, None] * eye
        recirc = self._recirculation_factor(extra_path_delay_s)
        if recirc > 0.0:
            noise_cov = noise_cov + recirc * p_per_stream \
                * (relay_term @ relay_term.conj().swapaxes(-1, -2))
        return h_eff, noise_cov

    def stream_sinrs_db(self, extra_path_delay_s=0.0):
        """Per-subcarrier MMSE stream SINRs (dB), shape (n_sc, streams).

        Computed from :meth:`mimo_effective_channels` so every
        impairment (relayed noise colouring, ISI, loop recirculation)
        flows through one model.
        """
        h_eff, noise_cov = self.mimo_effective_channels(extra_path_delay_s)
        sinrs = multiplexing_stream_sinrs(
            h_eff, noise_cov, 10.0 ** (self.config.tx_power_dbm / 10.0))
        return 10.0 * np.log10(np.maximum(sinrs, 1e-30))

    @property
    def decomposition(self):
        """The §3.4 digital/analog split of the current SISO filter."""
        return self._decomposition

    @property
    def filter_response(self):
        """Per-subcarrier realised SISO filter response."""
        return self._filter_response

    def latency_s(self):
        """Total processing latency of the device."""
        return self.config.latency.total_s()

    # -- sample-level processing ------------------------------------------

    def _siso_response_fn(self):
        """The realised SISO filter as a baseband frequency response."""
        if self._decomposition is not None:
            # The pre-filter runs at its own (higher) rate; at the
            # signal rate its in-band response is what matters, so apply
            # it spectrally on the subcarrier grid.
            decomposition = self._decomposition
            return lambda f: decomposition.response(f)
        freqs_grid = self.config.params.subcarrier_freqs_hz()
        resp = self._filter_response

        def interp_response(f):
            real = np.interp(f, freqs_grid, resp.real,
                             left=resp.real[0], right=resp.real[-1])
            imag = np.interp(f, freqs_grid, resp.imag,
                             left=resp.imag[0], right=resp.imag[-1])
            return real + 1j * imag

        return interp_response

    def _mimo_response_fn(self):
        """Per-bin K x K matrix response interpolated from the filters.

        Linearly interpolated between subcarriers (out-of-grid bins
        clamp to the band-edge filter) — a continuous response whose
        impulse content decays fast enough to cache as a short kernel.
        """
        grid_freqs = self.config.params.subcarrier_freqs_hz()
        order = np.argsort(grid_freqs)
        gf = grid_freqs[order]
        filt = (np.exp(1j * self._mimo_phases)[:, None, None]
                * self._mimo_f0)[order]
        k = filt.shape[1]

        def matrix_response(f):
            out = np.empty((np.asarray(f).size, k, k), dtype=complex)
            for r in range(k):
                for t in range(k):
                    out[:, r, t] = (
                        np.interp(f, gf, filt[:, r, t].real)
                        + 1j * np.interp(f, gf, filt[:, r, t].imag))
            return out

        return matrix_response

    def _build_chain(self, response_fn, kernel_tag, sample_rate_hz, cfo_hz,
                     name):
        from repro.runtime.chain import Chain, GainStage
        from repro.runtime.spectral import FrequencyResponseStage
        from repro.runtime.stage import CfoCorrectStage, CfoRestoreStage

        stages = []
        restorer = CfoRestorer(cfo_hz, sample_rate_hz) if cfo_hz else None
        if restorer is not None:
            stages.append(CfoCorrectStage(restorer))
        stages.append(FrequencyResponseStage(
            response_fn, sample_rate_hz, tail_rel=SIGNAL_PATH_TAIL_REL,
            cache_key=(self._link_token, kernel_tag), name="cnf-filter"))
        stages.append(GainStage(self.amplification_db, name="amplify"))
        if restorer is not None:
            stages.append(CfoRestoreStage(restorer))
        return Chain(stages, name=name)

    def make_siso_chain(self, sample_rate_hz=None, cfo_hz=0.0):
        """The relay as a streaming :class:`repro.runtime.chain.Chain`.

        SISO only.  Stages, in order: CFO correct (when ``cfo_hz`` is
        nonzero), the realised CNF filter (digital pre-filter cascaded
        with the analog line, as one cached overlap-save kernel),
        amplification, CFO restore.  Pump fixed-size blocks through
        ``process_block`` and ``flush`` at end of stream; ``reset``
        makes the chain reusable for the next frame.  The spectral
        kernel is cached per configured link, so building many chains
        (or short-lived ones per frame) stays cheap.
        """
        if self._mode != "siso":
            raise RuntimeError("sample-level processing requires a SISO link")
        sample_rate_hz = sample_rate_hz or self.config.params.bandwidth_hz
        return self._build_chain(self._siso_response_fn(), "siso",
                                 sample_rate_hz, cfo_hz,
                                 name="ff-relay-siso")

    def make_mimo_chain(self, sample_rate_hz=None, cfo_hz=0.0):
        """The MIMO relay as a streaming chain over ``(K, n)`` blocks.

        Stages mirror :meth:`make_siso_chain`; the spectral stage
        applies the per-bin ``exp(j*phi_i) * F0_i`` matrix filters as
        one streaming matrix convolution, and the CFO stages rotate all
        K chains with a single broadcast multiply (the relay has one
        oscillator).
        """
        if self._mode != "mimo":
            raise RuntimeError(
                "sample-level MIMO processing requires a MIMO link")
        sample_rate_hz = sample_rate_hz or self.config.params.bandwidth_hz
        return self._build_chain(self._mimo_response_fn(), "mimo",
                                 sample_rate_hz, cfo_hz,
                                 name="ff-relay-mimo")

    def _memoised_chain(self, mode, sample_rate_hz, cfo_hz):
        key = (mode, float(sample_rate_hz), float(cfo_hz))
        chain = self._chains.get(key)
        if chain is None:
            maker = self.make_siso_chain if mode == "siso" \
                else self.make_mimo_chain
            chain = maker(sample_rate_hz, cfo_hz)
            self._chains[key] = chain
        return chain

    @staticmethod
    def _admit_stream(x, supervisor):
        """Validate (or, supervised, sanitise) the received samples.

        Unsupervised relays refuse non-finite input outright — garbage
        in would silently become amplified garbage on the air.  With a
        supervisor attached the contract flips: survive it, zero the
        bad samples and let the supervisor's guard statistics record
        the hit.
        """
        if supervisor is None:
            ensure_finite(x, "iq_stream")
            return x
        finite = np.isfinite(x)
        if finite.all():
            return x
        return np.where(finite, x, 0.0)

    @staticmethod
    def _run_with_faults(chain, faults, x, trace):
        """Reset the relay chain and run, with fault stages prepended.

        Fault stages are deliberately *not* reset: their burst and
        drift processes advance in absolute stream position, so a
        multi-frame experiment sees one continuous fault timeline
        rather than the same opening faults replayed every frame.
        """
        chain.reset()
        if not faults:
            return chain.run(x, trace=trace)
        from repro.runtime.chain import Chain

        run_chain = Chain([*faults, chain], name=f"faulty-{chain.name}")
        return run_chain.run(x, trace=trace)

    def _instruments(self, tel, mode):
        """``(auto trace, relay.samples point)`` for a collector.

        For a live collector both are resolved once and memoised:
        auto-wired traces feed ``runtime.stage.*`` metric points that
        are resolved once per stage, and resolving a point (kwargs ->
        sorted label key) costs more than updating it, so reuse keeps
        that off the per-call path.  Both only write into the
        collector, so sharing them between calls is observationally
        identical to fresh ones.  The null collector gets no trace and
        its shared no-op counter.
        """
        if not tel.enabled:
            return None, tel.counter("relay.samples", mode=mode)
        memo = self._telemetry_memo.get(tel)
        if memo is None:
            from repro.runtime.chain import ChainTrace

            memo = {"trace": ChainTrace(collector=tel, energy=False)}
            self._telemetry_memo[tel] = memo
        samples = memo.get(mode)
        if samples is None:
            samples = memo[mode] = tel.counter("relay.samples", mode=mode)
        return memo["trace"], samples

    @staticmethod
    def _harvest_health(faults):
        """Pull the health signals the fault stages expose, if any."""
        clip = [s.clip_fraction for s in faults or ()
                if hasattr(s, "clip_fraction")]
        residual = [s.residual_si_db for s in faults or ()
                    if hasattr(s, "residual_si_db")]
        return (max(clip) if clip else None,
                max(residual) if residual else None)

    def process(self, iq_stream, sample_rate_hz=None, cfo_hz=0.0, *,
                trace=None, faults=None, supervisor=None, telemetry=None,
                probes=None):
        """Produce the relay's transmit waveform for a received stream.

        SISO only.  Applies, in order: CFO correction, the digital
        pre-filter, the analog CNF line, amplification, and CFO restore.
        Self-interference is assumed cancelled (the cancellation
        subpackage demonstrates that separately); the processing delay
        is represented by the configured latency budget, which callers
        convert to channel delay when composing paths.

        A thin one-shot wrapper over :meth:`make_siso_chain`: the chain
        (and its cached spectral kernel) is reused across calls, so
        repeated frames skip the per-call response-grid recomputation
        entirely.  Pass a :class:`repro.runtime.chain.ChainTrace` as
        ``trace`` to collect per-stage wall time, throughput and in/out
        power.

        ``faults`` optionally prepends impairment stages from
        :mod:`repro.faults` (applied in order at the relay's receive
        side; their schedules continue across calls rather than
        replaying).  ``supervisor`` hands the output to a
        :class:`repro.supervision.RelaySupervisor`, which sanitises
        non-finite blocks, folds the fault stages' clip/residual
        readings into its health monitor, and applies the current
        remedy — gain backoff or half-duplex muting.  Without a
        supervisor, non-finite *input* raises ``ValueError``.

        ``telemetry`` optionally names the
        :class:`repro.telemetry.TelemetryCollector` to record into;
        by default the ambient collector is used, which is the
        zero-cost null collector unless one is installed.  When a live
        collector is in effect and no explicit ``trace`` was given, a
        telemetry-fed :class:`~repro.runtime.chain.ChainTrace` is
        created so per-stage counters and wall-time histograms flow
        without the caller wiring anything.

        ``probes`` optionally attaches a
        :class:`repro.probes.ProbeSet`: transparent IQ taps are spliced
        in at the named sites (``post-si-cancellation`` at the chain
        input — i.e. after the fault stages, which model receive-side
        impairments — ``post-cnf`` and ``post-amplification`` after the
        matching stages), and the set's ``probes.*`` aggregates are
        published to the telemetry collector after the run.
        """
        if self._mode != "siso":
            raise RuntimeError("sample-level processing requires a SISO link")
        sample_rate_hz = sample_rate_hz or self.config.params.bandwidth_hz
        tel = telemetry if telemetry is not None else current_collector()
        auto_trace, samples = self._instruments(tel, "siso")
        if trace is None:
            trace = auto_trace
        x = np.asarray(iq_stream, dtype=complex)
        x = self._admit_stream(x, supervisor)
        chain = self._memoised_chain("siso", sample_rate_hz, cfo_hz)
        run_chain = chain if probes is None else probes.instrument(
            chain, sample_rate_hz=sample_rate_hz)
        with tel.span("relay.process", mode="siso"):
            y = self._run_with_faults(run_chain, faults, x, trace)
            if supervisor is not None:
                clip_fraction, residual_si_db = self._harvest_health(faults)
                y = supervisor.guard_block(
                    y, duration_s=x.size / sample_rate_hz,
                    clip_fraction=clip_fraction,
                    residual_si_db=residual_si_db)
        samples.inc(int(x.size))
        if probes is not None:
            probes.publish(tel)
        return y

    def process_batch(self, iq_streams, sample_rate_hz=None, cfo_hz=0.0, *,
                      telemetry=None):
        """Relay many *independent* SISO frames in one batched pass.

        ``iq_streams`` is a sequence of 1-D sample arrays, one frame per
        entry.  Equal-length frames are stacked into ``(batch, n)``
        blocks and pumped through the streaming chain once per group, so
        the FFT-heavy CNF filtering and the CFO rotations amortise
        across the whole block instead of paying Python/FFT overhead per
        frame.  Every stage processes stacked rows independently (the
        chain is reset between groups, exactly as :meth:`process` resets
        it between calls), so the returned list is bitwise identical to
        ``[self.process(f, ...) for f in iq_streams]``.

        The stateful per-frame hooks of :meth:`process` — ``faults``
        (whose schedules advance in absolute stream position), a
        ``supervisor`` (whose remedy evolves frame to frame) and
        ``probes`` — are deliberately not offered here: their state
        depends on frame *order*, which a batched pass does not have.
        Use :meth:`process` when any of those are in play.
        """
        if self._mode != "siso":
            raise RuntimeError("sample-level processing requires a SISO link")
        sample_rate_hz = sample_rate_hz or self.config.params.bandwidth_hz
        tel = telemetry if telemetry is not None else current_collector()
        _, samples = self._instruments(tel, "siso")
        frames = [np.asarray(f, dtype=complex) for f in iq_streams]
        for f in frames:
            if f.ndim != 1:
                raise ValueError(
                    f"each frame must be a 1-D stream, got shape {f.shape}")
            ensure_finite(f, "iq_stream")
        chain = self._memoised_chain("siso", sample_rate_hz, cfo_hz)
        by_len = {}
        for i, f in enumerate(frames):
            by_len.setdefault(f.size, []).append(i)
        outputs = [None] * len(frames)
        total = 0
        # Row-chunk large groups: a (batch, fft) working set past a few
        # MB thrashes cache and erases the overhead win.
        max_rows = 32
        with tel.span("relay.process", mode="siso-batch"):
            for n, idxs in by_len.items():
                for start in range(0, len(idxs), max_rows):
                    part = idxs[start : start + max_rows]
                    chain.reset()
                    y = chain.run(np.stack([frames[i] for i in part]))
                    for row, i in enumerate(part):
                        outputs[i] = y[row]
                total += n * len(idxs)
        samples.inc(int(total))
        return outputs

    def process_mimo(self, iq_streams, sample_rate_hz=None, cfo_hz=0.0, *,
                     trace=None, faults=None, supervisor=None,
                     telemetry=None, probes=None):
        """Produce the K relay transmit streams for K received streams.

        MIMO only.  Applies the per-subcarrier unitary filters
        ``exp(j*phi_i) * F0_i`` as a streaming matrix convolution, then
        amplification, with optional CFO correct/restore around the
        processing.  ``iq_streams`` is (K, n_samples).  Like
        :meth:`process`, a one-shot wrapper over :meth:`make_mimo_chain`
        accepting the same ``trace``, ``faults``, ``supervisor`` and
        ``telemetry`` keywords.

        Note: unlike the SISO path, these are the *ideal* per-subcarrier
        filters — no latency-constrained decomposition is applied, so
        tone-to-tone filter variation lengthens the effective channel.
        The prototype bounds this with the same 4-tap structure; here it
        is a functional model, fine away from the deepest dead spots.
        ``probes`` attaches IQ taps exactly as in :meth:`process`
        (MIMO blocks are probed on stream 0).
        """
        if self._mode != "mimo":
            raise RuntimeError(
                "sample-level MIMO processing requires a MIMO link")
        sample_rate_hz = sample_rate_hz or self.config.params.bandwidth_hz
        tel = telemetry if telemetry is not None else current_collector()
        auto_trace, samples = self._instruments(tel, "mimo")
        if trace is None:
            trace = auto_trace
        x = np.atleast_2d(np.asarray(iq_streams, dtype=complex))
        k = self._mimo_f0.shape[1]
        if x.shape[0] != k:
            raise ValueError(
                f"expected {k} receive streams, got {x.shape[0]}")
        x = self._admit_stream(x, supervisor)
        chain = self._memoised_chain("mimo", sample_rate_hz, cfo_hz)
        run_chain = chain if probes is None else probes.instrument(
            chain, sample_rate_hz=sample_rate_hz)
        with tel.span("relay.process", mode="mimo"):
            y = self._run_with_faults(run_chain, faults, x, trace)
            if supervisor is not None:
                clip_fraction, residual_si_db = self._harvest_health(faults)
                y = supervisor.guard_block(
                    y, duration_s=x.shape[-1] / sample_rate_hz,
                    clip_fraction=clip_fraction,
                    residual_si_db=residual_si_db)
        samples.inc(int(x.shape[-1]))
        if probes is not None:
            probes.publish(tel)
        return y
