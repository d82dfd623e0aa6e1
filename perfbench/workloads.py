"""The four benchmark workloads.

Each workload makes its inputs from the benchmark seed (the program
only ever sees the generated inputs), runs one operation at a time in
a single process and checks what the program returns:

* ``netsim-mimo`` / ``netsim-siso`` — one client at a time of the
  Figs. 12/13/15 or Fig. 14 experiment, closed loop, cycling the four
  §5 scenarios.  The operation is a client.
* ``service-saturated`` — whole runs of the virtual-time
  :class:`~repro.service.server.ServicePump` under
  :meth:`~repro.service.loadtest.LoadTestConfig.saturating` traffic
  (open loop in virtual time).  The operation is a tick (``step()``).
* ``phy-relay-link`` — 1500-byte MCS 2 packets over
  :class:`~repro.netsim.link.SampleLevelLink` with the relay on, closed
  loop.  The operation is a packet.

A workload's *unit* is what one call of :meth:`unit` runs: a client, a
whole pump run (many ticks) or a packet.  Load comes from one process:
``jobs=1``, serial backend, result cache off (the runner strips every
``REPRO_*`` variable before the program is imported).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Seed of every reference the correctness checks compare against.
REFERENCE_SEED = 2014
#: Set-up is repeated this many times per run; ``setup_s`` uses the median.
SETUP_REPEATS = 3

# Reference-panel tolerances for the netsim workloads.  Unchanged code
# reproduces the stored rates exactly (reported as ``reference_exact``).
# AP-only and half-duplex rates involve no link solver, so they admit
# floating-point reordering only.  FastForward rates come off the
# discrete MCS table, so a deliberate change of numerical method for
# Eq. 2 or the §3.4 split shows as whole rate steps: it may move at most
# a quarter of the panel's clients, each by at most one step (the
# largest single-stream step is 14.4 Mbps), and must keep the panel's
# median FF/HD gain — the EXPERIMENTS.md verdict — within 0.1.
BASELINE_RTOL = 1e-9
FF_STEP_MBPS = 14.5
FF_MOVED_SHARE = 0.25
MEDIAN_GAIN_ATOL = 0.1


@dataclass
class Unit:
    """What one unit of a workload did.

    Times come in pairs: host seconds and reference seconds (see
    :mod:`perfbench.calibrate`).
    """

    host_s: list                # per operation
    ref_s: list
    attempted: int
    failed: int
    output: object = None       # compared across traced/untraced phases
    setup: list = field(default_factory=list)   # (host_s, ref_s) pairs
    stats: dict = field(default_factory=dict)


def _seed_int(seed, *path):
    """A deterministic 31-bit seed for ``path`` under the run seed."""
    return int(np.random.SeedSequence([int(seed), *path])
               .generate_state(1)[0] % (2 ** 31 - 1))


def runtime_counts(chains):
    """Largest kernel, FFT and lookahead over built relay chains."""
    taps = fft = lookahead = 0
    for chain in chains:
        lookahead = max(lookahead, chain.latency_samples)
        for stage in chain.stages:
            if hasattr(stage, "kernel"):
                taps = max(taps, stage.kernel.length)
                fft = max(fft, stage.fft_size)
    return {"runtime.kernel_taps": taps, "runtime.fft_size": fft,
            "runtime.lookahead_samples": lookahead}


# ---------------------------------------------------------------------------
# netsim
# ---------------------------------------------------------------------------

class Netsim:
    """One client at a time through the experiment's per-client task.

    Each operation dispatches the runner's registered per-client task
    (what ``overall_gains_experiment`` / ``siso_gains_experiment`` fan
    out) through :func:`repro.exec.run_sweep`.  Calling the runner
    itself with one client would raise for a client whose half-duplex
    rate is 0: its summary takes the median FF/HD gain over an empty
    set.  The runner runs once per check, on the reference panel.
    """

    op = "client"
    min_units = 1
    #: Interpreter-bound: the speed probe leaves out its FFT part.
    probe_fft = False
    modules = ("numpy", "scipy", "repro.netsim.experiments")
    #: Clients per second at today's speed; sizes the traced phases.
    nominal_units_per_s = 4.0
    #: The untraced run is bounded by time, not by a unit count.
    time_bounded = True
    #: Clients in the fixed reference panel.
    panel_clients = 8

    def __init__(self, name, runner, task):
        self.name = name
        self.runner = runner
        self.task = task

    def setup(self, seed):
        """One testbed per §5 scenario; clients are drawn per operation."""
        from repro.netsim.testbed import Testbed, paper_scenarios

        testbeds = [Testbed(scenario, seed=_seed_int(seed, 0, k))
                    for k, scenario in enumerate(paper_scenarios())]
        return {"seed": int(seed), "testbeds": testbeds}

    def chains(self, state):
        return []

    def client_task(self, state, i):
        """Client ``i``: its scenario's testbed, a position and a seed."""
        from repro.exec import Task

        k = i % len(state["testbeds"])
        testbed = state["testbeds"][k]
        position = testbed.client_positions(
            1, rng=_seed_int(state["seed"], 1, i))[0]
        return Task(self.task, {"scenario": testbed.scenario,
                                "testbed_seed": _seed_int(state["seed"],
                                                          0, k),
                                "client": position},
                    seed=_seed_int(state["seed"], 2, i))

    def unit(self, state, i, clock, tracer=None):
        import repro.exec

        task = self.client_task(state, i)
        try:
            # Looked up on the package at call time so the traced run's
            # shim sees the call.
            sweep, host_s, ref_s = clock.time(
                repro.exec.run_sweep, [task], jobs=1, backend="serial",
                cache=False, max_retries=0)
            (out,) = sweep.results
            row = (float(out["ap"]), float(out["hd"]), float(out["ff"]))
        except Exception as exc:                    # a failed client
            return Unit([], [], 1, 1, output=f"error: {exc!r}")
        bad = not all(math.isfinite(r) and r >= 0 for r in row)
        return Unit([host_s], [ref_s], 1, int(bad), output=row)

    def panel(self):
        """The reference panel: rates per client plus the median gain."""
        from repro.netsim import experiments

        out = getattr(experiments, self.runner)(
            num_clients=self.panel_clients, seed=REFERENCE_SEED, jobs=1,
            backend="serial", cache=False, block_size=1, max_retries=0)
        return {"ap": [float(v) for v in out["ap_only"]],
                "hd": [float(v) for v in out["half_duplex"]],
                "ff": [float(v) for v in out["fastforward"]],
                "median_ff_vs_hd": float(out["median_ff_vs_hd"])}

    def reference_check(self, reference, clock):
        """Compare the panel with the stored rates."""
        got, ref = self.panel(), reference[self.name]
        return {"problems": compare_panel(got, ref),
                "reference_exact": panel_exact(got, ref)}

    @staticmethod
    def summary(units):
        return {}


def compare_panel(got, ref):
    """Problems found comparing a netsim panel with its reference."""
    problems = []
    for key in ("ap", "hd", "ff"):
        if len(got[key]) != len(ref[key]):
            problems.append(f"panel {key}: {len(got[key])} clients, "
                            f"reference has {len(ref[key])}")
            continue
        moved = 0
        for i, (g, r) in enumerate(zip(got[key], ref[key])):
            if key == "ff":
                moved += g != r
                ok = abs(g - r) <= FF_STEP_MBPS
            else:
                ok = abs(g - r) <= BASELINE_RTOL * max(abs(r), 1.0)
            if not ok:
                problems.append(f"panel client {i} {key} rate {g!r} Mbps "
                                f"vs reference {r!r}")
        if moved > FF_MOVED_SHARE * len(ref[key]):
            problems.append(f"panel: {moved} of {len(ref[key])} FF rates "
                            f"moved (at most {FF_MOVED_SHARE:.0%} may)")
    gain, ref_gain = got["median_ff_vs_hd"], ref["median_ff_vs_hd"]
    if not abs(gain - ref_gain) <= MEDIAN_GAIN_ATOL:
        problems.append(f"panel median FF/HD gain {gain!r} vs reference "
                        f"{ref_gain!r} (tolerance {MEDIAN_GAIN_ATOL})")
    return problems


def panel_exact(got, ref):
    """Whether a panel reproduces its reference bit for bit."""
    return all(got[k] == ref[k] for k in ("ap", "hd", "ff",
                                          "median_ff_vs_hd"))


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------

class Service:
    """Whole saturated pump runs, timed tick by tick."""

    name = "service-saturated"
    op = "tick"
    #: Units 0 and 1 replay one seed, so at least two always run.
    min_units = 2
    #: FFT-bound: the speed probe includes its FFT part.
    probe_fft = True
    modules = ("numpy", "scipy", "repro.service")
    nominal_units_per_s = 0.2
    #: The untraced run makes ``nominal_units_per_s`` whole pump runs
    #: per second of ``--seconds``, however long they take: a fixed
    #: amount of offered traffic.  Peak RSS grows with every pump run a
    #: process makes, so a count that followed host speed would make
    #: ``peak_rss_mb`` follow it too.
    time_bounded = False

    def __init__(self, duration_s=1.0):
        self.duration_s = float(duration_s)

    def config(self, seed, duration_s=None):
        from repro.service import LoadTestConfig

        return LoadTestConfig.saturating(
            seed=int(seed),
            duration_s=self.duration_s if duration_s is None
            else duration_s).serve

    def build(self, config):
        """A pump with its chains built and kernels compiled.

        Only public calls: ``ChainPool.entry`` builds each chain the
        sessions will use and ``make_siso_chain`` compiles its spectral
        kernel into the shared cache.  No frame is processed, so the
        event digest is the one ``run_once`` produces.
        """
        from repro.service import server

        # Looked up on its module so the traced run's shim sees it.
        pump, tel = server.build_service(config)
        pool = pump.scheduler.pool
        keys = sorted({s.chain_key for s in pump.sessions})
        chains = [pool.entry(key).relay.make_siso_chain() for key in keys]
        return pump, tel, chains

    def setup(self, seed):
        pump, tel, chains = self.build(self.config(self.seed_for(seed, 0)))
        return {"seed": int(seed), "chains": chains}

    def chains(self, state):
        return state["chains"]

    @staticmethod
    def seed_for(seed, i):
        """Units 0 and 1 share a seed: their digests must agree."""
        return _seed_int(seed, max(i - 1, 0))

    def run_pump(self, config, clock, tracer=None, tag=0):
        """Build and run one pump; returns a :class:`Unit` of its ticks."""
        from repro.telemetry import use_collector

        (pump, tel, _), *setup = clock.time(self.build, config)
        host, ref = [], []
        step = pump.step

        def timed_step(now_s=None):
            if tracer is not None:
                tracer.op = f"{tag}/{len(host)}"
            served, host_s, ref_s = clock.time(step, now_s)
            host.append(host_s)
            ref.append(ref_s)
            return served

        pump.step = timed_step
        with use_collector(tel):
            pump.run()
        sched = pump.scheduler
        problems = []
        try:
            sched.check_conservation()
        except AssertionError as exc:
            problems.append(f"conservation: {exc}")
        unclosed = sum(1 for s in pump.sessions
                       if s.state.value not in ("closed", "rejected"))
        if unclosed:
            problems.append(f"{unclosed} sessions left open")
        stats = {"seed": config.seed, "problems": problems,
                 "virtual_s": pump.now_s, "offered": sched.offered,
                 "processed": sched.processed, "shed": sched.shed,
                 "rejected": sched.rejected_frames,
                 "queue_wait_s": list(sched.queue_wait_s),
                 "tick_s": pump.config.tick_s}
        return Unit(host, ref, len(host), 0, output=sched.event_digest(),
                    setup=[tuple(setup)], stats=stats)

    def unit(self, state, i, clock, tracer=None):
        return self.run_pump(self.config(self.seed_for(state["seed"], i)),
                             clock, tracer=tracer, tag=i)

    def reference_check(self, reference, clock):
        """The reference-seed run must reproduce the recorded digest."""
        ref = reference[self.name]
        unit = self.run_pump(self.config(ref["seed"], ref["duration_s"]),
                             clock)
        problems = list(unit.stats["problems"])
        if unit.output != ref["event_digest"]:
            problems.append(f"reference event digest {unit.output} != "
                            f"recorded {ref['event_digest']}")
        return {"problems": problems}

    @staticmethod
    def summary(units):
        """Determinism and per-run checks over the measured pumps."""
        problems = []
        by_seed = {}
        for unit in units:
            problems.extend(unit.stats["problems"])
            by_seed.setdefault(unit.stats["seed"], set()).add(unit.output)
        for seed, digests in by_seed.items():
            if len(digests) != 1:
                problems.append(f"seed {seed}: same-seed runs gave "
                                f"{len(digests)} different event digests")
        stats = [u.stats for u in units]
        virtual_s = sum(s["virtual_s"] for s in stats)
        offered = sum(s["offered"] for s in stats)
        lost = sum(s["shed"] + s["rejected"] for s in stats)
        tick_s = stats[0]["tick_s"]
        waits = [w for s in stats for w in s["queue_wait_s"]]
        out = {"problems": problems,
               "error_rate": lost / offered if offered else 0.0,
               "frames_processed": sum(s["processed"] for s in stats),
               "frames_shed": sum(s["shed"] for s in stats),
               "queue_wait_p99_ms": (float(np.percentile(waits, 99)) * 1e3
                                     if waits else 0.0)}
        for kind in ("host", "ref"):
            ticks = [t for u in units for t in getattr(u, f"{kind}_s")]
            out[kind] = {
                "realtime_factor": virtual_s / sum(ticks),
                "late_tick_rate": sum(t > tick_s for t in ticks) / len(ticks),
            }
        return out


# ---------------------------------------------------------------------------
# phy
# ---------------------------------------------------------------------------

class Phy:
    """1500-byte packets over the sample-level relay link."""

    name = "phy-relay-link"
    op = "packet"
    min_units = 1
    probe_fft = False
    modules = ("numpy", "scipy", "repro.netsim.link")
    nominal_units_per_s = 4.0
    time_bounded = True
    #: Fig. 1 home client where the direct link fails and the relayed
    #: link decodes: the paper's dead-spot case.
    client_m = (4.0, 6.0)
    #: Fixed channel draw (the seed varies payloads and noise only).
    channel_seed = 9
    channel_taps = 3
    mcs_index = 2
    payload_bits = 1500 * 8

    def setup(self, seed):
        from repro.channel import PropagationModel, fig1_home
        from repro.netsim.link import SampleLevelLink
        from repro.phy import WIFI_20MHZ

        plan, ap, relay_pos = fig1_home()
        propagation = PropagationModel(plan, rms_delay_spread_s=30e-9)
        client = np.asarray(self.client_m)
        rng = np.random.default_rng(self.channel_seed)
        channels = [propagation.siso_channel(
            a, b, WIFI_20MHZ.sample_period_s, num_taps=self.channel_taps,
            rng=rng) for a, b in ((ap, client), (ap, relay_pos),
                                  (relay_pos, client))]
        link = SampleLevelLink(*channels, params=WIFI_20MHZ,
                               mcs_index=self.mcs_index)
        relay = link.build_relay()
        return {"seed": int(seed), "link": link, "relay": relay,
                "chains": [relay.make_siso_chain()]}

    def chains(self, state):
        return state["chains"]

    def packet(self, seed, i):
        """Payload bits and the noise generator of packet ``i``."""
        rng = np.random.default_rng([int(seed), i])
        return rng.integers(0, 2, self.payload_bits), rng

    def unit(self, state, i, clock, tracer=None):
        bits, rng = self.packet(state["seed"], i)
        result, host_s, ref_s = clock.time(state["link"].run, bits, rng,
                                           relay=state["relay"])
        ok = result.success and result.bit_errors == 0
        return Unit([host_s], [ref_s], 1, int(not ok),
                    output=(ok, result.bit_errors, result.failure_reason))

    def reference_check(self, reference, clock):
        """The dead spot: direct fails, the relayed packet decodes."""
        state = self.setup(REFERENCE_SEED)
        problems = []
        bits, rng = self.packet(REFERENCE_SEED, 0)
        direct = state["link"].run(bits, rng)
        if direct.success:
            problems.append("direct link decoded at the dead-spot client")
        relayed = self.unit(state, 0, clock)
        if relayed.failed:
            problems.append(f"relayed reference packet failed: "
                            f"{relayed.output}")
        return {"problems": problems}

    @staticmethod
    def summary(units):
        return {}


WORKLOADS = {
    "netsim-mimo": lambda: Netsim("netsim-mimo", "overall_gains_experiment",
                                  "netsim.overall-gains-client"),
    "netsim-siso": lambda: Netsim("netsim-siso", "siso_gains_experiment",
                                  "netsim.siso-gains-client"),
    "service-saturated": Service,
    "phy-relay-link": Phy,
}


def make(name, scale="full"):
    """The workload ``name``; ``scale="tiny"`` shrinks service runs."""
    workload = WORKLOADS[name]()
    if scale == "tiny" and isinstance(workload, Service):
        workload.duration_s = 0.1
    return workload
