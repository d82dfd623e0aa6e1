"""Per-layer spans for the traced run, recorded from the benchmark's side.

The program is not edited: for the traced run only, :class:`Tracer`
installs shims that wrap a public name *where its caller looks it up*
(``repro.core.relay.mimo_cnf_filter`` is the name ``FastForwardRelay``
calls; ``FastForwardRelay.process`` is looked up on the class by every
caller).  Each shim records one :class:`repro.telemetry` span with
name, start, end and parent into a private collector that is never
installed as the ambient one, so the program's own telemetry behaves
exactly as in the untraced run.  Every span carries the index of the
operation (client, tick or packet) it belongs to.  Spans stay in
memory until :meth:`Tracer.layer_times` reduces them and
:meth:`Tracer.write` saves them as telemetry JSONL (readable by
``repro obs`` tooling).
"""

from __future__ import annotations

import functools
import importlib

#: ``(module, attribute, span name)``.  A dotted attribute patches a
#: class, so instance lookups from every caller see the shim.
SHIMS = (
    # repro.core: Eq. 2 solve, §3.4 split, link configuration, relaying.
    ("repro.core.relay", "mimo_cnf_filter", "core.cnf_solve"),
    ("repro.core.relay", "band_phase_alignment", "core.band_phase"),
    ("repro.core.relay", "decompose_cnf_filter", "core.decompose"),
    ("repro.core.relay", "FastForwardRelay.configure_siso_link",
     "core.configure"),
    ("repro.core.relay", "FastForwardRelay.configure_mimo_link",
     "core.configure"),
    ("repro.core.relay", "FastForwardRelay.process", "core.relay_process"),
    # repro.runtime: kernel compilation behind the public chain factory.
    ("repro.core.relay", "FastForwardRelay.make_siso_chain",
     "runtime.compile"),
    # repro.netsim: rate mapping, the sample-level PHY link.
    ("repro.netsim.experiments", "ap_only_mimo_rate", "netsim.rate_map"),
    ("repro.netsim.experiments", "ap_only_siso_rate", "netsim.rate_map"),
    ("repro.netsim.experiments", "ff_mimo_rate", "netsim.rate_map"),
    ("repro.netsim.experiments", "ff_siso_rate", "netsim.rate_map"),
    ("repro.netsim.experiments", "usable_streams", "netsim.rate_map"),
    ("repro.netsim.link", "SampleLevelLink.run", "netsim.link_run"),
    ("repro.netsim.link", "SampleLevelLink.build_relay",
     "netsim.link_build"),
    # repro.exec: the sweep engine (task spans come from _task_shim).
    ("repro.exec", "run_sweep", "exec.sweep"),
    # repro.channel: drawing channels and applying them to samples.
    ("repro.channel.raytrace", "PropagationModel.siso_channel",
     "channel.draw"),
    ("repro.channel.raytrace", "PropagationModel.mimo_link", "channel.draw"),
    ("repro.channel.multipath", "MultipathChannel.frequency_response",
     "channel.draw"),
    ("repro.channel.mimo_channel", "MimoLink.frequency_response",
     "channel.draw"),
    ("repro.channel.multipath", "MultipathChannel.apply_trimmed",
     "channel.apply"),
    # repro.service, repro.supervision, repro.obs: the pump.
    ("repro.service.server", "build_service", "service.build"),
    ("repro.service.server", "ServicePump.step", "service.tick"),
    ("repro.service.server", "ServicePump.drain", "service.drain"),
    ("repro.service.scheduler", "ServiceScheduler.offer", "service.offer"),
    ("repro.service.scheduler", "ServiceScheduler.dispatch",
     "service.dispatch"),
    ("repro.supervision.supervisor", "RelaySupervisor.step",
     "supervision.advance"),
    ("repro.obs.slo", "SloEngine.evaluate", "obs.slo_eval"),
    # repro.phy: modulate, receive, Viterbi.
    ("repro.phy.transceiver", "Transmitter.transmit", "phy.transmit"),
    ("repro.phy.transceiver", "Receiver.receive", "phy.receive"),
    ("repro.phy.coding.viterbi", "ViterbiDecoder.decode", "phy.decode"),
    ("repro.phy.coding.viterbi", "ViterbiDecoder.decode_batch",
     "phy.decode"),
)

#: The executor resolves task functions by name here; the shim wraps
#: what it returns, giving one ``exec.task`` span per client task.
TASK_LOOKUP = ("repro.exec.executor", "resolve_task_fn")

NS = 1e-9


class Tracer:
    """Installs the shims and collects their spans for one traced phase."""

    def __init__(self):
        from repro.telemetry import TelemetryCollector

        self.collector = TelemetryCollector(origin="perfbench")
        #: Index of the operation the next spans belong to.
        self.op = -1
        self._undo = []

    def _wrap(self, fn, name):
        span = self.collector.span

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            with span(name, op=self.op):
                return fn(*args, **kwargs)

        return shim

    def _task_shim(self, resolve):
        @functools.wraps(resolve)
        def shim(name):
            fn, version = resolve(name)
            return self._wrap(fn, "exec.task"), version

        return shim

    def _patch(self, owner, attr, value):
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, had, old))

    def __enter__(self):
        for module, path, name in SHIMS:
            owner = importlib.import_module(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        module, attr = TASK_LOOKUP
        owner = importlib.import_module(module)
        self._patch(owner, attr, self._task_shim(getattr(owner, attr)))
        return self

    def __exit__(self, exc_type, exc, tb):
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        return False

    # -- reduction ---------------------------------------------------------

    def layer_times(self):
        """``{span name: (calls, busy_s, self_s)}`` over the recorded forest.

        ``busy_s`` sums the durations of spans not nested inside a span
        of the same name; ``self_s`` sums each span's duration minus the
        part covered by its direct children (:attr:`SpanNode.self_ns`).
        """
        from repro.obs.tree import build_span_trees

        out = {}

        def visit(node, open_names):
            calls, busy, own = out.get(node.name, (0, 0, 0))
            outermost = node.name not in open_names
            out[node.name] = (calls + 1,
                              busy + (node.dur_ns if outermost else 0),
                              own + node.self_ns)
            inner = open_names | {node.name}
            for child in node.children:
                visit(child, inner)

        for root in build_span_trees(self.collector):
            visit(root, frozenset())
        return {name: (calls, busy * NS, own * NS)
                for name, (calls, busy, own) in out.items()}

    def write(self, path):
        """Save the recorded spans as telemetry JSONL at ``path``."""
        from repro.telemetry import write_jsonl

        path.parent.mkdir(parents=True, exist_ok=True)
        write_jsonl(self.collector, path)
        return path
