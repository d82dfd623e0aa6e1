#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload netsim-mimo --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs a fixed list of operations twice — untraced, then
traced through the shims of :mod:`perfbench.tracing` — and reports the
per-layer metrics plus the tracing overhead; its spans are written to
``.perfbench/``.  Every run first checks the program against the stored
references in ``reference.json``.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the full record (machine, versions, named metrics,
checks).  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".perfbench"

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
#: An operation is a client (netsim), a tick (service) or a packet (phy).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit)`` of the per-layer metrics of the traced run.
PER_LAYER = (
    ("core.cnf_solve.calls", "count"),
    ("core.cnf_solve.busy_s", "s"),
    ("core.band_phase.busy_s", "s"),
    ("core.decompose.calls", "count"),
    ("core.decompose.busy_s", "s"),
    ("core.configure.busy_s", "s"),
    ("core.relay_process.calls", "count"),
    ("core.relay_process.busy_s", "s"),
    ("runtime.kernel_taps", "taps"),
    ("runtime.lookahead_samples", "samples"),
    ("runtime.fft_size", "samples"),
    ("runtime.kernel_cache.misses", "count"),
    ("netsim.rate_map.calls", "count"),
    ("netsim.rate_map.busy_s", "s"),
    ("exec.tasks", "count"),
    ("exec.overhead_s", "s"),
    ("channel.draw.busy_s", "s"),
    ("channel.apply.busy_s", "s"),
    ("service.offer.busy_s", "s"),
    ("service.dispatch.self_s", "s"),
    ("service.frames_processed", "count"),
    ("service.frames_shed", "count"),
    ("service.queue_wait_p99_ms", "ms"),
    ("supervision.advance.busy_s", "s"),
    ("obs.slo_eval.busy_s", "s"),
    ("phy.transmit.busy_s", "s"),
    ("phy.receive.busy_s", "s"),
    ("phy.decode.calls", "count"),
    ("phy.decode.busy_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "share"),
)

#: Per-layer counts that repeat exactly for a given seed and ``--seconds``
#: (the traced run executes a fixed operation list), so a later change
#: can cite them as counts rather than timings.
EXACT_COUNTS = (
    "core.cnf_solve.calls", "core.decompose.calls",
    "core.relay_process.calls", "runtime.kernel_taps",
    "runtime.lookahead_samples", "runtime.fft_size",
    "runtime.kernel_cache.misses", "netsim.rate_map.calls", "exec.tasks",
    "service.frames_processed", "service.frames_shed",
    "service.queue_wait_p99_ms", "phy.decode.calls",
)


def tail_percentile(n):
    """The highest percentile (0.1 steps) with >= 10 samples beyond it."""
    if n < 20:
        return 50.0
    return math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0


def timing(samples_s):
    """Median, tail percentile and tail value (ms) of host times."""
    import numpy as np

    pct = tail_percentile(len(samples_s))
    p50, tail = np.percentile(np.asarray(samples_s) * 1e3, (50, pct))
    return float(p50), pct, float(tail)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha():
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over ``src/**/*.py``: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine():
    import numpy
    import scipy

    return {"available_cpus": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": git_sha(), "source_sha256": source_digest()}


#: Fresh interpreters that time the workload's imports for ``setup_s``.
IMPORT_REPEATS = 3
_IMPORT_CODE = """
import importlib, sys, time
t0 = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
host_s = time.perf_counter() - t0
from perfbench.calibrate import SpeedClock
clock = SpeedClock()
for _ in range(9):
    clock.probe()
print(host_s, host_s * clock.speed)
"""


def import_times(workload):
    """``(host_s, ref_s)`` of the workload's imports in fresh interpreters.

    A process imports only once, so repeating set-up in one run means
    repeating the imports in child interpreters (each waited for).  Each
    child rescales its own import time by the median of ten speed probes
    run right after it, on the CPU it ran on.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    pairs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_CODE, *workload.modules],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        host_s, ref_s = map(float, proc.stdout.split())
        pairs.append((host_s, ref_s))
    return pairs


def start(workload):
    """Import the workload's modules; returns its speed clock."""
    for module in workload.modules:
        importlib.import_module(module)
    from perfbench.calibrate import SpeedClock

    return SpeedClock(fft=workload.probe_fft)


def timed_setups(workload, seed, clock):
    """``SETUP_REPEATS`` timed set-ups: the last state, ``(host_s, ref_s)``s."""
    from perfbench.workloads import SETUP_REPEATS

    setups = []
    for _ in range(SETUP_REPEATS):
        state, host_s, ref_s = clock.time(workload.setup, seed)
        setups.append((host_s, ref_s))
    return state, setups


def reference_checks(workload, clock):
    return workload.reference_check(json.loads(REFERENCE.read_text()), clock)


def measure(workload, seed, seconds):
    """The untraced run: operations for ``seconds`` of host time.

    A workload that is not ``time_bounded`` runs a fixed number of units
    instead, ``nominal_units_per_s`` per second of ``seconds``.
    """
    clock = start(workload)
    imports = import_times(workload)
    state, setups = timed_setups(workload, seed, clock)
    checks = reference_checks(workload, clock)
    fixed = None if workload.time_bounded else max(
        workload.min_units, round(seconds * workload.nominal_units_per_s))
    units = []
    t0 = time.perf_counter()
    while len(units) < (fixed or workload.min_units) or (
            not fixed and time.perf_counter() - t0 < seconds):
        units.append(workload.unit(state, len(units), clock))
    window_s = time.perf_counter() - t0
    setups += [pair for unit in units for pair in unit.setup]
    summary = workload.summary(units)
    problems = checks.pop("problems") + summary.pop("problems", [])
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    rss = peak_rss_mb()
    op = workload.op

    def figures(kind):
        """End-to-end and named metrics from ``host`` or ``ref`` times."""
        k = ("host", "ref").index(kind)
        ops = [t for unit in units for t in getattr(unit, f"{kind}_s")]
        p50, pct, tail = timing(ops)
        setup_s = (statistics.median(s[k] for s in imports)
                   + statistics.median(s[k] for s in setups))
        metrics = {"setup_s": setup_s, "ops_per_s": len(ops) / sum(ops),
                   "op_p50_ms": p50, "op_tail_ms": tail, "peak_rss_mb": rss}
        named = {"setup_s": setup_s, f"{op}_p50_ms": p50,
                 f"{op}_tail_ms": tail, "peak_rss_mb": rss,
                 "error_rate": summary.get("error_rate",
                                           failed / attempted)}
        if kind in summary:                 # the service's own figures
            named.update(summary[kind])
        else:
            named[f"{op}s_per_s"] = metrics["ops_per_s"]
        return metrics, named, pct, len(ops)

    metrics, named, pct, samples = figures("ref")
    _, host_named, _, _ = figures("host")
    record = {"op": op, "samples": samples, "tail_percentile": pct,
              "units": len(units), "window_s": window_s,
              "host_speed": clock.speed, "named_metrics": named,
              "host_metrics": host_named,
              "import_samples_s": [s[0] for s in imports],
              "setup_samples_s": [s[0] for s in setups], **checks}
    return record, problems, attempted, failed, metrics


def traced(workload, seed, seconds):
    """The traced run: a fixed operation list, untraced then traced.

    Per-layer times are rescaled to reference seconds by the traced
    phase's mean host speed; ``trace.overhead`` compares the two
    phases' walls, each rescaled by its own mean speed.
    """
    from perfbench.tracing import Tracer
    from perfbench.workloads import runtime_counts
    from repro.runtime.kernels import kernel_cache

    n = max(workload.min_units,
            round(seconds / 3.0 * workload.nominal_units_per_s))
    clock = start(workload)
    timed_setups(workload, seed, clock)     # lazy first-use costs
    checks = reference_checks(workload, clock)
    problems = checks.pop("problems")

    def phase(tracer=None):
        """Set-up plus the ``n`` units; returns (state, units, wall, scale)."""
        probed = clock.probe_s
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.op = "setup"
        state, host_s, ref_s = clock.time(workload.setup, seed)
        units = []
        for i in range(n):
            if tracer is not None:
                tracer.op = i
            units.append(workload.unit(state, i, clock, tracer))
        wall = time.perf_counter() - t0 - (clock.probe_s - probed)
        pairs = [(host_s, ref_s)] + [p for u in units for p in u.setup] \
            + [p for u in units for p in zip(u.host_s, u.ref_s)]
        scale = sum(r for _, r in pairs) / sum(h for h, _ in pairs)
        return state, units, wall, scale

    _, plain, wall_plain, scale_plain = phase()
    misses = kernel_cache().stats().misses
    with Tracer() as tracer:
        state, units, wall, scale = phase(tracer)
    misses = kernel_cache().stats().misses - misses

    if [u.output for u in units] != [u.output for u in plain]:
        problems.append("traced and untraced runs of the same inputs "
                        "returned different outputs")
    summary = workload.summary(units)
    problems += summary.pop("problems", [])
    layers = tracer.layer_times()

    def get(name, i):
        value = layers.get(name, (0, 0.0, 0.0))[i]
        return value if i == 0 else value * scale

    covered = sum(own for _, _, own in layers.values())
    metrics = {
        "core.cnf_solve.calls": get("core.cnf_solve", 0),
        "core.cnf_solve.busy_s": get("core.cnf_solve", 1),
        "core.band_phase.busy_s": get("core.band_phase", 1),
        "core.decompose.calls": get("core.decompose", 0),
        "core.decompose.busy_s": get("core.decompose", 1),
        "core.configure.busy_s": get("core.configure", 1),
        "core.relay_process.calls": get("core.relay_process", 0),
        "core.relay_process.busy_s": get("core.relay_process", 1),
        **runtime_counts(workload.chains(state)),
        "runtime.kernel_cache.misses": misses,
        "netsim.rate_map.calls": get("netsim.rate_map", 0),
        "netsim.rate_map.busy_s": get("netsim.rate_map", 1),
        "exec.tasks": get("exec.task", 0),
        "exec.overhead_s": get("exec.sweep", 1) - get("exec.task", 1),
        "channel.draw.busy_s": get("channel.draw", 1),
        "channel.apply.busy_s": get("channel.apply", 1),
        "service.offer.busy_s": get("service.offer", 1),
        "service.dispatch.self_s": get("service.dispatch", 2),
        "service.frames_processed": summary.get("frames_processed", 0),
        "service.frames_shed": summary.get("frames_shed", 0),
        "service.queue_wait_p99_ms": summary.get("queue_wait_p99_ms", 0.0),
        "supervision.advance.busy_s": get("supervision.advance", 1),
        "obs.slo_eval.busy_s": get("obs.slo_eval", 1),
        "phy.transmit.busy_s": get("phy.transmit", 1),
        "phy.receive.busy_s": get("phy.receive", 1),
        "phy.decode.calls": get("phy.decode", 0),
        "phy.decode.busy_s": get("phy.decode", 1),
        "trace.overhead": (wall * scale) / (wall_plain * scale_plain) - 1.0,
        "trace.coverage": covered / wall,
    }
    path = tracer.write(TRACE_DIR / f"trace-{workload.name}-seed{seed}.jsonl")
    self_s = {name: own for name, (_, _, own) in layers.items()}
    record = {"op": workload.op, "units": n, "traced_wall_s": wall,
              "untraced_wall_s": wall_plain, "host_speed": clock.speed,
              "hot_layer": max(self_s, key=self_s.get),
              "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])),
              "spans": len(tracer.collector.spans),
              "exact_counts": list(EXACT_COUNTS),
              "trace_file": str(path.relative_to(ROOT)), **checks}
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    return record, problems, attempted, failed, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks service runs (smoke tests)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program source {SRC / 'repro'} not found",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # One process, one thread: no BLAS/OpenMP pool competes for the CPUs.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.scale)
    run = traced if args.trace else measure
    record, problems, attempted, failed, values = run(
        workload, args.seed, args.seconds)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale, "machine": machine(), **record,
              "problems": problems}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
