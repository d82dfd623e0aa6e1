"""Profile verdict: where a sweep's wall time actually goes.

A parallel sweep's speedup over serial (``BENCH_sweep.json``) is an
argument only once its wall time is attributed.  The telemetry for
that is ``exec.sweep`` / ``exec.shard`` spans, ``exec.task.wall_ns``
per task and ``runtime.stage.wall_ns`` per PHY stage.  This module
folds all of it into one attribution of the driver's measured wall
time:

* **inline probe** — the ``chunk_size="auto"`` probe chunk the driver
  runs itself before dispatch;
* **worker busy** — the shard lanes' ``exec.shard`` spans, split into
  task compute (``exec.task.wall_ns``) and the residual per-chunk loop
  overhead;
* **dispatch gap** — wall time no recorded span explains: process
  startup, pickle transport, future scheduling, result merge.  This is
  what a parallel backend pays on top of its workers.

Worker lanes run concurrently, so lane time maps onto driver wall
through an *estimated concurrency* — observed lane busy divided by the
wall left after the inline probe, clamped to ``[1, min(jobs, lanes)]``.
When the clamp binds at 1 (single-CPU machines) the gap is exactly the
serial overhead the sweep added; when it binds at ``jobs`` the workers
were saturated and the gap is transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tree import (
    build_span_trees,
    collapsed_stacks,
    critical_path,
    top_path_stages,
)


def _as_payload(payload_or_collector):
    if hasattr(payload_or_collector, "payload"):
        return payload_or_collector.payload()
    return payload_or_collector


def _hist_points(payload, name):
    """Every histogram snapshot dict of metric ``name``."""
    return [item for item in payload.get("histograms", ())
            if item.get("name") == name]


def _hist_total(payload, name):
    return float(sum(item.get("total", 0.0)
                     for item in _hist_points(payload, name)))


@dataclass
class ProfileReport:
    """One sweep profile: attribution, trees, critical path, verdict."""

    wall_ns: float
    backend: str
    jobs: int
    lanes: int
    attribution: dict
    concurrency: float
    coverage: float
    critical_path: list = field(default_factory=list)
    top_stages: list = field(default_factory=list)
    stage_table: list = field(default_factory=list)
    shards: list = field(default_factory=list)
    stacks: dict = field(default_factory=dict)

    def as_dict(self):
        """JSON-able view (drops the node objects, keeps the numbers)."""
        return {
            "wall_ns": self.wall_ns, "backend": self.backend,
            "jobs": self.jobs, "lanes": self.lanes,
            "attribution": dict(self.attribution),
            "concurrency": self.concurrency, "coverage": self.coverage,
            "critical_path": [node.name for node in self.critical_path],
            "top_stages": [{"name": name, "self_ns": self_ns,
                            "total_ns": total_ns}
                           for name, self_ns, total_ns in self.top_stages],
            "stage_table": list(self.stage_table),
            "shards": list(self.shards),
        }

    def verdict_lines(self):
        """The human-readable 'where the time goes' summary."""
        ms = 1e6
        a = self.attribution
        wall = max(self.wall_ns, 1.0)
        busy = max(a["worker_busy_ns"], 1.0)
        lines = [
            f"sweep wall           : {self.wall_ns / ms:10.2f} ms "
            f"(backend={self.backend}, jobs={self.jobs}, "
            f"lanes={self.lanes})",
            f"inline probe chunk   : {a['probe_ns'] / ms:10.2f} ms "
            f"({100 * a['probe_ns'] / wall:.1f}% of wall)",
            f"worker busy          : {a['worker_busy_ns'] / ms:10.2f} ms "
            f"(est. concurrency {self.concurrency:.2f}x)",
            f"  task compute       : {a['task_compute_ns'] / ms:10.2f} ms "
            f"({100 * a['task_compute_ns'] / busy:.1f}% of busy)",
            f"  shard loop overhead: {a['shard_overhead_ns'] / ms:10.2f} ms",
            f"dispatch gap         : {a['gap_ns'] / ms:10.2f} ms "
            f"({100 * a['gap_ns'] / wall:.1f}% of wall — pool startup, "
            f"pickle transport, merge)",
            f"attribution coverage : {100 * self.coverage:.1f}% of "
            f"measured wall",
        ]
        if self.critical_path:
            chain = " > ".join(node.name for node in self.critical_path)
            lines.append(f"critical path        : {chain}")
        for i, (name, self_ns, total_ns) in enumerate(self.top_stages, 1):
            lines.append(f"  path stage #{i}      : {name:<24} "
                         f"self {self_ns / ms:9.2f} ms of "
                         f"{total_ns / ms:9.2f} ms")
        gap_pct = 100 * a["gap_ns"] / wall
        over_pct = 100 * a["shard_overhead_ns"] / wall
        lines.append(
            f"verdict              : {gap_pct:.1f}% of wall is engine "
            f"dispatch gap and {over_pct:.1f}% shard overhead; observed "
            f"concurrency {self.concurrency:.2f} of {self.jobs} requested "
            f"jobs")
        return lines


def _sweep_root(roots):
    """The driver's ``exec.sweep`` node, if the payload has one."""
    for root in roots:
        for node in root.walk():
            if node.name == "exec.sweep":
                return node
    return None


def _path_to(roots, target):
    """Root → … → ``target`` ancestor chain (inclusive), or ``[]``."""
    def descend(node, trail):
        trail = trail + [node]
        if node is target:
            return trail
        for child in node.children:
            found = descend(child, trail)
            if found:
                return found
        return None

    for root in roots:
        found = descend(root, [])
        if found:
            return found
    return []


def _shard_lanes(roots):
    """Split ``exec.shard`` spans into worker lanes and inline probes.

    The auto-chunk probe chunk runs inline in the driver thread — its
    time is serial driver wall, not concurrent worker time, so it is
    attributed whole rather than divided by the concurrency
    estimate.  Returns ``(workers, probes)``.
    """
    workers, probes = [], []
    for root in roots:
        for node in root.walk():
            if node.name == "exec.shard":
                if str(node.labels.get("shard")) == "probe":
                    probes.append(node)
                else:
                    workers.append(node)
    return workers, probes


def profile_payload(payload, cpus=None):
    """Build a :class:`ProfileReport` from a telemetry payload.

    ``payload`` is a collector, a live payload dict, or a JSONL
    round-trip.  ``cpus`` caps the concurrency estimate (defaults to
    no extra cap beyond the recorded job count — pass the machine's
    available CPUs when profiling a run recorded elsewhere).
    """
    payload = _as_payload(payload)
    roots = build_span_trees(payload)
    sweep = _sweep_root(roots)
    shards, probes = _shard_lanes(roots)

    if sweep is not None:
        wall_ns = float(sweep.dur_ns)
        backend = str(sweep.labels.get("backend", "?"))
        jobs = int(sweep.labels.get("jobs", 1) or 1)
    elif roots:
        # Generic payload (no sweep): profile the whole forest.
        wall_ns = float(max(r.dur_ns for r in roots))
        backend, jobs = "?", 1
    else:
        wall_ns, backend, jobs = 0.0, "?", 1

    task_compute_ns = _hist_total(payload, "exec.task.wall_ns")
    worker_busy_ns = float(sum(s.dur_ns for s in shards))
    probe_ns = float(sum(p.dur_ns for p in probes))

    lanes = len(shards)
    lane_cap = max(min(jobs, lanes) if lanes else 1, 1)
    if cpus is not None:
        lane_cap = max(min(lane_cap, int(cpus)), 1)
    post_probe_wall = max(wall_ns - probe_ns, 1.0)
    concurrency = worker_busy_ns / post_probe_wall if worker_busy_ns \
        else 1.0
    concurrency = min(max(concurrency, 1.0), float(lane_cap))

    worker_wall_ns = worker_busy_ns / concurrency if concurrency else 0.0
    attributed_ns = min(probe_ns + worker_wall_ns, wall_ns)
    gap_ns = max(wall_ns - attributed_ns, 0.0)
    coverage = attributed_ns / wall_ns if wall_ns else 0.0
    shard_overhead_ns = max(worker_busy_ns - task_compute_ns, 0.0)

    # Cross-shard critical path: the driver chain down to exec.sweep
    # (dispatch is synchronous, so the sweep bounds its ancestors),
    # then the slowest worker lane's own critical path.
    if sweep is not None:
        path = _path_to(roots, sweep) + critical_path(shards)
    else:
        path = critical_path(roots)

    stage_rows = []
    for item in _hist_points(payload, "runtime.stage.wall_ns"):
        stage_rows.append({"stage": item.get("labels", {}).get("stage", "?"),
                           "count": item.get("count", 0),
                           "total_ns": float(item.get("total", 0.0))})
    stage_rows.sort(key=lambda row: -row["total_ns"])

    shard_rows = [{"origin": s.origin,
                   "shard": s.labels.get("shard"),
                   "tasks": s.labels.get("tasks"),
                   "busy_ns": s.dur_ns,
                   "self_ns": s.self_ns}
                  for s in sorted(shards, key=lambda s: s.origin)]

    return ProfileReport(
        wall_ns=wall_ns, backend=backend, jobs=jobs, lanes=lanes,
        attribution={
            "probe_ns": probe_ns,
            "task_compute_ns": task_compute_ns,
            "worker_busy_ns": worker_busy_ns,
            "worker_wall_ns": worker_wall_ns,
            "shard_overhead_ns": shard_overhead_ns,
            "attributed_ns": attributed_ns,
            "gap_ns": gap_ns,
        },
        concurrency=concurrency, coverage=coverage,
        critical_path=path,
        top_stages=top_path_stages(path, n=3),
        stage_table=stage_rows[:8],
        shards=shard_rows,
        stacks=collapsed_stacks(roots))


__all__ = ["ProfileReport", "profile_payload"]
