"""Span-tree reconstruction from recorded telemetry spans.

``repro.telemetry`` spans are flat records; this module rebuilds the
exact call forest so profiling can reason about *structure*: self time
vs total time per node, collapsed call stacks for flamegraphs, and the
critical path of a sweep.

Records carry an ``id``/``parent`` pair (per-thread open-span stacks)
which gives exact reconstruction.  A lane with a record that lacks
either key is rejected with a :class:`ValueError` naming the lane and
the span, rather than rebuilt into a guessed tree.

Terminology:

* **lane** — one ``(origin, pid, tid)`` stream of spans; spans in
  different lanes ran concurrently (worker shards, threads).
* **total time** — a span's own wall duration (``dur_ns``).
* **self time** — total minus the duration of its direct children;
  the time the node spent *not* delegating.
"""

from __future__ import annotations


class SpanNode:
    """One reconstructed span with its children."""

    __slots__ = ("name", "labels", "ts_ns", "dur_ns", "origin", "pid",
                 "tid", "children")

    def __init__(self, record, origin="main"):
        self.name = str(record.get("name", "?"))
        self.labels = dict(record.get("labels", {}))
        self.ts_ns = int(record.get("ts_ns", 0))
        self.dur_ns = int(record.get("dur_ns", 0))
        self.origin = str(record.get("origin", origin))
        self.pid = int(record.get("pid", 0))
        self.tid = int(record.get("tid", 0))
        self.children = []

    @property
    def end_ns(self):
        return self.ts_ns + self.dur_ns

    @property
    def total_ns(self):
        """The span's own wall duration."""
        return self.dur_ns

    @property
    def self_ns(self):
        """Wall time not spent in direct children (never negative)."""
        return max(self.dur_ns - sum(c.dur_ns for c in self.children), 0)

    def walk(self):
        """Yield this node then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def lane(self):
        return (self.origin, self.pid, self.tid)

    def __repr__(self):
        return (f"SpanNode({self.name!r}, dur_ns={self.dur_ns}, "
                f"children={len(self.children)})")


def _lane_key(record, default_origin):
    return (str(record.get("origin", default_origin)),
            int(record.get("pid", 0)), int(record.get("tid", 0)))


def _build_lane_exact(records, origin):
    """Rebuild one lane from recorded ``id``/``parent`` links."""
    nodes = {rec["id"]: SpanNode(rec, origin) for rec in records}
    roots = []
    for rec in records:
        node = nodes[rec["id"]]
        parent = rec.get("parent")
        if parent is not None and parent in nodes:
            nodes[parent].children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.ts_ns, -n.dur_ns))
    roots.sort(key=lambda n: (n.ts_ns, -n.dur_ns))
    return roots


def build_span_trees(payload):
    """Rebuild the span forest of a telemetry payload.

    Accepts a collector, a live payload dict, or a
    :func:`repro.telemetry.export.read_jsonl` round-trip.  Returns the
    list of root :class:`SpanNode`, ordered by lane then start time.
    Raises :class:`ValueError` for a record without ``id``/``parent``
    links.
    """
    if hasattr(payload, "payload"):
        payload = payload.payload()
    default_origin = payload.get("origin", "main")
    lanes = {}
    for rec in payload.get("spans", ()):
        lanes.setdefault(_lane_key(rec, default_origin), []).append(rec)
    roots = []
    for key in sorted(lanes):
        records = lanes[key]
        for rec in records:
            if rec.get("id") is None or "parent" not in rec:
                raise ValueError(
                    f"span {rec.get('name', '?')!r} in lane {key} has no "
                    f"id/parent link; span trees need records from the "
                    f"current telemetry recorder")
        roots.extend(_build_lane_exact(records, key[0]))
    return roots


# ---------------------------------------------------------------------------
# Collapsed stacks (flamegraph folded format)
# ---------------------------------------------------------------------------

def collapsed_stacks(roots, weight="self"):
    """Fold a span forest into ``{"a;b;c": nanoseconds}`` stacks.

    The classic flamegraph folded format: one entry per distinct root →
    … → node path, semicolon-joined, weighted by **self time** (so the
    folded weights sum exactly to the forest's total root duration —
    the representation is lossless in time).  ``weight="total"`` folds
    every node by its own duration instead (stacks then overlap).
    """
    if weight not in ("self", "total"):
        raise ValueError(f"weight must be 'self' or 'total', got {weight!r}")
    stacks = {}

    def fold(node, prefix):
        path = f"{prefix};{node.name}" if prefix else node.name
        ns = node.self_ns if weight == "self" else node.total_ns
        if ns or not node.children:
            stacks[path] = stacks.get(path, 0) + ns
        for child in node.children:
            fold(child, path)

    for root in roots:
        fold(root, "")
    return stacks


def write_collapsed(stacks, path):
    """Write folded stacks in the ``stackcollapse`` text format.

    One ``path count`` line per stack (counts in nanoseconds), sorted,
    loadable by external flamegraph tooling.  Returns the line count.
    """
    lines = [f"{stack} {ns}" for stack, ns in sorted(stacks.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------

def critical_path(roots):
    """The chain of spans that bounds end-to-end wall time.

    Across lanes the slowest root dominates completion (lanes run
    concurrently), so the path starts at the root with the largest
    duration and descends, at every level, into the child with the
    largest duration.  Returns the list of nodes root → leaf.
    """
    if not roots:
        return []
    node = max(roots, key=lambda n: (n.dur_ns, n.ts_ns))
    path = [node]
    while node.children:
        node = max(node.children, key=lambda n: (n.dur_ns, n.ts_ns))
        path.append(node)
    return path


def top_path_stages(path, n=3):
    """The ``n`` critical-path nodes with the most *self* time.

    Returns ``(name, self_ns, total_ns)`` rows, largest first — the
    "where to attack first" list a perf PR argues with.
    """
    ranked = sorted(path, key=lambda node: node.self_ns, reverse=True)
    return [(node.name, node.self_ns, node.total_ns) for node in ranked[:n]]


__all__ = ["SpanNode", "build_span_trees", "collapsed_stacks",
           "write_collapsed", "critical_path", "top_path_stages"]
