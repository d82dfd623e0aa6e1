"""Span-tree reconstruction, folded stacks, critical path."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tree import (
    build_span_trees,
    collapsed_stacks,
    critical_path,
    top_path_stages,
    write_collapsed,
)
from repro.telemetry import TelemetryCollector
from repro.telemetry.export import read_jsonl, write_jsonl


def _record_forest(tel):
    """Two roots: a > (b, c > d), and e."""
    with tel.span("a"):
        with tel.span("b"):
            pass
        with tel.span("c"):
            with tel.span("d"):
                pass
    with tel.span("e"):
        pass
    return tel.payload()


def _shape(roots):
    """Preorder (name, child-count) list — tree-equality fingerprint."""
    out = []

    def visit(node):
        out.append((node.name, len(node.children)))
        for child in node.children:
            visit(child)

    for root in roots:
        visit(root)
    return out


class TestExactBuild:
    def test_rebuilds_nesting_from_parent_links(self):
        payload = _record_forest(TelemetryCollector())
        roots = build_span_trees(payload)
        assert _shape(roots) == [("a", 2), ("b", 0), ("c", 1), ("d", 0),
                                 ("e", 0)]

    def test_accepts_live_collector(self):
        tel = TelemetryCollector()
        _record_forest(tel)
        assert _shape(build_span_trees(tel)) == \
            _shape(build_span_trees(tel.payload()))

    def test_lanes_split_by_origin(self):
        worker = TelemetryCollector(origin="shard-0")
        with worker.span("exec.shard", shard=0):
            pass
        main = TelemetryCollector(origin="main")
        with main.span("exec.sweep"):
            pass
        main.merge(worker.payload())
        roots = build_span_trees(main)
        assert sorted(r.name for r in roots) == ["exec.shard", "exec.sweep"]
        lanes = {r.lane() for r in roots}
        assert len(lanes) == 2

    def test_self_time_is_total_minus_children(self):
        payload = _record_forest(TelemetryCollector())
        roots = build_span_trees(payload)
        a = roots[0]
        assert a.name == "a"
        assert a.self_ns == max(
            a.dur_ns - sum(c.dur_ns for c in a.children), 0)


class TestMissingLinks:
    def test_jsonl_without_links_names_lane_and_span(self, tmp_path):
        payload = _record_forest(TelemetryCollector(origin="old"))
        for rec in payload["spans"]:
            rec.pop("id", None)
            rec.pop("parent", None)
        path = tmp_path / "unlinked.jsonl"
        write_jsonl(payload, path)
        with pytest.raises(ValueError, match=r"span 'b' in lane \('old'"):
            build_span_trees(read_jsonl(path))


class TestCollapsedStacks:
    def test_self_weights_sum_to_root_total(self):
        payload = _record_forest(TelemetryCollector())
        roots = build_span_trees(payload)
        stacks = collapsed_stacks(roots)
        assert sum(stacks.values()) == sum(r.dur_ns for r in roots)

    def test_paths_are_semicolon_joined(self):
        payload = _record_forest(TelemetryCollector())
        stacks = collapsed_stacks(build_span_trees(payload))
        assert "a;c;d" in stacks

    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        payload = _record_forest(TelemetryCollector())
        direct = collapsed_stacks(build_span_trees(payload))
        path = tmp_path / "run.jsonl"
        write_jsonl(payload, path)
        round_tripped = collapsed_stacks(build_span_trees(read_jsonl(path)))
        assert round_tripped == direct

    def test_write_collapsed_format(self, tmp_path):
        stacks = {"a;b": 100, "a": 50}
        path = tmp_path / "folded.txt"
        assert write_collapsed(stacks, path) == 2
        assert path.read_text() == "a 50\na;b 100\n"

    def test_rejects_unknown_weight(self):
        with pytest.raises(ValueError):
            collapsed_stacks([], weight="bogus")


class TestCriticalPath:
    def test_follows_slowest_child(self):
        payload = _record_forest(TelemetryCollector())
        roots = build_span_trees(payload)
        path = critical_path(roots)
        assert path[0] is max(roots, key=lambda r: r.dur_ns)
        for parent, child in zip(path, path[1:]):
            assert child in parent.children
            assert child.dur_ns == max(c.dur_ns for c in parent.children)

    def test_empty_forest(self):
        assert critical_path([]) == []

    def test_top_stages_ranked_by_self_time(self):
        payload = _record_forest(TelemetryCollector())
        path = critical_path(build_span_trees(payload))
        stages = top_path_stages(path, n=3)
        assert len(stages) == min(3, len(path))
        selfs = [s for _, s, _ in stages]
        assert selfs == sorted(selfs, reverse=True)


class TestNestingProperty:
    """Reconstructed trees respect interval nesting per (pid, tid)."""

    @staticmethod
    def _drive(ops):
        """Replay open/close ops through a collector, return payload."""
        tel = TelemetryCollector()
        stack = []
        n = 0
        for op in ops:
            if op and len(stack) < 8:
                span = tel.span(f"s{n}")
                span.__enter__()
                stack.append(span)
                n += 1
            elif stack:
                stack.pop().__exit__(None, None, None)
        while stack:
            stack.pop().__exit__(None, None, None)
        return tel.payload()

    @given(ops=st.lists(st.booleans(), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_children_contained_in_parents(self, ops):
        payload = self._drive(ops)
        roots = build_span_trees(payload)
        seen = 0
        for root in roots:
            for node in root.walk():
                seen += 1
                for child in node.children:
                    assert node.ts_ns <= child.ts_ns
                    assert child.end_ns <= node.end_ns
        assert seen == len(payload["spans"])
