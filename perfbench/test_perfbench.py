"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about two minutes: every workload runs once untraced and once traced
at tiny size).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.workloads import Unit

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Named end-to-end metrics each workload prints in its record line.
NAMED = {
    "netsim-mimo": ("clients_per_s", "client_p50_ms", "client_tail_ms"),
    "netsim-siso": ("clients_per_s", "client_p50_ms", "client_tail_ms"),
    "service-saturated": ("realtime_factor", "tick_p50_ms", "tick_tail_ms",
                          "late_tick_rate"),
    "phy-relay-link": ("packets_per_s", "packet_p50_ms", "packet_tail_ms"),
}
HOT_LAYER = {"netsim-mimo": "core.cnf_solve",
             "netsim-siso": "core.decompose",
             "service-saturated": "core.relay_process",
             "phy-relay-link": "phy.decode"}


def bench(*args, cwd=ROOT, timeout=300):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout.splitlines()


_RUNS = {}


def tiny_run(workload, trace, seed=3):
    """One cached tiny-size run: (exit code, record, result line).

    Traced runs get 3 s, enough operations for the hot layer to
    outweigh set-up.
    """
    key = (workload, trace, seed)
    if key not in _RUNS:
        code, lines = bench("--workload", workload, "--seed", seed,
                            "--seconds", 3 if trace else 1,
                            "--trace", trace, "--scale", "tiny")
        _RUNS[key] = (code, json.loads(lines[-2]), json.loads(lines[-1]))
    return _RUNS[key]


# -- the command's contract ---------------------------------------------------

def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] \
        == list(run.PER_LAYER)
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    assert set(run.EXACT_COUNTS) <= set(dict(run.PER_LAYER))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    code, record, result = tiny_run(workload, trace)
    assert code == 0, record["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert record["machine"]["available_cpus"] >= 1
    assert {"python", "numpy", "scipy", "git_sha"} <= set(record["machine"])
    if not trace:
        named = record["named_metrics"]
        for name in NAMED[workload] + ("setup_s", "error_rate",
                                       "peak_rss_mb"):
            assert name in named
        assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_the_traced_wall(workload):
    code, record, result = tiny_run(workload, 1)
    assert code == 0
    assert sum(record["self_s"].values()) <= record["traced_wall_s"]
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert record["hot_layer"] == HOT_LAYER[workload]


def test_counts_repeat_exactly_for_a_seed():
    _, _, first = tiny_run("phy-relay-link", 1)
    code, lines = bench("--workload", "phy-relay-link", "--seed", 3,
                        "--seconds", 3, "--trace", 1, "--scale", "tiny")
    assert code == 0
    second = json.loads(lines[-1])
    for name in run.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["phy.decode.calls"]["value"] > 0


def test_a_directory_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", WORKLOADS[0], "--seed", 1,
                        "--seconds", 1, "--trace", 0, cwd=tmp_path,
                        timeout=180)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


# -- corrupted outputs trip the checks ----------------------------------------

def test_a_moved_netsim_rate_trips_the_panel_check():
    reference = json.loads(run.REFERENCE.read_text())["netsim-mimo"]
    assert workloads.compare_panel(reference, reference) == []
    for key, delta in (("ap", 1e-6), ("ff", 20.0)):
        corrupted = {k: list(v) if isinstance(v, list) else v
                     for k, v in reference.items()}
        corrupted[key][0] += delta
        assert workloads.compare_panel(corrupted, reference)
    shifted = dict(reference, median_ff_vs_hd=reference["median_ff_vs_hd"]
                   + 0.5)
    assert workloads.compare_panel(shifted, reference)


def test_a_wrong_recorded_digest_fails_the_run(tmp_path, monkeypatch):
    reference = json.loads(run.REFERENCE.read_text())
    reference["service-saturated"]["event_digest"] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", path)
    service = workloads.make("service-saturated", scale="tiny")
    _, problems, _, _, _ = run.measure(service, seed=3, seconds=0.1)
    assert any("event digest" in p for p in problems)


def test_differing_same_seed_digests_fail_the_determinism_check():
    def unit(digest):
        return Unit([0.001], [0.001], 1, 0, output=digest, stats={
            "seed": 7, "problems": [], "virtual_s": 1.0, "offered": 10,
            "processed": 9, "shed": 1, "rejected": 0,
            "queue_wait_s": [0.0], "tick_s": 0.005})

    same = workloads.Service.summary([unit("a"), unit("a")])
    assert same["problems"] == []
    differ = workloads.Service.summary([unit("a"), unit("b")])
    assert differ["problems"]


def test_a_corrupted_decode_counts_as_a_failed_packet(monkeypatch):
    from perfbench.calibrate import SpeedClock
    from repro.phy import transceiver

    phy = workloads.make("phy-relay-link")
    state, clock = phy.setup(seed=3), SpeedClock()
    assert phy.unit(state, 0, clock).failed == 0
    receive = transceiver.Receiver.receive

    def flip_first_bit(self, *args, **kwargs):
        result = receive(self, *args, **kwargs)
        if result.payload_bits is not None and result.payload_bits.size:
            result.payload_bits = result.payload_bits.copy()
            result.payload_bits[0] ^= 1
        return result

    monkeypatch.setattr(transceiver.Receiver, "receive", flip_first_bit)
    assert phy.unit(state, 0, clock).failed == 1
