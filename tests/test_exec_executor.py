"""The sharded executor: ordering, backends, chunking, cache wiring,
chunk autotuning and ``exec.dispatch`` telemetry."""

import threading
import time

import numpy as np
import pytest

from repro.exec import AUTO_CHUNK_TARGET_S, ResultCache, Task, run_sweep, task_fn
from repro.exec.executor import _auto_chunk_size
from repro.telemetry.collector import TelemetryCollector, use_collector
from repro.telemetry.validate import KNOWN_METRIC_PREFIXES


@task_fn("test.exec.square", version="1")
def _square(x):
    return {"sq": x * x}


@task_fn("test.exec.draw", version="1")
def _draw(n, rng=None):
    return {"v": rng.standard_normal(n)}


@task_fn("test.exec.norm", version="1")
def _norm(vec, scale, rng):
    return float(np.dot(vec, vec)) * scale + rng.standard_normal()


@task_fn("test.exec.slow", version="1")
def _slow(x, delay=0.02):
    time.sleep(delay)
    return {"x": x, "thread": threading.current_thread().name}


@task_fn("test.exec.boom", version="1")
def _boom(x):
    if x == 3:
        raise RuntimeError("task 3 exploded")
    return {"x": x}


class _TaskOneError(Exception):
    """Raised by task 1 of the ``test.exec.fail-one`` sweep."""


class _TwoArgError(Exception):
    """An exception pickle cannot rebuild from its args."""

    def __init__(self, stage, reason):
        super().__init__(f"{stage}: {reason}")
        self.stage = stage


_FAIL_ONE_RAN = []


@task_fn("test.exec.two-arg-error", version="1")
def _two_arg_error(x):
    if x == 1:
        raise _TwoArgError("stage", f"task {x} refused")
    return {"x": x}


@task_fn("test.exec.fail-one", version="1")
def _fail_one(x, bad=1):
    _FAIL_ONE_RAN.append(x)
    if x == bad:
        raise _TaskOneError(f"task {x} refused")
    return {"x": x}


def _squares(n):
    return [Task("test.exec.square", {"x": i}) for i in range(n)]


def _norm_tasks(n=8, size=2000):
    """Tasks whose params carry one shared ndarray each."""
    vec = np.arange(size, dtype=float)
    return [Task("test.exec.norm", {"vec": vec, "scale": i}, seed=i)
            for i in range(n)]


class TestOrderingAndBackends:
    def test_results_in_task_order(self):
        out = run_sweep(_squares(17), jobs=4, backend="thread")
        assert [r["sq"] for r in out.results] == [i * i for i in range(17)]

    def test_serial_equals_thread_equals_chunked(self):
        tasks = [Task("test.exec.draw", {"n": 6}, seed=100 + i)
                 for i in range(11)]
        serial = run_sweep(tasks, jobs=1)
        threaded = run_sweep(tasks, jobs=4, backend="thread")
        chunky = run_sweep(tasks, jobs=3, backend="thread", chunk_size=2)
        for a, b in zip(serial.results, threaded.results):
            assert np.array_equal(a["v"], b["v"])
        for a, b in zip(serial.results, chunky.results):
            assert np.array_equal(a["v"], b["v"])

    def test_process_backend_matches_serial(self):
        tasks = [Task("test.exec.draw", {"n": 4}, seed=i) for i in range(4)]
        serial = run_sweep(tasks, jobs=1)
        procs = run_sweep(tasks, jobs=2, backend="process")
        for a, b in zip(serial.results, procs.results):
            assert np.array_equal(a["v"], b["v"])

    def test_process_array_params_match_serial(self):
        tasks = _norm_tasks()
        serial = run_sweep(tasks, jobs=1, backend="serial", cache=False)
        par = run_sweep(tasks, jobs=2, backend="process", cache=False)
        assert list(serial) == list(par)

    def test_threads_actually_used(self):
        out = run_sweep([Task("test.exec.slow", {"x": i}) for i in range(8)],
                        jobs=4, backend="thread", chunk_size=1)
        threads = {r["thread"] for r in out.results}
        assert len(threads) > 1

    def test_empty_sweep(self):
        out = run_sweep([])
        assert out.results == [] and out.stats.total == 0

    def test_invalid_backend_and_jobs(self):
        with pytest.raises(ValueError):
            run_sweep(_squares(2), backend="mpi")
        with pytest.raises(ValueError):
            run_sweep(_squares(2), jobs=0)

    def test_stats_accounting(self):
        out = run_sweep(_squares(10), jobs=2, backend="thread", chunk_size=3)
        assert out.stats.total == 10
        assert out.stats.executed == 10
        assert out.stats.chunks == 4
        assert "10 tasks" in out.stats.summary()


class TestErrors:
    def test_task_error_propagates(self):
        tasks = [Task("test.exec.boom", {"x": i}) for i in range(5)]
        with pytest.raises(RuntimeError, match="task 3 exploded"):
            run_sweep(tasks, jobs=1)
        with pytest.raises(RuntimeError, match="task 3 exploded"):
            run_sweep(tasks, jobs=2, backend="thread", chunk_size=1)

    def test_completed_work_cached_despite_error(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = [Task("test.exec.boom", {"x": i}) for i in range(3)]
        with pytest.raises(RuntimeError):
            run_sweep(tasks + [Task("test.exec.boom", {"x": 3})],
                      jobs=1, cache=cache)
        # The three good tasks were stored before the failure surfaced.
        assert cache.stats.stores == 3

    def test_serial_raises_first_failure_and_stops(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = [Task("test.exec.fail-one", {"x": i}) for i in range(5)]
        _FAIL_ONE_RAN.clear()
        with pytest.raises(_TaskOneError, match="task 1 refused"):
            run_sweep(tasks, jobs=1, backend="serial", cache=cache)
        assert _FAIL_ONE_RAN == [0, 1]          # tasks 2-4 never ran
        assert cache.stats.stores == 1
        assert cache.get(tasks[0].cache_key()) == {"x": 0}

    def test_auto_chunk_probe_failure_raises(self):
        tasks = [Task("test.exec.fail-one", {"x": i, "bad": 0})
                 for i in range(6)]
        _FAIL_ONE_RAN.clear()
        with pytest.raises(_TaskOneError, match="task 0 refused"):
            run_sweep(tasks, jobs=2, backend="thread", cache=False,
                      chunk_size="auto")
        assert _FAIL_ONE_RAN == [0]             # the probe ran once


    @pytest.mark.parametrize("jobs,backend", [(1, "serial"), (2, "thread")])
    def test_in_process_error_keeps_its_type(self, jobs, backend):
        tasks = [Task("test.exec.two-arg-error", {"x": i}) for i in range(4)]
        with pytest.raises(_TwoArgError, match="stage: task 1 refused") as ei:
            run_sweep(tasks, jobs=jobs, backend=backend, cache=False)
        assert ei.value.stage == "stage"

    def test_process_error_unpicklable_becomes_carrier(self):
        tasks = [Task("test.exec.two-arg-error", {"x": i}) for i in range(4)]
        with pytest.raises(RuntimeError,
                           match="_TwoArgError: stage: task 1 refused"):
            run_sweep(tasks, jobs=2, backend="process", cache=False)


class TestStatsBackend:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_single_pending_task_reports_serial(self, backend):
        out = run_sweep(_squares(1), jobs=2, backend=backend, cache=False)
        assert out.stats.backend == "serial"
        assert "backend=serial" in out.stats.summary()

    def test_warm_cache_reports_serial(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cold = run_sweep(_squares(4), jobs=2, backend="thread", cache=cache)
        warm = run_sweep(_squares(4), jobs=2, backend="thread", cache=cache)
        assert cold.stats.backend == "thread"
        assert warm.stats.executed == 0
        assert warm.stats.backend == "serial"


class TestCacheWiring:
    def test_second_run_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = [Task("test.exec.draw", {"n": 5}, seed=i) for i in range(6)]
        cold = run_sweep(tasks, cache=cache)
        warm = run_sweep(tasks, cache=cache)
        assert cold.stats.executed == 6 and cold.stats.cache_hits == 0
        assert warm.stats.executed == 0 and warm.stats.cache_hits == 6
        for a, b in zip(cold.results, warm.results):
            assert np.array_equal(a["v"], b["v"])
            assert a["v"].dtype == b["v"].dtype

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_sweep([Task("test.exec.draw", {"n": 5}, seed=1)], cache=cache)
        out = run_sweep([Task("test.exec.draw", {"n": 6}, seed=1)],
                        cache=cache)
        assert out.stats.executed == 1

    def test_cache_path_accepted(self, tmp_path):
        out = run_sweep(_squares(3), cache=tmp_path / "c2")
        assert out.stats.cache is not None
        assert (tmp_path / "c2").is_dir()

    def test_cache_false_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "envcache"))
        out = run_sweep(_squares(3), cache=False)
        assert out.stats.cache is None


class TestEnvDefaults:
    def test_repro_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        out = run_sweep(_squares(6))
        assert out.stats.jobs == 3
        assert out.stats.backend == "thread"

    def test_repro_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        out = run_sweep(_squares(6))
        assert out.stats.backend == "serial"

    def test_repro_cache_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "envcache"))
        out = run_sweep(_squares(3))
        assert out.stats.cache is not None
        assert (tmp_path / "envcache").is_dir()

    def test_bad_env_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            run_sweep(_squares(2))
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ValueError):
            run_sweep(_squares(2))


class TestAutoChunk:
    def test_auto_chunk_size_targets_budget(self):
        per_task = AUTO_CHUNK_TARGET_S / 10
        assert _auto_chunk_size(per_task, 100, 2) == 10
        # Slow tasks: one per chunk.
        assert _auto_chunk_size(10.0, 100, 2) == 1
        # Fast tasks: clamped so both workers get work.
        assert _auto_chunk_size(1e-9, 100, 2) == 50

    def test_auto_results_identical(self):
        tasks = _norm_tasks(10)
        serial = run_sweep(tasks, jobs=1, backend="serial", cache=False)
        auto = run_sweep(tasks, jobs=2, backend="thread", cache=False,
                         chunk_size="auto")
        assert list(serial) == list(auto)
        assert auto.stats.chunk_size is not None
        assert auto.stats.chunks >= 2  # probe + at least one pool chunk


class TestDispatchTelemetry:
    def test_payload_and_chunk_size_recorded(self):
        col = TelemetryCollector(origin="test")
        with use_collector(col):
            run_sweep(_norm_tasks(), jobs=2, backend="process", cache=False,
                      chunk_size=4)
        payload = col.payload()
        hists = {h["name"]: h for h in payload["histograms"]}
        gauges = {g["name"]: g for g in payload["gauges"]}
        # One pickled-payload observation per dispatched chunk.
        assert hists["exec.dispatch.payload_bytes"]["count"] == 2
        assert gauges["exec.dispatch.chunk_size"]["value"] == 4

    def test_excluded_from_deterministic_snapshot(self):
        tasks = _norm_tasks()
        serial_col = TelemetryCollector(origin="a")
        with use_collector(serial_col):
            run_sweep(tasks, jobs=1, backend="serial", cache=False)
        par_col = TelemetryCollector(origin="b")
        with use_collector(par_col):
            run_sweep(tasks, jobs=2, backend="process", cache=False)
        assert serial_col.deterministic_snapshot() == \
            par_col.deterministic_snapshot()

    def test_dispatch_prefix_registered(self):
        assert "exec.dispatch." in KNOWN_METRIC_PREFIXES
