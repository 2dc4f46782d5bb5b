"""The sweep supervisor's edges: cache-write failures, backend start
failures, and in-parent execution as an :class:`InlineBackend`.

A failed cache write must cost only the cache entry, never the result; a
backend whose ``start`` raises must still be shut down (exactly once) and
the sweep must finish in the parent.
"""

from __future__ import annotations

import errno
from concurrent.futures import Future

import pytest

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments.executors import (
    ExecutorBackend,
    InlineBackend,
    WorkerOutcome,
    WorkerTask,
)
from repro.experiments.parallel import (
    COPY,
    LIMITED,
    FaultPolicy,
    SweepMetrics,
    SweepTask,
    execute_task,
    run_tasks,
)
from repro.sim.engine import SimOptions
from repro.sim.resultcache import ResultCache, cache_key
from repro.sim.serialize import results_identical
from repro.testing.faults import FaultRule, injected_faults
from repro.workloads.registry import get

NAME = "rodinia/kmeans"
SCALE = 1 / 512


def _options() -> SimOptions:
    return SimOptions(scale=SCALE, seed=11)


def _tasks():
    return [SweepTask(get(NAME), version) for version in (COPY, LIMITED)]


def _run(*, jobs, cache=None, backend=None, **kwargs):
    return run_tasks(
        _tasks(),
        discrete=discrete_gpu_system(),
        heterogeneous=heterogeneous_processor(),
        options=_options(),
        jobs=jobs,
        cache=cache,
        backend=backend,
        **kwargs,
    )


def _disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestStoreErrors:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_store_keeps_every_result(self, tmp_path, monkeypatch, jobs):
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(ResultCache, "store", _disk_full)
        results, metrics = _run(jobs=jobs, cache=cache)
        assert sorted(results) == [(NAME, COPY), (NAME, LIMITED)]
        assert metrics.failures == []
        assert metrics.launched == 2
        assert metrics.store_errors == 2
        assert "2 store errors" in metrics.format_line()
        assert len(cache) == 0

    def test_failed_absorb_keeps_the_shipped_result(self, tmp_path, monkeypatch):
        """Remote workers ship cache-entry bytes; a coordinator cache that
        cannot take them still yields the decoded result."""
        reference, _ = _run(jobs=1)
        donor = ResultCache(tmp_path / "donor")
        system = discrete_gpu_system()
        key = cache_key(get(NAME), COPY, system, _options())
        entry_bytes = donor.store(key, reference[(NAME, COPY)]).read_bytes()

        class ShipsBytes(ExecutorBackend):
            name = "ships-bytes"

            def start(self, workers):
                pass

            def submit(self, task: WorkerTask) -> Future:
                future: Future = Future()
                data = entry_bytes if task.version == COPY else None
                if data is None:
                    future.set_result(execute_task(task, host="w1"))
                else:
                    future.set_result(
                        WorkerOutcome(task.benchmark, task.version, 0.1, host="w1",
                                      entry_bytes=data)
                    )
                return future

            def recycle(self):
                pass

            def shutdown(self):
                pass

        cache = ResultCache(tmp_path / "coordinator")
        monkeypatch.setattr(ResultCache, "absorb", _disk_full)
        monkeypatch.setattr(ResultCache, "store", _disk_full)
        results, metrics = _run(jobs=2, cache=cache, backend=ShipsBytes())
        assert metrics.failures == []
        assert metrics.store_errors == 2
        assert results_identical(results[(NAME, COPY)], reference[(NAME, COPY)])
        assert metrics.host_launched == {"w1": 2}

    def test_store_errors_merge_and_stay_quiet_when_zero(self):
        metrics = SweepMetrics(total=2, launched=2)
        assert "store errors" not in metrics.format_line()


class TestProgress:
    """``progress`` hears of the cache pass once, then of every run."""

    @staticmethod
    def _calls(**kwargs):
        calls = []

        def progress(done, total, metrics):
            calls.append((done, total, metrics.cache_hits, metrics.failed))

        _run(progress=progress, **kwargs)
        return calls

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_reports_each_run_and_warm_reports_the_cache_pass(
        self, tmp_path, jobs
    ):
        cache = ResultCache(tmp_path / "cache")
        assert self._calls(jobs=jobs, cache=cache) == [(1, 2, 0, 0), (2, 2, 0, 0)]
        assert self._calls(jobs=jobs, cache=cache) == [(2, 2, 2, 0)]

    def test_failed_runs_report_too(self):
        policy = FaultPolicy(max_retries=0)
        with injected_faults({f"{NAME}:{COPY}": FaultRule("raise")}):
            calls = self._calls(jobs=1, policy=policy)
        assert calls == [(1, 2, 0, 1), (2, 2, 0, 1)]


class StartFails(ExecutorBackend):
    """A backend that dies part-way through provisioning."""

    name = "start-fails"

    def __init__(self) -> None:
        self.shutdowns = 0
        self.submits = 0

    def start(self, workers: int) -> None:
        raise OSError("could not provision workers")

    def submit(self, task: WorkerTask) -> Future:
        self.submits += 1
        raise AssertionError("a backend that failed to start got a task")

    def recycle(self) -> None:
        pass

    def shutdown(self) -> None:
        self.shutdowns += 1


class TestBackendStartFailure:
    def test_shut_down_once_and_completed_in_parent(self):
        backend = StartFails()
        results, metrics = _run(jobs=2, backend=backend)
        assert backend.shutdowns == 1
        assert backend.submits == 0
        assert sorted(results) == [(NAME, COPY), (NAME, LIMITED)]
        assert metrics.failures == []
        assert metrics.launched == 2
        assert metrics.host_launched == {}  # in-parent runs carry no host


class TestInlineBackend:
    def test_runs_live_spec_and_resolves_synchronously(self):
        spec = get(NAME)
        task = WorkerTask(
            NAME, COPY, None, discrete_gpu_system(), _options(), "k" * 16
        )
        backend = InlineBackend({NAME: spec})
        backend.start(4)
        future = backend.submit(task)
        assert future.done()
        outcome = future.result()
        assert outcome.result is not None and outcome.host is None
        assert not backend.kill_task(future)  # a timeout cannot interrupt it
        backend.shutdown()

    def test_exception_lands_on_the_future(self):
        task = WorkerTask(
            "no/such", COPY, None, discrete_gpu_system(), _options(), "k" * 16
        )
        future = InlineBackend().submit(task)
        assert future.done()
        with pytest.raises(KeyError):
            future.result()
