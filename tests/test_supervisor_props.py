"""Property tests for the sweep supervisor's per-task state machine.

An in-memory :class:`ExecutorBackend` (no processes) plays a generated
per-submit fault schedule for every task: success, a raised exception,
``TaskCrash``, ``HostUnavailable``, ``BrokenExecutor`` on submit or on the
result, or a hang that only a kill or a recycle ends.  Tasks that degrade
into the parent consume the same schedule through a stand-in for
``_simulate_version``.  Whatever the schedule and policy, the supervisor
must account for every task exactly once, respect its retry and recycle
budgets, and never resubmit a task before its backoff has elapsed.
"""

from __future__ import annotations

import time
from collections import defaultdict
from concurrent.futures import BrokenExecutor, Future
from typing import Dict, List, Tuple
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import discrete_gpu_system, heterogeneous_processor
from repro.experiments import parallel as parallel_mod
from repro.experiments.executors import (
    ExecutorBackend,
    HostUnavailable,
    TaskCrash,
    WorkerOutcome,
    WorkerTask,
)
from repro.experiments.parallel import (
    COPY,
    LIMITED,
    FATE_CANCELLED,
    FaultPolicy,
    SweepTask,
    run_tasks,
)
from repro.sim.engine import SimOptions
from repro.workloads.registry import get

NAMES = ("lonestar/bfs", "rodinia/kmeans", "parboil/spmv")
TASKS = [SweepTask(get(name), v) for name in NAMES for v in (COPY, LIMITED)]
KEYS = [f"{t.full_name}:{t.version}" for t in TASKS]

OK, RAISE, CRASH, HOST_DOWN = "ok", "raise", "crash", "host-down"
BROKEN_SUBMIT, BROKEN_RESULT, HANG = "broken-submit", "broken-result", "hang"
KINDS = (OK, RAISE, CRASH, HOST_DOWN, BROKEN_SUBMIT, BROKEN_RESULT, HANG)
#: Kinds whose attempt the supervisor must charge.  A hang is charged
#: when it is killed for its timeout (marked in ``kill_task``) or caught
#: in a break (not tracked, so the ledger's charge count is a lower bound).
CHARGED = (OK, RAISE, CRASH, BROKEN_RESULT)

RESULT = object()  # stands in for a SimResult: the supervisor never looks in


class Ledger:
    """Per-task log of attempts: (monotonic start, kind, charged)."""

    def __init__(self, schedule: Dict[str, List[str]]) -> None:
        self.schedule = schedule
        self.calls: Dict[str, int] = defaultdict(int)
        self.attempts: Dict[str, List[Tuple[float, str, bool]]] = defaultdict(list)

    def next_kind(self, key: str) -> str:
        index = self.calls[key]
        self.calls[key] += 1
        kinds = self.schedule.get(key, [])
        return kinds[index] if index < len(kinds) else OK


class FakeBackend(ExecutorBackend):
    """Plays the ledger's schedule; hung futures never resolve."""

    name = "fake"

    def __init__(self, ledger: Ledger, surgical: bool, start_fails: bool) -> None:
        self.ledger = ledger
        self.surgical = surgical
        self.start_fails = start_fails
        self.hung: Dict[Future, Tuple[str, int]] = {}
        self.shutdowns = 0

    def start(self, workers: int) -> None:
        if self.start_fails:
            raise OSError("provisioning failed")

    def submit(self, task: WorkerTask) -> Future:
        key = f"{task.benchmark}:{task.version}"
        kind = self.ledger.next_kind(key)
        if kind == BROKEN_SUBMIT:
            raise BrokenExecutor("pool broke on submit")
        log = self.ledger.attempts[key]
        log.append((time.monotonic(), kind, kind in CHARGED))
        future: Future = Future()
        if kind == OK:
            future.set_result(
                WorkerOutcome(task.benchmark, task.version, 0.0, host="fake",
                              result=RESULT)
            )
        elif kind == RAISE:
            future.set_exception(ValueError("task raised"))
        elif kind == CRASH:
            future.set_exception(TaskCrash("worker died", host="fake"))
        elif kind == HOST_DOWN:
            future.set_exception(HostUnavailable("host down", host="fake"))
        elif kind == BROKEN_RESULT:
            future.set_exception(BrokenExecutor("pool broke"))
        else:
            self.hung[future] = (key, len(log) - 1)
        return future

    def kill_task(self, future: Future) -> bool:
        # An expired attempt is always charged, surgical kill or not.
        key, index = self.hung.pop(future)
        start, kind, _ = self.ledger.attempts[key][index]
        self.ledger.attempts[key][index] = (start, kind, True)
        return self.surgical

    def _abandon(self) -> None:
        for future in self.hung:
            future.cancel()
        self.hung.clear()

    def recycle(self) -> None:
        self._abandon()

    def shutdown(self) -> None:
        self.shutdowns += 1
        self._abandon()


def _in_parent(ledger: Ledger):
    """``_simulate_version`` stand-in for tasks run by the InlineBackend."""

    def simulate_version(spec, version, system, options):
        key = f"{spec.full_name}:{version}"
        kind = ledger.next_kind(key)
        ledger.attempts[key].append((time.monotonic(), f"in-parent {kind}", True))
        if kind in (RAISE, CRASH, BROKEN_RESULT):
            raise RuntimeError(f"in-parent {kind}")
        return RESULT, 0.0

    return simulate_version


schedules = st.fixed_dictionaries(
    {key: st.lists(st.sampled_from(KINDS), max_size=4) for key in KEYS}
)


@settings(max_examples=120, deadline=None)
@given(
    schedule=schedules,
    jobs=st.integers(min_value=2, max_value=3),
    max_retries=st.integers(min_value=0, max_value=2),
    max_pool_rebuilds=st.integers(min_value=0, max_value=2),
    fail_fast=st.booleans(),
    surgical=st.booleans(),
    start_fails=st.booleans(),
    backoff_base_s=st.sampled_from([0.0, 0.002, 0.005]),
)
def test_state_machine_invariants(
    schedule,
    jobs,
    max_retries,
    max_pool_rebuilds,
    fail_fast,
    surgical,
    start_fails,
    backoff_base_s,
):
    ledger = Ledger(schedule)
    backend = FakeBackend(ledger, surgical=surgical, start_fails=start_fails)
    policy = FaultPolicy(
        max_retries=max_retries,
        task_timeout_s=0.02,
        fail_fast=fail_fast,
        backoff_base_s=backoff_base_s,
        backoff_cap_s=0.01,
        max_pool_rebuilds=max_pool_rebuilds,
    )
    with mock.patch.object(parallel_mod, "_simulate_version", _in_parent(ledger)):
        results, metrics = run_tasks(
            TASKS,
            discrete=discrete_gpu_system(),
            heterogeneous=heterogeneous_processor(),
            options=SimOptions(scale=1 / 512, seed=0),
            jobs=jobs,
            policy=policy,
            backend=backend,
        )

    # Every task ends in exactly one of results / failures.
    failed = [(f.benchmark, f.version) for f in metrics.failures]
    assert len(failed) == len(set(failed))
    assert not set(failed) & set(results)
    assert set(failed) | set(results) == {(t.full_name, t.version) for t in TASKS}
    assert metrics.launched + metrics.cache_hits + metrics.failed == metrics.total
    assert metrics.total == len(TASKS)

    # Budgets hold.
    assert metrics.pool_rebuilds <= max_pool_rebuilds
    assert backend.shutdowns == 1
    for failure in metrics.failures:
        assert failure.attempts <= max_retries + 1
        if not fail_fast:
            assert failure.worker_fate != FATE_CANCELLED
    for key, log in ledger.attempts.items():
        charged = sum(1 for _, _, was_charged in log if was_charged)
        assert charged <= max_retries + 1, (key, log)

    # No resubmission before the backoff a charged attempt earned.
    for key, log in ledger.attempts.items():
        charged_so_far = 0
        for (start, _, was_charged), (next_start, _, _) in zip(log, log[1:]):
            if not was_charged:
                continue
            charged_so_far += 1
            earned = policy.backoff_s(charged_so_far)
            assert next_start - start >= earned - 1e-4, (key, log)


def _replay(schedule: Dict[str, List[str]], *, surgical: bool = False, **policy):
    """One deterministic run (the examples below pin specific paths)."""
    ledger = Ledger(schedule)
    backend = FakeBackend(ledger, surgical=surgical, start_fails=False)
    with mock.patch.object(parallel_mod, "_simulate_version", _in_parent(ledger)):
        _, metrics = run_tasks(
            TASKS,
            discrete=discrete_gpu_system(),
            heterogeneous=heterogeneous_processor(),
            options=SimOptions(scale=1 / 512, seed=0),
            jobs=2,
            policy=FaultPolicy(task_timeout_s=0.02, backoff_base_s=0.0, **policy),
            backend=backend,
        )
    return metrics, ledger


def test_spent_recycle_budget_degrades_in_parent():
    metrics, ledger = _replay(
        {KEYS[0]: [BROKEN_RESULT]}, max_retries=2, max_pool_rebuilds=0
    )
    assert not metrics.failures
    assert metrics.pool_rebuilds == 0
    # Everything after the break ran in the parent.
    assert any(kind.startswith("in-parent") for _, kind, _ in ledger.attempts[KEYS[0]])


def test_hang_with_surgical_kill_needs_no_recycle():
    metrics, _ = _replay({KEYS[1]: [HANG]}, max_retries=1, surgical=True)
    assert not metrics.failures
    assert metrics.pool_rebuilds == 0
    assert metrics.retries == 1
