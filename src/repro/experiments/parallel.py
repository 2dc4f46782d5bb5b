"""Parallel, cache-backed, fault-tolerant execution of the 46x2 sweep.

:func:`run_tasks` answers what it can from the persistent
:class:`~repro.sim.resultcache.ResultCache` and hands the rest to one
supervisor: a per-task state machine (pending, backoff, in-flight, done,
failed, cancelled) with one dispatch/wait/drain loop over an
:class:`~repro.experiments.executors.ExecutorBackend` (``local`` process
pool, ``subprocess`` children or ``ssh`` hosts).  Failed attempts retry
with capped exponential backoff, a per-task timeout kills hung workers,
and a broken backend is recycled until the budget is spent; then the
loop swaps in the in-parent :class:`InlineBackend`, which also serves
``jobs=1``, single-task batches, unpicklable specs and a failed
``start``.  Unfinished tasks become :class:`TaskFailure` records; every
fresh result is returned and cached (a failed cache write is counted,
never fatal).  A ``progress`` callback hears of every finished task; that
is how ``repro serve`` streams a job.  The knobs live on
:class:`FaultPolicy` (docs/SWEEPS.md).
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, CancelledError
from concurrent.futures import Future, wait
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config.system import SystemConfig
from repro.experiments.executors import (
    ExecutorBackend,
    HostUnavailable,
    InlineBackend,
    RemoteTaskError,
    TaskCrash,
    WireProtocolError,
    WorkerOutcome,
    WorkerTask,
    create_backend,
)
from repro.pipeline.transforms import remove_copies
from repro.sim.engine import SimOptions, simulate
from repro.sim.memo import stage_memo_snapshot
from repro.sim.observe.metrics import MetricsRegistry
from repro.sim.resultcache import CacheEntry, ResultCache, cache_key, decode_entry_bytes
from repro.sim.results import SimResult
from repro.testing.faults import maybe_inject
from repro.workloads import registry
from repro.workloads.spec import BenchmarkSpec

#: Sleep seam: tests fake it to observe honored backoffs without waiting.
_sleep = time.sleep

COPY = "copy"
LIMITED = "limited-copy"
VERSIONS = (COPY, LIMITED)

#: ``TaskFailure.worker_fate`` values — what happened to the process that
#: was running the task when it finally failed.
FATE_ALIVE = "alive"  # worker survived and returned the exception
FATE_CRASHED = "crashed"  # worker process died (pool broken)
FATE_TIMED_OUT = "timed-out"  # killed by the supervisor's task timeout
FATE_IN_PARENT = "in-parent"  # ran in the parent process (InlineBackend)
FATE_CANCELLED = "cancelled"  # never ran: abandoned by --fail-fast


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a jobs request: None -> 1 (serial), <=0 -> all cores."""
    if jobs is None:
        return 1
    return jobs if jobs > 0 else os.cpu_count() or 1


@dataclass(frozen=True)
class FaultPolicy:
    """How a sweep reacts to failing, hanging, or crashing tasks.

    Args:
        max_retries: additional attempts a failing task gets before it is
            reported as a :class:`TaskFailure` (0 = one attempt, no retry).
        task_timeout_s: wall-clock budget for a single pooled simulation;
            a task exceeding it has its worker killed (the shared pool
            recycled) and is retried (``None`` disables the timeout;
            in-parent execution cannot be interrupted).
        fail_fast: stop dispatching new work as soon as any task exhausts
            its retries.  Results already finished (and those of tasks
            still in flight) are kept; undispatched tasks are reported as
            ``cancelled`` failures.
        backoff_base_s: first retry delay; doubles per failed attempt.
        backoff_cap_s: ceiling on the exponential backoff delay.
        max_pool_rebuilds: backend recycles (breaks and timeout
            teardowns) tolerated before the sweep degrades in-parent.
    """

    max_retries: int = 2
    task_timeout_s: Optional[float] = None
    fail_fast: bool = False
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 8.0
    max_pool_rebuilds: int = 2

    def backoff_s(self, failed_attempts: int) -> float:
        """Capped exponential delay before retry number ``failed_attempts``."""
        if self.backoff_base_s <= 0:
            return 0.0
        delay = self.backoff_base_s * 2 ** max(0, failed_attempts - 1)
        return min(delay, self.backoff_cap_s)


@dataclass(frozen=True)
class TaskFailure:
    """One task that could not be completed, with its post-mortem."""

    benchmark: str
    version: str
    error_type: str
    message: str
    attempts: int
    worker_fate: str  # one of the FATE_* constants above
    #: Host the final attempt ran on (executor backends; None when
    #: unknown or in-parent).
    host: Optional[str] = None

    def describe(self) -> str:
        where = f" on {self.host}" if self.host else ""
        return (
            f"{self.benchmark}:{self.version} failed after "
            f"{self.attempts} attempt(s) [{self.worker_fate}{where}] "
            f"{self.error_type}: {self.message}"
        )


class SweepError(RuntimeError):
    """A requested simulation failed after exhausting its retries; raised by
    :class:`~repro.experiments.runner.SweepRunner` accessors that must
    return a result, carrying the structured failures behind it."""

    def __init__(self, message: str, failures: Sequence[TaskFailure] = ()):
        super().__init__(message)
        self.failures = list(failures)


@dataclass(frozen=True)
class SweepTask:
    """One (benchmark, version) simulation to perform."""

    spec: BenchmarkSpec
    version: str

    @property
    def full_name(self) -> str:
        return self.spec.full_name


@dataclass
class SweepMetrics:
    """What one sweep invocation did, for the per-sweep progress line."""

    total: int = 0
    launched: int = 0
    cache_hits: int = 0
    memo_hits: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    #: Sum of per-simulation wall times (fresh runs measured, cache hits
    #: restored from their stored time) — what a serial, uncached sweep of
    #: the same tasks would have cost.
    serial_estimate_s: float = 0.0
    #: Attempts beyond the first that the fault supervisor scheduled.
    retries: int = 0
    #: Backend teardowns and rebuilds (worker crash or task timeout).
    pool_rebuilds: int = 0
    #: Stage-memo (repro.sim.memo) steps replayed / computed by the fresh
    #: simulations of this sweep, counted in whichever process ran them.
    stage_memo_hits: int = 0
    stage_memo_misses: int = 0
    #: Tasks a *remote worker's* cache answered (coordinator-cache hits
    #: stay in ``cache_hits``).
    remote_cache_hits: int = 0
    #: Fresh results per executor host ("local" for the process pool).
    host_launched: Dict[str, int] = field(default_factory=dict)
    #: Fresh results kept although writing them to the cache failed
    #: (``OSError``: full disk, read-only cache directory).
    store_errors: int = 0
    failures: List[TaskFailure] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def cancelled(self) -> int:
        return sum(1 for f in self.failures if f.worker_fate == FATE_CANCELLED)

    @property
    def speedup_estimate(self) -> float:
        return self.serial_estimate_s / self.wall_s if self.wall_s > 0 else 0.0

    def format_line(self) -> str:
        parts = [
            f"{self.total} runs",
            f"{self.launched} simulated",
            f"{self.cache_hits} cache hits",
        ]
        optional = (
            (self.memo_hits, "memo hits"), (self.stage_memo_hits, "stage-memo hits"),
            (self.remote_cache_hits, "worker cache hits"), (self.retries, "retries"),
            (self.failed, "failed"), (self.store_errors, "store errors"),
        )
        parts += [f"{count} {label}" for count, label in optional if count]
        line = f"sweep: {', '.join(parts)} in {self.wall_s:.1f}s [jobs={self.jobs}]"
        if self.serial_estimate_s > 0:
            line += f"; serial estimate {self.serial_estimate_s:.1f}s"
            if self.wall_s > 0:
                line += f" ({self.speedup_estimate:.1f}x)"
        return line


def _system_for(
    version: str, discrete: SystemConfig, heterogeneous: SystemConfig
) -> SystemConfig:
    if version not in VERSIONS:
        raise ValueError(f"unknown version {version!r}; choose from {VERSIONS}")
    return discrete if version == COPY else heterogeneous


def _simulate_version(
    spec: BenchmarkSpec, version: str, system: SystemConfig, options: SimOptions
) -> Tuple[SimResult, float]:
    start = time.perf_counter()
    # Deterministic fault-injection hook (no-op unless $REPRO_FAULTS is
    # set): the only seam the robustness tests need, in every worker and
    # in the parent alike.
    maybe_inject(spec.full_name, version)
    pipeline = spec.pipeline()
    if version == LIMITED:
        pipeline = remove_copies(pipeline)
    result = simulate(pipeline, system, options)
    return result, time.perf_counter() - start


def execute_task(
    task: WorkerTask, spec: Optional[BenchmarkSpec] = None, host: Optional[str] = None
) -> WorkerOutcome:
    """The one worker body: pool workers, :class:`InlineBackend` (with the
    live ``spec``) and ``remote_worker`` all run tasks through it.  Without
    ``spec`` it is re-resolved by name, or unpickled from ``spec_blob``."""
    if spec is None:
        blob = task.spec_blob
        spec = registry.get(task.benchmark) if blob is None else pickle.loads(blob)
    hits0, misses0 = stage_memo_snapshot()
    result, wall_s = _simulate_version(spec, task.version, task.system, task.options)
    hits1, misses1 = stage_memo_snapshot()
    return WorkerOutcome(
        task.benchmark, task.version, wall_s, hits1 - hits0, misses1 - misses0, host,
        result=result,
    )


def _dispatchable(task: SweepTask) -> Optional[bytes]:
    """A worker's ``spec_blob``: None for registry specs (resolved by name),
    else the pickled spec; raises when it cannot be pickled at all."""
    try:
        if registry.get(task.full_name) is task.spec:
            return None
    except KeyError:
        pass
    return pickle.dumps(task.spec)


#: What one failed attempt is charged: (error_type, message, fate, host).
_Charge = Tuple[str, str, str, Optional[str]]
_CANCELLED = ("Cancelled", "sweep stopped early (fail-fast)", FATE_CANCELLED, None)


def _charge_for(exc: Exception, in_parent: bool) -> Optional[_Charge]:
    """Map an executor exception to its charge; None means the attempt
    never ran and is refunded.  docs/SWEEPS.md tabulates this mapping."""
    if in_parent:
        return type(exc).__name__, str(exc) or repr(exc), FATE_IN_PARENT, None
    if isinstance(exc, (CancelledError, HostUnavailable)):
        return None
    if isinstance(exc, (BrokenExecutor, TaskCrash)):
        message = str(exc) or "worker process died"
        return "WorkerCrash", message, FATE_CRASHED, getattr(exc, "host", None)
    if isinstance(exc, RemoteTaskError):
        return exc.error_type, exc.message, FATE_ALIVE, exc.host
    if isinstance(exc, WireProtocolError):
        return "WireProtocolError", str(exc), FATE_ALIVE, exc.host
    return type(exc).__name__, str(exc) or repr(exc), FATE_ALIVE, None


@dataclass(eq=False)
class _TaskState:
    """Supervisor bookkeeping for one task that missed the cache."""

    task: SweepTask
    work: WorkerTask
    attempts: int = 0
    ready_at: float = 0.0  # monotonic time when eligible to (re)submit
    started_at: float = 0.0  # monotonic submit time of the current attempt


@dataclass
class _Supervisor:
    """One sweep's per-task state machine over an :class:`ExecutorBackend`.

    A task is *pending* (queued, ``ready_at`` passed), in *backoff*
    (queued, ``ready_at`` ahead), *in-flight* (submitted) or terminal:
    *done* (in ``results``), *failed* or *cancelled* (on
    ``metrics.failures``).  :meth:`run` is the one dispatch/wait/drain
    loop; degrading swaps the backend for :attr:`inline`.
    """

    policy: FaultPolicy
    metrics: SweepMetrics
    cache: Optional[ResultCache]
    registry: Optional[MetricsRegistry]
    inline: InlineBackend
    progress: Optional[Callable[[int, int, SweepMetrics], None]] = None
    results: Dict[Tuple[str, str], SimResult] = field(default_factory=dict)
    queue: List[_TaskState] = field(default_factory=list)
    inflight: Dict[Future, _TaskState] = field(default_factory=dict)
    backend: ExecutorBackend = field(init=False)
    workers: int = 1
    #: Pool breaks *and* timeout teardowns share one bounded budget, so a
    #: crash- or hang-every-attempt workload degrades instead of looping.
    recycles: int = 0
    stop: bool = False  # set once fail-fast trips; no further dispatch

    def report_progress(self) -> None:
        """Hand ``(completed, total, metrics)`` to the progress callback."""
        if self.progress is not None:
            m = self.metrics
            self.progress(m.cache_hits + m.launched + m.failed, m.total, m)

    def record(self, task: SweepTask, result: SimResult) -> None:
        self.results[(task.full_name, task.version)] = result
        if self.registry is not None:
            self.registry.record(task.full_name, task.version, result)

    def _absorb(self, key: str, data: bytes) -> Optional[CacheEntry]:
        """Decode a remote worker's cache-entry bytes into our cache."""
        if self.cache is not None:
            try:
                return self.cache.absorb(key, data)
            except OSError:
                self.metrics.store_errors += 1
        return decode_entry_bytes(key, data)

    def _complete(self, state: _TaskState, outcome: WorkerOutcome) -> bool:
        """Record a successful outcome; False if it holds no usable result."""
        key, result = state.work.cache_key, outcome.result
        if result is None:
            data = outcome.entry_bytes
            entry = None if data is None else self._absorb(key, data)
            if entry is None:
                return False
            result = entry.result
        elif self.cache is not None:
            # A full disk or read-only cache costs the entry, never the
            # result: the sweep keeps it and counts the skipped write.
            try:
                self.cache.store(key, result, sim_wall_s=outcome.wall_s)
            except OSError:
                self.metrics.store_errors += 1
        self.record(state.task, result)
        m = self.metrics
        m.launched += 1
        m.remote_cache_hits += int(outcome.cache_hit)
        if outcome.host is not None:
            m.host_launched[outcome.host] = m.host_launched.get(outcome.host, 0) + 1
        m.serial_estimate_s += outcome.wall_s
        m.stage_memo_hits += outcome.memo_hits
        m.stage_memo_misses += outcome.memo_misses
        if self.registry is not None:
            self.registry.record_stage_memo(outcome.memo_hits, outcome.memo_misses)
        self.report_progress()
        return True

    def _requeue(self, state: _TaskState, charge: Optional[_Charge]) -> None:
        """Back into the queue uncharged (``charge`` None: the attempt never
        ran, or was an innocent victim of a recycle), or charged into
        backoff; failed once the attempts run out, cancelled at once."""
        if charge is None:
            state.attempts -= 1
            state.ready_at = 0.0
        elif charge[2] != FATE_CANCELLED and state.attempts <= self.policy.max_retries:
            self.metrics.retries += 1
            state.ready_at = time.monotonic() + self.policy.backoff_s(state.attempts)
        else:
            error_type, message, fate, host = charge
            failure = TaskFailure(
                state.task.full_name, state.task.version, error_type, message,
                state.attempts, fate, host,
            )
            self.metrics.failures.append(failure)
            if self.registry is not None:
                self.registry.record_failure(failure)
            self.stop = self.stop or (self.policy.fail_fast and fate != FATE_CANCELLED)
            self.report_progress()
            return
        self.queue.append(state)

    def _drain(self, future: Future, state: _TaskState) -> bool:
        """Resolve one finished future; True when the backend broke."""
        try:
            outcome = future.result()
        except Exception as exc:
            in_parent = self.backend is self.inline
            self._requeue(state, _charge_for(exc, in_parent))
            return not in_parent and isinstance(exc, BrokenExecutor)
        if not self._complete(state, outcome):
            message = "undecodable cache-entry bytes from worker"
            charge = ("WireProtocolError", message, FATE_ALIVE, outcome.host)
            self._requeue(state, charge)
        return False

    def _dispatch(self) -> bool:
        """Fill free slots with pending tasks; True when the backend broke.
        At most ``workers`` in flight keeps in-flight == running: timeouts
        count from a true start, and fail-fast can still cancel the queue."""
        now = time.monotonic()
        while not self.stop and len(self.inflight) < self.workers:
            state = next((s for s in self.queue if s.ready_at <= now), None)
            if state is None:
                break
            self.queue.remove(state)
            state.attempts += 1
            state.started_at = time.monotonic()
            try:
                future = self.backend.submit(state.work)
            except (BrokenExecutor, RuntimeError):
                state.attempts -= 1  # this attempt never ran
                self.queue.insert(0, state)
                return True
            self.inflight[future] = state
        return False

    def _wait(self) -> bool:
        """Wait for a future to finish, a timeout to fall due or a backoff to
        end; drain what finished, then kill and charge attempts past the
        task timeout.  True when the backend broke."""
        limit = self.policy.task_timeout_s
        now = time.monotonic()
        due = [s.ready_at for s in self.queue if s.ready_at > now]
        if limit is not None:  # 50 ms past the deadline, so it has passed
            due += [s.started_at + limit + 0.04 for s in self.inflight.values()]
        timeout = max(0.0, min(due) - now) + 0.01 if due else None
        done, _ = wait(set(self.inflight), timeout=timeout, return_when=FIRST_COMPLETED)
        # Drain every finished future before reacting to any failure:
        # results already computed are kept whatever their batch-mates did.
        if any([self._drain(f, self.inflight.pop(f)) for f in done]):
            return True
        now, surgical = time.monotonic(), True
        for future, state in list(self.inflight.items()):
            if limit is not None and now - state.started_at >= limit:
                del self.inflight[future]
                host = self.backend.host_of(future)
                surgical = self.backend.kill_task(future) and surgical
                message = f"exceeded task timeout ({limit:g}s)"
                self._requeue(state, ("TaskTimeout", message, FATE_TIMED_OUT, host))
        # A shared pool cannot kill one worker, so the whole backend
        # recycles; in-flight tasks that had not expired go back uncharged.
        if not surgical:
            self._recycle(charge_unfinished=False)
        return False

    def _recycle(self, charge_unfinished: bool) -> None:
        """Salvage finished futures, charge (or refund) the rest, then
        recycle the backend, or degrade once the budget is spent."""
        self.recycles += 1
        for future, state in list(self.inflight.items()):
            if future.done():
                self._drain(future, state)
            else:
                message = "worker process died (pool broken)"
                host = self.backend.host_of(future)
                charge = ("WorkerCrash", message, FATE_CRASHED, host)
                self._requeue(state, charge if charge_unfinished else None)
        self.inflight.clear()
        if self.recycles > self.policy.max_pool_rebuilds:
            self._degrade()
        else:
            self.metrics.pool_rebuilds += 1
            self.backend.recycle()

    def _degrade(self) -> None:
        """Stop trusting the backend: run everything left in the parent."""
        self.backend.shutdown()
        self.backend, self.workers = self.inline, 1

    def run(
        self, states: List[_TaskState], backend: ExecutorBackend, workers: int
    ) -> None:
        """Drive ``states`` to terminal states through ``backend``."""
        self.queue.extend(states)
        self.backend, self.workers = backend, workers
        try:
            try:
                backend.start(workers)
            except Exception:
                self._degrade()  # nothing usable was provisioned
            while self.queue or self.inflight:
                if self.stop:  # fail-fast tripped: cancel everything queued
                    for state in self.queue:
                        self._requeue(state, _CANCELLED)
                    self.queue.clear()
                if self._dispatch() or (self.inflight and self._wait()):
                    # The culprit is unknowable: charging every unfinished
                    # attempt bounds a repeat-killer.
                    self._recycle(charge_unfinished=True)
                elif self.queue and not self.inflight:
                    # Everything left is backing off: sleep until the
                    # earliest is due (the sleep serves its backoff).
                    state = min(self.queue, key=lambda s: s.ready_at)
                    delay = state.ready_at - time.monotonic()
                    if delay > 0:
                        _sleep(delay)
                    state.ready_at = 0.0
        finally:
            if self.backend is backend:
                backend.shutdown()


def run_tasks(
    tasks: Sequence[SweepTask],
    *,
    discrete: SystemConfig,
    heterogeneous: SystemConfig,
    options: SimOptions,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    metrics_registry: Optional[MetricsRegistry] = None,
    policy: Optional[FaultPolicy] = None,
    backend: Union[None, str, ExecutorBackend] = None,
    hosts: Sequence[str] = (),
    progress: Optional[Callable[[int, int, SweepMetrics], None]] = None,
) -> Tuple[Dict[Tuple[str, str], SimResult], SweepMetrics]:
    """Execute a batch of sweep tasks, parallel, cache-aware, fault-tolerant.

    Returns results keyed by ``(full_name, version)`` (exactly the
    successful subset, each fresh one already in ``cache`` unless the write
    failed) plus this invocation's metrics.  ``jobs`` bounds in-flight
    tasks (1 runs in the parent, bit-identically); ``backend`` picks the
    substrate when the batch pools (``local``, ``subprocess``, ``ssh`` over
    ``hosts``, or a live :class:`ExecutorBackend`).  A failing task is
    retried per ``policy``, then reported on ``metrics.failures``; it
    never aborts the batch.  ``metrics_registry`` summarizes every result.
    ``progress(completed, total, metrics)`` is called on the caller's thread
    once after the cache pass (if the cache answered anything), then once
    per task the supervisor finishes, done or failed.
    """
    jobs = resolve_jobs(jobs)
    metrics = SweepMetrics(total=len(tasks), jobs=jobs)
    start = time.perf_counter()
    supervisor = _Supervisor(
        policy or FaultPolicy(), metrics, cache, metrics_registry,
        InlineBackend({task.full_name: task.spec for task in tasks}), progress,
    )
    # Workers on this machine share the coordinator's cache directory;
    # the ssh backend rewrites the path for remote filesystems.
    cache_dir = str(cache.root) if cache is not None else None
    pending: List[_TaskState] = []
    for task in tasks:
        system = _system_for(task.version, discrete, heterogeneous)
        key = cache_key(task.spec, task.version, system, options)
        entry = cache.load(key) if cache is not None else None
        if entry is None:
            work = WorkerTask(
                task.full_name, task.version, None, system, options, key, cache_dir
            )
            pending.append(_TaskState(task, work))
            continue
        supervisor.record(task, entry.result)
        metrics.cache_hits += 1
        metrics.serial_estimate_s += entry.sim_wall_s
    if metrics.cache_hits:
        supervisor.report_progress()

    pooled: List[_TaskState] = []
    if jobs > 1 and len(pending) > 1:
        for state in pending:
            try:
                state.work = replace(state.work, spec_blob=_dispatchable(state.task))
                pooled.append(state)
            except (pickle.PicklingError, AttributeError, TypeError):
                # Only genuine can't-pickle errors run in-parent; anything
                # else (a registry bug, a broken __reduce__) must surface.
                pass
        if pooled:
            pool = create_backend(backend, hosts=hosts)
            supervisor.run(pooled, pool, min(jobs, len(pooled)))
    supervisor.run([s for s in pending if s not in pooled], supervisor.inline, 1)
    metrics.wall_s = time.perf_counter() - start
    return supervisor.results, metrics

