"""Executor backend protocol for the sweep supervisor.

This package splits "how a task gets executed" from "how failures are
retried": the supervisor in :mod:`repro.experiments.parallel` speaks only
to an :class:`ExecutorBackend`, and a backend turns one :class:`WorkerTask`
into a :class:`concurrent.futures.Future` resolving to a
:class:`WorkerOutcome` — the live result from an in-process backend, the
result's cache-entry bytes from a wire backend — or raising one of the
structured executor exceptions below, each of which the supervisor's
per-task state machine maps to one transition (the table is in
docs/SWEEPS.md):

* :class:`TaskCrash` — the worker process died.  The task is requeued and
  charged an attempt (``worker_fate`` *crashed*), but because the crash
  was isolated to one child, no pool recycle happens.
* :class:`HostUnavailable` — the task never ran (the host could not be
  reached); it is requeued *uncharged* while the backend quarantines the
  host, so a dead machine does not burn a task's retries.
* :class:`RemoteTaskError` — the task ran remotely and raised; carries
  the remote exception's type/message so the failure report looks the
  same as a local one (``worker_fate`` *alive*).
* :class:`WireProtocolError` — the worker's reply could not be decoded;
  surfaces as a structured retryable failure, never a coordinator crash.

``BrokenExecutor`` means the backend as a whole is unusable; it drives the
bounded recycle, then the swap to the in-parent ``InlineBackend``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Optional

from repro.config.system import SystemConfig
from repro.sim.engine import SimOptions
from repro.sim.results import SimResult

#: ``WorkerOutcome.host`` of tasks run by the in-process pool backend.
LOCAL_HOST = "local"

#: ``WorkerTask.cache_dir`` sentinel: the worker should use its *own*
#: default cache directory (``$REPRO_CACHE_DIR`` / ``~/.cache`` on the
#: worker's machine) rather than a path the coordinator chose.  Used by
#: the ssh backend, where coordinator paths are meaningless remotely.
AUTO_CACHE_DIR = "auto"


@dataclass(frozen=True)
class WorkerTask:
    """Everything a worker anywhere needs to run one simulation.

    ``spec_blob`` is ``None`` for registry benchmarks (the worker
    re-resolves ``benchmark`` by name) or a pickled spec otherwise.
    ``cache_dir`` names the result cache the *worker* should consult and
    fill (``None`` = no worker-side cache, :data:`AUTO_CACHE_DIR` = the
    worker's default location).
    """

    benchmark: str
    version: str
    spec_blob: Optional[bytes]
    system: SystemConfig
    options: SimOptions
    cache_key: str
    cache_dir: Optional[str] = None


@dataclass(frozen=True)
class WorkerOutcome:
    """One finished task, as every backend reports it.

    Exactly one of ``result`` / ``entry_bytes`` is set: in-process
    backends (the local pool, inline) return the live :class:`SimResult`;
    wire backends return the result's cache-entry bytes, which the
    coordinator's cache absorbs verbatim (warm-cache synchronization).
    ``cache_hit`` marks outcomes the *worker's* cache answered without
    simulating.
    """

    benchmark: str
    version: str
    wall_s: float
    memo_hits: int = 0
    memo_misses: int = 0
    host: Optional[str] = None
    cache_hit: bool = False
    result: Optional[SimResult] = None
    entry_bytes: Optional[bytes] = None


class ExecutorError(RuntimeError):
    """Base of the structured executor failures; carries host attribution."""

    def __init__(self, message: str, host: Optional[str] = None):
        super().__init__(message)
        self.host = host


class TaskCrash(ExecutorError):
    """The worker process running one task died (isolated to that task)."""


class HostUnavailable(ExecutorError):
    """The task never started: its host could not be reached.

    The backend quarantines the host; the supervisor requeues the task
    uncharged — an unreachable machine must not consume task retries.
    """


class WireProtocolError(ExecutorError):
    """A worker's reply (or a task payload) could not be decoded."""


class RemoteTaskError(ExecutorError):
    """The task ran on a worker and raised; the remote post-mortem."""

    def __init__(self, error_type: str, message: str, host: Optional[str] = None):
        super().__init__(message, host=host)
        self.error_type = error_type
        self.message = message


class ExecutorBackend(ABC):
    """What the sweep supervisor needs from an execution substrate.

    Lifecycle: ``start(workers)`` once, then any number of ``submit`` /
    ``kill_task`` / ``recycle`` rounds, then ``shutdown()`` (idempotent,
    always called).  ``submit`` may raise ``BrokenExecutor`` when the
    backend as a whole is unusable — the supervisor then salvages
    finished futures and calls :meth:`recycle`, bounded by
    ``FaultPolicy.max_pool_rebuilds``.
    """

    #: Short identifier (``local`` / ``subprocess`` / ``ssh``).
    name = "abstract"

    @abstractmethod
    def start(self, workers: int) -> None:
        """Provision capacity for ``workers`` concurrent tasks."""

    @abstractmethod
    def submit(self, task: WorkerTask) -> "Future[WorkerOutcome]":
        """Dispatch one task; the future resolves to a WorkerOutcome or
        raises one of the executor exceptions above."""

    def kill_task(self, future: "Future[WorkerOutcome]") -> bool:
        """Kill just the worker behind ``future`` (task timeout).

        Returns True when the kill was surgical — other in-flight tasks
        were untouched, so the supervisor need not recycle the backend.
        The base implementation cannot kill anything and returns False,
        which makes the supervisor fall back to a full recycle.
        """
        return False

    def host_of(self, future: "Future[WorkerOutcome]") -> Optional[str]:
        """Host the task behind ``future`` was routed to, if known."""
        return None

    @abstractmethod
    def recycle(self) -> None:
        """Tear down and re-provision after a break (keeps ``workers``)."""

    @abstractmethod
    def shutdown(self) -> None:
        """Release everything; safe to call twice."""
