"""In-parent execution as a backend: one slot, run synchronously.

The supervisor uses it for ``jobs=1``, a batch with at most one task to
run, specs that cannot be pickled, a backend whose ``start`` failed, and
degradation once the recycle budget is spent.  It runs the task's live
spec, so nothing is pickled, and returns an already-resolved future.  A
task timeout cannot interrupt it (:meth:`kill_task` stays False).
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Mapping, Optional

from repro.experiments.executors.base import ExecutorBackend, WorkerOutcome, WorkerTask
from repro.workloads.spec import BenchmarkSpec


class InlineBackend(ExecutorBackend):
    """Runs each submitted task in the calling process, on its live spec."""

    name = "inline"

    def __init__(self, specs: Optional[Mapping[str, BenchmarkSpec]] = None) -> None:
        #: Live specs by full name; a task not found here is resolved the
        #: way a worker resolves it (registry name or pickled blob).
        self._specs = dict(specs or {})

    def start(self, workers: int) -> None:
        pass

    def submit(self, task: WorkerTask) -> "Future[WorkerOutcome]":
        # Imported here: the supervisor module imports this package.
        from repro.experiments.parallel import execute_task

        future: "Future[WorkerOutcome]" = Future()
        try:
            future.set_result(execute_task(task, self._specs.get(task.benchmark)))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def recycle(self) -> None:
        pass

    def shutdown(self) -> None:
        pass
