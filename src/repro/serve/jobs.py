"""In-memory job store with content-hash single-flight dedup.

Every submitted job is keyed by its :meth:`JobSpec.content_hash`; while a
job for a hash is still queued or running, further submissions of the
same hash *coalesce* onto it — one computation, many waiters — mirroring
how CrystalGPU transparently shares identical in-flight GPU work.  Once a
job reaches a terminal state its hash is released: a later identical
submission creates a fresh job, which the content-addressed
:class:`~repro.sim.resultcache.ResultCache` then answers warm without
re-simulating.

All mutation happens on the server's event loop thread, so the store
needs no locking; progress consumers (status polls, SSE streams) wait on
a per-job *rotating* :class:`asyncio.Event`: ``publish`` swaps in a fresh
event and sets the old one, waking every waiter of the previous epoch.
An earlier design used :class:`asyncio.Condition`, but before Python 3.12
``Condition.wait`` could be cancelled *while reacquiring its lock*
(cpython gh-90467), losing the cancellation or corrupting the lock state
— and every SSE disconnect cancels a waiter, so the hazard was routine
here.  Plain events have no lock to reacquire, so cancellation is safe on
every interpreter this project supports.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.schemas import JOB_SCHEMA, JobSpec

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"  # every run completed
PARTIAL = "partial"  # some runs completed, some failed (PR 5 contract)
FAILED = "failed"  # nothing completed
TERMINAL_STATES = frozenset({DONE, PARTIAL, FAILED})


@dataclass
class Job:
    """One accepted job and everything observable about it."""

    id: str
    spec: JobSpec
    content_hash: str
    status: str = QUEUED
    #: How many submissions this job absorbed (1 = no duplicates).
    submissions: int = 1
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Monotonic progress events ({"seq": n, "event": ..., ...}).
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Terminal payload: per-run results plus structured failures.
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Live waiters (SSE streams) — a nonzero count shields
    #: the job from store eviction so their terminal replay cannot 404.
    waiters: int = 0
    #: Current-epoch change signal; see the module docstring.
    _changed: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def describe(self, *, include_result: bool = True) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "content_hash": self.content_hash,
            "status": self.status,
            "submissions": self.submissions,
            "job": self.spec.describe(),
            "runs": self.spec.runs,
            "events": len(self.events),
            "created_unix": self.created_s,
        }
        if self.started_s is not None:
            body["started_unix"] = self.started_s
        if self.finished_s is not None:
            body["finished_unix"] = self.finished_s
            body["wall_s"] = self.finished_s - (self.started_s or self.created_s)
        if self.error is not None:
            body["error"] = self.error
        if include_result and self.result is not None:
            body["result"] = self.result
        return body

    async def publish(self, event: str, **data: Any) -> None:
        """Append one progress event and wake every waiter."""
        payload = {"seq": len(self.events), "event": event, **data}
        self.events.append(payload)
        # Rotate: waiters of the old epoch wake and re-check their
        # predicate; new waiters park on the fresh event.
        stale, self._changed = self._changed, asyncio.Event()
        stale.set()

    async def _wait_until(self, predicate, timeout: Optional[float]) -> None:
        """Park until ``predicate()`` holds or ``timeout`` elapses.

        Cancellation-safe on every supported Python: there is no lock to
        reacquire, so a cancel during the wait just propagates.  The
        epoch event is captured *before* re-checking the predicate and
        nothing awaits in between, so a publish can never slip through
        the gap (all mutation happens on this event loop thread).
        """
        deadline = (
            None if timeout is None else asyncio.get_event_loop().time() + timeout
        )
        self.waiters += 1
        try:
            while not predicate():
                changed = self._changed
                if deadline is None:
                    await changed.wait()
                    continue
                remaining = deadline - asyncio.get_event_loop().time()
                if remaining <= 0:
                    return
                try:
                    await asyncio.wait_for(changed.wait(), remaining)
                except asyncio.TimeoutError:
                    return
        finally:
            self.waiters -= 1

    async def wait_events(
        self, after_seq: int, timeout: Optional[float] = None
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Events past ``after_seq``; blocks until there are any or the job
        is terminal.  Returns ``(events, terminal)``."""
        await self._wait_until(
            lambda: len(self.events) > after_seq or self.terminal, timeout
        )
        return list(self.events[after_seq:]), self.terminal

    async def wait_terminal(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state; True on success."""
        await self._wait_until(lambda: self.terminal, timeout)
        return self.terminal


class JobStore:
    """All jobs of one server process, with in-flight dedup by hash."""

    def __init__(
        self, max_jobs: int = 10_000, evict_grace_s: float = 60.0
    ) -> None:
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, str] = {}  # content hash -> job id
        self._ids = itertools.count(1)
        self._max_jobs = max_jobs
        #: Terminal jobs younger than this are never evicted — a client
        #: that just watched a job finish gets a window to fetch the
        #: terminal payload without racing eviction into a 404.
        self._evict_grace_s = evict_grace_s

    def __len__(self) -> int:
        return len(self._jobs)

    def submit(self, spec: JobSpec) -> Tuple[Job, bool]:
        """Register a submission; returns ``(job, coalesced)``.

        ``coalesced`` is True when an in-flight job for the same content
        hash absorbed this submission instead of creating a new job.
        """
        content_hash = spec.content_hash()
        existing_id = self._inflight.get(content_hash)
        if existing_id is not None:
            job = self._jobs[existing_id]
            if not job.terminal:
                job.submissions += 1
                return job, True
            # Stale index entry (finish() should have dropped it).
            self._inflight.pop(content_hash, None)
        job = Job(
            id=f"job-{next(self._ids):06d}",
            spec=spec,
            content_hash=content_hash,
        )
        self._jobs[job.id] = job
        self._inflight[content_hash] = job.id
        self._evict_finished()
        return job, False

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    async def mark_running(self, job: Job) -> None:
        job.status = RUNNING
        job.started_s = time.time()
        await job.publish("started")

    async def finish(
        self,
        job: Job,
        status: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Move a job to a terminal state and release its dedup slot."""
        if status not in TERMINAL_STATES:
            raise ValueError(f"not a terminal state: {status!r}")
        job.result = result
        job.error = error
        job.finished_s = time.time()
        job.status = status
        if self._inflight.get(job.content_hash) == job.id:
            del self._inflight[job.content_hash]
        await job.publish("finished", status=status)

    def _evict_finished(self) -> None:
        """Drop the oldest terminal jobs once the store exceeds its cap.

        In-flight jobs are never evicted — the cap only bounds how much
        history a long-running server retains for status polls.  Two more
        shields keep eviction from racing live readers into a 404:

        * jobs with registered ``waiters`` (an SSE stream about to replay
          the terminal event) are skipped, and
        * jobs inside the ``evict_grace_s`` window after finishing are
          skipped, covering the client that saw "finished" and is about
          to GET the result.

        Both shields may leave the store over its cap temporarily; the
        next submission re-runs eviction once the shields lapse.
        """
        excess = len(self._jobs) - self._max_jobs
        if excess <= 0:
            return
        now = time.time()
        finished = sorted(
            (
                job
                for job in self._jobs.values()
                if job.terminal
                and job.waiters == 0
                and now - (job.finished_s or job.created_s)
                >= self._evict_grace_s
            ),
            key=lambda job: job.finished_s or job.created_s,
        )
        for job in finished[:excess]:
            del self._jobs[job.id]
