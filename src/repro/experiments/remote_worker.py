"""One-task worker child of the subprocess/ssh executor backends.

``python -m repro.experiments.remote_worker`` reads a single
``repro.executor.task/v1`` JSON document from stdin, runs (or answers from
its local result cache) the one simulation it describes, and writes a
single ``repro.executor.result/v1`` document to stdout.  stderr is free
for diagnostics — the coordinator only shows it when the worker dies.

Exit status contract (see ``SubprocessBackend._run_child``):

* 0 — a reply was written, ``ok`` true or false; simulation errors travel
  *inside* the payload so the coordinator can report a typed failure.
* non-zero — the worker died (crash, injected kill, unreadable stdin);
  the coordinator charges a ``WorkerCrash``.  255 is reserved: over ssh
  it means "host unreachable", so the worker never exits with it.

The reply carries the result as the bytes of its cache entry.  With a
cache directory in the task, the worker stores a fresh result locally and
ships the stored file, which is how a distributed sweep leaves every
machine — coordinator included — warm for the next run; without one, it
encodes the entry in memory.
"""

from __future__ import annotations

import os
import socket
import sys
from dataclasses import replace

from repro.experiments.executors.base import (
    AUTO_CACHE_DIR,
    WireProtocolError,
    WorkerOutcome,
    WorkerTask,
)
from repro.experiments.executors.wire import (
    decode_task,
    encode_error,
    encode_outcome,
)
from repro.testing.faults import EXECUTOR_WORKER_ENV

#: Exit status when the task document itself cannot be decoded — a
#: coordinator/worker version skew, not a task failure.
EXIT_BAD_TASK = 65  # EX_DATAERR


def run_task(task: WorkerTask, host: str) -> bytes:
    """Execute one decoded task; returns the encoded reply document."""
    from repro.experiments.parallel import execute_task
    from repro.sim.resultcache import ResultCache, encode_entry_bytes

    try:
        cache = None
        if task.cache_dir:
            cache = ResultCache(
                None if task.cache_dir == AUTO_CACHE_DIR else task.cache_dir
            )
            entry = cache.load(task.cache_key)
            if entry is not None:
                try:
                    data = cache.path_for(task.cache_key).read_bytes()
                except OSError:  # the entry vanished after the hit
                    data = encode_entry_bytes(
                        task.cache_key, entry.result, entry.sim_wall_s
                    )
                outcome = WorkerOutcome(
                    benchmark=task.benchmark,
                    version=task.version,
                    wall_s=entry.sim_wall_s,
                    host=host,
                    cache_hit=True,
                    entry_bytes=data,
                )
                return encode_outcome(outcome)
        outcome = execute_task(task, host=host)
        if cache is not None:
            path = cache.store(task.cache_key, outcome.result, sim_wall_s=outcome.wall_s)
            data = path.read_bytes()
        else:
            data = encode_entry_bytes(task.cache_key, outcome.result, outcome.wall_s)
        return encode_outcome(replace(outcome, result=None, entry_bytes=data))
    except Exception as exc:  # a typed failure reply, never a dead worker
        return encode_error(
            task.benchmark,
            task.version,
            type(exc).__name__,
            str(exc) or repr(exc),
            host=host,
        )


def main() -> int:
    # Mark this process as an executor worker so the kill fault mode
    # (repro.testing.faults) is allowed to actually kill it.
    os.environ[EXECUTOR_WORKER_ENV] = "1"
    host = socket.gethostname() or "worker"
    data = sys.stdin.buffer.read()
    try:
        task = decode_task(data)
    except WireProtocolError as exc:
        print(f"remote_worker: bad task document: {exc}", file=sys.stderr)
        return EXIT_BAD_TASK
    reply = run_task(task, host)
    sys.stdout.buffer.write(reply)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
