"""Multi-host backend: the subprocess worker, launched over ``ssh HOST``.

Tasks round-robin over the configured hosts.  A host whose *launch* fails
(ssh exits 255 — connection refused, DNS failure, auth trouble) is charged
a host failure and, after ``host_failure_limit`` consecutive ones,
quarantined: the task that hit it is requeued uncharged onto a surviving
host, so a dead machine burns zero task retries.  A successful launch
resets the host's failure count.  When every host is quarantined,
``submit`` raises ``BrokenExecutor`` — the supervisor's bounded recycle
(which resets the quarantine, giving hosts a fresh chance) then applies,
degrading to in-parent execution if the fleet stays dark.

Remote workers run against their *own* result cache (by default the
worker machine's standard location — coordinator paths mean nothing
remotely) and ship the stored entry bytes back for the coordinator's
cache to absorb, so a re-run of a distributed sweep is warm everywhere.

The remote environment must be provisioned out of band: ``ssh HOST
<remote-python> -m repro.experiments.remote_worker`` has to work, i.e.
the package importable and ssh non-interactive (see docs/SWEEPS.md).
Fault-injection env vars do not cross real ssh.
"""

from __future__ import annotations

import os
import shlex
import threading
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set

from repro.experiments.executors.base import (
    AUTO_CACHE_DIR,
    HostUnavailable,
    WorkerOutcome,
    WorkerTask,
)
from repro.experiments.executors.subproc import (
    WORKER_MODULE,
    SubprocessBackend,
    _ChildHandle,
)

#: Environment override of the ssh command (split with shlex) — the CI
#: smoke test points it at a local stand-in; operators can add options.
SSH_CMD_ENV = "REPRO_SSH"

#: ssh(1) reserves exit status 255 for its own failures (the remote
#: command's status is passed through otherwise).
SSH_FAILURE_RC = 255


def _default_ssh_cmd() -> List[str]:
    override = os.environ.get(SSH_CMD_ENV)
    if override:
        return shlex.split(override)
    # BatchMode: never hang on a password prompt inside a sweep.
    return ["ssh", "-o", "BatchMode=yes"]


class SshBackend(SubprocessBackend):
    """``--backend ssh --hosts H1,H2,...``."""

    name = "ssh"
    _host_down_rc = SSH_FAILURE_RC

    def __init__(
        self,
        hosts: Sequence[str],
        *,
        ssh_cmd: Optional[Sequence[str]] = None,
        remote_python: str = "python3",
        remote_cache_dir: Optional[str] = AUTO_CACHE_DIR,
        host_failure_limit: int = 2,
    ) -> None:
        super().__init__()
        self.hosts = tuple(dict.fromkeys(hosts))  # de-dup, keep order
        if not self.hosts:
            raise ValueError("ssh backend requires at least one host")
        self._ssh_cmd = list(ssh_cmd) if ssh_cmd else _default_ssh_cmd()
        self._remote_python = remote_python
        self._remote_cache_dir = remote_cache_dir
        self._host_failure_limit = max(1, host_failure_limit)
        self._host_guard = threading.Lock()
        self._rr = 0
        self._failures: Dict[str, int] = {host: 0 for host in self.hosts}
        self._quarantined: Set[str] = set()

    # -- routing -------------------------------------------------------------

    def _host_for_task(self) -> str:
        with self._host_guard:
            live = [h for h in self.hosts if h not in self._quarantined]
            if not live:
                raise BrokenExecutor(
                    f"all ssh hosts quarantined: {', '.join(self.hosts)}"
                )
            host = live[self._rr % len(live)]
            self._rr += 1
            return host

    def quarantined_hosts(self) -> Set[str]:
        with self._host_guard:
            return set(self._quarantined)

    def _note_launch_failure(self, host: str) -> None:
        with self._host_guard:
            self._failures[host] = self._failures.get(host, 0) + 1
            if self._failures[host] >= self._host_failure_limit:
                self._quarantined.add(host)

    def _note_launch_success(self, host: str) -> None:
        with self._host_guard:
            self._failures[host] = 0

    # -- launch plumbing -----------------------------------------------------

    def _command(self, handle: _ChildHandle) -> List[str]:
        return [
            *self._ssh_cmd,
            str(handle.host),
            self._remote_python,
            "-m",
            WORKER_MODULE,
        ]

    def _shape_task(self, task: WorkerTask, handle: _ChildHandle) -> WorkerTask:
        # Coordinator cache paths are meaningless on a remote filesystem.
        return replace(task, cache_dir=self._remote_cache_dir)

    def _run_child(self, task: WorkerTask, handle: _ChildHandle) -> WorkerOutcome:
        try:
            outcome = super()._run_child(task, handle)
        except HostUnavailable:
            if handle.host is not None:
                self._note_launch_failure(handle.host)
            raise
        if handle.host is not None:
            self._note_launch_success(handle.host)
        return outcome

    # -- lifecycle -----------------------------------------------------------

    def recycle(self) -> None:
        super().recycle()
        # A recycle is the supervisor's "try again" signal: hosts get a
        # fresh chance, and if the fleet is still dark the next submit
        # re-breaks until the bounded rebuild budget degrades in-parent.
        with self._host_guard:
            self._quarantined.clear()
            for host in self._failures:
                self._failures[host] = 0
