"""Pluggable executor backends for the sweep supervisor.

See :mod:`repro.experiments.executors.base` for the protocol and
docs/SWEEPS.md for the user-facing story (``--backend`` / ``--hosts``).
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.experiments.executors.base import (
    AUTO_CACHE_DIR,
    LOCAL_HOST,
    ExecutorBackend,
    ExecutorError,
    HostUnavailable,
    RemoteTaskError,
    TaskCrash,
    WireProtocolError,
    WorkerOutcome,
    WorkerTask,
)
from repro.experiments.executors.inline import InlineBackend
from repro.experiments.executors.local import LocalPoolBackend
from repro.experiments.executors.ssh import SshBackend
from repro.experiments.executors.subproc import SubprocessBackend

#: ``--backend`` choices, in documentation order (the in-parent
#: :class:`InlineBackend` is the supervisor's own fallback, not a choice).
BACKENDS = ("local", "subprocess", "ssh")


def create_backend(
    backend: Union[None, str, ExecutorBackend],
    *,
    hosts: Sequence[str] = (),
) -> ExecutorBackend:
    """Resolve a ``--backend`` selection (or pass a live instance through)."""
    if isinstance(backend, ExecutorBackend):
        return backend
    if backend is None or backend == "local":
        return LocalPoolBackend()
    if backend == "subprocess":
        return SubprocessBackend()
    if backend == "ssh":
        if not hosts:
            raise ValueError("the ssh backend requires --hosts HOST1,HOST2,...")
        return SshBackend(hosts)
    raise ValueError(f"unknown executor backend {backend!r}; choose from {BACKENDS}")


__all__ = [
    "AUTO_CACHE_DIR",
    "BACKENDS",
    "ExecutorBackend",
    "ExecutorError",
    "HostUnavailable",
    "InlineBackend",
    "LOCAL_HOST",
    "LocalPoolBackend",
    "RemoteTaskError",
    "SshBackend",
    "SubprocessBackend",
    "TaskCrash",
    "WireProtocolError",
    "WorkerOutcome",
    "WorkerTask",
    "create_backend",
]
