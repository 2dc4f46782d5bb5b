"""Sweep-as-a-service: the async HTTP/JSON job API behind ``repro serve``.

The package turns the sweep runner into a long-running service
(docs/SERVING.md):

* :mod:`repro.serve.schemas` — request validation and the stable error /
  job / metrics JSON shapes (``repro.serve.*/v1``).
* :mod:`repro.serve.jobs` — the in-memory job store with content-hash
  single-flight dedup: identical in-flight submissions coalesce into one
  computation.
* :mod:`repro.serve.app` — the asyncio HTTP server (stdlib only): submit,
  poll, stream progress (SSE), cache stats, health, graceful shutdown.
* :mod:`repro.serve.client` — an asyncio client plus the in-process
  :class:`~repro.serve.client.ServerThread` harness the tests and the
  load-test use.
* :mod:`repro.serve.loadtest` — the ``repro loadtest`` harness hammering
  a server with concurrent duplicate-and-distinct jobs and reporting
  dedup/latency numbers.
* :mod:`repro.serve.metrics` — the per-route latency and queue-depth
  counters behind ``GET /v1/metrics``.
"""

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.client import ServeClient, ServeHttpError, ServerThread
from repro.serve.jobs import (
    DONE,
    FAILED,
    PARTIAL,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobStore,
)
from repro.serve.loadtest import LoadTestConfig, check_report, run_loadtest
from repro.serve.schemas import (
    ERROR_SCHEMA,
    JOB_SCHEMA,
    JobSpec,
    JobValidationError,
    error_payload,
    validate_job,
)

__all__ = [
    "DONE",
    "ERROR_SCHEMA",
    "FAILED",
    "JOB_SCHEMA",
    "Job",
    "JobSpec",
    "JobStore",
    "JobValidationError",
    "LoadTestConfig",
    "PARTIAL",
    "QUEUED",
    "RUNNING",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "ServeHttpError",
    "ServerThread",
    "TERMINAL_STATES",
    "check_report",
    "error_payload",
    "run_loadtest",
    "validate_job",
]
