"""Per-route latency and queue-depth counters behind ``GET /v1/metrics``."""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (q in [0, 100])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[int(rank)]


class ServiceMetrics:
    """Request-level counters of the serve layer (docs/SERVING.md).

    Mirrors SHARP's launcher measurements: every request records its
    *outer time* — wall clock from the first byte of the request line to
    the last byte of the response, overhead included — per route, plus a
    queue-depth gauge sampled at every job submit/start.  Thread-safe:
    the event loop and job-runner threads both record into it.

    Latency samples are kept in a bounded ring per route (newest
    ``reservoir`` samples) so a long-running server's memory stays flat;
    counts are exact regardless.
    """

    def __init__(self, reservoir: int = 4096) -> None:
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self._requests: Dict[str, int] = {}
        self._statuses: Dict[int, int] = {}
        self._outer: Dict[str, Deque[float]] = {}
        self._queue_depth = 0
        self._max_queue_depth = 0

    def record_request(self, route: str, status: int, outer_s: float) -> None:
        with self._lock:
            self._requests[route] = self._requests.get(route, 0) + 1
            self._statuses[status] = self._statuses.get(status, 0) + 1
            ring = self._outer.get(route)
            if ring is None:
                ring = self._outer[route] = deque(maxlen=self._reservoir)
            ring.append(outer_s)

    def record_queue_depth(self, depth: int) -> None:
        with self._lock:
            self._queue_depth = depth
            self._max_queue_depth = max(self._max_queue_depth, depth)

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able view of everything recorded so far."""
        with self._lock:
            routes = {}
            for route in sorted(self._requests):
                samples = list(self._outer.get(route, ()))
                entry: Dict[str, object] = {
                    "requests": self._requests[route],
                }
                if samples:
                    entry["outer_s"] = {
                        "p50": percentile(samples, 50),
                        "p95": percentile(samples, 95),
                        "max": max(samples),
                    }
                routes[route] = entry
            return {
                "requests": sum(self._requests.values()),
                "statuses": {
                    str(code): count
                    for code, count in sorted(self._statuses.items())
                },
                "routes": routes,
                "queue_depth": self._queue_depth,
                "max_queue_depth": self._max_queue_depth,
            }
