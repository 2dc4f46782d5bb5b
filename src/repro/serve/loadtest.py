"""Load/soak harness for the serve API: ``repro loadtest``.

Hammers a server with a mix of duplicate and distinct sweep jobs —
mirroring SHARP's launcher, every request's *outer time* (submit to
terminal status, HTTP overhead included) is measured client-side — then
pulls the server's dedup counters and asserts the service actually
collapsed the duplicates:

* duplicate submissions of one content hash coalesce into a single
  computation (``computed_runs`` ≪ request count),
* warm repeats are answered from the ``ResultCache`` without
  re-simulating (phase 2 computes nothing), and
* warm-hit latency stays under a generous bound.

The harness runs against any live server (``--url``) or boots its own
in-process :class:`~repro.serve.client.ServerThread` (the default, and
what the CI serve-smoke job uses).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient, ServerThread
from repro.serve.metrics import percentile

#: Schema tag of the report dict.
LOADTEST_SCHEMA = "repro.serve.loadtest/v1"


@dataclass(frozen=True)
class LoadTestConfig:
    """Shape of one load-test run.

    ``duplicate_ratio`` is the fraction of requests that re-submit the
    first (hot) job body; the rest are made distinct by varying the seed.
    The default profile is the CI smoke: 200 requests, 80% duplicates,
    32 in flight, one cheap benchmark at a small scale.
    """

    requests: int = 200
    duplicate_ratio: float = 0.8
    concurrency: int = 32
    benchmarks: Tuple[str, ...] = ("rodinia/kmeans",)
    scale: float = 1 / 64
    #: Warm phase: after the main storm, re-submit the hot job this many
    #: times against the now-warm cache and record its latency separately.
    warm_requests: int = 20
    seed: int = 0
    job_timeout_s: float = 120.0

    def bodies(self) -> List[Dict[str, Any]]:
        """The randomized request mix (deterministic under ``seed``)."""
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not 0.0 <= self.duplicate_ratio <= 1.0:
            raise ValueError("duplicate_ratio must be in [0, 1]")
        distinct = max(1, round(self.requests * (1.0 - self.duplicate_ratio)))
        bodies: List[Dict[str, Any]] = []
        for index in range(self.requests):
            # Request i of the distinct set gets its own seed; everything
            # else replays seed 0 — the hot job duplicates coalesce onto.
            seed = (index % distinct) if index < distinct else 0
            bodies.append(self._body(seed))
        rng = random.Random(self.seed)
        rng.shuffle(bodies)
        return bodies

    def _body(self, seed: int) -> Dict[str, Any]:
        return {
            "kind": "sweep",
            "benchmarks": sorted(self.benchmarks),
            "scale": self.scale,
            "seed": seed,
        }

    def distinct_jobs(self) -> int:
        return max(1, round(self.requests * (1.0 - self.duplicate_ratio)))


@dataclass
class _Phase:
    """Client-side latency samples of one load phase."""

    outer_s: List[float] = field(default_factory=list)
    errors: int = 0

    def summary(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "requests": len(self.outer_s) + self.errors,
            "errors": self.errors,
        }
        if self.outer_s:
            body["outer_s"] = {
                "p50": percentile(self.outer_s, 50),
                "p95": percentile(self.outer_s, 95),
                "max": max(self.outer_s),
            }
        return body


async def _fire(
    client: ServeClient,
    bodies: List[Dict[str, Any]],
    concurrency: int,
    timeout_s: float,
) -> Tuple[_Phase, List[str]]:
    """Submit every body (bounded concurrency) and wait each to terminal."""
    phase = _Phase()
    statuses: List[str] = []
    gate = asyncio.Semaphore(max(1, concurrency))

    async def one(body: Dict[str, Any]) -> None:
        async with gate:
            start = time.perf_counter()
            try:
                final = await client.run(body, timeout_s=timeout_s)
            except Exception:
                phase.errors += 1
                return
            phase.outer_s.append(time.perf_counter() - start)
            statuses.append(final["status"])

    await asyncio.gather(*(one(body) for body in bodies))
    return phase, statuses


async def run_loadtest(
    client: ServeClient, config: Optional[LoadTestConfig] = None
) -> Dict[str, Any]:
    """Run the storm + warm phases against ``client``; returns the report."""
    config = config or LoadTestConfig()
    before = (await client.cache_stats())["dedup"]

    storm_bodies = config.bodies()
    storm_start = time.perf_counter()
    storm, storm_statuses = await _fire(
        client, storm_bodies, config.concurrency, config.job_timeout_s
    )
    storm_wall = time.perf_counter() - storm_start
    after_storm = (await client.cache_stats())["dedup"]

    # Warm phase: the hot job again, now terminal, so every submission
    # creates a fresh job answered entirely from the ResultCache.
    warm = _Phase()
    if config.warm_requests > 0:
        warm_bodies = [config._body(0) for _ in range(config.warm_requests)]
        warm, _ = await _fire(
            client, warm_bodies, config.concurrency, config.job_timeout_s
        )
    after_warm = (await client.cache_stats())["dedup"]

    def delta(field_name: str, since: Dict[str, Any]) -> int:
        return int(after_warm[field_name]) - int(since[field_name])

    report: Dict[str, Any] = {
        "schema": LOADTEST_SCHEMA,
        "config": {
            "requests": config.requests,
            "duplicate_ratio": config.duplicate_ratio,
            "concurrency": config.concurrency,
            "benchmarks": list(config.benchmarks),
            "scale": config.scale,
            "warm_requests": config.warm_requests,
            "distinct_jobs": config.distinct_jobs(),
        },
        "storm": {**storm.summary(), "wall_s": storm_wall},
        "storm_statuses": {
            status: storm_statuses.count(status)
            for status in sorted(set(storm_statuses))
        },
        "warm": warm.summary(),
        "server": {
            "submitted": delta("submitted", before),
            "coalesced": delta("coalesced", before),
            "jobs_created": delta("jobs_created", before),
            "computed_runs": delta("computed_runs", before),
            "warm_runs": delta("warm_runs", before),
            "failed_runs": delta("failed_runs", before),
            "warm_phase_computed_runs": int(after_warm["computed_runs"])
            - int(after_storm["computed_runs"]),
        },
    }
    return report


def check_report(
    report: Dict[str, Any],
    *,
    max_computed_fraction: float = 0.5,
    warm_p50_bound_s: float = 2.0,
) -> List[str]:
    """The load test's acceptance gate; returns the violated claims.

    * dedup collapsed duplicates: runs actually computed stay under
      ``max_computed_fraction`` of the runs requested,
    * the warm phase re-simulated nothing, and
    * warm-hit p50 outer time is under ``warm_p50_bound_s`` (generous —
      CI machines are slow; this catches hangs, not microseconds).
    """
    problems: List[str] = []
    server = report["server"]
    storm = report["storm"]
    if storm["errors"]:
        problems.append(f"{storm['errors']} storm request(s) errored")
    warm = report["warm"]
    if warm.get("errors"):
        problems.append(f"{warm['errors']} warm request(s) errored")
    requested = report["config"]["requests"]
    computed = server["computed_runs"]
    # Each distinct job is a pair of runs, so compare against 2x requests.
    budget = max_computed_fraction * 2 * requested
    if computed > budget:
        problems.append(
            f"dedup failed: {computed} runs computed for {requested} "
            f"requests (budget {budget:.0f})"
        )
    if server["warm_phase_computed_runs"] > 0:
        problems.append(
            f"warm phase re-simulated {server['warm_phase_computed_runs']} "
            f"run(s); expected pure cache hits"
        )
    warm_stats = warm.get("outer_s")
    if warm_stats is not None and warm_stats["p50"] > warm_p50_bound_s:
        problems.append(
            f"warm-hit p50 {warm_stats['p50']:.3f}s exceeds the "
            f"{warm_p50_bound_s:.1f}s bound"
        )
    return problems


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_loadtest`'s report."""
    config = report["config"]
    server = report["server"]
    storm = report["storm"]
    lines = [
        f"loadtest: {config['requests']} requests "
        f"({config['distinct_jobs']} distinct jobs, "
        f"{config['duplicate_ratio']:.0%} duplicates) "
        f"x{config['concurrency']} in flight",
        f"  storm:  {storm['requests'] - storm['errors']} ok, "
        f"{storm['errors']} errors in {storm['wall_s']:.1f}s",
    ]
    if "outer_s" in storm:
        lines.append(
            f"          outer_time p50 {storm['outer_s']['p50'] * 1e3:.0f}ms "
            f"p95 {storm['outer_s']['p95'] * 1e3:.0f}ms"
        )
    lines.append(
        f"  dedup:  {server['submitted']} submitted -> "
        f"{server['jobs_created']} jobs ({server['coalesced']} coalesced), "
        f"{server['computed_runs']} runs computed, "
        f"{server['warm_runs']} warm"
    )
    warm = report["warm"]
    if "outer_s" in warm:
        lines.append(
            f"  warm:   {warm['requests']} requests, "
            f"p50 {warm['outer_s']['p50'] * 1e3:.0f}ms, "
            f"{server['warm_phase_computed_runs']} re-simulated"
        )
    return "\n".join(lines)


def loadtest_in_process(
    config: Optional[LoadTestConfig] = None,
    serve_config: Optional[ServeConfig] = None,
) -> Dict[str, Any]:
    """Boot an in-process server, run the load test against it, tear down.

    The default server profile keeps the smoke cheap and deterministic:
    serial in-parent sweeps (``jobs=1`` — the pool adds nothing for
    single-benchmark jobs), four concurrent job executors, and an
    isolated temporary cache directory unless the caller provides one.
    """
    import tempfile

    config = config or LoadTestConfig()
    owned_dir: Optional[tempfile.TemporaryDirectory] = None
    if serve_config is None:
        owned_dir = tempfile.TemporaryDirectory(prefix="repro-loadtest-")
        serve_config = ServeConfig(
            port=0, jobs=1, concurrency=4, cache_dir=owned_dir.name
        )
    try:
        with ServerThread(serve_config) as server:
            client = server.client(timeout_s=config.job_timeout_s)
            return asyncio.run(run_loadtest(client, config))
    finally:
        if owned_dir is not None:
            owned_dir.cleanup()
