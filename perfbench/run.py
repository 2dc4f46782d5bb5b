"""The repository benchmark: sweep-cold, sweep-warm and serve-mixed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` makes the same untraced measurement, then one traced pass
whose per-layer spans (see ``spans.py``) give the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The command exits 1 when
an output check fails and 2 when the program is not there to measure.

Every measured pass runs in a fresh interpreter.  All files go under
``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import hostspeed
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("sweep-cold", "sweep-warm", "serve-mixed")
#: A single child (one pass, one server) may take no longer than this.
CHILD_TIMEOUT_S = 150.0
#: Set-up samples per run: this many set-up-only interpreters (sweeps) or
#: server starts (serve), each between two reference-kernel timings.
SETUP_PROBES = 5

#: serve-mixed: the quick subset, one-benchmark sweep jobs at this scale.
#: The serve workload measures the service layers (HTTP, job store,
#: coalescing, pool, cache); sweep-cold measures simulation.  Small jobs
#: keep the single job slot lightly loaded, so job latencies measure the
#: program rather than how a backlog happened to form.
SERVE_SCALE = 1 / 4096
#: The quick subset (``QUICK_SWEEP_BENCHMARKS``) in the order new jobs
#: cycle through it: expensive and cheap benchmarks alternate, so the
#: backlog does not depend on which run happens to bunch them.
SERVE_BENCHMARKS = (
    "pannotia/pr", "rodinia/kmeans", "pannotia/bc", "rodinia/srad",
    "lonestar/mst", "parboil/histo", "parboil/spmv", "lonestar/bfs",
)
#: A new job is due every NEW_EVERY_S.  The generator times the reference
#: kernel CALIBRATE_AT_S after each new job is due, when the server is idle
#: (the new job and its repeat have finished).  A repeat is due REPEAT_DELAY_S
#: after its original, which has finished by then, so it is a warm cache
#: load; it falls between two new jobs so the two never race.  A duplicate
#: follows its original by DUP_DELAY_S, while it is still queued or
#: running, so it coalesces.
NEW_EVERY_S = 1.0
REPEAT_DELAY_S = 2.5 * NEW_EVERY_S
DUP_DELAY_S = 0.05
CALIBRATE_AT_S = 0.75 * NEW_EVERY_S
#: job_slo_frac counts the jobs that end ``done`` within this limit.
JOB_SLO_S = 5.0
#: A serve run whose generator lag p90 exceeds this fell behind its own
#: schedule; it is flagged as failed rather than scored.
MAX_GENERATOR_LAG_S = 1.0
#: Most HTTP connections the generator holds open at once.
MAX_CONNECTIONS = 2
TERMINAL = ("done", "partial", "failed")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(WORK / "default-cache")
    env.pop("REPRO_FAULTS", None)
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(n: int) -> int:
    """The highest of p50/p75/p90/p95/p99 with at least 10 samples beyond."""
    best = 50
    for q in (75, 90, 95, 99):
        if n * (100 - q) / 100.0 >= 10:
            best = q
    return best


def dir_bytes(path: Path) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Child:
    """A program process, waited with ``wait4`` for the CPU time of it and
    of every descendant it reaped (a server's pool workers).  A child
    that outlives ``CHILD_TIMEOUT_S`` is killed."""

    def __init__(self, argv: Sequence[str]) -> None:
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            list(argv), cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        self.cpu_s = 0.0
        self.returncode: Optional[int] = None
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.kill)
        self._timer.daemon = True
        self._timer.start()

    def kill(self) -> None:
        if self.returncode is None:
            try:
                self.proc.kill()
            except OSError:
                pass

    def wait(self) -> int:
        if self.returncode is None:
            _pid, status, usage = os.wait4(self.proc.pid, 0)
            self._timer.cancel()
            self.returncode = os.waitstatus_to_exitcode(status)
            self.proc.returncode = self.returncode
            self.cpu_s = usage.ru_utime + usage.ru_stime
        return self.returncode


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Reported in the human table only (not in the JSON line).
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


# -- sweep workloads -----------------------------------------------------------


def sweep_pass(mode: str, seed: int, cache: Path, out: Path,
               extra: Sequence[str] = ()) -> Dict[str, Any]:
    """One ``sweep_child.py`` interpreter; returns its report."""
    child = Child([sys.executable, str(HERE / "sweep_child.py"),
                   "--mode", mode, "--seed", str(seed), "--cache-dir", str(cache),
                   "--out", str(out), *extra])
    if child.wait() != 0 or not out.exists():
        raise RuntimeError(f"sweep_child --mode {mode} exited {child.returncode}")
    report = json.loads(out.read_text())
    report["setup_s"] = report["ready_mono"] - child.spawned
    out.unlink()
    return report


def setup_samples(seed: int, work: Path) -> Tuple[List[float], List[float]]:
    """Set-up of ``SETUP_PROBES`` interpreters: wall seconds, and CPU
    seconds at reference speed."""

    def probe() -> Tuple[float, float]:
        report = sweep_pass("setup", seed, work / "setup-cache", work / "setup.json")
        return report["setup_s"], report["ready_cpu_s"]

    samples = [hostspeed.bracketed(probe) for _ in range(SETUP_PROBES)]
    return [wall for wall, _ in samples], [cpu for _, cpu in samples]


def run_sweep(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    work = reset_dir(WORK / workload)
    cold = workload == "sweep-cold"
    cache = work / "cache"
    twins = work / "twins.pkl"
    if not cold:
        fill = sweep_pass("fill", seed, cache, work / "fill.json",
                          ["--twins", str(twins)])
        if fill["failures"]:
            raise RuntimeError(f"fill pass failed: {fill['failures']}")
    raw_setups, setups = setup_samples(seed, work)

    passes: List[Dict[str, Any]] = []
    started = time.monotonic()
    while True:
        extra: List[str] = []
        if cold:
            reset_dir(cache)
            if not passes:
                extra = ["--digests", str(DIGESTS)]
        else:
            extra = [] if passes else ["--twins", str(twins)]
        report = sweep_pass(workload.split("-")[1], seed, cache,
                            work / "pass.json", extra)
        passes.append(report)
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    cache_bytes = dir_bytes(cache)

    outcome = Outcome()
    cpus = [p["norm_cpu_s"] for p in passes]
    tasks = [t for p in passes for t in p["norm_task_s"]]
    walls = [p["wall_s"] for p in passes]
    raw_tasks = [t for p in passes for t in p["task_s"]]
    outcome.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MiB"),
        "cache_mb": (cache_bytes / 2**20, "MiB"),
        "job_p50_s": (percentile(tasks, 50), "s"),
    }
    outcome.extra = {
        "job_p90_s": (percentile(tasks, 90), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "wall_setup_s": (statistics.median(raw_setups), "s"),
        "wall_job_p50_s": (percentile(raw_tasks, 50), "s"),
        "passes": (len(passes), "count"),
        "jobs": (len(tasks), "count"),
        f"job_p{tail_percentile(len(tasks))}_s (tail)": (
            percentile(tasks, tail_percentile(len(tasks))), "s"),
        "checked_results": (sum(p["checked"] for p in passes), "count"),
    }
    outcome.attempted = sum(p["attempted"] for p in passes)
    outcome.failures = [f for p in passes for f in p["failures"]]

    if trace:
        prefix = WORK / f"{workload}-seed{seed}"
        if cold:
            reset_dir(cache)
        traced = sweep_pass(workload.split("-")[1], seed, cache,
                            work / "pass.json", ["--trace", str(prefix)])
        outcome.failures += traced["failures"]
        outcome.layers = sweep_layers(traced, statistics.median(walls))
    shutil.rmtree(work, ignore_errors=True)
    return outcome


def layer_metrics(table: Dict[str, Dict[str, float]],
                  counters: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every layer's calls / s / self_s, named as in the README table;
    a layer the traced process did not run reads 0."""
    out: Dict[str, Tuple[float, str]] = {}
    for name in LAYERS:
        row = table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.s"] = (row["s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    loads = out["sim.resultcache.load.calls"][0]
    out["sim.resultcache.store.bytes"] = (
        counters.get("sim.resultcache.store.bytes", 0), "B")
    out["sim.resultcache.load.hit_ratio"] = (
        counters.get("sim.resultcache.load.hits", 0) / loads if loads else 0.0,
        "ratio")
    out["layers.self_s.sum"] = (sum(r["self_s"] for r in table.values()), "s")
    return out


def sweep_layers(traced: Dict[str, Any], untraced_wall: float) -> Dict[str, Tuple[float, str]]:
    out = layer_metrics(traced["layers"], traced.get("counters", {}))
    lookups = traced["memo_lookups"]
    out.update({
        "sim.offchip_accesses": (traced["offchip_accesses"], "count"),
        "sim.memo.lookups": (lookups, "count"),
        "sim.memo.hits": (traced["memo_hits"], "count"),
        "sim.memo.hit_ratio": (traced["memo_hits"] / lookups if lookups else 0.0, "ratio"),
        "experiments.parallel.retries": (traced["retries"], "count"),
        "experiments.parallel.pool_rebuilds": (traced["pool_rebuilds"], "count"),
        "experiments.parallel.failures": (len(traced["failures"]), "count"),
        "process.cpu_s": (traced["cpu_s"], "s"),
        "bench.traced_wall_s": (traced["wall_s"], "s"),
        "bench.trace_overhead_s": (traced["wall_s"] - untraced_wall, "s"),
        "bench.generator_lag_p90_s": (0.0, "s"),
    })
    for name in ("serve.submit_p50_s", "serve.submit_p90_s"):
        out[name] = (0.0, "s")
    for name in ("serve.coalesced", "serve.warm_runs", "serve.computed_runs",
                 "serve.max_queue_depth"):
        out[name] = (0, "count")
    return out


# -- serve workload ------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Http:
    """Stdlib client holding at most ``MAX_CONNECTIONS`` connections."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def request(self, method: str, path: str, body: Any = None,
                timeout: float = 30.0) -> Tuple[int, Any]:
        with self.slots:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
            try:
                payload = None if body is None else json.dumps(body)
                headers = {"Content-Type": "application/json"} if payload else {}
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = response.read()
                return response.status, json.loads(data) if data else None
            finally:
                conn.close()


def main_thread_cpu_s(pid: int) -> float:
    """CPU seconds the main thread of the live process ``pid`` has used."""
    with open(f"/proc/{pid}/task/{pid}/schedstat") as handle:
        return int(handle.read().split()[0]) / 1e9


def start_server(work: Path, trace_prefix: Optional[Path] = None
                 ) -> Tuple[Child, Http, float, float]:
    """Boot ``repro serve``; returns the child, a client, its set-up wall
    seconds and its main thread's set-up CPU seconds at reference speed."""

    def measure() -> Tuple[Tuple[Child, Http, float], float]:
        child, client, setup = boot_server(work, trace_prefix)
        return (child, client, setup), main_thread_cpu_s(child.proc.pid)

    (child, client, setup), setup_cpu = hostspeed.bracketed(measure)
    return child, client, setup, setup_cpu


def boot_server(work: Path, trace_prefix: Optional[Path]) -> Tuple[Child, Http, float]:
    port = free_port()
    serve_args = ["serve", "--port", str(port), "--jobs", "2", "--concurrency", "1",
                  "--cache-dir", str(work / "cache")]
    if trace_prefix is None:
        child = Child([sys.executable, "-m", "repro.cli", *serve_args])
    else:
        child = Child([sys.executable, str(HERE / "serve_launcher.py"),
                       str(trace_prefix), *serve_args])
    client = Http(port)
    deadline = child.spawned + 60.0
    while time.monotonic() < deadline:
        if child.proc.poll() is not None:
            raise RuntimeError(f"repro serve exited {child.proc.returncode} during start-up")
        try:
            status, _ = client.request("GET", "/health", timeout=5.0)
            if status == 200:
                return child, client, time.monotonic() - child.spawned
        except OSError:
            pass
        time.sleep(0.01)
    child.kill()
    child.wait()
    raise RuntimeError("repro serve did not answer /health within 60 s")


def stop_server(child: Child, client: Http) -> None:
    try:
        client.request("POST", "/v1/shutdown", timeout=10.0)
    except OSError:
        child.proc.send_signal(signal.SIGINT)
    child.wait()


@dataclass
class Submission:
    due: float  # seconds after the schedule's start
    body: Dict[str, Any]
    kind: str  # "new", "dup" or "repeat"
    sent: float = 0.0
    job_id: Optional[str] = None
    status: int = 0
    submit_s: float = 0.0
    error: str = ""


def serve_schedule(seed: int, seconds: float) -> List[Submission]:
    """Fixed mix at a fixed rate: a new job every ``NEW_EVERY_S``, cycling
    through ``SERVE_BENCHMARKS``, each followed by an in-flight duplicate
    and a later repeat.  The seed fixes the jobs' simulation seeds; the
    arrival times and the order are the same in every run, so run-to-run
    differences come from the program."""
    rng = random.Random(seed)
    count = max(len(SERVE_BENCHMARKS),
                int((seconds - REPEAT_DELAY_S - 0.5) / NEW_EVERY_S))
    schedule: List[Submission] = []
    for i in range(count):
        name = SERVE_BENCHMARKS[i % len(SERVE_BENCHMARKS)]
        due = i * NEW_EVERY_S
        body = {"kind": "sweep", "benchmarks": [name], "scale": SERVE_SCALE,
                "seed": rng.randrange(1, 2**31)}
        schedule.append(Submission(due, body, "new"))
        schedule.append(Submission(due + DUP_DELAY_S, body, "dup"))
        schedule.append(Submission(due + REPEAT_DELAY_S, body, "repeat"))
    schedule.sort(key=lambda s: s.due)
    return schedule


def drive(client: Http, schedule: List[Submission], t0: float,
          references: List[Tuple[float, float]]) -> Dict[str, Dict[str, Any]]:
    """Submit open-loop on ``schedule`` (unix time ``t0`` + due), timing the
    reference kernel into ``references`` ``CALIBRATE_AT_S`` after each new
    job, then poll until every job is terminal.  Returns the final job
    list by id."""

    def submit(sub: Submission) -> None:
        sub.sent = time.time()
        try:
            sub.status, body = client.request("POST", "/v1/jobs", sub.body)
            sub.submit_s = time.time() - sub.sent
            if sub.status in (200, 202):
                sub.job_id = body["id"]
            else:
                sub.error = f"HTTP {sub.status}: {body}"
        except (OSError, ValueError, KeyError) as exc:
            sub.error = f"{type(exc).__name__}: {exc}"

    events: List[Tuple[float, Optional[Submission]]] = [(s.due, s) for s in schedule]
    events += [(s.due + CALIBRATE_AT_S, None) for s in schedule if s.kind == "new"]
    events.sort(key=lambda event: event[0])
    with ThreadPoolExecutor(max_workers=MAX_CONNECTIONS) as pool:
        futures = []
        for due, sub in events:
            delay = t0 + due - time.time()
            if delay > 0:
                time.sleep(delay)
            if sub is None:
                references.append(hostspeed.reference())
            else:
                futures.append(pool.submit(submit, sub))
        for future in futures:
            future.result()

    return wait_jobs(client, {s.job_id for s in schedule if s.job_id})


def wait_jobs(client: Http, job_ids: Set[str]) -> Dict[str, Dict[str, Any]]:
    """Poll the job list until every job in ``job_ids`` is terminal."""
    deadline = time.time() + 120.0
    while True:
        _status, listing = client.request("GET", "/v1/jobs")
        jobs = {job["id"]: job for job in (listing or {}).get("jobs", [])}
        if time.time() > deadline or all(
            jobs.get(job_id, {}).get("status") in TERMINAL for job_id in job_ids
        ):
            return jobs
        time.sleep(0.1)


def warm_up(client: Http) -> None:
    """One untimed job over the whole quick subset, with a seed no
    scheduled job uses: the schedule then meets a server in steady state
    (every pipeline linted once, pool code paths run)."""
    status, body = client.request("POST", "/v1/jobs", {
        "kind": "sweep", "benchmarks": list(SERVE_BENCHMARKS),
        "scale": SERVE_SCALE, "seed": 0,
    })
    if status != 202:
        raise RuntimeError(f"warm-up job refused: HTTP {status}: {body}")
    job = wait_jobs(client, {body["id"]}).get(body["id"], {})
    if job.get("status") != "done":
        raise RuntimeError(f"warm-up job ended {job.get('status')}")


def serve_session(seed: int, seconds: float, work: Path,
                  trace_prefix: Optional[Path]) -> Dict[str, Any]:
    """One server lifetime driven by the seed's schedule."""
    reset_dir(work / "cache")
    child, client, setup, setup_cpu = start_server(work, trace_prefix)
    references: List[Tuple[float, float]] = []
    try:
        warm_up(client)
        schedule = serve_schedule(seed, seconds)
        t0 = time.time() + 0.2
        jobs = drive(client, schedule, t0, references)
        results: Dict[str, Any] = {}
        for job_id in {s.job_id for s in schedule if s.job_id}:
            _status, results[job_id] = client.request("GET", f"/v1/jobs/{job_id}")
        _status, metrics = client.request("GET", "/v1/metrics")
        server_peak_mb = peak_rss_mb(child.proc.pid)
    finally:
        stop_server(child, client)

    failures: List[str] = []
    latencies: List[float] = []
    done_in_slo = 0
    runs_by_body: Dict[str, Any] = {}
    finished = []
    for sub in schedule:
        job = jobs.get(sub.job_id or "")
        if sub.error or job is None:
            failures.append(f"{sub.kind} {sub.body['benchmarks'][0]}: {sub.error or 'no job'}")
            continue
        if job["status"] != "done":
            failures.append(f"{sub.job_id} ended {job['status']}")
            continue
        latency = job["finished_unix"] - (t0 + sub.due)
        latencies.append(latency)
        finished.append(job["finished_unix"])
        done_in_slo += latency <= JOB_SLO_S
        runs = (results.get(sub.job_id) or {}).get("result", {}).get("runs")
        key = json.dumps(sub.body, sort_keys=True)
        if runs is None or len(runs) != 2:
            failures.append(f"{sub.job_id}: missing per-run results")
        elif runs_by_body.setdefault(key, runs) != runs:
            failures.append(f"{sub.job_id}: repeated body returned different runs")
    lags = [s.sent - (t0 + s.due) for s in schedule if s.sent]
    lag_p90 = percentile(lags, 90)
    if lag_p90 > MAX_GENERATOR_LAG_S:
        failures.append(f"generator fell behind: lag p90 {lag_p90:.2f} s")
    service = (metrics or {}).get("service", {})
    dedup = (metrics or {}).get("dedup", {})
    return {
        "setup_s": setup,
        "setup_cpu_s": setup_cpu,
        "wall_factor": hostspeed.factor([wall for wall, _ in references]),
        "cpu_factor": hostspeed.factor([cpu for _, cpu in references]),
        "wall_s": (max(finished) - t0) if finished else 0.0,
        "peak_rss_mb": server_peak_mb,
        "cpu_s": child.cpu_s,
        "cache_bytes": dir_bytes(work / "cache"),
        "latencies": latencies,
        "slo_frac": done_in_slo / len(schedule),
        "attempted": len(schedule),
        "failures": failures,
        "lag_p90": lag_p90,
        "submit_s": [s.submit_s for s in schedule if s.job_id],
        "coalesced": dedup.get("coalesced", 0),
        "warm_runs": dedup.get("warm_runs", 0),
        "computed_runs": dedup.get("computed_runs", 0),
        "failed_runs": dedup.get("failed_runs", 0),
        "max_queue_depth": service.get("max_queue_depth", 0),
    }


def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    work = reset_dir(WORK / "serve-mixed")
    raw_setups, setups = [], []
    for _ in range(SETUP_PROBES - 1):
        child, client, setup, setup_cpu = start_server(work)
        stop_server(child, client)
        raw_setups.append(setup)
        setups.append(setup_cpu)
    session = serve_session(seed, seconds, work, None)
    raw_setups.append(session["setup_s"])
    setups.append(session["setup_cpu_s"])
    raw_lat = session["latencies"]
    lat = [t * session["wall_factor"] for t in raw_lat]
    outcome = Outcome(attempted=session["attempted"], failures=session["failures"])
    outcome.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (session["cpu_s"] * session["cpu_factor"], "s"),
        "peak_rss_mb": (session["peak_rss_mb"], "MiB"),
        "cache_mb": (session["cache_bytes"] / 2**20, "MiB"),
        "job_p50_s": (percentile(lat, 50), "s"),
    }
    outcome.extra = {
        "job_p90_s": (percentile(lat, 90), "s"),
        "wall_s": (session["wall_s"], "s"),
        "wall_setup_s": (statistics.median(raw_setups), "s"),
        "wall_job_p50_s": (percentile(raw_lat, 50), "s"),
        "job_slo_frac": (session["slo_frac"], "ratio"),
        "jobs": (len(lat), "count"),
        f"job_p{tail_percentile(len(lat))}_s (tail)": (
            percentile(lat, tail_percentile(len(lat))), "s"),
        "bench.generator_lag_p90_s": (session["lag_p90"], "s"),
    }
    if trace:
        prefix = WORK / f"serve-mixed-seed{seed}"
        traced = serve_session(seed, seconds, work, prefix)
        outcome.failures += traced["failures"]
        layers = json.loads(Path(f"{prefix}.layers.json").read_text())
        out = layer_metrics(layers["layers"], layers["counters"])
        out.update({
            "sim.offchip_accesses": (0, "count"),
            "sim.memo.lookups": (0, "count"),
            "sim.memo.hits": (0, "count"),
            "sim.memo.hit_ratio": (0.0, "ratio"),
            "experiments.parallel.retries": (0, "count"),
            "experiments.parallel.pool_rebuilds": (0, "count"),
            "experiments.parallel.failures": (traced["failed_runs"], "count"),
            "process.cpu_s": (traced["cpu_s"], "s"),
            "bench.traced_wall_s": (traced["wall_s"], "s"),
            "bench.trace_overhead_s": (traced["wall_s"] - session["wall_s"], "s"),
            "bench.generator_lag_p90_s": (traced["lag_p90"], "s"),
            "serve.submit_p50_s": (percentile(traced["submit_s"], 50), "s"),
            "serve.submit_p90_s": (percentile(traced["submit_s"], 90), "s"),
            "serve.coalesced": (traced["coalesced"], "count"),
            "serve.warm_runs": (traced["warm_runs"], "count"),
            "serve.computed_runs": (traced["computed_runs"], "count"),
            "serve.max_queue_depth": (traced["max_queue_depth"], "count"),
        })
        outcome.layers = out
    shutil.rmtree(work, ignore_errors=True)
    return outcome


# -- entry point -----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if workload == "serve-mixed":
        return run_serve(seed, seconds, trace)
    return run_sweep(workload, seed, seconds, trace)


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(outcome: Outcome, trace: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    source = outcome.layers if trace else outcome.metrics
    metrics = {}
    for name in names:
        value, unit = source[name]
        metrics[name] = {"value": value, "unit": unit}
    failed = min(len(outcome.failures), outcome.attempted)
    return {"correct": not outcome.failures, "attempted": outcome.attempted,
            "failed": failed, "metrics": metrics}


def print_table(title: str, rows: Dict[str, Tuple[float, str]]) -> None:
    print(f"== {title}")
    for name, (value, unit) in rows.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    WORK.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    line: Dict[str, Any] = {}
    for workload in workloads:
        outcome = run_workload(workload, args.seed, seconds, bool(args.trace))
        error_rate = len(outcome.failures) / max(outcome.attempted, 1)
        print_table(f"{workload} (seed {args.seed})", {
            **outcome.metrics, **outcome.extra,
            "error_rate": (error_rate, "ratio"),
        })
        if args.trace:
            print_table(f"{workload} layers (traced pass)", outcome.layers)
        for failure in outcome.failures:
            print(f"  FAILED {failure}")
        line = result_line(outcome, bool(args.trace), spec)
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for name, value in line["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined if len(workloads) > 1 else line), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
