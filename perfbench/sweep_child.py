"""One sweep pass in a fresh interpreter (started by ``perfbench/run.py``).

The stage memo and the runner's in-memory memo are process-wide, so every
measured pass runs in its own interpreter and no state leaks between
passes.  Modes:

* ``setup`` - imports, registry and runner built; nothing else.
* ``fill``  - untimed cold pass over two workers that fills the result
  cache for ``warm`` and pickles the results as the warm pass's twins.
* ``cold`` / ``warm`` - the measured pass: the quick subset's 8 benchmarks
  x {copy, limited-copy} through ``SweepRunner(parallel=1)``, then
  ``fig4.run`` ... ``fig9.run`` over the results.

The pass writes one JSON report to ``--out``.  Output checks run after the
timed region and with tracing stopped.  An untraced measured pass also
reports its CPU times scaled to reference host speed (see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from hostspeed import reference_cpu_s, scale_all  # noqa: E402
from spans import FIGURES  # noqa: E402


def canonical_digest(result) -> str:
    """sha256 of a result's canonical ``v2-full`` bytes."""
    from repro.sim.serialize import result_to_full_dict

    payload = json.dumps(
        result_to_full_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def task_label(name: str, version: str) -> str:
    return f"{name}:{version}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("setup", "fill", "cold", "warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--twins", default=None,
                        help="pickle of the fill pass's results: written by "
                        "fill, compared against by warm")
    parser.add_argument("--digests", default=None,
                        help="JSON of expected per-task sha256 by seed")
    parser.add_argument("--trace", default=None,
                        help="path prefix for the span trace and layer table")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from spans import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)

    from repro.bench.harness import QUICK_SWEEP_BENCHMARKS
    from repro import experiments
    from repro.experiments.runner import (
        COPY,
        DEFAULT_BENCH_SCALE,
        LIMITED,
        VERSIONS,
        SweepRunner,
    )
    from repro.sim.engine import SimOptions
    from repro.sim.memo import stage_memo_snapshot
    from repro.workloads import registry

    specs = [registry.get(name) for name in QUICK_SWEEP_BENCHMARKS]
    runner = SweepRunner(
        options=SimOptions(scale=DEFAULT_BENCH_SCALE, seed=args.seed),
        parallel=2 if args.mode == "fill" else 1,
        cache_dir=args.cache_dir,
    )
    # Set-up ends here; its CPU time is the main thread's (helper threads a
    # library starts, e.g. a BLAS pool spinning idle, are not on its path).
    report = {"mode": args.mode, "ready_mono": time.monotonic(),
              "ready_cpu_s": time.thread_time()}
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(report))
        return 0

    if args.mode == "fill":
        runs = runner.sweep(specs)
        twins = {}
        for name, run in runs.items():
            twins[task_label(name, COPY)] = run.copy
            twins[task_label(name, LIMITED)] = run.limited
        with open(args.twins, "wb") as handle:
            pickle.dump(twins, handle, protocol=pickle.HIGHEST_PROTOCOL)
        report["failures"] = [f.describe() for f in runner.last_metrics.failures]
        Path(args.out).write_text(json.dumps(report))
        return 0

    memo_before = stage_memo_snapshot()
    # Each task and each figure is one section, timed in wall and process
    # CPU time.  Untraced, the reference kernel is timed before the first
    # section and after every section (outside the sections), so each
    # section's CPU time is scaled by the host speed measured around it;
    # the traced pass runs no kernel.
    calibrate = reference_cpu_s if recorder is None else (lambda: 0.0)
    walls, cpus = [], []
    references = [calibrate()]

    def section(fn):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            return fn()
        finally:
            cpus.append(time.process_time() - cpu)
            walls.append(time.perf_counter() - wall)
            references.append(calibrate())

    results = {}
    launched = retries = rebuilds = 0
    failures = []
    if recorder is not None:
        recorder.start()
    for spec in specs:
        for version in VERSIONS:
            result = None
            try:
                result = section(lambda: runner.run(spec, version))
            except Exception as exc:  # a failed task is counted, not fatal
                failures.append(f"{spec.full_name}:{version}: {exc}")
            metrics = runner.last_metrics
            launched += metrics.launched
            retries += metrics.retries
            rebuilds += metrics.pool_rebuilds
            if result is not None:
                results[task_label(spec.full_name, version)] = result
    tasks = len(walls)
    rows = {}
    for name in FIGURES:
        run = getattr(experiments, name).run
        if recorder is not None:
            rows[name] = section(
                lambda: recorder.span(f"experiments.{name}", lambda: run(runner, specs)))
        else:
            rows[name] = section(lambda: run(runner, specs))
    if recorder is not None:
        recorder.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    memo_after = stage_memo_snapshot()

    attempted = len(specs) * len(VERSIONS) + len(FIGURES)
    for name, figure_rows in rows.items():
        if len(figure_rows) != len(specs):
            failures.append(f"{name}: {len(figure_rows)} rows, expected {len(specs)}")
    if args.mode == "warm" and launched:
        failures.append(f"warm pass simulated {launched} tasks")

    checked = 0
    if args.digests:
        expected = json.loads(Path(args.digests).read_text()).get(str(args.seed))
        if expected is not None:
            for label, result in sorted(results.items()):
                checked += 1
                if canonical_digest(result) != expected.get(label):
                    failures.append(f"{label}: v2-full digest mismatch")
    if args.mode == "warm" and args.twins:
        from repro.sim.serialize import results_identical

        with open(args.twins, "rb") as handle:
            twins = pickle.load(handle)
        for label, result in sorted(results.items()):
            checked += 1
            twin = twins.get(label)
            if twin is None or not results_identical(result, twin):
                failures.append(f"{label}: warm result differs from its cold twin")

    report.update({
        "wall_s": sum(walls),
        "task_s": walls[:tasks],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "attempted": attempted,
        "checked": checked,
        "failures": failures,
        "launched": launched,
        "retries": retries,
        "pool_rebuilds": rebuilds,
        "memo_hits": memo_after[0] - memo_before[0],
        "memo_lookups": (memo_after[0] + memo_after[1])
        - (memo_before[0] + memo_before[1]),
        "offchip_accesses": sum(r.offchip_accesses() for r in results.values()),
    })
    if recorder is None:
        scaled = scale_all(cpus, references)
        report["norm_cpu_s"] = sum(scaled)
        report["norm_task_s"] = scaled[:tasks]
    else:
        recorder.write(Path(args.trace), f"perfbench sweep-{args.mode}")
        report["layers"] = recorder.layer_table()
        report["counters"] = recorder.counters
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
