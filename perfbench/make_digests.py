"""Regenerate ``digests.json``: per-task sha256 of canonical v2-full bytes.

    python3 perfbench/make_digests.py [SEED ...]     # default: seed 0

Run it from the root of a checkout of the commit whose results are the
reference.  The sweep-cold workload compares its first pass against the
digests of its seed, when the file has that seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from sweep_child import canonical_digest, task_label

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    seeds = [int(s) for s in (argv if argv is not None else sys.argv[1:])] or [0]
    from repro.bench.harness import QUICK_SWEEP_BENCHMARKS
    from repro.experiments.runner import COPY, DEFAULT_BENCH_SCALE, LIMITED, SweepRunner
    from repro.sim.engine import SimOptions
    from repro.workloads import registry

    path = HERE / "digests.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    specs = [registry.get(name) for name in QUICK_SWEEP_BENCHMARKS]
    for seed in seeds:
        runner = SweepRunner(
            options=SimOptions(scale=DEFAULT_BENCH_SCALE, seed=seed), parallel=2
        )
        runs = runner.sweep(specs)
        if len(runs) != len(specs):
            raise SystemExit(f"seed {seed}: sweep incomplete")
        digests[str(seed)] = {
            task_label(name, version): canonical_digest(result)
            for name, run in sorted(runs.items())
            for version, result in ((COPY, run.copy), (LIMITED, run.limited))
        }
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
