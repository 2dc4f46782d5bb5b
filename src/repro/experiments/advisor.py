"""Optimization advisor: Section VI's implications, per benchmark.

Combines the simulation measurements and analytical models into ranked,
quantified recommendations — which of the paper's optimization targets
(copy removal, communication/computation overlap, compute migration,
coordinated caching, aligned allocation, GPU-side fault handling) applies
to a given benchmark, and roughly how much each is worth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.config.system import SystemConfig
from repro.core.classify import classify_result
from repro.core.migrate import migrated_compute_runtime
from repro.core.overlap import ComponentTimes, component_overlap_runtime
from repro.experiments.report import format_table
from repro.experiments.runner import BenchmarkRun, SweepRunner, default_runner
from repro.sim.hierarchy import Component
from repro.workloads.registry import get
from repro.workloads.spec import BenchmarkSpec


class Optimization(enum.Enum):
    """The optimization targets the paper identifies."""

    REMOVE_COPIES = "remove memory copies"
    OVERLAP = "overlap communication and computation"
    MIGRATE_COMPUTE = "migrate compute between core types"
    COORDINATED_CACHING = "coordinate cache usage (chunk producers/consumers)"
    ALIGNED_ALLOCATION = "use a line-aligned allocator"
    FAULT_HANDLING = "reduce GPU page-fault serialization"


@dataclass(frozen=True)
class Recommendation:
    """One quantified optimization opportunity."""

    optimization: Optimization
    estimated_gain: float  # fraction of the relevant run time recoverable
    rationale: str

    def __post_init__(self) -> None:
        # Gains cannot exceed 100%; regressions (negative gains) can be
        # arbitrarily deep (srad's port loses multiples of its run time).
        if self.estimated_gain > 1.0:
            raise ValueError(f"gain out of range: {self.estimated_gain}")


@dataclass(frozen=True)
class AdvisorReport:
    benchmark: str
    recommendations: List[Recommendation]

    @property
    def top(self) -> Optional[Recommendation]:
        return self.recommendations[0] if self.recommendations else None

    def render(self) -> str:
        rows = [
            (r.optimization.value, f"{r.estimated_gain:+.0%}", r.rationale)
            for r in self.recommendations
        ]
        return format_table(
            ("Optimization", "Est. gain", "Rationale"),
            rows,
            title=f"Optimization advisor: {self.benchmark}",
        )


MIN_GAIN = 0.02


def advise(
    spec: BenchmarkSpec, runner: Optional[SweepRunner] = None
) -> AdvisorReport:
    """Produce ranked recommendations for one benchmark."""
    runner = runner or default_runner()
    return advise_pair(runner.pair(spec), runner.heterogeneous)


def advise_pair(pair: BenchmarkRun, heterogeneous: SystemConfig) -> AdvisorReport:
    """Rank the recommendations for an already simulated pair;
    ``heterogeneous`` is the machine the migration model assumes."""
    recommendations: List[Recommendation] = []

    recommendations += _advise_copy_removal(pair)
    recommendations += _advise_overlap(pair)
    recommendations += _advise_migration(pair, heterogeneous)
    recommendations += _advise_caching(pair)
    recommendations += _advise_alignment(pair)
    recommendations += _advise_faults(pair)

    recommendations = [r for r in recommendations if abs(r.estimated_gain) >= MIN_GAIN]
    recommendations.sort(key=lambda r: r.estimated_gain, reverse=True)
    return AdvisorReport(benchmark=pair.spec.full_name, recommendations=recommendations)


def advise_benchmark(
    name: str, runner: Optional[SweepRunner] = None
) -> AdvisorReport:
    """Convenience lookup-then-advise."""
    return advise(get(name), runner)


# --- individual analyses -----------------------------------------------------


def _advise_copy_removal(pair: BenchmarkRun) -> List[Recommendation]:
    gain = 1.0 - pair.limited.roi_s / pair.copy.roi_s
    copy_share = (
        pair.copy.busy_time(Component.COPY) / pair.copy.roi_s
        if pair.copy.roi_s
        else 0.0
    )
    if gain >= 0:
        rationale = (
            f"copies occupy {copy_share:.0%} of the baseline; porting to the "
            f"heterogeneous processor recovers {gain:.0%}"
        )
    else:
        rationale = (
            "porting currently loses time (see fault handling below); copy "
            f"share is {copy_share:.0%}"
        )
    return [Recommendation(Optimization.REMOVE_COPIES, gain, rationale)]


def _advise_overlap(pair: BenchmarkRun) -> List[Recommendation]:
    times = ComponentTimes.from_result(pair.limited)
    estimate = component_overlap_runtime(times)
    gain = 1.0 - estimate.runtime_s / pair.limited.roi_s if pair.limited.roi_s else 0.0
    return [
        Recommendation(
            Optimization.OVERLAP,
            gain,
            f"Eq. 1 bound with {estimate.bottleneck.value} as the bottleneck "
            f"({estimate.bottleneck_s:.2e}s of work to hide behind)",
        )
    ]


def _advise_migration(
    pair: BenchmarkRun, heterogeneous: SystemConfig
) -> List[Recommendation]:
    times = ComponentTimes.from_result(pair.limited)
    estimate = migrated_compute_runtime(
        times, heterogeneous, float(pair.limited.offchip_bytes())
    )
    gain = 1.0 - estimate.runtime_s / pair.limited.roi_s if pair.limited.roi_s else 0.0
    return [
        Recommendation(
            Optimization.MIGRATE_COMPUTE,
            gain,
            f"Eqs. 2-4 with the {estimate.bound.value} bound binding",
        )
    ]


def _advise_caching(pair: BenchmarkRun) -> List[Recommendation]:
    classification = classify_result(pair.limited)
    avoidable = (
        classification.avoidable / classification.total
        if classification.total
        else 0.0
    )
    # Removing avoidable accesses buys run time in proportion to how
    # memory-bound the benchmark is.
    memory_share = _memory_bound_share(pair)
    gain = avoidable * memory_share
    return [
        Recommendation(
            Optimization.COORDINATED_CACHING,
            gain,
            f"{avoidable:.0%} of off-chip accesses are spills/contention; "
            f"benchmark is ~{memory_share:.0%} memory-bound",
        )
    ]


def _memory_bound_share(pair: BenchmarkRun) -> float:
    total = 0.0
    memory = 0.0
    for record in pair.limited.stages:
        total += record.duration_s
        memory += min(record.timing.memory_s + record.timing.latency_s,
                      record.duration_s)
    return memory / total if total else 0.0


def _advise_alignment(pair: BenchmarkRun) -> List[Recommendation]:
    if not pair.spec.misaligned_limited_copy:
        return []
    copy_gpu = pair.copy.offchip_by_component()[Component.GPU]
    limited_gpu = pair.limited.offchip_by_component()[Component.GPU]
    if not copy_gpu:
        return []
    inflation = max(0.0, limited_gpu / copy_gpu - 1.0)
    gain = min(1.0, inflation / (1.0 + inflation)) * _memory_bound_share(pair)
    return [
        Recommendation(
            Optimization.ALIGNED_ALLOCATION,
            gain,
            f"misalignment inflates GPU off-chip accesses by {inflation:.0%}",
        )
    ]


def _advise_faults(pair: BenchmarkRun) -> List[Recommendation]:
    fault_time = sum(record.timing.fault_s for record in pair.limited.stages)
    if not pair.limited.roi_s or fault_time <= 0.0:
        return []
    gain = fault_time / pair.limited.roi_s
    return [
        Recommendation(
            Optimization.FAULT_HANDLING,
            gain,
            f"CPU-handled GPU page faults serialize {gain:.0%} of the run "
            "(GPU-side handling or pre-touching would remove it)",
        )
    ]
