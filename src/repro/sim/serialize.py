"""JSON serialization of simulation results.

Lets users archive sweeps, diff runs across library versions, or feed the
numbers into external plotting tools.  The off-chip log is summarized (not
dumped raw) to keep files small; pass ``include_log=True`` to keep it.

Two schemas are emitted:

* ``repro.sim_result/v1`` — the human-oriented summary
  (:func:`result_to_dict`), derived metrics included, not reconstructible.
* ``repro.sim_result/v2-full`` — the lossless form
  (:func:`result_to_full_dict` / :func:`result_from_dict`) that round-trips
  a :class:`SimResult` bit-for-bit.  The persistent sweep cache
  (:mod:`repro.sim.resultcache`) stores its fields, with the log and
  footprint arrays as binary columns (``result_to_full_dict(arrays=True)``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

import numpy as np

from repro.sim.hierarchy import Component
from repro.sim.results import (
    Interval,
    InvariantViolation,
    SimResult,
    StageRecord,
)
from repro.sim.timing import StageTiming
from repro.pipeline.stage import StageKind

SCHEMA_V1 = "repro.sim_result/v1"
SCHEMA_FULL = "repro.sim_result/v2-full"

#: Canonical dtype of each off-chip log array, keyed by its ``log`` slot.
LOG_DTYPES = {
    "blocks": np.dtype(np.int64),
    "is_write": np.dtype(bool),
    "stage": np.dtype(np.int32),
    "component": np.dtype(np.int8),
    "logical_of_ordinal": np.dtype(np.int32),
}

#: Canonical dtype of every per-component ``touched_blocks`` array.
TOUCHED_DTYPE = np.dtype(np.int64)


def _log_arrays(result: SimResult) -> Dict[str, np.ndarray]:
    """The off-chip log's arrays, keyed by their ``log`` slot."""
    return {
        "blocks": result.log_blocks,
        "is_write": result.log_is_write,
        "stage": result.log_stage,
        "component": result.log_component,
        "logical_of_ordinal": result.logical_of_ordinal,
    }


def result_to_dict(result: SimResult, include_log: bool = False) -> Dict[str, Any]:
    """Convert a :class:`SimResult` to plain JSON-compatible data."""
    payload: Dict[str, Any] = {
        "schema": SCHEMA_V1,
        "pipeline": result.pipeline_name,
        "system": result.system_kind,
        "roi_s": result.roi_s,
        "line_bytes": result.line_bytes,
        "total_flops": result.total_flops,
        "busy_s": {
            component.value: result.busy_time(component) for component in Component
        },
        "utilization": {
            component.value: result.utilization(component)
            for component in Component
        },
        "offchip_accesses": result.offchip_accesses(),
        "offchip_by_component": {
            component.value: count
            for component, count in result.offchip_by_component().items()
        },
        "footprint_bytes": result.total_footprint_bytes(),
        "footprint_by_component": {
            component.value: size
            for component, size in result.footprint_bytes_by_component().items()
        },
        "serial_launch_s": result.serial_launch_time(),
        "stages": [
            {
                "name": record.name,
                "logical": record.logical,
                "kind": record.kind.value,
                "component": record.component.value,
                "start_s": record.start_s,
                "end_s": record.end_s,
                "compute_s": record.timing.compute_s,
                "memory_s": record.timing.memory_s,
                "latency_s": record.timing.latency_s,
                "fault_s": record.timing.fault_s,
                "requests": record.requests,
                "offchip_reads": record.offchip_reads,
                "offchip_writes": record.offchip_writes,
                "onchip_transfers": record.onchip_transfers,
                "faults": record.faults,
            }
            for record in result.stages
        ],
    }
    if include_log:
        payload["log"] = {
            slot: array.tolist() for slot, array in _log_arrays(result).items()
        }
    return payload


def result_to_json(
    result: SimResult, include_log: bool = False, indent: Optional[int] = 2
) -> str:
    """Serialize a result to a JSON string."""
    return json.dumps(result_to_dict(result, include_log=include_log), indent=indent)


def summary_from_json(text: str) -> Dict[str, Any]:
    """Load a serialized result and return its top-level summary fields.

    Raises ``ValueError`` on schema mismatch so stale archives fail loudly.
    """
    payload = json.loads(text)
    schema = payload.get("schema")
    if schema not in (SCHEMA_V1, SCHEMA_FULL):
        raise ValueError(f"unsupported schema {schema!r}")
    return payload


# -- lossless round trip ------------------------------------------------------


def _interval_pairs(intervals) -> list:
    return [[iv.start, iv.end] for iv in intervals]


def result_to_full_dict(result: SimResult, arrays: bool = False) -> Dict[str, Any]:
    """Lossless ``repro.sim_result/v2-full`` form of a result.

    Supersets the v1 summary with everything :func:`result_from_dict` needs
    to rebuild the :class:`SimResult` exactly: busy/launch intervals, the raw
    off-chip log, per-component touched-block sets, FLOP attribution, and
    per-stage ordinals.  JSON floats round-trip exactly (``repr`` encoding),
    so serialize-then-load yields bit-identical results.

    With ``arrays=True`` the ``log`` and ``touched_blocks`` slots hold the
    result's own ndarrays instead of int lists: the form the binary result
    cache (:mod:`repro.sim.resultcache`) stores column by column.
    :func:`result_from_dict` accepts either form.
    """
    payload = result_to_dict(result)
    log = _log_arrays(result)
    payload["log"] = (
        log if arrays else {slot: array.tolist() for slot, array in log.items()}
    )
    payload["schema"] = SCHEMA_FULL
    for entry, record in zip(payload["stages"], result.stages):
        entry["ordinal"] = record.ordinal
        entry["flops"] = record.flops
    payload["busy"] = {
        component.value: _interval_pairs(intervals)
        for component, intervals in result.busy.items()
    }
    payload["launch_intervals"] = _interval_pairs(result.launch_intervals)
    payload["touched_blocks"] = {
        component.value: blocks if arrays else blocks.tolist()
        for component, blocks in result.touched_blocks.items()
    }
    payload["flops_by_component"] = {
        component.value: flops
        for component, flops in result.flops_by_component.items()
    }
    # Optional (engine >= repro-sim/2): invariant-monitor findings.  Only
    # written when present so clean traces stay byte-compatible with
    # pre-violations archives.
    if result.violations:
        payload["violations"] = [
            {
                "rule": violation.rule,
                "message": violation.message,
                "ordinal": violation.ordinal,
                "component": violation.component,
                "measured": violation.measured,
                "expected": violation.expected,
            }
            for violation in result.violations
        ]
    return payload


def result_from_dict(payload: Dict[str, Any]) -> SimResult:
    """Rebuild a :class:`SimResult` from its ``v2-full`` dictionary."""
    schema = payload.get("schema")
    if schema != SCHEMA_FULL:
        raise ValueError(
            f"cannot reconstruct a result from schema {schema!r}; "
            f"only {SCHEMA_FULL!r} archives are lossless"
        )
    stages = tuple(
        StageRecord(
            name=entry["name"],
            logical=entry["logical"],
            kind=StageKind(entry["kind"]),
            component=Component(entry["component"]),
            ordinal=int(entry["ordinal"]),
            start_s=entry["start_s"],
            end_s=entry["end_s"],
            timing=StageTiming(
                compute_s=entry["compute_s"],
                memory_s=entry["memory_s"],
                latency_s=entry["latency_s"],
                fault_s=entry["fault_s"],
            ),
            requests=int(entry["requests"]),
            offchip_reads=int(entry["offchip_reads"]),
            offchip_writes=int(entry["offchip_writes"]),
            onchip_transfers=int(entry["onchip_transfers"]),
            faults=int(entry["faults"]),
            flops=float(entry["flops"]),
        )
        for entry in payload["stages"]
    )
    log = payload.get("log", {})
    return SimResult(
        pipeline_name=payload["pipeline"],
        system_kind=payload["system"],
        roi_s=payload["roi_s"],
        stages=stages,
        busy={
            Component(name): [Interval(start, end) for start, end in pairs]
            for name, pairs in payload["busy"].items()
        },
        launch_intervals=[
            Interval(start, end) for start, end in payload["launch_intervals"]
        ],
        line_bytes=int(payload["line_bytes"]),
        log_blocks=np.asarray(log.get("blocks", []), dtype=LOG_DTYPES["blocks"]),
        log_is_write=np.asarray(
            log.get("is_write", []), dtype=LOG_DTYPES["is_write"]
        ),
        log_stage=np.asarray(log.get("stage", []), dtype=LOG_DTYPES["stage"]),
        log_component=np.asarray(
            log.get("component", []), dtype=LOG_DTYPES["component"]
        ),
        logical_of_ordinal=np.asarray(
            log.get("logical_of_ordinal", []),
            dtype=LOG_DTYPES["logical_of_ordinal"],
        ),
        touched_blocks={
            Component(name): np.asarray(blocks, dtype=TOUCHED_DTYPE)
            for name, blocks in payload["touched_blocks"].items()
        },
        total_flops=float(payload["total_flops"]),
        flops_by_component={
            Component(name): float(flops)
            for name, flops in payload["flops_by_component"].items()
        },
        # Absent from archives written before engine repro-sim/2; default
        # to "no violations" so old cache entries keep deserializing.
        violations=tuple(
            InvariantViolation(
                rule=entry["rule"],
                message=entry["message"],
                ordinal=int(entry.get("ordinal", -1)),
                component=entry.get("component", ""),
                measured=float(entry.get("measured", 0.0)),
                expected=float(entry.get("expected", 0.0)),
            )
            for entry in payload.get("violations", [])
        ),
    )


def results_identical(a: SimResult, b: SimResult) -> bool:
    """True when two results are identical in every serialized field.

    The comparison goes through :func:`result_to_full_dict`, so it covers
    schedules, timings, logs, and footprints — the equality the differential
    (serial vs parallel vs cached) tests rely on.
    """
    return result_to_full_dict(a) == result_to_full_dict(b)
