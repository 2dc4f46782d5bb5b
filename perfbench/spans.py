"""Host wall-clock spans taken from outside the program.

The benchmark never edits ``src/``.  In a traced process it replaces the
named public entry points of each layer with timing wrappers (see
:data:`LAYER_ENTRY_POINTS`), keeps every span in memory, and writes them
once at the end: a Chrome ``trace_event`` file that loads in Perfetto the
way ``repro trace`` output does, and a per-layer table of calls, total time
and self time.

A span's self time is its duration minus the time its child spans (same
thread, strictly nested) cover, so the self times of all spans sum to the
time the top-level spans cover and never exceed the wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer span name -> (module, attribute path) of each entry point timed.
#: Class methods are patched on the class; module functions are rebound in
#: every ``repro`` module that imported them by name.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.build", "repro.workloads.spec", "BenchmarkSpec.pipeline"),
    ("pipeline.transform", "repro.pipeline.transforms", "remove_copies"),
    ("trace.stage_trace", "repro.trace.generator", "TraceGenerator.stage_trace"),
    ("sim.hierarchy", "repro.sim.hierarchy", "CacheSystem.process_compute"),
    ("sim.hierarchy", "repro.sim.hierarchy", "CacheSystem.process_copy"),
    ("sim.engine", "repro.sim.engine", "simulate"),
    ("sim.serialize.encode", "repro.sim.serialize", "result_to_full_dict"),
    ("sim.serialize.decode", "repro.sim.serialize", "result_from_dict"),
    ("sim.resultcache.store", "repro.sim.resultcache", "ResultCache.store"),
    ("sim.resultcache.load", "repro.sim.resultcache", "ResultCache.load"),
    ("sim.resultcache.key", "repro.sim.resultcache", "cache_key"),
    ("experiments.parallel.run_tasks", "repro.experiments.parallel", "run_tasks"),
    ("analysis.lint", "repro.analysis", "lint_pipeline_memoized"),
)

#: The figure harnesses, timed at their call sites as ``experiments.<fig>``.
FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9")

#: Every layer span name, in report order.
LAYERS = tuple(dict.fromkeys(name for name, _, _ in LAYER_ENTRY_POINTS)) + tuple(
    f"experiments.{fig}" for fig in FIGURES
)

#: Modules imported before patching so every by-name binding exists.
_IMPORT_FIRST = (
    "repro.experiments.runner",
    "repro.experiments.parallel",
    "repro.serve.app",
    "repro.serve.schemas",
)


class SpanRecorder:
    """In-memory span store; one record per call of a wrapped entry point.

    A record is ``[name, start, end, parent_record, thread_id]`` with
    ``perf_counter`` times.  Recording is off until :meth:`start` and off
    again after :meth:`stop`, so set-up and output checks stay untraced.
    """

    def __init__(self) -> None:
        self.records: List[list] = []
        self.enabled = False
        self._local = threading.local()
        #: Layer counters measured at the boundaries (bytes stored, hits).
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()

    def start(self) -> None:
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      threading.get_ident()]
            recorder.records.append(record)
            stack.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Time one call site (the figure harnesses) as a span."""
        return self.wrap(name, fn)()

    # -- summaries -----------------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        child_time: Dict[int, float] = {}
        for name, start, end, parent, _tid in self.records:
            if parent is not None:
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + (
                    end - start
                )
        table: Dict[str, Dict[str, float]] = {}
        for record in self.records:
            name, start, end = record[0], record[1], record[2]
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += (end - start) - child_time.get(id(record), 0.0)
        return table

    def chrome_trace(self, process_name: str) -> Dict[str, Any]:
        """The spans as a Chrome ``trace_event`` object (Perfetto-loadable)."""
        pid = os.getpid()
        origin = min((r[1] for r in self.records), default=0.0)
        ids = {id(r): i for i, r in enumerate(self.records)}
        tids: Dict[int, int] = {}
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": process_name}},
        ]
        for i, (name, start, end, parent, thread) in enumerate(self.records):
            tid = tids.setdefault(thread, len(tids) + 1)
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {
                    "id": i,
                    "parent": ids[id(parent)] if parent is not None else None,
                },
            })
        for thread, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": f"thread-{tid}"}})
        return {
            "traceEvents": events,
            "displayTimeUnit": "us",
            "otherData": {"schema": "perfbench.host-spans/v1",
                          "clock": "perf_counter"},
        }

    def write(self, prefix: Path, process_name: str) -> None:
        """Write ``<prefix>.trace.json`` and ``<prefix>.layers.json``."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        Path(f"{prefix}.trace.json").write_text(
            json.dumps(self.chrome_trace(process_name))
        )
        Path(f"{prefix}.layers.json").write_text(json.dumps(
            {"layers": self.layer_table(), "counters": self.counters},
            indent=1, sort_keys=True,
        ))


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(recorder: SpanRecorder) -> None:
    """Replace every entry point of :data:`LAYER_ENTRY_POINTS` in place."""
    for module_name in _IMPORT_FIRST:
        importlib.import_module(module_name)

    def stored(path: Any) -> None:
        recorder.count("sim.resultcache.store.bytes", os.path.getsize(path))

    def loaded(entry: Any) -> None:
        recorder.count("sim.resultcache.load.hits", entry is not None)

    hooks = {"sim.resultcache.store": stored, "sim.resultcache.load": loaded}
    for name, module_name, path in LAYER_ENTRY_POINTS:
        owner, attr, original = _resolve(module_name, path)
        wrapped = recorder.wrap(name, original, hooks.get(name))
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
