"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

    python3 -m pytest perfbench -q          # ~2 minutes on 2 CPUs

The last two tests run real sweep-cold passes in fresh interpreters.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402

WORK_COUNTS = ("memo_lookups", "memo_hits", "offchip_accesses", "launched")


def test_self_times_nest_and_sum_to_covered_time():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    recorder.start()
    recorder.wrap("outer", body)()
    recorder.stop()
    recorder.wrap("outer", body)()  # stopped: not recorded

    table = recorder.layer_table()
    assert table["outer"]["calls"] == 1 and table["inner"]["calls"] == 2
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["s"] - table["inner"]["s"]
    )
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(
        table["outer"]["s"]
    )


def test_chrome_export_is_a_valid_trace():
    from repro.sim.observe.chrome import validate_chrome_trace

    recorder = SpanRecorder()
    recorder.start()
    recorder.wrap("outer", lambda: recorder.wrap("inner", lambda: None)())()
    payload = recorder.chrome_trace("test")
    assert validate_chrome_trace(payload) == []
    spans = {e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"}
    assert spans["inner"]["args"]["parent"] == spans["outer"]["args"]["id"]


def test_scaled_times_follow_the_reference_kernel():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(2.0, ref, ref) == pytest.approx(2.0)
    assert hostspeed.scale(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert hostspeed.scale_all([1.0, 3.0], [ref, 2 * ref, 2 * ref]) == pytest.approx(
        [1.0 / 1.5, 1.5])
    with pytest.raises(ValueError):
        hostspeed.scale_all([1.0], [ref])
    wall, cpu = hostspeed.reference()
    assert wall > 0 and cpu > 0
    assert hostspeed.factor([ref, 2 * ref, 4 * ref]) == pytest.approx(0.5)


def test_serve_schedule_is_fixed_by_the_seed():
    first = run.serve_schedule(7, 24)
    assert [(s.due, s.body, s.kind) for s in first] == [
        (s.due, s.body, s.kind) for s in run.serve_schedule(7, 24)
    ]
    assert [s.body for s in run.serve_schedule(8, 24)] != [s.body for s in first]
    new = [s for s in first if s.kind == "new"]
    assert len(new) >= len(run.SERVE_BENCHMARKS)
    for kind in ("dup", "repeat"):
        assert sorted(json.dumps(s.body, sort_keys=True) for s in first if s.kind == kind) \
            == sorted(json.dumps(s.body, sort_keys=True) for s in new)
    assert len({json.dumps(s.body, sort_keys=True) for s in new}) == len(new)
    assert max(s.due for s in first) < 24


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_cold_pass(tmp_path: Path, name: str) -> dict:
    cache = run.reset_dir(tmp_path / f"cache-{name}")
    return run.sweep_pass(
        "cold", 0, cache, tmp_path / f"{name}.json",
        ["--trace", str(tmp_path / name)],
    )


def test_cold_passes_repeat_work_counts_and_layers_cover_wall(tmp_path):
    first = _traced_cold_pass(tmp_path, "first")
    second = _traced_cold_pass(tmp_path, "second")
    for report in (first, second):
        assert report["failures"] == []
        self_sum = sum(r["self_s"] for r in report["layers"].values())
        assert self_sum <= report["wall_s"]
        assert self_sum >= 0.9 * report["wall_s"]
    for key in WORK_COUNTS:
        assert first[key] == second[key], key
    for layer in ("sim.engine", "trace.stage_trace", "sim.hierarchy",
                  "sim.resultcache.store", "workloads.build"):
        assert first["layers"][layer]["calls"] == second["layers"][layer]["calls"]
    assert first["memo_lookups"] > 0 and first["launched"] == 16
    trace = json.loads((tmp_path / "first.trace.json").read_text())
    assert any(e["name"] == "sim.engine" for e in trace["traceEvents"])


def test_tampered_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    digests = json.loads(run.DIGESTS.read_text())
    label = sorted(digests["0"])[0]
    digests["0"][label] = "0" * 64
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(digests))
    monkeypatch.setattr(run, "DIGESTS", tampered)

    code = run.main(["--workload", "sweep-cold", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])

    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["failed"] == 1
    assert f"{label}: v2-full digest mismatch" in out
