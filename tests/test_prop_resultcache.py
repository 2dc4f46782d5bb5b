"""Property-based tests for persistent cache keying and the entry codec.

The cache key must be a pure function of the run's semantic inputs:
stable across process restarts (no dependence on hash randomization or
object identity), insensitive to dict ordering, and sensitive to every
:class:`SimOptions` field.  The entry codec must round-trip any result
exactly, whatever dtype it narrows each array to on disk.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import discrete_gpu_system
from repro.sim.engine import SimOptions
from repro.sim.hierarchy import Component
from repro.sim.resultcache import (
    _ENCODE_SLICE,
    _STORAGE_DTYPES,
    _narrowest,
    cache_key,
    canonical,
    decode_entry_bytes,
    encode_entry_bytes,
    spec_fingerprint,
)
from repro.sim.results import SimResult
from repro.sim.serialize import results_identical
from repro.workloads.registry import get, simulatable_specs

SPEC = get("rodinia/kmeans")
DISCRETE = discrete_gpu_system()


def sim_options_strategy():
    return st.builds(
        SimOptions,
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([1.0, 1 / 2, 1 / 16, 1 / 32, 1 / 64, 1 / 128]),
        line_bytes=st.sampled_from([32, 64, 128, 256]),
        collect_log=st.booleans(),
        dram_row_model=st.booleans(),
    )


@given(options=sim_options_strategy())
@settings(max_examples=50, deadline=None)
def test_key_is_deterministic_per_options(options):
    first = cache_key(SPEC, "copy", DISCRETE, options)
    second = cache_key(SPEC, "copy", DISCRETE, options)
    assert first == second
    assert len(first) == 64 and set(first) <= set("0123456789abcdef")


@given(a=sim_options_strategy(), b=sim_options_strategy())
@settings(max_examples=100, deadline=None)
def test_key_equal_iff_options_equal(a, b):
    key_a = cache_key(SPEC, "copy", DISCRETE, a)
    key_b = cache_key(SPEC, "copy", DISCRETE, b)
    assert (key_a == key_b) == (a == b)


@given(options=sim_options_strategy())
@settings(max_examples=50, deadline=None)
def test_key_ignores_engine_impl_and_stage_memo(options):
    """Reference/fast engines and memo on/off/auto are bit-identical
    execution strategies, so every variant shares one cache entry."""
    keys = {
        cache_key(
            SPEC,
            "copy",
            DISCRETE,
            dataclasses.replace(options, engine_impl=impl, stage_memo=memo),
        )
        for impl in ("fast", "reference")
        for memo in ("auto", "on", "off")
    }
    assert keys == {cache_key(SPEC, "copy", DISCRETE, options)}


@given(
    items=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
        min_size=1,
        max_size=8,
    ),
    seed=st.randoms(),
)
@settings(max_examples=50, deadline=None)
def test_canonical_json_is_insensitive_to_dict_order(items, seed):
    entries = list(items.items())
    seed.shuffle(entries)
    shuffled = dict(entries)
    assert json.dumps(canonical(items), sort_keys=True) == json.dumps(
        canonical(shuffled), sort_keys=True
    )


@given(spec=st.sampled_from(simulatable_specs()))
@settings(max_examples=20, deadline=None)
def test_spec_fingerprint_is_json_stable(spec):
    fingerprint = spec_fingerprint(spec)
    assert "build" not in fingerprint
    text = json.dumps(fingerprint, sort_keys=True)
    assert json.loads(text) == fingerprint


def test_distinct_benchmarks_never_collide():
    options = SimOptions(scale=1 / 32)
    keys = {
        cache_key(spec, "copy", DISCRETE, options)
        for spec in simulatable_specs()
    }
    assert len(keys) == len(simulatable_specs())


def test_key_is_stable_across_process_restarts():
    """Two interpreters with different hash seeds agree on the key."""
    src_dir = pathlib.Path(__file__).resolve().parent.parent / "src"
    script = (
        "from repro.sim.engine import SimOptions\n"
        "from repro.sim.resultcache import cache_key\n"
        "from repro.config.system import discrete_gpu_system\n"
        "from repro.workloads.registry import get\n"
        "print(cache_key(get('rodinia/kmeans'), 'copy', discrete_gpu_system(),"
        " SimOptions(scale=1/32, seed=11)))\n"
    )
    keys = []
    for hash_seed in ("0", "424242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            capture_output=True,
            text=True,
            env=env,
        ).stdout.strip()
        keys.append(output)
    in_process = cache_key(
        get("rodinia/kmeans"),
        "copy",
        discrete_gpu_system(),
        SimOptions(scale=1 / 32, seed=11),
    )
    assert keys[0] == keys[1] == in_process


# -- the binary entry codec ---------------------------------------------------

INT64 = np.iinfo(np.int64)
INT32 = np.iinfo(np.int32)


def int_arrays(low, high, dtype):
    """1-D arrays (empty included) over [low, high], biased to the ends."""
    edge = st.sampled_from([low, high, low + 1, high - 1, max(low, -1), 0, 1])
    return st.lists(st.one_of(edge, st.integers(low, high)), max_size=40).map(
        lambda values: np.array(values, dtype=dtype)
    )


@st.composite
def sim_results(draw):
    """Synthetic results whose log and footprint arrays span each
    canonical dtype's full range (the codec does not tie their lengths)."""
    components = draw(
        st.lists(st.sampled_from(list(Component)), unique=True, max_size=3)
    )
    return SimResult(
        pipeline_name="prop",
        system_kind="discrete",
        roi_s=draw(st.floats(0, 1e3, allow_nan=False)),
        stages=(),
        busy={},
        launch_intervals=[],
        line_bytes=64,
        log_blocks=draw(int_arrays(INT64.min, INT64.max, np.int64)),
        log_is_write=draw(int_arrays(0, 1, bool)),
        log_stage=draw(int_arrays(INT32.min, INT32.max, np.int32)),
        # Component codes must name a component: the v2-full summary
        # counts accesses per component.
        log_component=draw(int_arrays(0, 2, np.int8)),
        logical_of_ordinal=draw(int_arrays(INT32.min, INT32.max, np.int32)),
        touched_blocks={
            component: draw(int_arrays(INT64.min, INT64.max, np.int64))
            for component in components
        },
    )


@given(result=sim_results(), wall=st.floats(0, 1e6, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_entry_codec_round_trips_through_dtype_narrowing(result, wall):
    key = "ab" * 32
    entry = decode_entry_bytes(key, encode_entry_bytes(key, result, wall))
    assert entry is not None
    assert entry.sim_wall_s == wall
    assert results_identical(entry.result, result)
    decoded = entry.result
    columns = [
        (decoded.log_blocks, np.int64),
        (decoded.log_is_write, np.bool_),
        (decoded.log_stage, np.int32),
        (decoded.log_component, np.int8),
        (decoded.logical_of_ordinal, np.int32),
    ] + [(blocks, np.int64) for blocks in decoded.touched_blocks.values()]
    for array, dtype in columns:
        assert array.dtype == dtype
        assert array.flags.writeable


def test_entry_codec_round_trips_columns_longer_than_one_slice():
    """Columns are narrowed and compressed a slice at a time; a long one
    must come back whole and in order."""
    n = 3 * _ENCODE_SLICE + 5
    rng = np.random.default_rng(7)
    result = SimResult(
        pipeline_name="long",
        system_kind="discrete",
        roi_s=1.0,
        stages=(),
        busy={},
        launch_intervals=[],
        line_bytes=64,
        log_blocks=rng.integers(INT64.min, INT64.max, n, dtype=np.int64),
        log_is_write=rng.integers(0, 2, n).astype(bool),
        log_stage=np.arange(n, dtype=np.int32),
        log_component=rng.integers(0, 3, n).astype(np.int8),
        touched_blocks={Component.GPU: np.arange(n, dtype=np.int64) * 7},
    )
    key = "cd" * 32
    entry = decode_entry_bytes(key, encode_entry_bytes(key, result, 0.0))
    assert entry is not None
    assert results_identical(entry.result, result)


@given(array=int_arrays(INT64.min, INT64.max, np.int64))
@settings(max_examples=200, deadline=None)
def test_narrowest_storage_dtype_holds_the_range_and_no_narrower_does(array):
    dtype = _narrowest(array)
    assert np.array_equal(array.astype(dtype).astype(np.int64), array)
    if array.size:
        for narrower in _STORAGE_DTYPES[: _STORAGE_DTYPES.index(dtype)]:
            info = np.iinfo(narrower)
            assert array.min() < info.min or array.max() > info.max
