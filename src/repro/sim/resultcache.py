"""Persistent, content-addressed cache of simulation results.

Every figure of Sections IV/V is derived from the same 46x2 sweep, so the
sweep harness (:mod:`repro.experiments.parallel`) stores each finished
:class:`~repro.sim.results.SimResult` on disk keyed by a stable hash of
everything that determines its value:

* the :class:`~repro.workloads.spec.BenchmarkSpec` (all metadata fields;
  the ``build`` callable is excluded — pipeline-builder changes are covered
  by the engine version tag),
* the sweep version string (``copy`` / ``limited-copy``),
* the full :class:`~repro.config.system.SystemConfig`,
* the full :class:`~repro.sim.engine.SimOptions` (including ``scale`` and
  ``seed`` — two sweeps at different scales never collide) *except*
  ``engine_impl`` and ``stage_memo``, whose settings select between
  bit-identical execution strategies and therefore share entries, and
* :data:`repro.sim.engine.ENGINE_VERSION`, so bumping the tag invalidates
  every archived result at once.

Keys are the SHA-256 of the canonical JSON (sorted keys, no whitespace) of
those inputs, which makes them independent of dict insertion order, process
hash randomization, and restarts.  An entry is a gzip-compressed JSON
envelope around the lossless ``repro.sim_result/v2-full`` schema of
:mod:`repro.sim.serialize`.  :func:`encode_entry_bytes` and
:func:`decode_entry_bytes` are its only codec: the same bytes are the file
on disk and a remote worker's reply on the executor wire, which the
coordinator installs verbatim (:meth:`ResultCache.absorb`).  Every write
goes through one atomic writer (temp file + ``os.replace``), so concurrent
sweep workers sharing one cache directory cannot corrupt it.
The v2-full schema is forward-compatible with optional result fields
(``violations`` from the invariant monitor): entries written before a
field existed still load, defaulting it — stale *semantics* are instead
caught by the :data:`~repro.sim.engine.ENGINE_VERSION` tag in the key.

The default location is ``~/.cache/repro-sweeps``, overridable with the
``REPRO_CACHE_DIR`` environment variable or an explicit ``cache_dir``.
"""

from __future__ import annotations

import dataclasses
import enum
import gzip
import hashlib
import io
import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.config.system import SystemConfig
from repro.sim.engine import ENGINE_VERSION, SimOptions
from repro.sim.results import SimResult
from repro.sim.serialize import result_from_dict, result_to_full_dict
from repro.workloads.spec import BenchmarkSpec

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Schema tag of the on-disk entry envelope.
CACHE_SCHEMA = "repro.sweep_cache/v1"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-sweeps``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-sweeps"


def canonical(value: Any) -> Any:
    """Reduce configs to JSON-able data with a stable, order-free form.

    Dataclasses become field-name dicts, enums their values, tuples lists;
    dict keys are stringified so the canonical JSON dump (sorted keys) is
    insensitive to insertion order.  Unsupported types raise ``TypeError``
    rather than hashing something unstable like a ``repr`` with object ids.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for cache keying")


def spec_fingerprint(spec: BenchmarkSpec) -> Dict[str, Any]:
    """Hashable view of a benchmark spec (every field but ``build``)."""
    return {
        f.name: canonical(getattr(spec, f.name))
        for f in dataclasses.fields(spec)
        if f.name != "build"
    }


def cache_key(
    spec: BenchmarkSpec,
    version: str,
    system: SystemConfig,
    options: SimOptions,
    engine_version: str = ENGINE_VERSION,
) -> str:
    """Stable SHA-256 key of one (benchmark, version, system, options) run."""
    options_view = canonical(options)
    # ``engine_impl`` selects between bit-identical implementations and
    # ``stage_memo`` between bit-identical execution strategies (the
    # differential suites in tests/test_engine_equivalence.py and
    # tests/test_stage_memo.py enforce this), so both are deliberately
    # excluded from the key: reference/fast and memo-on/off runs share
    # cache entries, and keys match those written before the options
    # existed.  tests/test_prop_resultcache.py::
    # test_key_ignores_engine_impl_and_stage_memo pins this sharing.
    options_view.pop("engine_impl", None)
    options_view.pop("stage_memo", None)
    payload = {
        "schema": CACHE_SCHEMA,
        "engine": engine_version,
        "benchmark": spec_fingerprint(spec),
        "version": version,
        "system": canonical(system),
        "options": options_view,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """A stored result plus the wall time its simulation originally took.

    ``sim_wall_s`` lets sweep metrics estimate the serial time a cache hit
    saved without re-running anything.
    """

    result: SimResult
    sim_wall_s: float


def encode_entry_bytes(key: str, result: SimResult, sim_wall_s: float) -> bytes:
    """The bytes of one entry, on disk and on the executor wire alike."""
    # ``json.dumps`` uses the C encoder; ``json.dump`` to a stream takes
    # the interpreted iterencode path, profiled at >3x the cost of the
    # simulation on a cold sweep.  The envelope and its text are
    # temporaries, so each is freed as soon as the next form exists.
    data = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "key": key,
            "engine": ENGINE_VERSION,
            "sim_wall_s": sim_wall_s,
            "result": result_to_full_dict(result),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    # Level 1: the log arrays compress ~4x either way, and cache writes
    # must not dominate small-scale sweeps.
    return gzip.compress(data, compresslevel=1)


def decode_entry_bytes(key: str, data: bytes) -> Optional[CacheEntry]:
    """Parse entry bytes (the gzip-JSON envelope) stored under ``key``.

    Anything torn, foreign, or mis-keyed returns ``None``.  An ``OSError``
    that is not a gzip format error propagates, so :meth:`ResultCache.load`
    can tell a transient I/O failure from a damaged entry.
    """
    try:
        with gzip.open(io.BytesIO(data), "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("schema") != CACHE_SCHEMA or payload.get("key") != key:
            return None
        return CacheEntry(
            result=result_from_dict(payload["result"]),
            sim_wall_s=float(payload.get("sim_wall_s", 0.0)),
        )
    except (
        gzip.BadGzipFile,
        EOFError,
        zlib.error,
        UnicodeDecodeError,
        ValueError,  # includes json.JSONDecodeError
        KeyError,
        TypeError,
        AttributeError,
    ):
        return None


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``path`` through a temp file and ``os.replace``, so a reader
    sees the old file or the new one, never a torn write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:8]}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultCache:
    """Filesystem-backed result store; one gzip-JSON file per key.

    Entries are written atomically, so readers never observe torn data,
    and threads or processes may store the same key concurrently (the
    last replace wins; both wrote the same entry).  Nothing here stops two
    clients that miss on one key from both simulating it: the sweep
    supervisor runs each key once per sweep, and ``repro serve`` coalesces
    identical jobs by content hash.
    """

    def __init__(self, root: Union[None, str, Path] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        # Two-level fan-out keeps directories small for big sweeps.
        return self.root / key[:2] / f"{key}.json.gz"

    def load(self, key: str) -> Optional[CacheEntry]:
        """Return the stored entry, or None on miss or unreadable file.

        Confirmed-corrupt files (bad gzip stream, truncated data, invalid
        JSON, foreign schema) are treated as misses and removed, so a
        damaged cache degrades to re-simulation, never to an error.
        Transient I/O failures (``EACCES``, disk hiccups) are misses too,
        but the entry is *kept* — deleting a healthy file because of a
        momentary read error would throw away a finished simulation.
        """
        path = self.path_for(key)
        try:
            entry = decode_entry_bytes(key, path.read_bytes())
        except OSError:  # missing file or transient read error
            return None
        if entry is None:
            self._discard(path)
        return entry

    @staticmethod
    def _discard(path: Path) -> None:
        """Best-effort removal of a confirmed-corrupt entry."""
        try:
            path.unlink()
        except OSError:
            pass

    def store(self, key: str, result: SimResult, sim_wall_s: float = 0.0) -> Path:
        """Atomically persist one result under ``key``; returns its path."""
        path = self.path_for(key)
        _write_atomic(path, encode_entry_bytes(key, result, sim_wall_s))
        return path

    def absorb(self, key: str, data: bytes) -> Optional[CacheEntry]:
        """Adopt entry bytes a remote worker sent (warm-cache sync).

        Installing them verbatim costs one validating decode and one
        atomic write — no re-simulation, no re-encode.  Returns the
        decoded entry, or ``None`` (and installs nothing) when the bytes
        are damaged or keyed differently.
        """
        entry = decode_entry_bytes(key, data)
        if entry is not None:
            _write_atomic(self.path_for(key), data)
        return entry

    # -- maintenance ---------------------------------------------------------

    def entries(self) -> Iterator[Path]:
        # A concurrent sweep (or ``clear``) may remove entries and fan-out
        # directories while this iterator walks them; vanished paths are
        # simply skipped rather than crashing the listing.
        if not self.root.is_dir():
            return
        try:
            subdirs = sorted(p for p in self.root.iterdir() if p.is_dir())
        except OSError:
            return
        for subdir in subdirs:
            try:
                names = sorted(subdir.glob("*.json.gz"))
            except OSError:
                continue
            yield from names

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass  # unlinked between listing and stat
        return total

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
