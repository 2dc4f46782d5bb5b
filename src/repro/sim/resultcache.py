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
hash randomization, and restarts.  An entry is a binary columnar envelope
(schema ``repro.sweep_cache/v3``):

* the magic tag :data:`ENTRY_MAGIC`;
* a small length-prefixed JSON header: schema, key, ``sim_wall_s`` and
  the SHA-256 of the payload;
* one zlib (level 1) payload: the scalar, stage, busy and launch fields of
  the lossless ``repro.sim_result/v2-full`` schema of
  :mod:`repro.sim.serialize` as JSON, an array table, then the raw
  little-endian bytes of the five off-chip log arrays and the
  per-component touched-block sets.  Each array is stored in the narrowest
  integer dtype that holds its range and restored to its canonical dtype
  on decode.

The off-chip log is more than 99% of an entry, so it stays in its native
layout instead of round-tripping through JSON int lists.  The codec uses
only the standard library and numpy, never pickle.
:func:`encode_entry_bytes` and :func:`decode_entry_bytes` are its only
codec: the same bytes are the file on disk and a remote worker's reply on
the executor wire, which the coordinator installs verbatim
(:meth:`ResultCache.absorb`).  A wrong magic, schema or key, a checksum
mismatch or any decode error makes an entry a miss, so torn or bit-rotted
bytes never become a trusted result.  :data:`CACHE_SCHEMA` is part of
every key, so entries of older schemas are never looked up.  Every write
goes through one atomic writer (temp file + ``os.replace``), so concurrent
sweep workers sharing one cache directory cannot corrupt it.
The v2-full fields are forward-compatible with optional result fields
(``violations`` from the invariant monitor): a result without one
defaults it — stale *semantics* are instead caught by the
:data:`~repro.sim.engine.ENGINE_VERSION` tag in the key.

The default location is ``~/.cache/repro-sweeps``, overridable with the
``REPRO_CACHE_DIR`` environment variable or an explicit ``cache_dir``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Sequence, Union

import numpy as np

from repro.config.system import SystemConfig
from repro.sim.engine import ENGINE_VERSION, SimOptions
from repro.sim.results import SimResult
from repro.sim.serialize import (
    LOG_DTYPES,
    TOUCHED_DTYPE,
    result_from_dict,
    result_to_full_dict,
)
from repro.workloads.spec import BenchmarkSpec

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Schema tag of the on-disk entry envelope.
CACHE_SCHEMA = "repro.sweep_cache/v3"

#: First bytes of every entry; anything else (a gzip-JSON entry of an
#: older schema, garbage) is a miss.
ENTRY_MAGIC = b"RPSC\x00v3\n"

#: File suffix of an entry.
ENTRY_SUFFIX = ".rsc"

#: Suffixes older schemas wrote.  Such files are never loaded, but the
#: maintenance walkers still list them, so ``repro cache --clear``
#: reclaims them.
LEGACY_SUFFIXES = (".json.gz",)

#: Length prefix of the header and of the payload's field JSON.
_LENGTH = struct.Struct("<I")

#: Storage dtypes of array columns, narrowest first (all little-endian).
_STORAGE_DTYPES = tuple(
    np.dtype(code) for code in ("<u1", "<i1", "<u2", "<i2", "<u4", "<i4", "<i8")
)

#: Elements narrowed and compressed per step when encoding a column.
_ENCODE_SLICE = 1 << 16


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


def _narrowest(array: np.ndarray) -> np.dtype:
    """The narrowest storage dtype that holds every value of ``array``."""
    if array.size == 0:
        return _STORAGE_DTYPES[0]
    low, high = int(array.min()), int(array.max())
    for dtype in _STORAGE_DTYPES:
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return dtype
    raise ValueError(f"array values [{low}, {high}] exceed int64")


def encode_entry_bytes(key: str, result: SimResult, sim_wall_s: float) -> bytes:
    """The bytes of one entry, on disk and on the executor wire alike."""
    fields = result_to_full_dict(result, arrays=True)
    columns = [
        (slot, name, array, _narrowest(array))
        for slot in ("log", "touched_blocks")
        for name, array in fields.pop(slot).items()
    ]
    table = json.dumps(
        {
            "result": fields,
            "arrays": [
                [slot, name, dtype.str, int(array.size)]
                for slot, name, array, dtype in columns
            ],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    # Level 1: cache writes must not dominate small-scale sweeps.  Columns
    # go through the compressor a slice at a time, narrowed as they go, so
    # neither a joined uncompressed payload nor a whole narrowed copy of a
    # column ever exists.
    compressor = zlib.compressobj(1)
    chunks = [
        compressor.compress(_LENGTH.pack(len(table))),
        compressor.compress(table),
    ]
    for _slot, _name, array, dtype in columns:
        for start in range(0, array.size, _ENCODE_SLICE):
            piece = array[start : start + _ENCODE_SLICE]
            chunks.append(
                compressor.compress(np.ascontiguousarray(piece, dtype=dtype))
            )
    chunks.append(compressor.flush())
    return seal_entry(key, chunks, sim_wall_s)


def seal_entry(
    key: str,
    payload: Sequence[bytes],
    sim_wall_s: float = 0.0,
    schema: str = CACHE_SCHEMA,
) -> bytes:
    """Frame a compressed payload (given in chunks) as entry bytes: the
    magic tag, then the JSON header with the payload's SHA-256, then the
    payload."""
    digest = hashlib.sha256()
    for chunk in payload:
        digest.update(chunk)
    header = json.dumps(
        {
            "schema": schema,
            "key": key,
            "sim_wall_s": sim_wall_s,
            "sha256": digest.hexdigest(),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return b"".join([ENTRY_MAGIC, _LENGTH.pack(len(header)), header, *payload])


def decode_entry_bytes(key: str, data: bytes) -> Optional[CacheEntry]:
    """Parse entry bytes (the binary columnar envelope) stored under ``key``.

    A wrong magic, schema or key, a checksum mismatch, or anything that
    fails to decode returns ``None``.  Decoding does no I/O, so any
    ``OSError`` :meth:`ResultCache.load` sees came from reading the file.
    """
    try:
        view = memoryview(data)
        if view[: len(ENTRY_MAGIC)] != ENTRY_MAGIC:
            return None
        start = len(ENTRY_MAGIC) + _LENGTH.size
        (header_size,) = _LENGTH.unpack_from(view, len(ENTRY_MAGIC))
        header = json.loads(bytes(view[start : start + header_size]))
        if header.get("schema") != CACHE_SCHEMA or header.get("key") != key:
            return None
        payload = view[start + header_size :]
        if hashlib.sha256(payload).hexdigest() != header["sha256"]:
            return None
        raw = zlib.decompress(payload)
        (table_size,) = _LENGTH.unpack_from(raw, 0)
        offset = _LENGTH.size + table_size
        table = json.loads(raw[_LENGTH.size : offset])
        fields = table["result"]
        fields["log"], fields["touched_blocks"] = {}, {}
        for slot, name, stored, count in table["arrays"]:
            stored = np.dtype(stored)
            if stored not in _STORAGE_DTYPES:
                return None
            column = np.frombuffer(raw, dtype=stored, count=count, offset=offset)
            offset += column.nbytes
            # Restore the dtype ``result_from_dict`` gives the slot.
            # ``astype`` copies, so the column owns writeable memory and
            # the decompressed buffer is freed with this frame.
            canonical_dtype = LOG_DTYPES[name] if slot == "log" else TOUCHED_DTYPE
            fields[slot][name] = column.astype(canonical_dtype)
        if offset != len(raw):
            return None
        return CacheEntry(
            result=result_from_dict(fields),
            sim_wall_s=float(header["sim_wall_s"]),
        )
    except (
        zlib.error,
        struct.error,
        ValueError,  # includes json.JSONDecodeError and UnicodeDecodeError
        KeyError,
        TypeError,
        AttributeError,
        IndexError,
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
    """Filesystem-backed result store; one binary columnar file per key.

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
        return self.root / key[:2] / f"{key}{ENTRY_SUFFIX}"

    def load(self, key: str) -> Optional[CacheEntry]:
        """Return the stored entry, or None on miss or unreadable file.

        Confirmed-corrupt files (wrong magic, foreign schema or key,
        checksum mismatch, truncated or undecodable payload) are treated
        as misses and removed, so a damaged cache degrades to
        re-simulation, never to an error.
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
        """Every entry file, current schema and legacy suffixes alike."""
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
                names = sorted(
                    path
                    for suffix in (ENTRY_SUFFIX, *LEGACY_SUFFIXES)
                    for path in subdir.glob(f"*{suffix}")
                )
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
