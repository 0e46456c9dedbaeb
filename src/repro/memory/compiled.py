"""Compiled cache-cascade replay: the ``replay="compiled"`` backend.

The dense L1 -> L2 -> LLC -> DRAM cascade and the BBF victim path are
replayed by a small C kernel (``cascade.c``, built with the system C
compiler and loaded through :mod:`ctypes`) over cache state that lives
in flat arrays for the whole run: :class:`ArrayCache` holds each set as
``ways`` line slots in LRU order (slot 0 is LRU) with a dirty byte per
slot and a fill count per set.  Those slot transitions are the scalar
oracle's dict-insertion transitions (see ``cascade.c``), so counters,
service levels and LRU/dirty state are bit-identical to
:class:`~repro.memory.cache.Cache`, and :meth:`ArrayCache.state_dict`
emits the oracle's snapshot format byte for byte.

The library is built lazily — on the first compiled-mode
:class:`~repro.memory.hierarchy.MemorySystem` of a process, never at
import — and cached in ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``) under a name keyed by the sha256 of the C source,
the compiler command and the platform tag.  Concurrent builders each
compile into their own temp file and publish with ``os.replace``; a
cached file that fails to load (truncated, garbage) is rebuilt.  When
no compiler is available or the build fails, :func:`load_kernel`
returns ``None`` after one :class:`RuntimeWarning`, and the memory
system falls back to scalar replay.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
import warnings
from importlib import resources
from itertools import chain
from typing import Optional, Tuple

import numpy as np

from repro.config import CacheConfig
from repro.locks import exclusive_tmp_path

SOURCE_NAME = "cascade.c"
CFLAGS = ("-O2", "-shared", "-fPIC")

_HITS, _MISSES, _WRITEBACKS, _FILLS = range(4)


class KernelBuildError(RuntimeError):
    """The cascade kernel could not be compiled or loaded."""


class _CacheStruct(ctypes.Structure):
    """Mirror of ``cache_t`` in ``cascade.c``."""

    _fields_ = [
        ("lines", ctypes.c_void_p),
        ("dirty", ctypes.c_void_p),
        ("fill", ctypes.c_void_p),
        ("ctr", ctypes.c_void_p),
        ("num_sets", ctypes.c_int64),
        ("ways", ctypes.c_int64),
    ]


# -- build cache -----------------------------------------------------------


def _find_compiler() -> Optional[str]:
    """Absolute path of the system C compiler, or ``None``."""
    return shutil.which("cc")


def cache_dir() -> str:
    """Directory holding built kernels."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro")


def _source() -> bytes:
    return resources.files("repro.memory").joinpath(SOURCE_NAME).read_bytes()


def _open(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    ptr = ctypes.POINTER(_CacheStruct)
    lib.spade_access.argtypes = [
        ptr, ctypes.c_int64, ctypes.c_int, ctypes.POINTER(ctypes.c_int64),
    ]
    lib.spade_access.restype = ctypes.c_int
    lib.spade_replay.argtypes = [ptr] * 4 + [ctypes.c_void_p] * 2 + [
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
    ]
    lib.spade_replay.restype = ctypes.c_int64
    return lib


def build_library(directory: str) -> ctypes.CDLL:
    """Load the kernel cached in ``directory``, building it first when
    it is missing or does not load.  Raises :class:`KernelBuildError`."""
    compiler = _find_compiler()
    if compiler is None:
        raise KernelBuildError("no C compiler found on PATH (looked for 'cc')")
    source = _source()
    cmd = [compiler, *CFLAGS]
    key = hashlib.sha256(
        b"\0".join((
            source, " ".join(cmd).encode(), sysconfig.get_platform().encode(),
        ))
    ).hexdigest()
    path = os.path.join(directory, f"cascade-{key[:24]}.so")
    if os.path.exists(path):
        try:
            return _open(path)
        except OSError:
            pass  # truncated or foreign file: rebuild over it
    try:
        os.makedirs(directory, exist_ok=True)
        tmp = exclusive_tmp_path(path)
    except OSError as exc:
        raise KernelBuildError(f"cannot write to {directory}: {exc}") from exc
    try:
        with tempfile.TemporaryDirectory() as work:
            src = os.path.join(work, SOURCE_NAME)
            with open(src, "wb") as fh:
                fh.write(source)
            proc = subprocess.run(
                [*cmd, "-o", tmp, src], capture_output=True, text=True,
            )
        if proc.returncode != 0:
            raise KernelBuildError(
                f"{' '.join(cmd)} failed: {proc.stderr.strip()}"
            )
        _open(tmp)  # never publish a library that does not load
        os.replace(tmp, path)
    except OSError as exc:
        raise KernelBuildError(f"building {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return _open(path)


_LOAD_LOCK = threading.Lock()
_KERNEL: Tuple[bool, Optional[ctypes.CDLL]] = (False, None)
"""(attempted, library) — the per-process load result."""


def load_kernel() -> Optional[ctypes.CDLL]:
    """The cascade kernel, built and loaded once per process; ``None``
    (after one :class:`RuntimeWarning` quoting the error) when it
    cannot be built."""
    global _KERNEL
    with _LOAD_LOCK:
        attempted, lib = _KERNEL
        if not attempted:
            try:
                lib = build_library(cache_dir())
            except KernelBuildError as exc:
                warnings.warn(
                    f"compiled replay unavailable, using scalar replay: {exc}",
                    RuntimeWarning, stacklevel=2,
                )
                lib = None
            _KERNEL = (True, lib)
        return lib


# -- array-backed cache ------------------------------------------------------


class ArrayCache:
    """Set-associative, write-back, write-allocate cache over flat
    arrays, driven by the compiled kernel.  Same public surface and
    snapshot format as :class:`~repro.memory.cache.Cache`."""

    __slots__ = (
        "name", "num_sets", "ways", "flush_writebacks",
        "_lines", "_dirty", "_fill", "_ctr", "_lib", "c", "_evicted",
    )

    def __init__(
        self, config: CacheConfig, name: str = "cache", lib=None,
    ) -> None:
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.associativity
        self._lib = lib if lib is not None else load_kernel()
        if self._lib is None:
            raise KernelBuildError("the compiled cascade kernel is unavailable")
        self._lines = np.zeros(self.num_sets * self.ways, dtype=np.int64)
        self._dirty = np.zeros(self.num_sets * self.ways, dtype=np.uint8)
        self._fill = np.zeros(self.num_sets, dtype=np.int32)
        self._ctr = np.zeros(4, dtype=np.int64)
        self.flush_writebacks = 0
        # The kernel writes through these pointers, so the arrays are
        # only ever updated in place.
        self.c = _CacheStruct(
            self._lines.ctypes.data, self._dirty.ctypes.data,
            self._fill.ctypes.data, self._ctr.ctypes.data,
            self.num_sets, self.ways,
        )
        self._evicted = ctypes.c_int64()

    def _counter(i: int):  # noqa: N805 - property factory
        def get(self) -> int:
            return int(self._ctr[i])

        def set_(self, value: int) -> None:
            self._ctr[i] = value

        return property(get, set_)

    hits = _counter(_HITS)
    misses = _counter(_MISSES)
    writebacks = _counter(_WRITEBACKS)
    fills = _counter(_FILLS)
    del _counter

    # -- core operations -----------------------------------------------

    def access(self, line: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Access one line; returns ``(hit, evicted_dirty_line)`` like
        :meth:`Cache.access`."""
        if line < 0:
            raise ValueError(f"{self.name}: negative line {line}")
        ev = self._evicted
        hit = self._lib.spade_access(self.c, line, bool(is_write), ev)
        return bool(hit), (ev.value if ev.value >= 0 else None)

    def _set_slots(self, line: int) -> Tuple[int, int]:
        s = line % self.num_sets
        return s * self.ways, int(self._fill[s])

    def probe(self, line: int) -> bool:
        """Check residency without updating LRU state or counters."""
        base, n = self._set_slots(line)
        return bool((self._lines[base:base + n] == line).any())

    def invalidate(self, line: int) -> bool:
        """Drop one line if present; returns whether it was dirty."""
        base, n = self._set_slots(line)
        hit = np.flatnonzero(self._lines[base:base + n] == line)
        if hit.size == 0:
            return False
        i = base + int(hit[0])
        end = base + n
        dirty = bool(self._dirty[i])
        self._lines[i:end - 1] = self._lines[i + 1:end].copy()
        self._dirty[i:end - 1] = self._dirty[i + 1:end].copy()
        self._fill[line % self.num_sets] = n - 1
        return dirty

    def _valid(self) -> np.ndarray:
        """Mask of occupied slots, shaped like the slot arrays."""
        return (
            np.arange(self.ways, dtype=np.int32)[None, :] < self._fill[:, None]
        ).ravel()

    def flush(self) -> int:
        """Write back and invalidate everything; returns the number of
        dirty lines written back (see :meth:`Cache.flush`)."""
        dirty_count = self.dirty_lines()
        self._fill[:] = 0
        self._dirty[:] = 0
        self.writebacks += dirty_count
        self.flush_writebacks += dirty_count
        return dirty_count

    # -- inspection ------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def occupancy(self) -> int:
        """Number of resident lines."""
        return int(self._fill.sum())

    def dirty_lines(self) -> int:
        return int(np.count_nonzero(self._dirty[self._valid()]))

    def reset_stats(self) -> None:
        self._ctr[:] = 0
        self.flush_writebacks = 0

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """:meth:`Cache.state_dict`'s format: per-set ``(line, dirty)``
        pairs in LRU order plus the live counters."""
        lines = self._lines.tolist()
        dirty = self._dirty.astype(bool).tolist()
        w = self.ways
        return {
            "sets": [
                list(zip(lines[b:b + n], dirty[b:b + n]))
                for b, n in zip(range(0, len(lines), w), self._fill.tolist())
            ],
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "fills": self.fills,
            "flush_writebacks": self.flush_writebacks,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken from either cache class."""
        sets = state["sets"]
        if len(sets) != self.num_sets:
            raise ValueError(
                f"{self.name}: snapshot has {len(sets)} sets, "
                f"cache has {self.num_sets}"
            )
        counts = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        if counts.size and int(counts.max()) > self.ways:
            raise ValueError(
                f"{self.name}: snapshot set holds {int(counts.max())} "
                f"lines, cache has {self.ways} ways"
            )
        flat = list(chain.from_iterable(sets))
        self._lines[:] = 0
        self._dirty[:] = 0
        self._fill[:] = counts
        if flat:
            lines, dirty = zip(*flat)
            starts = np.repeat(np.cumsum(counts) - counts, counts)
            pos = np.repeat(np.arange(self.num_sets) * self.ways, counts)
            pos += np.arange(len(flat)) - starts
            self._lines[pos] = lines
            self._dirty[pos] = dirty
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.writebacks = state["writebacks"]
        self.fills = state["fills"]
        self.flush_writebacks = state["flush_writebacks"]

    def publish_metrics(self, registry, level: str, unit: str) -> None:
        """See :meth:`Cache.publish_metrics`."""
        for metric, value in (
            ("spade_cache_hits_total", self.hits),
            ("spade_cache_misses_total", self.misses),
            ("spade_cache_writebacks_total", self.writebacks),
            ("spade_cache_fills_total", self.fills),
            ("spade_cache_flush_writebacks_total", self.flush_writebacks),
        ):
            registry.counter(metric, level=level, unit=unit).inc(value)

    def __repr__(self) -> str:
        return (
            f"ArrayCache({self.name}, sets={self.num_sets}, "
            f"ways={self.ways}, hits={self.hits}, misses={self.misses})"
        )
