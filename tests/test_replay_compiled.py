"""The compiled replay kernel's build cache, fallback, packaging, and the
array-backed cache's snapshot compatibility with the oracle ``Cache``."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from repro.config import CacheConfig, scaled_config
from repro.core.accelerator import SpadeSystem
from repro.memory import compiled
from repro.memory.cache import Cache
from repro.memory.compiled import ArrayCache
from repro.memory.hierarchy import MemorySystem
from repro.sparse.generators import rmat_graph

from tests.test_memory_batched_parity import (
    random_op_trace,
    scalar_system_replay,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _libraries(directory: Path):
    return sorted(p.name for p in directory.glob("cascade-*.so"))


# ---------------------------------------------------------------------------
# Build cache
# ---------------------------------------------------------------------------


def test_build_publishes_one_library_and_reuses_it(tmp_path):
    lib = compiled.build_library(str(tmp_path))
    assert lib.spade_replay is not None
    names = _libraries(tmp_path)
    assert len(names) == 1
    # No temp files left behind; a second call loads, never rebuilds.
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    mtime = (tmp_path / names[0]).stat().st_mtime_ns
    compiled.build_library(str(tmp_path))
    assert (tmp_path / names[0]).stat().st_mtime_ns == mtime


@pytest.mark.parametrize(
    "payload", [b"", b"\x7fELF\x02\x01\x01", b"not a shared object\n"],
    ids=["empty", "truncated", "garbage"],
)
def test_corrupt_cached_library_is_rebuilt(tmp_path, payload):
    # Learn the cache file name from a build elsewhere: a library this
    # process has mapped must not be overwritten in place.
    compiled.build_library(str(tmp_path / "probe"))
    (name,) = _libraries(tmp_path / "probe")
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / name).write_bytes(payload)
    lib = compiled.build_library(str(cache))
    assert lib.spade_access is not None
    assert (cache / name).read_bytes() != payload
    assert _libraries(cache) == [name]


_RACER = """
import sys
from repro.memory import compiled
from repro.memory.compiled import ArrayCache
from repro.config import CacheConfig
lib = compiled.load_kernel()
assert lib is not None, "kernel did not load"
cache = ArrayCache(CacheConfig(size_bytes=4096, associativity=4), lib=lib)
assert cache.access(7, True) == (False, None)
assert cache.access(7) == (True, None)
print("ok")
"""


def test_racing_builders_both_load_a_valid_library(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.strip() == "ok"
        assert "RuntimeWarning" not in err
    built = tmp_path / "repro"
    assert len(_libraries(built)) == 1
    assert not [p for p in built.iterdir() if p.name.endswith(".tmp")]


def test_cache_dir_follows_xdg(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert compiled.cache_dir() == str(tmp_path / "repro")
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert compiled.cache_dir() == os.path.join(
        os.path.expanduser("~"), ".cache", "repro"
    )


def test_import_does_not_build_or_load(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    code = (
        "import repro.core.accelerator, repro.memory.compiled as c, "
        "repro.sweep, repro.cli; assert c._KERNEL == (False, None)"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert not (tmp_path / "repro").exists()


# ---------------------------------------------------------------------------
# No compiler: one warning, scalar replay, identical results
# ---------------------------------------------------------------------------


def _spmm(replay: str):
    a = rmat_graph(scale=8, edge_factor=8, seed=4)
    b = np.random.default_rng(1).random((a.num_cols, 16), dtype=np.float32)
    cfg = dataclasses.replace(scaled_config(4, cache_shrink=8), replay=replay)
    return SpadeSystem(cfg).spmm(a, b)


def test_missing_compiler_falls_back_to_scalar(monkeypatch, tmp_path):
    want = _spmm("scalar")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(compiled, "_find_compiler", lambda: None)
    monkeypatch.setattr(compiled, "_KERNEL", (False, None))
    with pytest.warns(RuntimeWarning, match="no C compiler") as record:
        ms = MemorySystem(scaled_config(2, cache_shrink=8))
    assert len(record) == 1
    assert ms._kernel is None and isinstance(ms.llc, Cache)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the warning is once per process
        got = _spmm("compiled")
    assert got.result.time_ns == want.result.time_ns
    assert dataclasses.asdict(got.stats) == dataclasses.asdict(want.stats)
    np.testing.assert_array_equal(got.output, want.output)
    assert not (tmp_path / "repro").exists()


def test_failed_build_warning_quotes_the_compiler_error(
    monkeypatch, tmp_path
):
    monkeypatch.setattr(compiled, "_source", lambda: b"int broken(;\n")
    monkeypatch.setattr(compiled, "_KERNEL", (False, None))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with pytest.warns(RuntimeWarning, match="error") as record:
        assert compiled.load_kernel() is None
    assert "broken" in str(record[0].message)
    assert not _libraries(tmp_path / "repro")


# ---------------------------------------------------------------------------
# Packaging
# ---------------------------------------------------------------------------


def test_kernel_source_ships_with_the_package():
    source = resources.files("repro.memory").joinpath(compiled.SOURCE_NAME)
    assert source.is_file()
    assert b"spade_replay" in source.read_bytes()


# ---------------------------------------------------------------------------
# Snapshot compatibility between the two cache classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("direction", ["oracle_to_array", "array_to_oracle"])
def test_state_dict_cross_loads_between_cache_classes(direction):
    geom = CacheConfig(size_bytes=3 * 5 * 64, associativity=5)  # 3 sets
    rng = np.random.default_rng(3)
    lines = rng.integers(0, 40, size=300).tolist()
    writes = (rng.random(300) < 0.4).tolist()
    src_cls, dst_cls = (
        (Cache, ArrayCache) if direction == "oracle_to_array"
        else (ArrayCache, Cache)
    )
    src, ref = src_cls(geom), src_cls(geom)
    for line, w in zip(lines[:200], writes[:200]):
        src.access(line, w)
        ref.access(line, w)
    dst = dst_cls(geom)
    dst.load_state_dict(src.state_dict())
    # Byte-for-byte the same snapshot, so checkpoints are portable.
    assert pickle.dumps(dst.state_dict()) == pickle.dumps(src.state_dict())
    for line, w in zip(lines[200:], writes[200:]):
        assert dst.access(line, w) == ref.access(line, w)
    assert dst.state_dict() == ref.state_dict()


def test_array_cache_rejects_foreign_geometry():
    small = Cache(CacheConfig(size_bytes=2 * 2 * 64, associativity=2))
    for line in range(8):
        small.access(line)
    with pytest.raises(ValueError, match="sets"):
        ArrayCache(CacheConfig(size_bytes=4 * 2 * 64, associativity=2)) \
            .load_state_dict(small.state_dict())
    state = small.state_dict()
    state["sets"][0] = [(0, False), (2, False), (4, True)]
    with pytest.raises(ValueError, match="ways"):
        ArrayCache(CacheConfig(size_bytes=2 * 2 * 64, associativity=2)) \
            .load_state_dict(state)


def test_memory_system_snapshots_are_byte_identical_across_modes():
    cfg = scaled_config(4, cache_shrink=8)
    systems = {
        mode: MemorySystem(dataclasses.replace(cfg, replay=mode))
        for mode in ("scalar", "compiled")
    }
    rng = np.random.default_rng(8)
    for _ in range(3):
        pe_id = int(rng.integers(0, cfg.num_pes))
        lines, ops = random_op_trace(rng, 2000, 1 << 12)
        scalar_system_replay(systems["scalar"], pe_id, lines, ops)
        systems["compiled"].replay_trace(pe_id, lines, ops)
    blobs = {
        mode: pickle.dumps(ms.state_dict(), protocol=pickle.HIGHEST_PROTOCOL)
        for mode, ms in systems.items()
    }
    assert blobs["scalar"] == blobs["compiled"]
