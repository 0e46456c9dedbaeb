"""Differential parity: vectorized execution vs the scalar oracle.

The vectorized backend derives each PE's whole-epoch post-VRF trace
with NumPy plus protected-run elision and solves it offline; when the
solver declines a stream it falls back to the PE's buffered scalar
walker.  Both paths must be *bit-identical* to the scalar per-nonzero
oracle on every observable: the emitted trace (content and order),
numeric outputs, simulated time, AccessStats, per-epoch PECounters,
and the VRF's own hit/miss/writeback counters (elision bulk-credits
skipped hits, so these pin that accounting too).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np
import pytest

import repro.core.vectorized as vectorized
from repro.config import scaled_config
from repro.core.accelerator import KernelSettings, SpadeSystem
from repro.core.bypass import BypassPolicy
from repro.core.cpe import ScheduleParams
from repro.core.engine import Engine
from repro.core.instructions import Primitive
from repro.memory.hierarchy import TRACE_REGIONS, MemorySystem
from repro.sparse.generators import rmat_graph, uniform_random
from repro.sparse.tiled import tile_matrix


def _run_engine(
    a,
    k: int,
    kernel: str,
    execution: str,
    replay: str,
    settings: Optional[KernelSettings] = None,
    chunk_nnz: int = 256,
):
    """Build an Engine directly (so PEs stay reachable) and run once."""
    cfg = dataclasses.replace(
        scaled_config(4, cache_shrink=8), execution=execution, replay=replay
    )
    settings = settings or KernelSettings.base()
    system = SpadeSystem(cfg, chunk_nnz=chunk_nnz)
    tiled = tile_matrix(
        a, settings.row_panel_size, settings.col_panel_size
    )
    prim = Primitive.SPMM if kernel == "spmm" else Primitive.SDDMM
    amap = system._build_address_map(tiled, k, prim)
    init = system.cpe.make_initialization(
        prim,
        amap,
        rmatrix_bypass=settings.rmatrix_bypass,
        cmatrix_bypass=False,
        dense_row_size=k,
    )
    policy = BypassPolicy(
        rmatrix_bypass=settings.rmatrix_bypass,
        sparse_stream_bypass=settings.sparse_stream_bypass,
        sddmm_output_bypass=settings.sddmm_output_bypass,
    )
    schedule = system.cpe.build_schedule(
        tiled,
        ScheduleParams(
            use_barriers=settings.use_barriers,
            barrier_group_cols=settings.barrier_group_cols,
        ),
    )
    engine = Engine(cfg, tiled, init, amap, policy, chunk_nnz)
    engine.bind_schedule(schedule)
    rng = np.random.default_rng(7)
    if kernel == "spmm":
        b = rng.random((a.num_cols, k), dtype=np.float32)
        result = engine.run_spmm(schedule, b)
        out = result.output_dense
    else:
        b = rng.random((a.num_rows, k), dtype=np.float32)
        c = rng.random((a.num_cols, k), dtype=np.float32)
        result = engine.run_sddmm(schedule, b, c)
        out = result.output_vals
    return engine, result, out


def _fingerprint(engine: Engine, result, out):
    return {
        "time_ns": result.time_ns,
        "stats": dataclasses.asdict(result.stats),
        "counters": result.counters,
        "epoch_counters": engine._epoch_counters,
        "vrf": [
            (
                pe.vrf.tag_hits,
                pe.vrf.tag_misses,
                pe.vrf.evictions,
                pe.vrf.manager_writebacks,
                pe.vrf.eviction_writebacks,
            )
            for pe in engine.pes
        ],
    }


def _assert_same(a, k, kernel, replay, settings=None, chunk_nnz=256):
    eng_o, res_o, out_o = _run_engine(
        a, k, kernel, "scalar", replay, settings, chunk_nnz
    )
    eng_v, res_v, out_v = _run_engine(
        a, k, kernel, "vectorized", replay, settings, chunk_nnz
    )
    assert np.array_equal(out_o, out_v), "output diverged"
    assert _fingerprint(eng_v, res_v, out_v) == _fingerprint(
        eng_o, res_o, out_o
    ), "state fingerprint diverged"


def _decline_solver(monkeypatch) -> List[int]:
    """Make the epoch solver decline every stream, so each epoch runs
    the scalar-walker fallback.  Returns the list of declines."""
    declines: List[int] = []

    def decline(*args, **kwargs):
        declines.append(1)
        return None

    monkeypatch.setattr(vectorized, "_solve_vrf_epoch", decline)
    return declines


def _trace_stream(monkeypatch, a, kernel, execution, replay) -> List:
    """The per-access stream one run hands the memory system, in call
    order.

    Compiled replay: every ``replay_trace`` call flattened to
    ``(pe_id, line, op)``.  The fused driver may merge consecutive
    same-PE chunks into one call (coalesced dispatch), so call
    boundaries are not an observable; the per-access sequence is —
    shared levels (L2/STLB/LLC/DRAM) see exactly this interleaving.
    Scalar replay: every ``dense_access``/``stream_access`` call, which
    the oracle issues directly and the vectorized backend issues by
    flushing its trace through ``replay_trace_scalar``.
    """
    calls: List = []
    with monkeypatch.context() as mp:
        if replay == "compiled":
            orig = MemorySystem.replay_trace

            def cap(self, pe_id, lines, ops, region_names=TRACE_REGIONS):
                calls.extend(
                    (pe_id, ln, op)
                    for ln, op in zip(
                        np.array(lines).tolist(), np.array(ops).tolist()
                    )
                )
                return orig(self, pe_id, lines, ops, region_names)

            mp.setattr(MemorySystem, "replay_trace", cap)
        else:
            d_orig = MemorySystem.dense_access
            s_orig = MemorySystem.stream_access

            def dense(self, pe_id, line, is_write=False, bypass=False,
                      region=None):
                calls.append(
                    ("dense", pe_id, line, bool(is_write), bool(bypass),
                     region)
                )
                return d_orig(self, pe_id, line, is_write, bypass, region)

            def stream(self, pe_id, line, is_write=False, region=None):
                calls.append(("stream", pe_id, line, bool(is_write), region))
                return s_orig(self, pe_id, line, is_write, region)

            mp.setattr(MemorySystem, "dense_access", dense)
            mp.setattr(MemorySystem, "stream_access", stream)
        _run_engine(a, 16, kernel, execution, replay)
    return calls


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=8, seed=42)


@pytest.fixture(scope="module")
def rect():
    return uniform_random(num_rows=256, num_cols=192, nnz=6_000, seed=13)


class TestExecutionParity:
    # Compiled replay hands each chunk to the kernel in one batch; its
    # ids say ``batched``, against the per-access ``scalar`` oracle.
    # The fused solver keeps the bare ids; ``declined`` makes the
    # solver decline every epoch, so generation runs the fallback.
    @pytest.mark.parametrize(
        "replay,solver",
        [
            ("scalar", "fused"),
            ("compiled", "fused"),
            ("scalar", "declined"),
            ("compiled", "declined"),
        ],
        ids=["scalar", "batched", "scalar-declined", "batched-declined"],
    )
    @pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
    def test_modes_bit_identical(
        self, graph, kernel, replay, solver, monkeypatch
    ):
        if solver == "fused":
            _assert_same(graph, 16, kernel, replay)
            return
        declines = _decline_solver(monkeypatch)
        _assert_same(graph, 16, kernel, replay)
        assert declines, "the solver was never consulted"
        assert _trace_stream(
            monkeypatch, graph, kernel, "vectorized", replay
        ) == _trace_stream(monkeypatch, graph, kernel, "scalar", replay)

    def test_rmatrix_bypass(self, rect):
        _assert_same(
            rect, 16, "spmm", "compiled",
            KernelSettings(rmatrix_bypass=True),
        )

    def test_cached_sparse_stream(self, rect):
        # Pre-CFG4 sparse path: the stream goes through the caches, so
        # the sparse ops take the dense-cached branch of the generators.
        _assert_same(
            rect, 16, "sddmm", "compiled",
            KernelSettings(sparse_stream_bypass=False),
        )

    def test_sddmm_output_through_caches(self, rect):
        _assert_same(
            rect, 16, "sddmm", "scalar",
            KernelSettings(sddmm_output_bypass=False),
        )

    def test_barrier_epochs(self, graph):
        _assert_same(
            graph, 16, "spmm", "compiled",
            KernelSettings(
                row_panel_size=64, col_panel_size=64, use_barriers=True
            ),
        )

    def test_wide_rows_disable_elision(self, rect):
        # K=256 -> 16 lines/row: the elision cadence degenerates to 1
        # (the VRF cannot protect a run), so the generators must fall
        # back to streaming every access and still match the oracle.
        _assert_same(rect, 256, "spmm", "compiled")
        _assert_same(rect, 256, "sddmm", "compiled")

    def test_tiny_chunks(self, rect):
        # chunk_nnz smaller than typical row runs: runs split across
        # chunk boundaries exercise the first/last-touch rules.
        _assert_same(rect, 16, "spmm", "compiled", chunk_nnz=17)


class TestTraceParity:
    """The traces themselves — content *and* order — must match."""

    @pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
    def test_batched_chunk_stream_identical(
        self, graph, kernel, monkeypatch
    ):
        assert _trace_stream(
            monkeypatch, graph, kernel, "vectorized", "compiled"
        ) == _trace_stream(monkeypatch, graph, kernel, "scalar", "compiled")

    @pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
    def test_scalar_replay_access_stream_identical(
        self, rect, kernel, monkeypatch
    ):
        assert _trace_stream(
            monkeypatch, rect, kernel, "vectorized", "scalar"
        ) == _trace_stream(monkeypatch, rect, kernel, "scalar", "scalar")
