"""Differential check: the whole-epoch VRF solver vs the oracle VRF.

``_solve_vrf_epoch`` is the fused fast path behind whole-epoch trace
generation: it resolves an entire epoch's VRF access stream in NumPy
(hit/miss classification, eviction order, writeback scheduling, trace
emission) in one shot.  The reference is a loop over
``VectorRegisterFile.access``, the oracle VRF: a miss emits its line
when the slot loads (``op >= 0``), then every returned store follows
as a store op.  The two must agree exactly — emitted trace arrays, all five
VRF counters, the dirty count, and the *ordered* resident-tag map that
seeds the next epoch — across multiple warm epochs so carried state is
covered, not just the cold start.

The grid deliberately includes a large case (``cap=64`` with a long,
wide-reuse stream) that drives the suffix kill-pass in the solver's
marginal-window tier; parity there pins that the kill-pass only ever
prunes queries the exact tier would have rejected anyway.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.vectorized import _OP_NONE, _solve_vrf_epoch
from repro.core.vrf import VectorRegisterFile

_OP_STORE = 1000

_VRF_COUNTERS = (
    "tag_hits",
    "tag_misses",
    "evictions",
    "eviction_writebacks",
    "manager_writebacks",
    "_dirty_count",
)


def _oracle_stream(vrf: VectorRegisterFile, lines, dirty, emit):
    """Walk a stream through the oracle VRF, returning the emitted
    ``(lines, ops)`` in scalar order."""
    out_lines = []
    out_ops = []
    for line, dm, op in zip(lines.tolist(), dirty.tolist(), emit.tolist()):
        hit, stores = vrf.access(line, mark_dirty=dm)
        if not hit and op >= 0:
            out_lines.append(line)
            out_ops.append(op)
        out_lines.extend(stores)
        out_ops.extend([_OP_STORE] * len(stores))
    return (
        np.asarray(out_lines, dtype=np.int64),
        np.asarray(out_ops, dtype=np.int64),
    )


def _random_stream(rng, n, nlines, line_dirty, none_frac=0.1):
    lines = rng.integers(0, nlines, size=n).astype(np.int64)
    dirty = line_dirty[lines]
    emit = rng.integers(0, 32, size=n).astype(np.int64)
    emit[rng.random(n) < none_frac] = _OP_NONE
    return lines, dirty, emit


def _check_epochs(streams, cap, label):
    """Feed the same epoch streams through oracle and solver, asserting
    bitwise agreement after every epoch (so carried VRF state between
    epochs is exercised, not just the cold start)."""
    vrf_oracle = VectorRegisterFile(cap, 0.25, 0.15)
    vrf_solver = VectorRegisterFile(cap, 0.25, 0.15)
    for ep, (lines, dirty, emit) in enumerate(streams):
        want_lines, want_ops = _oracle_stream(vrf_oracle, lines, dirty, emit)

        sol = _solve_vrf_epoch(
            cap,
            vrf_solver._high,
            vrf_solver._low,
            list(vrf_solver._tags.items()),
            vrf_solver._dirty_count,
            lines,
            dirty,
            emit,
            _OP_STORE,
        )
        assert sol is not None, f"{label} ep{ep}: solver declined"
        (hits, misses, evc, evw, mwb, dc, new_tags,
         got_lines, got_ops, got_pos) = sol

        np.testing.assert_array_equal(
            got_lines, want_lines, err_msg=f"{label} ep{ep}: trace lines"
        )
        np.testing.assert_array_equal(
            got_ops, want_ops, err_msg=f"{label} ep{ep}: trace ops"
        )
        assert np.all(np.diff(got_pos) >= 0), (
            f"{label} ep{ep}: emit positions not monotone"
        )

        vrf_solver.tag_hits += hits
        vrf_solver.tag_misses += misses
        vrf_solver.evictions += evc
        vrf_solver.eviction_writebacks += evw
        vrf_solver.manager_writebacks += mwb
        vrf_solver._dirty_count = dc
        vrf_solver._tags.clear()
        vrf_solver._tags.update(new_tags)

        for attr in _VRF_COUNTERS:
            assert getattr(vrf_oracle, attr) == getattr(vrf_solver, attr), (
                f"{label} ep{ep}: {attr} "
                f"{getattr(vrf_oracle, attr)} != {getattr(vrf_solver, attr)}"
            )
        # Order matters: insertion order is the eviction order the next
        # epoch starts from.
        assert (
            list(vrf_oracle._tags.items())
            == list(vrf_solver._tags.items())
        ), f"{label} ep{ep}: resident tags diverged"


@pytest.mark.parametrize("cap", [4, 16, 64])
@pytest.mark.parametrize("dirty_frac", [0.0, 0.3, 1.0])
def test_solver_matches_walker_random_grid(cap, dirty_frac):
    rng = np.random.default_rng(7 + cap)
    for nlines in (2, cap // 2 + 1, cap * 2, 500):
        for n in (1, 50, 400):
            line_dirty = rng.random(nlines) < dirty_frac
            streams = [
                _random_stream(rng, n, nlines, line_dirty)
                for _ in range(3)
            ]
            _check_epochs(
                streams, cap,
                f"cap={cap} nl={nlines} df={dirty_frac} n={n}",
            )


def test_solver_matches_walker_csr_shaped():
    """Run-length streams: consecutive repeats of each line, the shape
    CSR row panels actually generate."""
    rng = np.random.default_rng(3)
    for cap in (8, 64):
        base = np.repeat(np.arange(40, dtype=np.int64), 50)
        streams = []
        for _ in range(3):
            lines = base + int(rng.integers(0, 3)) * 100
            dirty = lines % 2 == 0
            emit = np.full(base.size, 7, dtype=np.int64)
            streams.append((lines, dirty, emit))
        _check_epochs(streams, cap, f"csr cap={cap}")


def test_solver_matches_walker_suffix_pass_regime():
    """Large-cap, wide-reuse stream: every marginal window's suffix
    holds >= cap distinct lines, so the suffix kill-pass prunes the
    whole exact tier — parity proves the pruning is sound."""
    rng = np.random.default_rng(11)
    cap = 64
    nlines = 300
    line_dirty = rng.random(nlines) < 0.3
    streams = [
        _random_stream(rng, 20_000, nlines, line_dirty)
        for _ in range(2)
    ]
    _check_epochs(streams, cap, "suffix-pass cap=64 n=20000")
