"""Vectorized whole-epoch trace generation for the PE layer.

The scalar executors in :mod:`repro.core.pe` walk every nonzero in
Python and push each operand through ``VectorRegisterFile.access``.
This module derives the same VRF access stream for a PE's *whole
epoch* as NumPy arrays straight from the tiles' CSR/COO index slices
(line-id arithmetic through :class:`~repro.memory.address.AddressMap`),
elides accesses that are provably invisible hits, and solves what
remains offline (:func:`_solve_vrf_epoch`).  The emitted ``(lines,
ops)`` trace, the VRF state and counters, and therefore everything
downstream (replay, ``AccessStats``, ``PECounters``, timing) are
bit-identical to the scalar oracle — the parity suite in
``tests/test_execution_parity.py`` pins this per access.  When the
solver declines a stream, the epoch falls back to the PE's buffered
scalar walker (``_execute_*_chunk_batched``), chunk by chunk.

Why elision is exact (full argument in DESIGN.md section 7): CSR order
makes the rMatrix operand of consecutive nonzeros repeat in long runs,
and SDDMM output lines repeat in runs of ``CACHE_LINE_BYTES/4``.  An
intermediate touch of such a run is a guaranteed VRF *hit* on an
already-dirty (or clean, for read-only slots) line, so it emits
nothing and leaves the dirty count unchanged; its only effect is an
LRU move of the run's own line.  As long as the line is re-touched
before ``capacity`` distinct other lines intervene, it can never reach
the LRU head (never evicted) and — being the youngest dirty line —
can never enter a Write-back Manager drain set (which keeps the
youngest ``low`` dirty lines).  Hence dropping the intermediate
touches, while keeping the first, the last, and every ``cadence``-th
touch of each run, changes no hit/miss outcome, no eviction victim,
no drain set, and no emission: only ``tag_hits`` must be credited for
the skipped touches, which is done in bulk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.config import CACHE_LINE_BYTES
from repro.sortutil import radix_argsort

_OUT_VALS_PER_LINE = CACHE_LINE_BYTES // 4

_OP_NONE = -1
"""Emission sentinel: a VRF miss that allocates without a memory read
(the SDDMM output slot is write-only)."""

_EPOCH_BLOCK = 256
"""Block width of the per-block distinct-line bound used by the epoch
VRF solver's hit/miss classifier."""

_EPOCH_QUERY_VOLUME_CAP = 1 << 24
"""Upper bound on total window positions the epoch solver will probe
exactly; streams that exceed it (adversarial reuse distances around the
VRF capacity for most accesses) fall back to the scalar walker."""


class TraceBuffer:
    """Growable int64 ``(lines, ops)`` trace storage for one PE.

    Replaces the per-chunk Python-list buffers: storage is preallocated
    and reused across chunks (amortised-doubling growth), the dtype is
    pinned to int64 (no silent float64 upcast on empty extends), and
    ``views()`` hands zero-copy slices to the replay call.
    """

    __slots__ = ("_lines", "_ops", "_n")

    def __init__(self, capacity: int = 4096) -> None:
        cap = max(16, capacity)
        self._lines = np.empty(cap, dtype=np.int64)
        self._ops = np.empty(cap, dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        cap = self._lines.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("_lines", "_ops"):
            old = getattr(self, name)
            arr = np.empty(cap, dtype=np.int64)
            arr[: self._n] = old[: self._n]
            setattr(self, name, arr)

    def extend(self, lines: List[int], ops: List[int]) -> None:
        """Append parallel Python lists (the buffered walker's
        emissions)."""
        k = len(lines)
        if k == 0:
            return
        self._reserve(k)
        n = self._n
        self._lines[n : n + k] = lines
        self._ops[n : n + k] = ops
        self._n = n + k

    def extend_range(self, first: int, count: int, op: int) -> None:
        """Append ``count`` consecutive lines sharing one op (streams)."""
        if count <= 0:
            return
        self._reserve(count)
        n = self._n
        self._lines[n : n + count] = np.arange(
            first, first + count, dtype=np.int64
        )
        self._ops[n : n + count] = op
        self._n = n + count

    def views(self) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy (lines, ops) views of the buffered trace."""
        return self._lines[: self._n], self._ops[: self._n]

    def extend_arrays(self, lines: np.ndarray, ops: np.ndarray) -> None:
        """Append parallel int64 arrays (whole-epoch solver emissions)."""
        k = int(lines.shape[0])
        if k == 0:
            return
        self._reserve(k)
        n = self._n
        self._lines[n : n + k] = lines
        self._ops[n : n + k] = ops
        self._n = n + k

    def clear(self) -> None:
        self._n = 0


def _elision_cadence(
    vrf, slots_per_nnz: int, live_lines: int, dirty_live: int
) -> int:
    """Largest safe re-touch cadence (in nonzeros) for run elision, or
    1 when elision must stay off.

    Between two kept touches of a live run, at most
    ``slots_per_nnz * (cadence + 1)`` other accesses intervene; the
    safety condition keeps that strictly below the VRF capacity minus
    the live lines themselves (so no live line can sink to the LRU
    head), and requires the slot's dirty live lines to fit inside the
    drain floor (the Write-back Manager never drains the youngest
    ``low`` dirty lines, so live dirty lines are never drained).
    """
    if dirty_live > vrf._low:
        return 1
    cadence = (vrf.num_registers - live_lines - 2) // slots_per_nnz - 1
    return cadence if cadence >= 2 else 1


def _run_keep_mask(ids: np.ndarray, cadence: int) -> np.ndarray:
    """Touch schedule over consecutive same-value runs: keep the first
    element of each run, every ``cadence``-th after it, and the last."""
    n = ids.shape[0]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    last = np.empty(n, dtype=bool)
    last[-1] = True
    last[:-1] = first[1:]
    idx = np.arange(n, dtype=np.int32)
    run_start = np.maximum.accumulate(np.where(first, idx, np.int32(0)))
    d = idx - run_start
    keep = first | last
    # Mid-run cadence touches exist only in runs longer than the
    # cadence; the full-array modulo is wasted on typical short runs.
    ext = np.flatnonzero(d >= cadence)
    if ext.size:
        keep[ext] |= (d[ext] % cadence) == 0
    return keep


def buffer_sparse_stream(pe, start_offset: int, nnz: int) -> None:
    """Vectorized Sparse Data Loader: append the tile's r_ids/c_ids/vals
    stream line ranges to the trace buffer as arrays."""
    counters = pe.counters
    idx_b = pe.init.sizeof_indices
    val_b = pe.init.sizeof_vals
    op = pe._op_sparse
    buf = pe._trace
    for region, elem_bytes in (
        ("sparse_r_ids", idx_b),
        ("sparse_c_ids", idx_b),
        ("sparse_vals", val_b),
    ):
        first, count = pe.address_map.stream_lines(
            region, start_offset * elem_bytes, nnz * elem_bytes
        )
        counters.sparse_line_reads += count
        buf.extend_range(first, count, op)


# -- whole-epoch fused generation ---------------------------------------------
#
# Instead of walking every access through ``VectorRegisterFile.access``,
# the epoch solver below solves the *entire epoch's* access stream per
# PE offline: hit/miss classification via stack-distance analysis over
# the fully-associative LRU tag CAM, eviction/victim reconstruction via
# residency periods, and a reduced Python loop that only visits dirty
# events (dirty touches + dirty-capable evictions) to replay the
# Write-back Manager exactly.  The emitted trace, counters and final
# VRF state are bit-identical to the scalar oracle; the solver declines
# (returns None, caller falls back to the PE's buffered scalar walker)
# on streams whose structure it cannot prove cheap or safe.


def _solve_vrf_epoch(
    cap: int,
    high: int,
    low: int,
    residents: List[Tuple[int, bool]],
    dc0: int,
    lines: np.ndarray,
    dirty: np.ndarray,
    emit: np.ndarray,
    op_store: int,
) -> Optional[tuple]:
    """Solve one PE's whole-epoch VRF access stream offline.

    ``residents`` is the warm VRF content as ``(line, dirty)`` pairs in
    LRU order (oldest first) — they are prepended as virtual accesses so
    the classic cold-start stack-distance machinery covers the warm
    cache exactly.  Returns ``None`` when a precondition fails (caller must fall back), else::

        (hits, misses, evictions, eviction_writebacks,
         manager_writebacks, dirty_count, new_tags,
         e_lines, e_ops, e_pos)

    where ``e_*`` are the emissions (miss loads, eviction stores, drain
    stores) in exact scalar order and ``e_pos`` maps each emission to
    the index of the kept access that produced it.

    Preconditions checked here:

    - the warm dirty count must not already exceed the high watermark
      (the scalar walker would drain mid-access-one; never happens at
      epoch boundaries but cheap to refuse);
    - per line, the ``mark_dirty`` flag must be constant across the
      epoch (clean warm residents are wildcards: their first dirty
      touch inserts at write-order MRU exactly like the scalar dict).
      A dirty line receiving a clean touch would reorder the scalar
      LRU without reordering the solver's write-order dict and skew
      drain victim order; kernel streams never do this (dirtiness is a
      per-region constant) but the check makes the solver safe on any
      stream;
    - the exact reuse-window probes must stay under
      ``_EPOCH_QUERY_VOLUME_CAP`` total positions.
    """
    n = int(lines.shape[0])
    nv = len(residents)
    if dc0 > high or nv > cap:
        return None
    if nv:
        vlines = np.fromiter(
            (ln for ln, _ in residents), count=nv, dtype=np.int64
        )
        vdirty = np.fromiter(
            (d for _, d in residents), count=nv, dtype=np.bool_
        )
        all_lines = np.concatenate([vlines, lines])
        all_dirty = np.concatenate([vdirty, dirty])
        emit_full = np.concatenate(
            [np.full(nv, _OP_NONE, dtype=np.int64), emit]
        )
    else:
        vdirty = np.zeros(0, dtype=np.bool_)
        all_lines = lines
        all_dirty = dirty
        emit_full = emit
    total = n + nv

    # Chain previous-occurrence pointers: stable sort by line groups
    # equal lines in position order.
    order = radix_argsort(all_lines)
    sl = all_lines[order]
    same = np.empty(total, dtype=bool)
    same[0] = False
    np.equal(sl[1:], sl[:-1], out=same[1:])
    prev = np.full(total, -1, dtype=np.int64)
    prev[order[1:]] = np.where(same[1:], order[:-1], -1)

    # Per-line dm-constancy precondition (see docstring).
    d_chain = all_dirty[order]
    mism = same[1:] & (d_chain[1:] != d_chain[:-1])
    if nv:
        wild = np.zeros(total, dtype=bool)
        wild[:nv] = ~vdirty
        mism &= ~wild[order][:-1]
    if mism.any():
        return None

    # Hit/miss classification.  An access hits iff its reuse window
    # (exclusive positions between this and the previous occurrence of
    # the same line) holds < cap distinct lines (LRU stack property;
    # drains clean in place and never perturb recency order).
    idx = np.arange(total, dtype=np.int64)
    has_prev = prev >= 0
    gap = idx - prev
    hit = has_prev & (gap <= cap)  # window size gap-1 <= cap-1 < cap
    und = has_prev & ~hit
    if und.any():
        # Sure-miss bound: first-ever occurrences inside the window are
        # pairwise-distinct lines (none equal to this one).
        first_cum = np.cumsum(~has_prev, dtype=np.int32)
        ui = np.flatnonzero(und)
        pq = prev[ui]
        new_in = first_cum[ui - 1] - first_cum[pq]
        ui = ui[new_in < cap]
        if ui.size:
            # Heavy-block bound: a fully-contained block with >= cap
            # distinct lines forces a miss.  Distinct lines in an
            # aligned block are exactly its within-block first touches
            # — positions whose previous occurrence falls before the
            # block — so one reduceat over ``prev < block_start``
            # counts every block without sorting.  A ladder of widths
            # starting at the first power of two >= 2*cap: any window
            # of length >= 2w-1 contains a full aligned w-block, so
            # the smallest rung alone covers every undecided window
            # once blocks at that scale are line-diverse (the common
            # case for cache-unfriendly streams); larger rungs catch
            # windows whose diversity only shows at coarser scales.
            w = 1 << max(6, (2 * int(cap) - 1).bit_length())
            while ui.size and w <= max(_EPOCH_BLOCK, total):
                # A window only contains an aligned w-block if it
                # spans at least w positions, so wider rungs are
                # pointless once every leftover window is shorter.
                if int((ui - prev[ui]).max()) - 1 < w:
                    break
                nb = (total + w - 1) // w
                starts = np.arange(nb, dtype=np.int64) * w
                first_touch = prev < (idx & ~(w - 1))
                dcount = np.add.reduceat(first_touch, starts)
                heavy = np.flatnonzero(dcount >= cap)
                if heavy.size:
                    pq = prev[ui]
                    # Only windows spanning >= w positions can contain
                    # an aligned w-block; check just those candidates.
                    cand = np.flatnonzero(ui - pq > w)
                    uc = ui[cand]
                    bmin = (pq[cand] + w) // w  # first block after prev
                    kk = np.searchsorted(heavy, bmin)
                    kk_c = np.minimum(kk, heavy.size - 1)
                    covered = (kk < heavy.size) & (
                        (heavy[kk_c] + 1) * w <= uc
                    )
                    keep = np.ones(ui.size, dtype=bool)
                    keep[cand[covered]] = False
                    ui = ui[keep]
                if heavy.size == nb:
                    # Every block heavy: any aligned 4w-block is a
                    # union of heavy w-blocks, so wider rungs cannot
                    # cover anything this one did not.
                    break
                w *= 4
        if ui.size:
            # Exact resolution of the leftovers: count distinct lines
            # in each window as positions j with prev[j] <= window
            # start, batched by power-of-two window length.  The probe
            # rows are *contiguous* slices of ``prev`` —
            # sliding_window_view + a row gather copies them at memcpy
            # speed instead of materialising an element-wise index
            # matrix — and an int32 shadow of ``prev`` halves the
            # traffic (positions always fit).  Windows are gathered
            # *right-aligned* (ending at the access): the head overhang
            # then lands in [0, pw] where prev[j] < j <= pw holds for
            # every real position, so the overhang contributes the
            # closed-form count min(pw+1, width-L) and no validity mask
            # is needed.  Front padding of INT32_MAX absorbs negative
            # positions without contributing.
            pq = prev[ui]
            wlen = ui - pq - 1
            if int(wlen.sum()) > _EPOCH_QUERY_VOLUME_CAP:
                return None

            def _bucket_width(length: int) -> int:
                # Multiple-of-64 buckets keep padding waste under
                # ~1.5x where the queries live and give 256-byte
                # aligned int32 probe rows (measurably faster than
                # finer or power-of-two row widths); power-of-two
                # buckets above 1024 bound the bucket count for wide
                # spreads.
                if length <= 1024:
                    return max(64, -(-length // 64) * 64)
                return 1 << (length - 1).bit_length()

            # Suffix kill-pass: the last W window positions form a
            # sub-window (threshold a = i-W-1 >= p) whose distinct
            # count lower-bounds the window's, so reaching cap there
            # is a certain miss.  In gap space the compare is
            # row-independent — prev[j] <= a iff gap[j] >= j-a = c+1
            # for suffix column c — so a uint8 shadow of min(gap, 255)
            # probes at a quarter of the int32 traffic (clamping is
            # safe: the ramp stays <= W <= 254).  W = cap + 8: the
            # smallest suffix that can hold cap distinct lines is cap,
            # and a small margin past that already kills nearly every
            # marginal window on cache-hostile streams; survivors fall
            # through to the exact bucket probes.
            _SUF_W = cap + 8
            wide = wlen >= _SUF_W
            if _SUF_W <= 254 and np.count_nonzero(wide) >= 256:
                g8 = np.minimum(gap, 255).astype(np.uint8)
                uw = ui[wide]  # i >= wlen+1 > W: windows never clip
                sprobe = sliding_window_view(g8, _SUF_W)[uw - _SUF_W]
                ramp = np.arange(1, _SUF_W + 1, dtype=np.uint8)
                scnt = np.count_nonzero(sprobe >= ramp, axis=1)
                dead = np.zeros(ui.size, dtype=bool)
                dead[wide] = scnt >= cap
                # Dead queries are misses; drop them before bucketing.
                keep_q = ~dead
                ui = ui[keep_q]
                pq = pq[keep_q]
                wlen = wlen[keep_q]
        if ui.size:
            qord = radix_argsort(wlen)
            wl_sorted = wlen[qord]
            qhit = np.zeros(ui.size, dtype=bool)
            nq = int(ui.size)
            max_w = _bucket_width(int(wl_sorted[-1]))
            prev_pad = np.empty(total + max_w, dtype=np.int32)
            prev_pad[:max_w] = np.iinfo(np.int32).max  # never <= pw
            prev_pad[max_w:] = prev
            lo_q = 0
            while lo_q < nq:
                width = _bucket_width(int(wl_sorted[lo_q]))
                hi_q = int(
                    np.searchsorted(wl_sorted, width, side="right")
                )
                sel = qord[lo_q:hi_q]
                uq = ui[sel]
                pw = pq[sel]
                probe = sliding_window_view(prev_pad, width)[
                    uq - width + max_w
                ]
                cnt = np.count_nonzero(
                    probe <= pw[:, None].astype(np.int32),
                    axis=1,
                )
                head = np.minimum(pw + 1, width - wlen[sel])
                qhit[sel] = cnt - head < cap
                lo_q = hi_q
            hit[ui] = qhit

    miss = ~hit
    miss_pos = np.flatnonzero(miss)
    n_periods = int(miss_pos.size)
    n_ev = n_periods - cap if n_periods > cap else 0
    evict_pos = miss_pos[cap:] if n_ev else miss_pos[:0]

    # Residency periods: each miss starts one; a period's accesses are
    # the chain-consecutive occurrences of its line up to the line's
    # next miss.  Period end order equals eviction order (a period ends
    # because its line sank to the LRU head and was evicted).
    begins_chain = miss[order]
    pstart_ci = np.flatnonzero(begins_chain)
    pend_ci = np.empty(n_periods, dtype=np.int64)
    pend_ci[:-1] = pstart_ci[1:] - 1
    pend_ci[-1] = total - 1
    p_start = order[pstart_ci]
    p_end = order[pend_ci]
    p_line = all_lines[p_start]
    p_dm = np.logical_or.reduceat(d_chain, pstart_ci)
    # Eviction order = periods sorted by end position.  Ends are
    # pairwise distinct (a position closes at most one period), so a
    # boolean scatter + flatnonzero replaces an argsort.
    is_end = np.zeros(total, dtype=bool)
    is_end[p_end] = True
    pid_at = np.empty(total, dtype=np.int64)
    pid_at[p_end] = np.arange(n_periods, dtype=np.int64)
    eorder = pid_at[np.flatnonzero(is_end)]
    evicted_p = eorder[:n_ev]
    surv_p = eorder[n_ev:]
    victim_lines = p_line[evicted_p]
    victim_dm = p_dm[evicted_p]

    # Miss loads (virtual accesses never load; _OP_NONE slots do not
    # load either).  flatnonzero yields sorted positions, so the
    # virtual prefix is a slice rather than another mask pass.
    load_pos = np.flatnonzero(miss & (emit_full >= 0))
    load_pos = load_pos[np.searchsorted(load_pos, nv):]
    load_lines = all_lines[load_pos]
    load_ops = emit_full[load_pos]

    # Write-back Manager replay over dirty events only.  ``wr`` mirrors
    # the scalar tag dict restricted to lines that ever carried dirty
    # state: insertion order tracks the scalar dict's dirty-insertion
    # order exactly under the dm-constancy precondition.
    dm_pos = nv + np.flatnonzero(dirty)
    evk = np.flatnonzero(victim_dm)
    ev_pos = evict_pos[evk]
    ev_lines = victim_lines[evk]
    ne = int(ev_pos.size)
    nd = int(dm_pos.size)
    if ne or nd:
        # Both event streams are position-sorted; merge with evictions
        # first at equal positions (the scalar order: the eviction's
        # writeback happens before the incoming access re-dirties).
        ei = np.arange(ne, dtype=np.int64)
        ei += np.searchsorted(dm_pos, ev_pos, side="left")
        di = np.arange(nd, dtype=np.int64)
        di += np.searchsorted(ev_pos, dm_pos, side="right")
        mkey = np.empty(ne + nd, dtype=np.int64)
        mkey[ei] = ev_pos
        mkey[di] = dm_pos
        mline = np.empty(ne + nd, dtype=np.int64)
        mline[ei] = ev_lines
        mline[di] = all_lines[dm_pos]
        misev = np.zeros(ne + nd, dtype=bool)
        misev[ei] = True
        seq_pos = mkey.tolist()
        seq_line = mline.tolist()
        seq_isev = misev.tolist()
    else:
        seq_pos = seq_line = seq_isev = []
    wr: Dict[int, bool] = {
        int(ln): True for ln, d in residents if d
    }
    dc = dc0
    evw = mwb = 0
    store_pos: List[int] = []
    store_lines: List[int] = []
    sp_app = store_pos.append
    sl_app = store_lines.append
    wpop = wr.pop
    for pos, line, isev in zip(seq_pos, seq_line, seq_isev):
        if isev:
            if wpop(line, False):
                dc -= 1
                evw += 1
                sp_app(pos)
                sl_app(line)
            continue
        was = wpop(line, False)
        wr[line] = True
        if was:
            continue
        dc += 1
        if dc > high:
            to_drain = dc - low
            drained: List[int] = []
            for wl, wd in wr.items():
                if len(drained) >= to_drain:
                    break
                if wd:
                    drained.append(wl)
            for wl in drained:
                wr[wl] = False
                sp_app(pos)
                sl_app(wl)
            dc -= len(drained)
            mwb += len(drained)

    # Emission assembly: loads sort before stores at equal positions
    # (scalar order: miss load, then eviction store, then drain stores).
    # Both position arrays are already sorted (flatnonzero order and
    # event-scan order), so this is a stable two-way merge: each load
    # shifts right by the stores strictly before it, each store by the
    # loads at-or-before it.
    spos = np.asarray(store_pos, dtype=np.int64)
    slin = np.asarray(store_lines, dtype=np.int64)
    nl = load_pos.size
    ns = spos.size
    li = np.arange(nl, dtype=np.int64)
    li += np.searchsorted(spos, load_pos, side="left")
    si = np.arange(ns, dtype=np.int64)
    si += np.searchsorted(load_pos, spos, side="right")
    e_lines = np.empty(nl + ns, dtype=np.int64)
    e_lines[li] = load_lines
    e_lines[si] = slin
    e_ops = np.full(nl + ns, op_store, dtype=np.int64)
    e_ops[li] = load_ops
    e_pos = np.empty(nl + ns, dtype=np.int64)
    e_pos[li] = load_pos
    e_pos[si] = spos
    e_pos -= nv

    # Final VRF state: survivors ordered by last touch = LRU insertion
    # order of the scalar dict at epoch end.
    new_tags = {
        int(ln): wr.get(int(ln), False)
        for ln in p_line[surv_p].tolist()
    }
    hits_total = int(np.count_nonzero(hit))
    return (
        hits_total,
        n_periods - nv,
        n_ev,
        evw,
        mwb,
        dc,
        new_tags,
        e_lines,
        e_ops,
        e_pos,
    )


def _apply_epoch_solution(
    pe,
    sol: tuple,
    skipped: int,
    parts_nnz: Sequence[int],
    start_offsets: Sequence[int],
    kept_bounds: np.ndarray,
) -> List[Tuple[int, int]]:
    """Credit counters/VRF from a solver result and assemble the
    per-chunk trace segments (sparse stream ranges + the chunk's slice
    of the epoch emissions)."""
    (
        hits,
        misses,
        evc,
        evw,
        mwb,
        dc,
        new_tags,
        e_lines,
        e_ops,
        e_pos,
    ) = sol
    vrf = pe.vrf
    vrf.tag_hits += hits + skipped
    vrf.tag_misses += misses
    vrf.evictions += evc
    vrf.eviction_writebacks += evw
    vrf.manager_writebacks += mwb
    vrf._dirty_count = dc
    tags = vrf._tags
    tags.clear()
    tags.update(new_tags)

    e_bounds = np.searchsorted(e_pos, kept_bounds)
    buf = pe._trace
    segs: List[Tuple[int, int]] = []
    for ci, nnz in enumerate(parts_nnz):
        s0 = len(buf)
        buffer_sparse_stream(pe, start_offsets[ci], nnz)
        lo = int(e_bounds[ci])
        hi = int(e_bounds[ci + 1])
        buf.extend_arrays(e_lines[lo:hi], e_ops[lo:hi])
        segs.append((s0, len(buf)))
    return segs


def generate_spmm_epoch(
    pe, parts: Sequence[Tuple[np.ndarray, np.ndarray, int]]
) -> Tuple[List[Tuple[int, int]], bool]:
    """Derive one PE's full epoch trace in a single fused pass.

    ``parts`` lists the epoch's chunks as ``(r_ids, c_ids,
    start_offset)`` in dispatch order.  Returns ``(segments, fused)``
    where ``segments`` bounds each chunk's slice of ``pe._trace`` and
    ``fused`` reports whether the epoch solver ran (False: the scalar
    walker fallback was used — results are identical either way)."""
    if not parts:
        return [], False
    n_per = [len(p[0]) for p in parts]
    n = int(sum(n_per))
    if n == 0:
        return _epoch_fallback_spmm(pe, parts), False
    r_all = (
        np.concatenate([p[0] for p in parts])
        if len(parts) > 1
        else parts[0][0]
    )
    c_all = (
        np.concatenate([p[1] for p in parts])
        if len(parts) > 1
        else parts[0][1]
    )
    amap = pe.address_map
    k = pe.init.dense_row_size
    lpr = pe.lines_per_row
    r_lines = amap.dense_row_base_lines("rmatrix", r_all, k)
    c_lines = amap.dense_row_base_lines("cmatrix", c_all, k)

    offs = np.arange(lpr, dtype=np.int64)
    cols = 2 * lpr
    lines_mat = np.empty((n, cols), dtype=np.int64)
    lines_mat[:, 0::2] = r_lines[:, None] + offs
    lines_mat[:, 1::2] = c_lines[:, None] + offs
    dirty_mat = np.empty((n, cols), dtype=bool)
    dirty_mat[:, 0::2] = True
    dirty_mat[:, 1::2] = False
    ops_mat = np.empty((n, cols), dtype=np.int64)
    ops_mat[:, 0::2] = pe._op_rmatrix_read
    ops_mat[:, 1::2] = pe._op_cmatrix_read

    cadence = _elision_cadence(
        pe.vrf, slots_per_nnz=cols, live_lines=lpr, dirty_live=lpr
    )
    b_nnz = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(n_per, out=b_nnz[1:])
    skipped = 0
    keep_r = None
    if cadence >= 2:
        keep_r = _run_keep_mask(r_lines, cadence)
        n_kept = int(keep_r.sum())
        if n_kept < n:
            skipped = (n - n_kept) * lpr
        else:
            keep_r = None
    if keep_r is not None:
        keep_mat = np.empty((n, cols), dtype=bool)
        keep_mat[:, 0::2] = keep_r[:, None]
        keep_mat[:, 1::2] = True
        stream_lines = lines_mat[keep_mat]
        stream_dirty = dirty_mat[keep_mat]
        stream_emit = ops_mat[keep_mat]
        kr_cs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(keep_r, out=kr_cs[1:])
        kept_bounds = lpr * (b_nnz + kr_cs[b_nnz])
    else:
        stream_lines = lines_mat.ravel()
        stream_dirty = dirty_mat.ravel()
        stream_emit = ops_mat.ravel()
        kept_bounds = cols * b_nnz

    vrf = pe.vrf
    sol = _solve_vrf_epoch(
        vrf.num_registers,
        vrf._high,
        vrf._low,
        list(vrf._tags.items()),
        vrf._dirty_count,
        stream_lines,
        stream_dirty,
        stream_emit,
        pe._op_store,
    )
    if sol is None:
        return _epoch_fallback_spmm(pe, parts), False
    counters = pe.counters
    counters.tops += n
    counters.vops += n * lpr
    pe._rmatrix_rows_touched.update(np.unique(r_all).tolist())
    segs = _apply_epoch_solution(
        pe,
        sol,
        skipped,
        n_per,
        [p[2] for p in parts],
        kept_bounds,
    )
    return segs, True


def _epoch_fallback_spmm(pe, parts) -> List[Tuple[int, int]]:
    buf = pe._trace
    segs: List[Tuple[int, int]] = []
    for r_ids, c_ids, start_offset in parts:
        s0 = len(buf)
        pe._execute_spmm_chunk_batched(r_ids, c_ids, start_offset)
        segs.append((s0, len(buf)))
    return segs


def generate_sddmm_epoch(
    pe,
    parts: Sequence[Tuple[np.ndarray, np.ndarray, int, np.ndarray]],
) -> Tuple[List[Tuple[int, int]], bool]:
    """SDDMM twin of :func:`generate_spmm_epoch`; ``parts`` entries are
    ``(r_ids, c_ids, start_offset, out_offsets)``."""
    if not parts:
        return [], False
    n_per = [len(p[0]) for p in parts]
    n = int(sum(n_per))
    if n == 0:
        return _epoch_fallback_sddmm(pe, parts), False
    r_all = (
        np.concatenate([p[0] for p in parts])
        if len(parts) > 1
        else parts[0][0]
    )
    c_all = (
        np.concatenate([p[1] for p in parts])
        if len(parts) > 1
        else parts[0][1]
    )
    out_all = np.concatenate(
        [np.asarray(p[3], dtype=np.int64) for p in parts]
    )
    amap = pe.address_map
    k = pe.init.dense_row_size
    lpr = pe.lines_per_row
    r_lines = amap.dense_row_base_lines("rmatrix", r_all, k)
    c_lines = amap.dense_row_base_lines("cmatrix", c_all, k)
    out_region = amap.regions["sparse_out_vals"]
    out_base_line = out_region.base // CACHE_LINE_BYTES
    out_lines = out_base_line + out_all // _OUT_VALS_PER_LINE

    cols = 2 * lpr + 1
    cadence = _elision_cadence(
        pe.vrf, slots_per_nnz=cols, live_lines=lpr + 1, dirty_live=1
    )
    b_nnz = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(n_per, out=b_nnz[1:])
    skipped = 0
    keep_r = keep_o = None
    if cadence >= 2:
        keep_r = _run_keep_mask(r_lines, cadence)
        keep_o = _run_keep_mask(out_lines, cadence)
        skipped_r = n - int(keep_r.sum())
        skipped_o = n - int(keep_o.sum())
        if skipped_r or skipped_o:
            skipped = skipped_r * lpr + skipped_o
        else:
            keep_r = keep_o = None
    if lpr == 1:
        # One line per dense row (the common k): build the access stream
        # directly with scatter indices, skipping the (n, cols)
        # intermediates and their boolean compaction.  Slot order per
        # nonzero is r, c, out — the same row-major order the matrix
        # path compacts in.
        if keep_r is not None:
            kr_cs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(keep_r, out=kr_cs[1:])
            ko_cs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(keep_o, out=ko_cs[1:])
            total = int(n + kr_cs[n] + ko_cs[n])
            # Kept-stream position of nonzero i's c slot: kept r slots
            # through i (inclusive) + c slots before i + kept out slots
            # before i.
            idx_c = kr_cs[1:] + np.arange(n, dtype=np.int64) + ko_cs[:n]
            stream_lines = np.empty(total, dtype=np.int64)
            stream_emit = np.empty(total, dtype=np.int64)
            stream_dirty = np.zeros(total, dtype=bool)
            stream_lines[idx_c] = c_lines
            stream_emit[idx_c] = pe._op_cmatrix_read
            idx_r = idx_c[keep_r] - 1
            stream_lines[idx_r] = r_lines[keep_r]
            stream_emit[idx_r] = pe._op_rmatrix_read
            idx_o = (idx_c + 1)[keep_o]
            stream_lines[idx_o] = out_lines[keep_o]
            stream_emit[idx_o] = _OP_NONE
            stream_dirty[idx_o] = True
            kept_bounds = b_nnz + kr_cs[b_nnz] + ko_cs[b_nnz]
        else:
            stream_lines = np.empty(3 * n, dtype=np.int64)
            stream_lines[0::3] = r_lines
            stream_lines[1::3] = c_lines
            stream_lines[2::3] = out_lines
            stream_emit = np.empty(3 * n, dtype=np.int64)
            stream_emit[0::3] = pe._op_rmatrix_read
            stream_emit[1::3] = pe._op_cmatrix_read
            stream_emit[2::3] = _OP_NONE
            stream_dirty = np.zeros(3 * n, dtype=bool)
            stream_dirty[2::3] = True
            kept_bounds = 3 * b_nnz
    else:
        offs = np.arange(lpr, dtype=np.int64)
        lines_mat = np.empty((n, cols), dtype=np.int64)
        lines_mat[:, 0 : 2 * lpr : 2] = r_lines[:, None] + offs
        lines_mat[:, 1 : 2 * lpr : 2] = c_lines[:, None] + offs
        lines_mat[:, -1] = out_lines
        dirty_mat = np.zeros((n, cols), dtype=bool)
        dirty_mat[:, -1] = True
        ops_mat = np.empty((n, cols), dtype=np.int64)
        ops_mat[:, 0 : 2 * lpr : 2] = pe._op_rmatrix_read
        ops_mat[:, 1 : 2 * lpr : 2] = pe._op_cmatrix_read
        ops_mat[:, -1] = _OP_NONE
        if keep_r is not None:
            keep_mat = np.empty((n, cols), dtype=bool)
            keep_mat[:, 0 : 2 * lpr : 2] = keep_r[:, None]
            keep_mat[:, 1 : 2 * lpr : 2] = True
            keep_mat[:, -1] = keep_o
            stream_lines = lines_mat[keep_mat]
            stream_dirty = dirty_mat[keep_mat]
            stream_emit = ops_mat[keep_mat]
            kr_cs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(keep_r, out=kr_cs[1:])
            ko_cs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(keep_o, out=ko_cs[1:])
            kept_bounds = (
                lpr * (b_nnz + kr_cs[b_nnz]) + ko_cs[b_nnz]
            )
        else:
            stream_lines = lines_mat.ravel()
            stream_dirty = dirty_mat.ravel()
            stream_emit = ops_mat.ravel()
            kept_bounds = cols * b_nnz

    vrf = pe.vrf
    sol = _solve_vrf_epoch(
        vrf.num_registers,
        vrf._high,
        vrf._low,
        list(vrf._tags.items()),
        vrf._dirty_count,
        stream_lines,
        stream_dirty,
        stream_emit,
        pe._op_store,
    )
    if sol is None:
        return _epoch_fallback_sddmm(pe, parts), False
    counters = pe.counters
    counters.tops += n
    counters.vops += n * lpr
    counters.output_line_writes += n
    segs = _apply_epoch_solution(
        pe,
        sol,
        skipped,
        n_per,
        [p[2] for p in parts],
        kept_bounds,
    )
    return segs, True


def _epoch_fallback_sddmm(pe, parts) -> List[Tuple[int, int]]:
    buf = pe._trace
    segs: List[Tuple[int, int]] = []
    for r_ids, c_ids, start_offset, out_offsets in parts:
        s0 = len(buf)
        pe._execute_sddmm_chunk_batched(
            r_ids, c_ids, start_offset, out_offsets
        )
        segs.append((s0, len(buf)))
    return segs
