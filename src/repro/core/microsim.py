"""Cycle-level micro-simulation of a single SPADE PE pipeline.

While :mod:`repro.core.engine` models whole systems with an analytic
latency-tolerance formula, this module drives one PE cycle by cycle
through the exact structures of Figure 7:

  Sparse Data Loader -> Sparse Load Queue -> tOp Generator -> tOp queue
  -> vOp Generator (VR allocation via the VRF tag CAM) -> vOp
  Reservation Stations + Dense Load Queue -> SIMD pipeline -> Store
  Queue (Write-back Manager)

It is used to validate the analytic model's qualitative claims at small
scale (queue sizing monotonicity, latency tolerance, RAW ordering) and
mirrors the role of the miniSPADE prototype: a faithful, slow, small
implementation of the pipeline mechanisms.

Memory is a fixed-latency, unbounded-bandwidth responder; the goal is
pipeline behaviour, not cache behaviour (the engine covers that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.config import CACHE_LINE_BYTES, ELEMS_PER_LINE, PEConfig
from repro.core.queues import BoundedQueue, ReservationStations, RSEntry
from repro.core.vrf import VectorRegisterFile

SIMD_PIPELINE_DEPTH = 4
"""Cycles from vOp dispatch to result writeback in the SIMD unit."""


@dataclass
class MicroSimStats:
    """What one micro-simulated tile execution did."""

    cycles: int = 0
    tops_generated: int = 0
    vops_generated: int = 0
    vops_executed: int = 0
    sparse_requests: int = 0
    dense_requests: int = 0
    stores: int = 0
    sparse_queue_stalls: int = 0
    rs_full_stalls: int = 0
    vrf_tag_hits: int = 0

    @property
    def requests_per_cycle(self) -> float:
        total = self.sparse_requests + self.dense_requests + self.stores
        return total / self.cycles if self.cycles else 0.0


@dataclass
class _PendingLoad:
    """An outstanding memory request."""

    arrival_cycle: int
    vop_id: Optional[int] = None


@dataclass
class _VOp:
    """One cache-line-sized vector operation in flight."""

    vop_id: int
    r_line: int
    c_line: int
    value: float
    depends_on: Optional[int] = None


class PEMicroSimulator:
    """Cycle-driven single-PE pipeline for SpMM tiles.

    ``memory_latency_cycles`` plays the role of the link+DRAM round
    trip; every request completes after exactly that many cycles (the
    latency-tolerance mechanisms are what is under test, not caches).
    """

    def __init__(
        self,
        config: PEConfig,
        memory_latency_cycles: int = 100,
        dense_row_lines: int = 2,
    ) -> None:
        if memory_latency_cycles < 1:
            raise ValueError("memory latency must be >= 1 cycle")
        self.config = config
        self.memory_latency = memory_latency_cycles
        self.lines_per_row = max(1, dense_row_lines)
        self.stats = MicroSimStats()

        self.sparse_queue: BoundedQueue = BoundedQueue(
            config.sparse_load_queue_entries, "sparse_lq"
        )
        self.top_queue: BoundedQueue = BoundedQueue(
            config.top_queue_entries, "top_q"
        )
        self.rs = ReservationStations(config.vop_rs_entries)
        self.store_queue: BoundedQueue = BoundedQueue(
            config.store_queue_entries, "store_q"
        )
        self.vrf = VectorRegisterFile(
            config.num_vector_registers,
            config.writeback_high_threshold,
            config.writeback_low_threshold,
        )
        self._dense_inflight: Dict[int, List[_PendingLoad]] = {}
        self._last_writer: Dict[int, int] = {}  # VR line -> vop_id
        self._simd_pipe: List[tuple] = []  # (finish_cycle, vop_id)
        self._completed: set = set()
        self._next_vop_id = 0

    # -- driving ---------------------------------------------------------

    def run_tile(
        self,
        r_ids: np.ndarray,
        c_ids: np.ndarray,
        vals: np.ndarray,
        max_cycles: int = 2_000_000,
    ) -> MicroSimStats:
        """Execute one SpMM tile to completion; returns the stats."""
        n = len(vals)
        if len(r_ids) != n or len(c_ids) != n:
            raise ValueError("tile arrays must have equal length")
        # Sparse stream state: the loader fetches line-sized groups of
        # tuples; each group arrives memory_latency cycles after issue.
        tuples_per_line = ELEMS_PER_LINE
        next_fetch = 0  # next tuple index to request
        arrived: List[int] = []  # tuple indices available to the tOp gen
        pending_sparse: List[tuple] = []  # (arrival_cycle, lo, hi)
        next_top = 0  # next tuple to turn into a tOp
        vops_pending: List[_VOp] = []
        completed_vops = 0
        total_vops = n * self.lines_per_row

        cycle = 0
        while completed_vops < total_vops:
            cycle += 1
            if cycle > max_cycles:
                raise RuntimeError("micro-sim did not converge")

            # 1. Sparse Data Loader: one line-sized request per cycle
            #    while queue entries are free (Section 5.1 step 1).
            if next_fetch < n:
                if self.sparse_queue.try_push(cycle):
                    lo = next_fetch
                    hi = min(lo + tuples_per_line, n)
                    pending_sparse.append(
                        (cycle + self.memory_latency, lo, hi)
                    )
                    next_fetch = hi
                    self.stats.sparse_requests += 1
                else:
                    self.stats.sparse_queue_stalls += 1

            # 2. Sparse data arrival.
            still = []
            for arrival, lo, hi in pending_sparse:
                if arrival <= cycle:
                    arrived.extend(range(lo, hi))
                    self.sparse_queue.pop()
                else:
                    still.append((arrival, lo, hi))
            pending_sparse = still

            # 3. tOp Generator: one tOp per cycle from arrived tuples.
            if next_top < n and next_top < (
                arrived[-1] + 1 if arrived else 0
            ):
                if not self.top_queue.is_full:
                    self.top_queue.try_push(next_top)
                    self.stats.tops_generated += 1
                    next_top += 1

            # 4. vOp Generator: split the head tOp into vOps, allocate
            #    VRs through the tag CAM, issue dense loads, push to RS.
            self._generate_vops(cycle, r_ids, c_ids, vals, vops_pending)

            # 5. Dense data arrival -> mark RS operands ready.
            loads = self._dense_inflight.pop(cycle, [])
            for load in loads:
                if load.vop_id is not None:
                    self.rs.operand_arrived(load.vop_id)
                    self.rs.operand_arrived(load.vop_id)

            # 6. Dispatch the oldest ready vOp to the SIMD pipeline.
            entry = self.rs.dispatch_ready(cycle)
            if entry is not None:
                self._simd_pipe.append(
                    (cycle + SIMD_PIPELINE_DEPTH, entry.vop_id)
                )

            # 7. SIMD completion: resolve RAW dependants, count stores
            #    drained by the Write-back Manager.
            finished = [p for p in self._simd_pipe if p[0] <= cycle]
            self._simd_pipe = [p for p in self._simd_pipe if p[0] > cycle]
            for _, vop_id in finished:
                self.rs.dependence_resolved(vop_id)
                self._completed.add(vop_id)
                completed_vops += 1
                self.stats.vops_executed += 1

            # 8. Store queue drains one entry per cycle.
            if not self.store_queue.is_empty:
                self.store_queue.pop()

        self.stats.cycles = cycle
        return self.stats

    # -- internals --------------------------------------------------------

    def _generate_vops(
        self, cycle, r_ids, c_ids, vals, vops_pending
    ) -> None:
        # Refill the pending-vOp buffer from the tOp queue.
        if not vops_pending and not self.top_queue.is_empty:
            idx = self.top_queue.pop()
            r_base = int(r_ids[idx]) * self.lines_per_row
            c_base = (1 << 30) + int(c_ids[idx]) * self.lines_per_row
            for i in range(self.lines_per_row):
                vops_pending.append(
                    _VOp(
                        vop_id=self._next_vop_id,
                        r_line=r_base + i,
                        c_line=c_base + i,
                        value=float(vals[idx]),
                    )
                )
                self._next_vop_id += 1
        if not vops_pending:
            return
        if self.rs.is_full:
            self.stats.rs_full_stalls += 1
            return
        vop = vops_pending[0]
        # RAW dependence: a later vOp reading a VR an earlier one
        # writes.  A producer that already completed is no dependence.
        depends = self._last_writer.get(vop.r_line)
        if depends in self._completed:
            depends = None
        operands_pending = 0
        for line, writes in ((vop.r_line, True), (vop.c_line, False)):
            hit, stores = self.vrf.access(line, mark_dirty=writes)
            if hit:
                self.stats.vrf_tag_hits += 1
            else:
                operands_pending += 1
                self._dense_inflight.setdefault(
                    cycle + self.memory_latency, []
                ).append(_PendingLoad(cycle, vop.vop_id))
                self.stats.dense_requests += 1
            for _ in stores:
                if self.store_queue.try_push(cycle):
                    self.stats.stores += 1
        inserted = self.rs.try_insert(
            RSEntry(
                vop_id=vop.vop_id,
                # Each missing operand arrives as one dense response
                # that signals twice (r and c share a response slot in
                # this simplified model), so count each miss once.
                operands_pending=operands_pending,
                depends_on=depends,
            )
        )
        if inserted:
            self._last_writer[vop.r_line] = vop.vop_id
            vops_pending.pop(0)
            self.stats.vops_generated += 1
