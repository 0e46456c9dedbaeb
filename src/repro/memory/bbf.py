"""Bypass Buffer (BBF) with victim cache.

Each SPADE PE has a BBF that lets accesses skip the cache hierarchy
(Section 4.1).  The BBF itself is a small fully-associative line buffer
that coalesces streaming accesses (the sparse input stream and the SDDMM
output stream); it is backed by a small set-associative *victim cache*
that captures the working set of bypassed rMatrix lines (Section 5.2,
third rMatrix case).  BBF contents go straight to/from DRAM, never
through L1/L2/LLC.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import CacheConfig
from repro.memory.cache import Cache, rle_starts


class BypassBuffer:
    """Per-PE bypass path: stream buffer + victim cache."""

    def __init__(
        self,
        entries: int,
        victim_config: CacheConfig,
        name: str = "bbf",
        make_cache=Cache,
    ) -> None:
        if entries < 1:
            raise ValueError("BBF needs at least one entry")
        self.name = name
        self.entries = entries
        self._buffer: Dict[int, bool] = {}  # line -> dirty, LRU-ordered
        self.victim = make_cache(victim_config, name=f"{name}.victim")
        self.stream_hits = 0
        self.stream_misses = 0
        self.writebacks = 0
        self.flush_writebacks = 0

    # -- streaming path (sparse input / SDDMM output) ------------------

    def stream_access(self, line: int, is_write: bool = False) -> bool:
        """Access through the stream buffer only.  Returns hit.

        A miss allocates the line, evicting the LRU entry (writeback if
        dirty).  Sequential streams therefore fetch each line from DRAM
        exactly once, matching the Sparse Data Loader's coalescing
        behaviour (Section 5.1, step 1).
        """
        dirty = self._buffer.get(line)
        if dirty is not None:
            del self._buffer[line]
            self._buffer[line] = dirty or is_write
            self.stream_hits += 1
            return True
        self.stream_misses += 1
        if len(self._buffer) >= self.entries:
            victim = next(iter(self._buffer))
            victim_dirty = self._buffer.pop(victim)
            if victim_dirty:
                self.writebacks += 1
        self._buffer[line] = is_write
        return False

    def stream_access_many(self, lines: np.ndarray, writes) -> np.ndarray:
        """Batched :meth:`stream_access`; returns the per-access hit
        mask.  Bit-identical counters and buffer state to the scalar
        loop (consecutive same-line accesses are run-length deduped —
        they are guaranteed MRU hits whose dirty bits OR into the run)."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = lines.shape[0]
        hits_full = np.ones(n, dtype=bool)
        if n == 0:
            return hits_full
        starts = rle_starts(lines)
        m = starts.shape[0]
        u_lines = lines if m == n else lines[starts]
        if np.ndim(writes) == 0:
            u_writes = [bool(writes)] * m
        else:
            w = np.asarray(writes, dtype=bool)
            u_writes = (
                w.tolist() if m == n
                else np.logical_or.reduceat(w, starts).tolist()
            )

        buf = self._buffer
        entries = self.entries
        lines_l = u_lines.tolist()

        # Fast path for the dominant streaming pattern: strictly
        # increasing (hence distinct) lines, none resident.  Every
        # access misses and the buffer behaves as a FIFO, so the final
        # state is the tail of [old entries, new lines] and the evicted
        # head's dirty flags are summed wholesale.
        if (
            m > 1
            and bool((u_lines[1:] > u_lines[:-1]).all())
            and buf.keys().isdisjoint(lines_l)
        ):
            self.stream_misses += m
            self.stream_hits += n - m
            hits_full[starts] = False
            overflow = len(buf) + m - entries
            if overflow > 0:
                n_old = min(overflow, len(buf))
                if n_old == len(buf):
                    self.writebacks += sum(buf.values())
                    buf.clear()
                else:
                    for line in list(islice(buf, n_old)):
                        if buf.pop(line):
                            self.writebacks += 1
                n_new = overflow - n_old
                if n_new:
                    self.writebacks += sum(u_writes[:n_new])
                    buf.update(zip(lines_l[n_new:], u_writes[n_new:]))
                else:
                    buf.update(zip(lines_l, u_writes))
            else:
                buf.update(zip(lines_l, u_writes))
            return hits_full

        pop = buf.pop
        hit_l = [True] * m
        hits = 0
        writebacks = 0
        for j in range(m):
            line = lines_l[j]
            dirty = pop(line, None)
            if dirty is not None:
                buf[line] = dirty or u_writes[j]
                hits += 1
                continue
            hit_l[j] = False
            if len(buf) >= entries:
                if pop(next(iter(buf))):
                    writebacks += 1
            buf[line] = u_writes[j]
        self.stream_hits += hits + (n - m)
        self.stream_misses += m - hits
        self.writebacks += writebacks
        hits_full[starts] = np.array(hit_l, dtype=bool)
        return hits_full

    # -- victim-cache path (bypassed dense data) ------------------------

    def victim_access(self, line: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Access a bypassed dense line through the victim cache.

        Returns ``(hit, evicted_dirty_line)``; evictions spill straight
        to DRAM (the "main memory spills" of the KRO outlier in
        Table 6).
        """
        return self.victim.access(line, is_write)

    # -- maintenance -----------------------------------------------------

    def flush(self) -> int:
        """Write back and invalidate buffer + victim cache; returns dirty
        lines written back (mode-transition cost, Section 7.D).  As with
        :meth:`Cache.flush`, the flushed lines count into ``writebacks``
        and ``flush_writebacks`` of the respective structure."""
        dirty = sum(1 for d in self._buffer.values() if d)
        self._buffer.clear()
        self.writebacks += dirty
        self.flush_writebacks += dirty
        return dirty + self.victim.flush()

    @property
    def occupancy(self) -> int:
        return len(self._buffer)

    def reset_stats(self) -> None:
        self.stream_hits = self.stream_misses = self.writebacks = 0
        self.flush_writebacks = 0
        self.victim.reset_stats()

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Stream-buffer LRU contents, victim-cache state, counters."""
        return {
            "buffer": list(self._buffer.items()),
            "victim": self.victim.state_dict(),
            "stream_hits": self.stream_hits,
            "stream_misses": self.stream_misses,
            "writebacks": self.writebacks,
            "flush_writebacks": self.flush_writebacks,
        }

    def load_state_dict(self, state: dict) -> None:
        self._buffer = dict(state["buffer"])
        self.victim.load_state_dict(state["victim"])
        self.stream_hits = state["stream_hits"]
        self.stream_misses = state["stream_misses"]
        self.writebacks = state["writebacks"]
        self.flush_writebacks = state["flush_writebacks"]
