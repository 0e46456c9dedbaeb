"""The benchmark's own tracing: in-memory spans around calls into the
simulator's public functions, written out when the run ends.

A span records its name, start, end, parent span and request id.  A
layer's self time is its spans' duration minus the time their child
spans cover.  :func:`instrument` wraps ``SpadeSystem.spmm``/``sddmm``,
``tile_matrix`` and ``ControlProcessor.build_schedule`` for the length
of a ``with`` block, and attaches a run ledger to every kernel call so
the engine's own per-epoch phase split (``epoch`` events: generation,
merge, replay seconds) is read back per call.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    rid: Optional[str] = None


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None) -> Iterator[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent].rid
        record = Span(name, time.perf_counter(), parent=parent, rid=rid)
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield index
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span.end - span.start

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, float] = {}
        for i, span in enumerate(self.spans):
            own = span.end - span.start - child_time[i]
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def write(self, path: Path) -> Dict[str, dict]:
        """Write every span plus the per-layer self-time table as JSON;
        returns the table.  A layer's share is of the summed duration of
        the root spans (concurrent request spans each count)."""
        root_s = sum(
            s.end - s.start for s in self.spans if s.parent is None
        )
        table = {
            name: {"self_s": s, "share": s / root_s if root_s else 0.0}
            for name, s in sorted(self.self_times().items())
        }
        t0 = min((s.start for s in self.spans), default=0.0)
        path.write_text(json.dumps({
            "root_span_s": root_s,
            "layers": table,
            "spans": [
                {
                    "name": s.name, "start": s.start - t0,
                    "end": s.end - t0, "parent": s.parent, "rid": s.rid,
                }
                for s in self.spans
            ],
        }, indent=1) + "\n")
        return table


@dataclass
class KernelCall:
    """One traced ``SpadeSystem.spmm``/``sddmm`` call."""

    wall_s: float
    tile_s: float
    schedule_s: float
    gen_s: float
    merge_s: float
    replay_s: float
    requests: int
    stats: object


@contextmanager
def instrument(tracer: Tracer, ledger_dir: Path,
               calls: List[KernelCall]) -> Iterator[None]:
    """Trace the simulator's public kernel-layer calls in this process
    for the length of the block, appending one :class:`KernelCall` per
    kernel to ``calls``."""
    from repro.core import accelerator
    from repro.core.accelerator import SpadeSystem
    from repro.core.cpe import ControlProcessor
    from repro.obs.ledger import RunLedger, read_events

    orig_tile = accelerator.tile_matrix
    orig_schedule = ControlProcessor.build_schedule
    orig_spmm = SpadeSystem.spmm
    orig_sddmm = SpadeSystem.sddmm
    counter = itertools.count()

    def tile(*args, **kwargs):
        with tracer.span("sparse.tile"):
            return orig_tile(*args, **kwargs)

    def schedule(self, *args, **kwargs):
        with tracer.span("cpe.schedule"):
            return orig_schedule(self, *args, **kwargs)

    def traced(name, orig):
        def call(self, *args, **kwargs):
            path = ledger_dir / f"kernel-{next(counter)}.jsonl"
            ledger = RunLedger(path)
            previous, self.ledger = self.ledger, ledger
            try:
                with tracer.span(name) as index:
                    report = orig(self, *args, **kwargs)
            finally:
                self.ledger = previous
                ledger.close()
            phases = [0.0, 0.0, 0.0]
            if path.exists():
                for event in read_events(path):
                    if event.get("e") == "epoch":
                        phases[0] += event["gen_s"]
                        phases[1] += event["merge_s"]
                        phases[2] += event["replay_s"]
                path.unlink()
            children = {"sparse.tile": 0.0, "cpe.schedule": 0.0}
            for child in tracer.spans[index + 1:]:
                if child.parent == index and child.name in children:
                    children[child.name] += child.end - child.start
            calls.append(KernelCall(
                wall_s=tracer.duration(index),
                tile_s=children["sparse.tile"],
                schedule_s=children["cpe.schedule"],
                gen_s=phases[0], merge_s=phases[1], replay_s=phases[2],
                requests=int(report.counters.total_requests),
                stats=report.stats,
            ))
            return report
        return call

    accelerator.tile_matrix = tile
    ControlProcessor.build_schedule = schedule
    SpadeSystem.spmm = traced("kernel.spmm", orig_spmm)
    SpadeSystem.sddmm = traced("kernel.sddmm", orig_sddmm)
    try:
        yield
    finally:
        accelerator.tile_matrix = orig_tile
        ControlProcessor.build_schedule = orig_schedule
        SpadeSystem.spmm = orig_spmm
        SpadeSystem.sddmm = orig_sddmm


KERNEL_LAYERS = (
    "sparse.tile_s", "cpe.schedule_s", "engine.gen_s",
    "engine.gen_ns_per_access", "engine.gen_share", "engine.merge_s",
    "engine.other_s", "memory.replay_s", "memory.replay_ns_per_access",
    "memory.replay_share", "memory.l1_hit_rate", "memory.l2_hit_rate",
    "memory.llc_hit_rate", "memory.dram_accesses",
)
"""What :func:`kernel_layer_metrics` reports."""


def kernel_layer_metrics(calls: List[KernelCall]) -> Dict[str, float]:
    """Per-layer figures of traced kernel calls: times are medians per
    call, ns/access and shares are totals over all calls, hit rates and
    DRAM accesses aggregate the calls' AccessStats."""
    from statistics import median

    if not calls:
        return {}
    wall = sum(c.wall_s for c in calls)
    requests = sum(c.requests for c in calls) or 1

    def level(name):
        hits = sum(getattr(c.stats, name).hits for c in calls)
        total = sum(getattr(c.stats, name).accesses for c in calls)
        return hits / total if total else 0.0

    other = [
        c.wall_s - c.tile_s - c.schedule_s - c.gen_s - c.merge_s
        - c.replay_s
        for c in calls
    ]
    return {
        "sparse.tile_s": median(c.tile_s for c in calls),
        "cpe.schedule_s": median(c.schedule_s for c in calls),
        "engine.gen_s": median(c.gen_s for c in calls),
        "engine.gen_ns_per_access":
            sum(c.gen_s for c in calls) / requests * 1e9,
        "engine.gen_share": sum(c.gen_s for c in calls) / wall,
        "engine.merge_s": median(c.merge_s for c in calls),
        "engine.other_s": median(other),
        "memory.replay_s": median(c.replay_s for c in calls),
        "memory.replay_ns_per_access":
            sum(c.replay_s for c in calls) / requests * 1e9,
        "memory.replay_share": sum(c.replay_s for c in calls) / wall,
        "memory.l1_hit_rate": level("l1"),
        "memory.l2_hit_rate": level("l2"),
        "memory.llc_hit_rate": level("llc"),
        "memory.dram_accesses":
            sum(c.stats.dram_accesses for c in calls) / len(calls),
    }
