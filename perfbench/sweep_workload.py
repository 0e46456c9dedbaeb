"""Sweep workload: the Fig 9 grid at ``scale="tiny"`` through a
``SweepRunner`` with ``nproc`` jobs and a cold result cache, each grid
then rerun warm from that cache.

Operation: one cold grid (40 jobs).  The pool workers fork from this
process, which runs no grid cell itself until the window has ended, so
every grid starts from the process caches a fresh
``repro experiment fig09 --jobs N`` has: no suite matrices, dense
operands or autotune results.  A run times the cold grids that fit in
the window, at least one (two when traced).  Set-up is what such an
invocation pays before its first job: a fresh interpreter importing the
fig09 driver and the sweep runner.  After the window, one serial
in-process run of the driver is the reference every grid's rows must
equal.  The grid is the paper's and fixed; the seed does not change it.
Times are reported at the reference host's speed (``common.HostSpeed``):
each import is scaled by the calibration samples right before and after
it, the grids by samples a separate process takes while they run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import List

from common import (
    SAMPLES_AROUND, GateError, Outcome, median, nproc, peak_rss_mb,
)
from spans import (
    KERNEL_LAYERS, KernelCall, Tracer, instrument, kernel_layer_metrics,
)

SMOKE_MATRICES = ["KRO", "DEL"]
SETUP_REPEATS = 5
LAYERS = KERNEL_LAYERS + (
    "oracle.wall_s", "sweep.cell_s", "sweep.overhead_ms_per_job",
    "sweep.worker_busy_share", "sweep.warm_grid_ms", "sweep.requeued",
    "cache.hits", "cache.misses", "cache.writes", "trace.overhead_ratio",
)
"""Per-layer metrics a traced run must measure (the kernel layers from
the serial reference run)."""


def _environment():
    from repro.bench.harness import BenchEnvironment

    return BenchEnvironment(scale="tiny", num_pes=8, opt_mode="quick")


def _import_s(src: Path) -> float:
    """Seconds for a fresh interpreter to import the grid's driver."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.bench.fig09, repro.sweep"],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )
    return time.perf_counter() - t0


def _job_walls(ledger_path: Path) -> List[float]:
    from repro.obs.ledger import read_events

    return [
        e["wall_s"] for e in read_events(ledger_path)
        if e.get("e") == "sweep_job" and e.get("status") == "completed"
    ]


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        scratch: Path, out: Outcome) -> None:
    from repro.bench import fig09
    from repro.obs.ledger import RunLedger
    from repro.sweep import SweepRunner
    from repro.sweep.cache import ResultCache

    src = Path(__file__).resolve().parent.parent / "src"
    out.host.sample(SAMPLES_AROUND)
    setup = []
    scaled_setup = []
    for _ in range(SETUP_REPEATS):
        setup.append(_import_s(src))
        scaled_setup.append(setup[-1] / out.host.after())
    grid_samples = len(out.host.samples)
    env = _environment()
    matrices = SMOKE_MATRICES if smoke else None
    workers = nproc()

    tracer = Tracer()
    first = None
    cold_s: List[float] = []
    traced_s: List[float] = []
    warm_s: List[float] = []
    job_walls: List[float] = []
    busy_share: List[float] = []
    overhead_ms: List[float] = []
    cache_counts = {"hits": 0, "misses": 0, "writes": 0}
    requeued = 0
    deadline = time.perf_counter() + seconds
    grid = 0
    wall = 0.0
    # Traced runs alternate untraced and traced grids; only traced ones
    # carry a run ledger.  Another grid starts only if one more as long
    # as the last still ends within the window.
    while grid < 1 + trace or time.perf_counter() + wall <= deadline:
        traced = trace and grid % 2 == 1
        cache_dir = scratch / f"grid-{grid}"
        ledger = RunLedger(cache_dir / "ledger" / "sweep.jsonl") if traced \
            else None
        cache = ResultCache(str(cache_dir / "cache"))
        runner = SweepRunner(jobs=workers, cache=cache, ledger=ledger)
        with tracer.span("sweep.grid") if traced else nullcontext(), \
                out.host.sampling():
            t0 = time.perf_counter()
            rows = fig09.run(env, matrices=matrices, sweep=runner)
            wall = time.perf_counter() - t0
        jobs = len(rows)
        out.attempted += jobs
        out.failed += runner.report.failed + runner.report.quarantined
        requeued += runner.report.requeued
        if first is None:
            first = rows
        elif rows != first:
            raise GateError("sweep rows differ between grids")

        warm = SweepRunner(
            jobs=workers, cache=ResultCache(str(cache_dir / "cache"))
        )
        with tracer.span("sweep.warm_grid") if traced else nullcontext():
            t0 = time.perf_counter()
            again = fig09.run(env, matrices=matrices, sweep=warm)
            warm_s.append(time.perf_counter() - t0)
        if again != rows or warm.report.cached != jobs:
            raise GateError(
                f"warm rerun executed {warm.report.completed} jobs or "
                "changed rows; expected all answers from the cache"
            )
        if traced:
            ledger.close()
            walls = _job_walls(ledger.path)
            if len(walls) != jobs:
                raise GateError(
                    f"ledger shows {len(walls)} completed jobs for a "
                    f"{jobs}-job grid"
                )
            job_walls.extend(walls)
            busy_share.append(sum(walls) / (workers * wall))
            overhead_ms.append(
                (workers * wall - sum(walls)) / jobs * 1e3
            )
            traced_s.append(wall)
            for key in cache_counts:
                cache_counts[key] += getattr(cache, key) \
                    + getattr(warm.cache, key)
        else:
            cold_s.append(wall)
        shutil.rmtree(cache_dir)
        grid += 1
    rss = peak_rss_mb()

    calls: List[KernelCall] = []
    t0 = time.perf_counter()
    if trace:
        with instrument(tracer, scratch, calls), tracer.span("oracle.serial"):
            reference = fig09.run(env, matrices=matrices)
    else:
        reference = fig09.run(env, matrices=matrices)
    oracle_s = time.perf_counter() - t0
    if first != reference:
        raise GateError("sweep rows differ from the serial run")

    out.detail = {
        "jobs_per_grid": jobs,
        "workers": workers,
        "cold_grid_s": cold_s,
        "traced_grid_s": traced_s,
        "warm_grid_s": warm_s,
        "setup_s": setup,
        "serial_s": oracle_s,
    }
    host = out.host.factor(grid_samples)
    out.end_to_end = {
        "throughput_per_s": jobs / median(cold_s) * host,
        "latency_p50_ms": median(cold_s) * 1e3 / host,
        "setup_s": median(scaled_setup),
        "peak_rss_mb": rss,
    }
    if trace:
        layers = kernel_layer_metrics(calls)
        layers.update({
            "oracle.wall_s": oracle_s,
            "sweep.cell_s": median(job_walls),
            "sweep.overhead_ms_per_job": median(overhead_ms),
            "sweep.worker_busy_share": median(busy_share),
            "sweep.warm_grid_ms": median(warm_s) * 1e3,
            "sweep.requeued": requeued,
            "cache.hits": cache_counts["hits"],
            "cache.misses": cache_counts["misses"],
            "cache.writes": cache_counts["writes"],
            "trace.overhead_ratio": median(traced_s) / median(cold_s),
        })
        out.per_layer = layers
        out.detail["tracer"] = tracer
