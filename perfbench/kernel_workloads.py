"""Kernel workloads: one seeded SpMM or SDDMM simulated again and again,
each time on a fresh ``SpadeSystem`` with the default backends.

Operation: one ``SpadeSystem.spmm``/``sddmm`` call.  Throughput is the
call's simulated PE memory requests (``PECounters.total_requests``) per
host second, median over the calls, at the reference host's speed
(``common.HostSpeed``: calibration samples right before and after each
call and input generation scale it).  Every call is gated against a
scalar-oracle run (``execution="scalar"``, ``replay="scalar"``) made
once per invocation, whose output is itself checked against
``repro.kernels.reference``.  Per-layer metrics stay raw wall times.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from common import SAMPLES_AROUND, GateError, Outcome, median, peak_rss_mb
from spans import (
    KERNEL_LAYERS, KernelCall, Tracer, instrument, kernel_layer_metrics,
)

LAYERS = KERNEL_LAYERS + (
    "oracle.wall_s", "oracle.speedup", "trace.overhead_ratio",
)
"""Per-layer metrics a traced run must measure."""


@dataclass(frozen=True)
class KernelSpec:
    kernel: str
    k: int
    chunk_nnz: Optional[int]
    matrix: Callable[[int], object]
    """seed -> COOMatrix"""


def _rmat(scale: int, edge_factor: int):
    def build(seed: int):
        from repro.sparse.generators import rmat_graph
        return rmat_graph(scale, edge_factor=edge_factor, seed=seed)
    return build


def _uniform(rows: int, cols: int, nnz: int):
    def build(seed: int):
        from repro.sparse.generators import uniform_random
        return uniform_random(rows, cols, nnz=nnz, seed=seed)
    return build


SPECS = {
    "rmat13-spmm-k64": KernelSpec("spmm", 64, None, _rmat(13, 16)),
    "unif-sddmm-1m": KernelSpec(
        "sddmm", 16, 32768, _uniform(8192, 256, 1_000_000)
    ),
}
SMOKE_SPECS = {
    "rmat13-spmm-k64": KernelSpec("spmm", 16, None, _rmat(8, 8)),
    "unif-sddmm-1m": KernelSpec(
        "sddmm", 8, 4096, _uniform(512, 128, 12_000)
    ),
}

SETUP_REPEATS = 5


@dataclass
class Inputs:
    a: object
    b: np.ndarray
    c: Optional[np.ndarray]


def make_inputs(spec: KernelSpec, seed: int) -> Inputs:
    a = spec.matrix(seed)
    rng = np.random.default_rng([seed, 1])
    if spec.kernel == "spmm":
        return Inputs(a, rng.random((a.num_cols, spec.k), np.float32), None)
    return Inputs(
        a,
        rng.random((a.num_rows, spec.k), np.float32),
        rng.random((a.num_cols, spec.k), np.float32),
    )


def simulate(spec: KernelSpec, inputs: Inputs, config):
    from repro.core.accelerator import SpadeSystem
    from repro.core.engine import DEFAULT_CHUNK_NNZ

    system = SpadeSystem(config, chunk_nnz=spec.chunk_nnz or DEFAULT_CHUNK_NNZ)
    if spec.kernel == "spmm":
        return system.spmm(inputs.a, inputs.b)
    return system.sddmm(inputs.a, inputs.b, inputs.c)


def check_reference(spec: KernelSpec, inputs: Inputs, report) -> None:
    """The simulated kernel output equals the NumPy reference."""
    from repro.core.accelerator import sddmm_output_to_coo
    from repro.kernels.reference import sddmm_reference, spmm_reference
    from repro.sparse.tiled import tile_matrix

    if spec.kernel == "spmm":
        want = spmm_reference(inputs.a, inputs.b)
        if not np.allclose(report.output, want, rtol=1e-4, atol=1e-4):
            raise GateError("SpMM output differs from the reference")
        return
    settings = report.settings
    tiled = tile_matrix(
        inputs.a, settings.row_panel_size, settings.col_panel_size
    )
    got = sddmm_output_to_coo(tiled, report.output)
    if got != sddmm_reference(inputs.a, inputs.b, inputs.c):
        raise GateError("SDDMM output differs from the reference")


@dataclass
class Facts:
    """What a call simulated, kept instead of the whole report."""

    time_ns: float
    stats: dict
    counters: object
    output: np.ndarray

    @classmethod
    def of(cls, report) -> "Facts":
        return cls(
            report.result.time_ns, dataclasses.asdict(report.stats),
            report.counters, report.output,
        )


def check_identical(want: Facts, got: Facts, what: str) -> None:
    """Every simulated statistic and the output are bit-identical."""
    if got.time_ns != want.time_ns:
        raise GateError(f"time_ns {got.time_ns} != {what} {want.time_ns}")
    if got.stats != want.stats:
        raise GateError(f"AccessStats differ from the {what}")
    if got.counters != want.counters:
        raise GateError(f"PECounters differ from the {what}")
    if not np.array_equal(got.output, want.output):
        raise GateError(f"output differs from the {what}")


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        scratch: Path, out: Outcome) -> None:
    from repro.config import scaled_config

    spec = (SMOKE_SPECS if smoke else SPECS)[name]
    config = scaled_config(8)

    setup = []
    scaled_setup = []
    out.host.sample(SAMPLES_AROUND)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = make_inputs(spec, seed)
        setup.append(time.perf_counter() - t0)
        scaled_setup.append(setup[-1] / out.host.after())

    tracer = Tracer()
    calls: List[KernelCall] = []
    plain_s: List[float] = []
    scaled_s: List[float] = []
    traced_s: List[float] = []
    rates: List[float] = []
    first: Optional[Facts] = None
    deadline = time.perf_counter() + seconds
    # Traced runs alternate untraced and traced calls, so the two walls
    # behind trace.overhead_ratio sample the same machine phases.
    while out.attempted < 1 + trace or time.perf_counter() < deadline:
        traced = trace and out.attempted % 2 == 1
        out.attempted += 1
        with instrument(tracer, scratch, calls) if traced else nullcontext():
            t0 = time.perf_counter()
            report = simulate(spec, inputs, config)
            wall = time.perf_counter() - t0
        host = out.host.after()
        if traced:
            traced_s.append(wall)
        else:
            plain_s.append(wall)
            scaled_s.append(wall / host)
            rates.append(report.counters.total_requests / wall * host)
        # Later calls must repeat the first bit for bit; the first is
        # checked against the scalar oracle once the timing is done.
        if first is None:
            first = Facts.of(report)
        else:
            check_identical(first, Facts.of(report), "first call")
        del report
    rss = peak_rss_mb()

    oracle_cfg = dataclasses.replace(
        config, execution="scalar", replay="scalar"
    )
    t0 = time.perf_counter()
    oracle = simulate(spec, inputs, oracle_cfg)
    oracle_s = time.perf_counter() - t0
    check_reference(spec, inputs, oracle)
    check_identical(Facts.of(oracle), first, "scalar oracle")

    requests = int(oracle.counters.total_requests)
    out.detail = {
        "nnz": int(inputs.a.nnz),
        "k": spec.k,
        "kernel": spec.kernel,
        "requests_per_call": requests,
        "untraced_wall_s": plain_s,
        "traced_wall_s": traced_s,
        "oracle_wall_s": oracle_s,
        "setup_s": setup,
    }
    out.end_to_end = {
        "throughput_per_s": median(rates),
        "latency_p50_ms": median(scaled_s) * 1e3,
        "setup_s": median(scaled_setup),
        "peak_rss_mb": rss,
    }
    if trace:
        layers = kernel_layer_metrics(calls)
        layers["oracle.wall_s"] = oracle_s
        layers["oracle.speedup"] = oracle_s / median(plain_s)
        layers["trace.overhead_ratio"] = median(traced_s) / median(plain_s)
        out.per_layer = layers
        out.detail["tracer"] = tracer
