"""Benchmark of the SPADE simulator: kernel throughput, paper-grid sweeps
and served requests, layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rmat13-spmm-k64 --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``rmat13-spmm-k64`` and ``unif-sddmm-1m`` -- one seeded kernel
  simulated repeatedly (``kernel_workloads.py``);
* ``sweep-fig09-tiny`` -- the Fig 9 grid through a ``SweepRunner``
  (``sweep_workload.py``);
* ``serve-zipf-tiny`` -- a closed loop against ``repro serve``
  (``serve_workload.py``).

The workload's inputs come from ``--seed`` alone.  Every run checks the
simulator's outputs (exact equality with a scalar oracle, a serial run
or an in-process run, see each module) and exits 1 without metrics when
a check fails.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics, including ``trace.overhead_ratio`` (traced over untraced wall).
Each workload module lists in ``LAYERS`` the per-layer metrics its
traced run must measure; a traced run that misses one, or reads 0 where
0 is implausible, fails.  Per-layer metrics of a layer the workload
never enters read 0.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  End-to-end times
and rates are scaled to the reference host's speed, measured between
the run's operations by a calibration loop (``common.HostSpeed``), so
that runs minutes apart on a shared machine compare.  A run record
stamped with the repository's provenance manifest, and in traced runs
the spans with per-layer self times, land in ``perfbench/out/``.

``--smoke`` shrinks every workload to a seconds-long size for the
benchmark's self-tests (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "rmat13-spmm-k64": "kernel_workloads",
    "unif-sddmm-1m": "kernel_workloads",
    "sweep-fig09-tiny": "sweep_workload",
    "serve-zipf-tiny": "serve_workload",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long inputs for self-tests")
    return parser.parse_args(argv)


MAY_BE_ZERO = {
    "memory.l1_hit_rate", "memory.l2_hit_rate", "memory.llc_hit_rate",
    "sweep.requeued", "service.coalesced", "service.coalesced_p50_ms",
    "admission.rejected",
}
"""Per-layer metrics for which 0 is a measurement, not a missing one."""


class LayerError(RuntimeError):
    """A traced run did not measure a layer its workload enters."""


def check_layers(required, measured: dict) -> None:
    """``measured`` holds exactly the ``required`` per-layer metrics,
    none of them 0 unless 0 is a plausible reading."""
    missing = set(required) - set(measured)
    extra = set(measured) - set(required)
    zero = {n for n in set(required) & set(measured)
            if n not in MAY_BE_ZERO and measured[n] == 0}
    if missing or extra or zero:
        raise LayerError(
            f"traced run: missing {sorted(missing)}, unexpected "
            f"{sorted(extra)}, zero {sorted(zero)}; a hook no longer "
            "reaches its layer"
        )


def _metrics(spec: dict, outcome, trace: bool) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = outcome.per_layer if trace else outcome.end_to_end
    if trace:
        measured = dict(measured)
        measured["failed_ratio"] = outcome.failed / outcome.attempted
    out = {}
    for entry in declared:
        out[entry["name"]] = {
            "value": float(measured.get(entry["name"], 0.0)),
            "unit": entry["unit"],
        }
    unknown = set(measured) - set(out)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return out


def _record(args, outcome, metrics: dict, out_dir: Path) -> None:
    from repro.bench.harness import write_bench_json
    from common import nproc

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(outcome.detail)
    tracer = detail.pop("tracer", None)
    if outcome.host.samples:
        detail["host_factor"] = outcome.host.factor()
        detail["calibration_s"] = outcome.host.samples
    if tracer is not None:
        layers = tracer.write(out_dir / f"{stem}-spans.json")
        for name, row in layers.items():
            print(f"  span {name:24s} self {row['self_s']:9.4f} s  "
                  f"{row['share']:6.1%} of root-span time")
    write_bench_json(
        out_dir / f"{stem}.json",
        {"metrics": metrics, "attempted": outcome.attempted,
         "failed": outcome.failed, "detail": detail,
         "notes": outcome.notes},
        workload={"name": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "smoke": args.smoke},
        extra={"nproc": nproc(), "argv": sys.argv[1:]},
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from common import OUT_DIR, GateError, Outcome

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    # Keep every temporary file of this process and its children inside
    # the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = Outcome()
    try:
        module.run(args.workload, args.seed, args.seconds,
                   bool(args.trace), args.smoke, scratch, outcome)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": outcome.attempted,
                          "failed": outcome.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        check_layers(module.LAYERS, outcome.per_layer)
    metrics = _metrics(spec, outcome, bool(args.trace))
    _record(args, outcome, metrics, OUT_DIR)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": True, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
