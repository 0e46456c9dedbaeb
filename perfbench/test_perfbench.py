"""Self-tests of the benchmark: a smoke-sized run of every workload, and
the correctness gate refusing wrong simulator output instead of
producing numbers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
from common import GateError  # noqa: E402


def _command(cwd: Path, *args: str):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc, result = _command(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    module = __import__(bench.WORKLOADS[workload])
    for name in module.LAYERS:
        if name not in bench.MAY_BE_ZERO:
            assert result["metrics"][name]["value"] != 0, name


def test_traced_run_refuses_a_layer_it_did_not_measure():
    from kernel_workloads import LAYERS

    measured = dict.fromkeys(LAYERS, 1.0)
    bench.check_layers(LAYERS, measured)
    for broken in ({k: v for k, v in measured.items()
                    if k != "engine.gen_s"},
                   dict(measured, **{"memory.replay_s": 0.0}),
                   dict(measured, **{"sweep.cell_s": 1.0})):
        with pytest.raises(bench.LayerError):
            bench.check_layers(LAYERS, broken)


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = _command(
        tmp_path, "--workload", "rmat13-spmm-k64", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert result is None


def test_inputs_come_from_the_seed():
    from kernel_workloads import SMOKE_SPECS, make_inputs

    spec = SMOKE_SPECS["unif-sddmm-1m"]
    one, again, other = (make_inputs(spec, s) for s in (5, 5, 6))
    assert one.a == again.a and (one.b == again.b).all()
    assert not (one.b.shape == other.b.shape and (one.b == other.b).all())


@pytest.fixture
def in_process(monkeypatch):
    """Run the command in this process, keeping its TMPDIR change local."""
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    monkeypatch.setattr(tempfile, "tempdir", None)
    return monkeypatch


def _corrupt_vectorized(monkeypatch, corrupt):
    from repro.core.accelerator import SpadeSystem

    original = SpadeSystem.spmm

    def spmm(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        if self.config.execution != "scalar":
            corrupt(report)
        return report

    monkeypatch.setattr(SpadeSystem, "spmm", spmm)


def _bump_output(report):
    report.output[0, 0] += 1.0


def _bump_l2_hits(report):
    report.stats.l2.hits += 1


@pytest.mark.parametrize("corrupt", [_bump_output, _bump_l2_hits])
def test_gate_refuses_wrong_simulation(in_process, capsys, corrupt):
    _corrupt_vectorized(in_process, corrupt)
    code = bench.main([
        "--workload", "rmat13-spmm-k64", "--seed", "1", "--seconds", "0",
        "--trace", "0", "--smoke",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "correctness gate failed" in captured.err
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}


def test_service_gate_checks_sources_and_executions():
    from serve_workload import Answer, check_answers

    def answer(key, source, result):
        return Answer(0, {"key": key}, 0.001, 0.0, source, key, result)

    stats = {"pool": {"executed": 2}}
    good = [answer("a", "executed", 1), answer("a", "memo", 1),
            answer("b", "executed", 2), answer("b", "coalesced", 2)]
    assert set(check_answers(good, stats)) == {"a", "b"}
    with pytest.raises(GateError):
        check_answers(good + [answer("b", "memo", 3)], stats)
    with pytest.raises(GateError):
        check_answers(good, {"pool": {"executed": 3}})


def test_host_speed_scales_by_the_samples_it_is_given():
    from common import CALIBRATION_REF_S, HostSpeed

    host = HostSpeed()
    host.samples = [CALIBRATION_REF_S * f for f in (2.0, 2.0, 1.0, 1.5)]
    assert host.factor() == pytest.approx(1.625)
    assert host.factor(0, 2) == pytest.approx(2.0)
    assert host.factor(2) == pytest.approx(1.25)
    host.samples = [CALIBRATION_REF_S * f for f in [9.0] + [1.0] * 9]
    assert host.factor() == pytest.approx(1.0)
    with host.sampling(every_s=0.01):
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline:
            pass
    assert len(host.samples) > 4 and all(s > 0 for s in host.samples)
