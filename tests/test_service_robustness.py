"""Chaos tests: the service survives SIGKILLed workers mid-request.

Reuses the sweep ChaosMonkey's deterministic ``sweep_kills`` schedule —
every service job has grid index 0, so ``((0, 1),)`` kills the first
attempt of whatever executes first, exercising the sentinel-detected
death -> lease attempt bump -> requeue ladder under a live request.
When every attempt dies, the job is quarantined and the HTTP answer is
a 503 carrying the quarantine manifest path.  The last tests pin the
pool's lease hygiene: a requeued job keeps its lease while it waits,
and closing the pool does not wait on a key a peer holds.
"""

import os
import signal
import time

import pytest

from repro.errors import SpadeError
from repro.jobmodel import JobSpec
from repro.obs.ledger import RunLedger, read_events
from repro.resilience import ChaosConfig
from repro.service.admission import AdmissionPolicy
from repro.sweep.pool import JobQuarantined, WorkerPool
from repro.service.server import (
    PendingReply,
    Reply,
    SimulationService,
)
from repro.service.simulate import request_point, run_cell, run_jobspec
from repro.sweep.cache import ResultCache
from repro.sweep.lease import LeaseManager

POINT_ARGS = {
    "matrix": "ASI", "scale": "tiny", "kernel": "spmm", "k": 8, "pes": 2,
}

GENEROUS = AdmissionPolicy(
    max_queue=64, interactive_reserve=0,
    quota_rate=1_000.0, quota_burst=1_000.0,
)


def _dies_once_cell(env, point):
    """SIGKILLs its worker 0.3 s into the first attempt only."""
    (marker,) = point
    if not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(0.3)
        os.kill(os.getpid(), signal.SIGKILL)
    return {"survived": True}


def _sleep_cell(env, point):
    (seconds,) = point
    time.sleep(seconds)
    return {"slept": seconds}


def _wait_for(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _answer(service, body):
    outcome = service.begin(body)
    if isinstance(outcome, Reply):
        return outcome
    assert isinstance(outcome, PendingReply)
    try:
        result = outcome.future.result(timeout=120)
    except BaseException as exc:  # noqa: BLE001 - rendered as Reply
        return service.finish(outcome, None, exc)
    return service.finish(outcome, result)


class TestWorkerDeathMidRequest:
    def test_sigkilled_worker_requeues_and_serves(self, tmp_path):
        ledger = RunLedger(
            tmp_path / "ledger" / "svc.jsonl", run_id="svc-chaos"
        )
        cache = ResultCache(str(tmp_path / "cache"))
        pool = WorkerPool(
            cache, workers=1,
            chaos=ChaosConfig(sweep_kills=((0, 1),)),
            max_attempts=3, ledger=ledger,
        )
        try:
            service = SimulationService(
                cache, pool, policy=GENEROUS, ledger=ledger
            )
            reply = _answer(service, dict(POINT_ARGS))
            assert reply.status == 200
            assert reply.payload["source"] == "executed"
            assert reply.payload["attempt"] == 2
            assert pool.requeued == 1
            assert pool.executed == 1
            # The answer survived the crash bit-identical: it is the
            # same summary a direct in-process cell call computes.
            point = request_point(POINT_ARGS)
            assert reply.payload["result"] == run_cell(None, point)
            ledger.flush()
            statuses = [
                (e.get("status"), e.get("attempt"))
                for e in read_events(ledger.path)
                if e["e"] == "sweep_job"
            ]
            assert ("requeued", 2) in statuses
            assert ("completed", 2) in statuses
        finally:
            pool.close()
            ledger.close()

    def test_pool_stays_serviceable_after_a_death(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        pool = WorkerPool(
            cache, workers=1,
            chaos=ChaosConfig(sweep_kills=((0, 1),)),
            max_attempts=3,
        )
        try:
            service = SimulationService(cache, pool, policy=GENEROUS)
            first = _answer(service, dict(POINT_ARGS))
            assert first.status == 200
            # The kill schedule hits attempt 1 of *every* job (all
            # service jobs are index 0), so the second key also loses a
            # worker — and also survives via the requeue ladder.
            second = _answer(
                service, dict(POINT_ARGS, kernel="sddmm")
            )
            assert second.status == 200
            assert pool.executed == 2
            assert pool.requeued == 2
        finally:
            pool.close()


class TestQuarantine:
    def _poison_pool(self, tmp_path, ledger=None):
        cache = ResultCache(str(tmp_path / "cache"))
        # Every attempt dies: 3 kills >= max_attempts=3.
        chaos = ChaosConfig(sweep_kills=((0, 1), (0, 2), (0, 3)))
        return cache, WorkerPool(
            cache, workers=1, chaos=chaos, max_attempts=3,
            ledger=ledger,
        )

    def test_poison_request_gets_503_with_manifest(self, tmp_path):
        import json
        import os

        cache, pool = self._poison_pool(tmp_path)
        try:
            service = SimulationService(cache, pool, policy=GENEROUS)
            reply = _answer(service, dict(POINT_ARGS))
            assert reply.status == 503
            manifest_path = reply.payload["quarantine_manifest"]
            assert manifest_path and os.path.exists(manifest_path)
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            assert manifest["driver"] == "serve"
            assert manifest["attempts"] == 3
            assert "worker died" in manifest["error"]
            assert pool.quarantined == 1
        finally:
            pool.close()

    def test_quarantined_key_fails_fast_next_time(self, tmp_path):
        cache, pool = self._poison_pool(tmp_path)
        try:
            service = SimulationService(cache, pool, policy=GENEROUS)
            first = _answer(service, dict(POINT_ARGS))
            assert first.status == 503
            # The next request for the same key never reaches a worker:
            # the manifest answers immediately.
            again = _answer(service, dict(POINT_ARGS))
            assert again.status == 503
            assert again.payload["quarantine_manifest"]
            # Fail-fast means no new attempts were burned: still 3.
            assert pool.quarantined == 2  # one ladder + one manifest hit
        finally:
            pool.close()

    def test_quarantine_is_ledger_visible(self, tmp_path):
        ledger = RunLedger(
            tmp_path / "ledger" / "svc.jsonl", run_id="svc-poison"
        )
        cache, pool = self._poison_pool(tmp_path, ledger=ledger)
        try:
            service = SimulationService(
                cache, pool, policy=GENEROUS, ledger=ledger
            )
            reply = _answer(service, dict(POINT_ARGS))
            assert reply.status == 503
            ledger.flush()
            events = read_events(ledger.path)
            q = [
                e for e in events
                if e["e"] == "sweep_job"
                and e["status"] == "quarantined"
            ]
            assert len(q) == 1 and q[0]["driver"] == "serve"
            failed = [
                e for e in events
                if e["e"] == "service" and e["status"] == "failed"
            ]
            assert failed and failed[0]["code"] == 503
        finally:
            pool.close()
            ledger.close()


class TestPoolDirect:
    def test_future_raises_service_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        chaos = ChaosConfig(sweep_kills=((0, 1), (0, 2)))
        pool = WorkerPool(
            cache, workers=1, chaos=chaos, max_attempts=2
        )
        try:
            spec = run_jobspec(request_point(POINT_ARGS))
            future = pool.submit(spec, run_cell)
            with pytest.raises(JobQuarantined) as info:
                future.result(timeout=120)
            assert info.value.key == spec.key
            assert info.value.manifest_path
        finally:
            pool.close()


class TestLeasesWhileQueued:
    def test_requeued_job_keeps_its_lease_while_it_waits(self, tmp_path):
        # A batch job's worker dies once; its requeue then waits behind
        # a 2 s interactive job, four lease TTLs.  The pool must keep
        # the waiting job's lease fresh: a peer that could reclaim it
        # would execute the key a second time.
        cache = ResultCache(str(tmp_path / "cache"))
        pool = WorkerPool(cache, workers=1, lease_ttl_s=0.5)
        batch = JobSpec("t", 1, (str(tmp_path / "died"),), "cfg")
        blocker = JobSpec("t", 2, (2.0,), "cfg")
        peer = LeaseManager(pool.leases.directory, owner="peer",
                            ttl_s=0.5)
        try:
            batch_future = pool.submit(
                batch, _dies_once_cell, priority="batch"
            )
            _wait_for(lambda: pool.leases.read(batch.key) is not None)
            blocker_future = pool.submit(
                blocker, _sleep_cell, priority="interactive"
            )
            _wait_for(lambda: pool.requeued == 1)
            time.sleep(1.0)
            assert not blocker_future.done()
            assert peer.try_claim(batch.key) is None
            result = batch_future.result(timeout=60)
            assert result.source == "executed"
            assert result.attempt == 2
            assert blocker_future.result(timeout=60).source == "executed"
        finally:
            pool.close()

    def test_close_fails_a_deferred_submission_at_once(self, tmp_path):
        # A live peer holds the key, so the submission is deferred;
        # close must not wait on the peer's lease.
        cache = ResultCache(str(tmp_path / "cache"))
        pool = WorkerPool(cache, workers=1)
        spec = run_jobspec(request_point(POINT_ARGS))
        peer = LeaseManager(pool.leases.directory, owner="peer",
                            ttl_s=30.0)
        assert peer.try_claim(spec.key) == 1
        future = pool.submit(spec, run_cell)
        _wait_for(lambda: pool.stats()["deferred"] == 1)
        t0 = time.monotonic()
        pool.close(timeout_s=3.0)
        assert time.monotonic() - t0 < 2.0
        assert not pool._thread.is_alive()
        with pytest.raises(SpadeError, match="shut down before execution"):
            future.result(timeout=1.0)
