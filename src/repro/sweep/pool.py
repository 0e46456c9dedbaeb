"""The one supervised worker pool, shared by sweeps and the service.

:class:`WorkerPool` owns long-lived ``fork`` workers, each with a
private duplex pipe (a shared queue's internal lock would be poisoned
by a holder dying mid-``put``), and one dispatcher thread that runs the
whole supervision loop:

- a **priority heap** orders pending submissions by (priority rank,
  arrival sequence) — interactive before batch, FIFO within a class;
- **claim at dispatch**: a job's lease is claimed only when a worker is
  free, so concurrent runners sharing one cache+lease directory each
  execute only what they win.  Quarantined keys fail fast, a fresh
  claim re-probes the cache (a peer may just have published), and a key
  a live peer holds is **deferred** — polled every ``foreign_poll_s``
  until the peer publishes, or its lease goes stale and is reclaimed
  with the attempt bumped;
- one ``multiprocessing.connection.wait`` select over the result pipes,
  the worker process **sentinels** and a wakeup pipe (a submission from
  another thread unblocks the loop without polling).  A sentinel firing
  with no buffered result means the worker died mid-job: the lease
  attempt is bumped, the job requeued at its priority and the worker
  replaced.  After ``max_attempts`` the job is **poison**: a quarantine
  manifest is written and its future fails with :class:`JobQuarantined`;
- claimed jobs waiting in the heap are heartbeat by the loop (in-flight
  ones by their worker), so no peer can reclaim a lease this pool holds;
- results **publish to the cache before the lease releases and before
  the future resolves** — the ordering the service's at-most-once
  argument rests on (DESIGN.md section 14).

Two clients use it.  The simulation service submits a stream of single
jobs and answers each request from its future;
:class:`~repro.sweep.runner.SweepRunner` submits a grid and gathers the
futures in index order.  Each client passes its own ledger ``label``
and :class:`PoolInstruments`; the defaults are the service's.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _mp_wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SpadeError
from repro.jobmodel import JobResult, JobSpec
from repro.obs.ledger import (
    NULL_LEDGER,
    RunLedger,
    merge_shard,
    shard_path,
)
from repro.sweep.cache import ResultCache
from repro.sweep.lease import heartbeat_path, open_leases
from repro.telemetry import ensure

_PRIORITY_RANK = {"interactive": 0, "batch": 1}


class JobQuarantined(SpadeError):
    """A job exhausted its attempts; the manifest has the post-mortem."""

    def __init__(self, key: str, error: str,
                 manifest_path: Optional[str]) -> None:
        super().__init__(error)
        self.key = key
        self.manifest_path = manifest_path


class JobExecutionError(SpadeError):
    """The cell raised inside a worker (simulation bug, bad point)."""

    def __init__(self, key: str, error: str) -> None:
        super().__init__(f"job {key[:16]} failed: {error}")
        self.error = error


def quarantine_error(manifest: Dict[str, Any], path: str) -> str:
    """Failure text for a job a quarantine manifest (ours or a peer's)
    blocks."""
    return (
        f"quarantined (by {manifest.get('owner', 'unknown')}): "
        f"{manifest.get('error', 'quarantined')} — clear {path} to retry"
    )


def emit_quarantined(ledger, spec: JobSpec, driver: str, error: str,
                     attempt: Any) -> None:
    """The ``sweep_job status="quarantined"`` ledger event."""
    event: Dict[str, Any] = dict(
        index=spec.index, status="quarantined", key=spec.key,
        driver=driver, error=error, pid=os.getpid(),
    )
    if isinstance(attempt, int):
        event["attempt"] = attempt
    ledger.emit("sweep_job", **event)


# -- worker side ------------------------------------------------------------


def _seed_job_rngs(seed: int) -> None:
    """Pin the *global* RNGs before a cell runs.

    Cells are expected to seed their own generators; this guards the
    ones they don't own (library code reaching for module-level state),
    making every job's RNG view a function of its key alone — identical
    under any worker count.
    """
    random.seed(seed)
    try:
        import numpy as np

        np.random.seed(seed % 2**32)
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass


@dataclass
class _JobPayload:
    """Everything a worker needs to run one job attempt."""

    index: int
    cell: Callable[[Any, Tuple], Any]
    env: Any
    point: Tuple
    seed: int
    resilience: Any
    shard: Optional[Tuple[str, str, str]]  # (ledger dir, key, driver)
    attempt: int = 1
    chaos: Any = None  # ChaosConfig (picklable frozen dataclass)
    lease_path: Optional[str] = None
    lease_interval_s: float = 0.0


class _LeaseHeartbeat(threading.Thread):
    """Refreshes one lease file's mtime while its job runs."""

    def __init__(self, path: str, interval_s: float) -> None:
        super().__init__(name="sweep-lease-heartbeat", daemon=True)
        self._path = path
        self._interval_s = max(0.05, interval_s)
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval_s):
            heartbeat_path(self._path)

    def stop(self) -> None:
        self._halt.set()


def _execute_job(payload: _JobPayload) -> Tuple[int, bool, Any, int]:
    """Run one job attempt in a worker process.

    Returns ``(index, ok, value_or_message, pid)``; exceptions are
    folded into strings so a failed job cannot poison the result pipe
    with an unpicklable traceback object.  When the pool carries a
    ledger, each job writes its lifecycle events to a private shard
    file (one writer per file — no cross-process lock needed) that the
    client merges back in job-index order.
    """
    from repro.resilience import ChaosMonkey, RunSupervisor

    index = payload.index
    _seed_job_rngs(payload.seed)
    pid = os.getpid()
    monkey = (
        ChaosMonkey(payload.chaos) if payload.chaos is not None else None
    )
    ledger = NULL_LEDGER
    job: Dict[str, Any] = {}
    if payload.shard is not None:
        shard_dir, key, driver = payload.shard
        ledger = RunLedger(
            shard_path(shard_dir, index, key), run_id=key[:16]
        )
        job = dict(index=index, key=key, driver=driver, pid=pid,
                   attempt=payload.attempt)
        ledger.emit("sweep_job", status="started", **job)
        # Flush immediately: if this attempt dies to a SIGKILL the
        # started-with-no-completed event is the post-mortem evidence.
        ledger.flush()
    heartbeat = None
    if payload.lease_path is not None and not (
        monkey is not None and monkey.stall_lease_heartbeat()
    ):
        heartbeat = _LeaseHeartbeat(
            payload.lease_path, payload.lease_interval_s
        )
        heartbeat.start()
    if monkey is not None:
        # Real process death: when selected, this call does not return.
        monkey.sweep_kill(index, payload.attempt)
    supervisor = RunSupervisor(
        resilience=payload.resilience, ledger=ledger, chaos=monkey
    )
    t0 = time.perf_counter()
    try:
        value = supervisor.call(
            lambda: payload.cell(payload.env, payload.point)
        )
        ok, outcome = True, {"status": "completed"}
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        value = f"{type(exc).__name__}: {exc}"
        ok, outcome = False, {"status": "failed", "error": value}
    finally:
        if heartbeat is not None:
            heartbeat.stop()
    if ledger.enabled:
        ledger.emit("sweep_job", wall_s=time.perf_counter() - t0,
                    **outcome, **job)
        ledger.close()
    return index, ok, value, pid


def _worker_main(conn) -> None:
    """Long-lived pool worker: pull payloads, push results, until the
    parent sends ``None`` or disappears."""
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            break  # parent died or closed our pipe
        if payload is None:
            break
        result = _execute_job(payload)
        try:
            conn.send(result)
        except (OSError, ValueError):
            break
    try:
        conn.close()
    except OSError:
        pass


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class _Worker:
    """One supervised pool worker: a process plus its private pipe."""

    __slots__ = ("conn", "proc", "state")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.state: Optional["_Submission"] = None


def _reap(worker: _Worker, grace_s: float) -> None:
    """Close a worker's pipe and join it, terminating a straggler."""
    try:
        worker.conn.close()
    except OSError:
        pass
    worker.proc.join(timeout=grace_s)
    if worker.proc.is_alive():
        worker.proc.terminate()
        worker.proc.join(timeout=2.0)


# -- parent side ------------------------------------------------------------


@dataclass(frozen=True)
class PoolInstruments:
    """The counters and gauge a pool reports through.  Each client
    registers its own names, so the pool never chooses between them."""

    executed: Any
    requeued: Any
    quarantined: Any
    restarted: Any
    depth: Any


@dataclass(order=True)
class _Submission:
    """One job execution request, heap-ordered by priority."""

    rank: Tuple[int, int]
    spec: JobSpec = field(compare=False)
    cell: Callable[[Any, Tuple], Any] = field(compare=False)
    env: Any = field(compare=False)
    resilience: Any = field(compare=False)
    future: Future = field(compare=False)
    attempt: int = field(compare=False, default=1)
    claimed: bool = field(compare=False, default=False)


def _settle(future: Future, result: Any = None,
            error: Optional[BaseException] = None) -> None:
    """Resolve a submission's future unless its client cancelled it."""
    try:
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)
    except InvalidStateError:
        pass


class WorkerPool:
    """Supervised worker pool consuming job submissions from any thread.

    Runs its own dispatcher thread; :meth:`submit` returns a future at
    once.  The cache and lease directory are optional (a sweep without
    ``--cache-dir`` runs on in-memory attempt counts alone); when set
    they are shared with every concurrent runner and service.
    """

    def __init__(
        self,
        cache: Optional[ResultCache],
        workers: int = 2,
        telemetry=None,
        ledger=None,
        chaos=None,
        max_attempts: int = 3,
        lease_dir: Optional[str] = None,
        lease_ttl_s: float = 30.0,
        foreign_poll_s: float = 0.05,
        label: str = "serve",
        instruments: Optional[PoolInstruments] = None,
    ) -> None:
        if workers < 1:
            raise SpadeError(
                f"worker pool needs >= 1 worker, got {workers}"
            )
        self.cache = cache
        self.workers = workers
        self.max_attempts = max_attempts
        self.foreign_poll_s = foreign_poll_s
        self.chaos = chaos
        self.label = label
        if not lease_dir and cache is not None:
            lease_dir = cache.default_lease_dir()
        self.leases = open_leases(lease_dir, ttl_s=lease_ttl_s)
        self._heartbeat_s = lease_ttl_s / 4.0
        self._next_heartbeat = 0.0
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        if instruments is None:
            metrics = ensure(telemetry).metrics
            instruments = PoolInstruments(
                executed=metrics.counter(
                    "spade_service_executions",
                    help="simulations executed by the service pool",
                ),
                requeued=metrics.counter(
                    "spade_service_requeued",
                    help="service jobs requeued after their worker died",
                ),
                quarantined=metrics.counter(
                    "spade_service_quarantined",
                    help="poison service jobs quarantined after attempt "
                         "exhaustion",
                ),
                restarted=metrics.counter(
                    "spade_service_workers_restarted",
                    help="service pool workers replaced after dying",
                ),
                depth=metrics.gauge(
                    "spade_service_queue_depth",
                    help="service jobs waiting for a worker",
                ),
            )
        self._m = instruments
        self._ctx = _pool_context()
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._inbox: List[_Submission] = []
        self._heap: List[_Submission] = []
        self._deferred: List[Tuple[float, _Submission]] = []
        self._halt = threading.Event()
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._pool: List[_Worker] = []
        # Jobs dispatched with a ledger shard, by (index, key).
        self._ran: Dict[Tuple[int, str], JobSpec] = {}
        self.executed = 0
        self.requeued = 0
        self.quarantined = 0
        self.failed = 0
        self._thread = threading.Thread(
            target=self._run, name="worker-pool", daemon=True
        )
        self._thread.start()

    # -- submission (any thread) ----------------------------------------

    def submit(
        self,
        spec: JobSpec,
        cell: Callable[[Any, Tuple], Any],
        resilience: Any = None,
        priority: str = "interactive",
        env: Any = None,
    ) -> Future:
        """Queue ``cell(env, spec.point)``; the future resolves to a
        :class:`~repro.jobmodel.JobResult` (source ``"executed"``, or
        ``"cached"`` if a peer published first) or fails with
        :class:`JobQuarantined` / :class:`JobExecutionError`."""
        if self._halt.is_set():
            raise SpadeError("worker pool is shut down")
        sub = _Submission(
            rank=(_PRIORITY_RANK.get(priority, 1), next(self._seq)),
            spec=spec,
            cell=cell,
            env=env,
            resilience=resilience,
            future=Future(),
        )
        with self._lock:
            self._inbox.append(sub)
        self._wake()
        return sub.future

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except (OSError, ValueError):
            pass

    # -- dispatcher thread ----------------------------------------------

    def _run(self) -> None:
        try:
            for _ in range(self.workers):
                self._pool.append(_Worker(self._ctx))
            while True:
                self._absorb_inbox()
                if self._halt.is_set() and self._deferred:
                    # Nothing will poll a foreign-held key after halt.
                    deferred, self._deferred = self._deferred, []
                    self._fail([sub for _, sub in deferred])
                self._revive_deferred()
                self._dispatch_ready()
                self._heartbeat_claims()
                if self._halt.is_set() and self._idle():
                    break
                self._select()
        finally:
            self._fail_remaining()
            self._shutdown_workers()
            for conn in (self._wake_w, self._wake_r):
                conn.close()

    def _idle(self) -> bool:
        with self._lock:
            empty_inbox = not self._inbox
        return (
            empty_inbox
            and not self._heap
            and not self._deferred
            and all(w.state is None for w in self._pool)
        )

    def _absorb_inbox(self) -> None:
        with self._lock:
            incoming, self._inbox = self._inbox, []
        for sub in incoming:
            heapq.heappush(self._heap, sub)
        if incoming:
            self._m.depth.set(len(self._heap))

    def _revive_deferred(self) -> None:
        now = time.monotonic()
        still: List[Tuple[float, _Submission]] = []
        for retry_at, sub in self._deferred:
            if now >= retry_at:
                heapq.heappush(self._heap, sub)
            else:
                still.append((retry_at, sub))
        self._deferred = still

    def _dispatch_ready(self) -> None:
        for worker in self._pool:
            if worker.state is not None:
                continue
            sub = self._next_runnable()
            if sub is None:
                break
            self._dispatch(worker, sub)
        self._m.depth.set(len(self._heap))

    def _heartbeat_claims(self) -> None:
        """Keep the leases of claimed jobs waiting in the heap fresh
        (in-flight ones are heartbeat by their worker), so no peer
        reclaims a lease this pool still holds."""
        now = time.monotonic()
        if self.leases is None or now < self._next_heartbeat:
            return
        self._next_heartbeat = now + self._heartbeat_s
        for sub in self._heap:
            if sub.claimed:
                self.leases.heartbeat(sub.spec.key)

    def _next_runnable(self) -> Optional[_Submission]:
        """Pop the next submission that holds (or just won) its lease."""
        while self._heap:
            sub = heapq.heappop(self._heap)
            if sub.future.cancelled():
                self._release(sub)
            elif self._claim(sub):
                return sub
        return None

    def _claim(self, sub: _Submission) -> bool:
        """Claim at dispatch: quarantined keys fail fast, foreign-held
        keys defer, and the cache is re-probed under the claim so a
        peer's published result short-circuits execution.  A requeued
        job re-claims its own lease (idempotent for the holder)."""
        if self.leases is None:
            return True
        key = sub.spec.key
        manifest = self.leases.is_quarantined(key)
        if manifest is not None:
            self._release(sub)
            path = self.leases.quarantine_path(key)
            self._quarantine(
                sub, quarantine_error(manifest, path),
                str(manifest.get("error", "quarantined")),
                manifest.get("attempts"), path,
            )
            return False
        attempt = self.leases.try_claim(key)
        sub.claimed = attempt is not None
        if self._resolve_cached(sub):
            return False
        if attempt is None:
            # A live peer holds it: check back shortly — its published
            # result will satisfy the cache probe.
            self._deferred.append(
                (time.monotonic() + self.foreign_poll_s, sub)
            )
            return False
        sub.attempt = max(sub.attempt, attempt)
        if sub.attempt > self.max_attempts:
            self._poison(
                sub,
                f"attempts exhausted: lease records {sub.attempt - 1} "
                f"prior attempt(s) by dead owners",
            )
            return False
        return True

    def _resolve_cached(self, sub: _Submission) -> bool:
        if self.cache is None:
            return False
        hit, value = self.cache.get(sub.spec.key)
        if hit:
            self._release(sub)
            _settle(sub.future, JobResult(
                key=sub.spec.key, value=value, source="cached"
            ))
        return hit

    def _dispatch(self, worker: _Worker, sub: _Submission) -> None:
        key = sub.spec.key
        payload = _JobPayload(
            index=sub.spec.index,
            cell=sub.cell,
            env=sub.env,
            point=sub.spec.point,
            seed=sub.spec.seed,
            resilience=sub.resilience,
            shard=(
                (str(self.ledger.path.parent), key, self.label)
                if self.ledger.enabled else None
            ),
            attempt=sub.attempt,
            chaos=self.chaos,
            lease_path=self.leases.path_for(key) if self.leases else None,
            lease_interval_s=self._heartbeat_s,
        )
        try:
            worker.conn.send(payload)
        except (OSError, ValueError):
            # Worker died idle: replace it, requeue without burning an
            # attempt (the job never reached the dead process).
            heapq.heappush(self._heap, sub)
            self._replace(worker)
            return
        except Exception as exc:  # noqa: BLE001 - unpicklable job
            self._release(sub)
            self.failed += 1
            _settle(sub.future, error=JobExecutionError(
                key, f"{type(exc).__name__}: {exc}"
            ))
            return
        worker.state = sub
        if self.ledger.enabled:
            self._ran[sub.spec.index, key] = sub.spec

    def _select(self) -> None:
        busy = [w for w in self._pool if w.state is not None]
        conn_map = {w.conn: w for w in busy}
        sentinel_map = {w.proc.sentinel: w for w in busy}
        timeout = min(1.0, self._heartbeat_s)
        if self._deferred:
            soonest = min(at for at, _ in self._deferred)
            timeout = min(timeout, max(0.0, soonest - time.monotonic()))
        ready = _mp_wait(
            [self._wake_r] + list(conn_map) + list(sentinel_map),
            timeout=timeout,
        )
        dead: List[_Worker] = []
        for obj in ready:
            if obj is self._wake_r:
                try:
                    while self._wake_r.poll(0):
                        self._wake_r.recv()
                except (EOFError, OSError):
                    pass
                continue
            worker = conn_map.get(obj)
            if worker is not None:
                if worker.state is None:
                    continue
                try:
                    result = worker.conn.recv()
                except (EOFError, OSError):
                    if worker not in dead:
                        dead.append(worker)
                    continue
                sub, worker.state = worker.state, None
                self._finish(sub, result)
            else:
                worker = sentinel_map[obj]
                if worker.state is None:
                    continue
                try:
                    # A dead worker's final result may still sit in the
                    # pipe buffer; prefer it over the sentinel.
                    has_result = worker.conn.poll(0)
                except (OSError, ValueError):
                    has_result = False
                if not has_result and worker not in dead:
                    dead.append(worker)
        for worker in dead:
            self._handle_death(worker)

    # -- outcomes --------------------------------------------------------

    def _release(self, sub: _Submission) -> None:
        if sub.claimed:
            sub.claimed = False
            self.leases.release(sub.spec.key)

    def _finish(self, sub: _Submission,
                result: Tuple[int, bool, Any, int]) -> None:
        _, ok, value, pid = result
        key = sub.spec.key
        if ok and self.cache is not None:
            # Publish before releasing the lease and before resolving
            # the future: peers and late joiners must find the result.
            self.cache.put(key, value)
        self._release(sub)
        if ok:
            self.executed += 1
            self._m.executed.inc()
            _settle(sub.future, JobResult(
                key=key, value=value, source="executed",
                attempt=sub.attempt, worker_pid=pid,
            ))
        else:
            self.failed += 1
            _settle(sub.future, error=JobExecutionError(key, value))

    def _handle_death(self, worker: _Worker) -> None:
        """A busy worker died: requeue its job (attempt bumped) or, when
        attempts are exhausted, quarantine it."""
        sub, worker.state = worker.state, None
        worker.proc.join(timeout=5.0)
        error = (
            f"worker died (pid={worker.proc.pid}, "
            f"exitcode={worker.proc.exitcode}) while executing "
            f"attempt {sub.attempt}"
        )
        # Without a lease (or if it was stolen after a stall) fall back
        # to the in-memory attempt count.
        bumped = self.leases.bump(sub.spec.key) if sub.claimed else None
        sub.attempt = bumped or sub.attempt + 1
        self._replace(worker)
        if sub.attempt > self.max_attempts:
            self._poison(sub, error)
            return
        self.requeued += 1
        self._m.requeued.inc()
        self.ledger.emit(
            "sweep_job",
            index=sub.spec.index,
            status="requeued",
            key=sub.spec.key,
            driver=self.label,
            error=error,
            pid=os.getpid(),
            attempt=sub.attempt,
        )
        heapq.heappush(self._heap, sub)

    def _poison(self, sub: _Submission, error: str) -> None:
        """Attempts exhausted: write the manifest, drop the lease."""
        # ``sub.attempt`` is the would-be-next attempt at poison time;
        # the manifest records how many attempts actually executed.
        executed = sub.attempt - 1
        manifest_path = None
        if self.leases is not None:
            manifest_path = self.leases.quarantine(sub.spec.key, {
                "driver": self.label,
                "index": sub.spec.index,
                "point": repr(sub.spec.point),
                "attempts": executed,
                "error": error,
            })
        sub.claimed = False
        self._quarantine(sub, error, error, executed, manifest_path)

    def _quarantine(self, sub: _Submission, message: str, error: str,
                    attempt: Any, manifest_path: Optional[str]) -> None:
        self.quarantined += 1
        self._m.quarantined.inc()
        emit_quarantined(self.ledger, sub.spec, self.label, error, attempt)
        _settle(sub.future, error=JobQuarantined(
            sub.spec.key, message, manifest_path
        ))

    def _replace(self, worker: _Worker) -> None:
        _reap(worker, grace_s=1.0)
        self._pool[self._pool.index(worker)] = _Worker(self._ctx)
        self._m.restarted.inc()

    # -- shutdown --------------------------------------------------------

    def _shutdown_workers(self) -> None:
        for worker in self._pool:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in self._pool:
            _reap(worker, grace_s=2.0)
        self._pool = []

    def _fail(self, subs: List[_Submission]) -> None:
        for sub in subs:
            self._release(sub)
            _settle(sub.future, error=SpadeError(
                "worker pool shut down before execution"
            ))

    def _fail_remaining(self) -> None:
        with self._lock:
            leftovers, self._inbox = self._inbox, []
        leftovers += self._heap + [s for _, s in self._deferred]
        leftovers += [w.state for w in self._pool if w.state is not None]
        self._heap, self._deferred = [], []
        self._fail(leftovers)

    def close(self, timeout_s: float = 30.0) -> None:
        """Finish queued and in-flight work, fail deferred submissions,
        stop the workers and join the dispatcher."""
        self._halt.set()
        self._wake()
        self._thread.join(timeout=timeout_s)

    # -- ledger and inspection -------------------------------------------

    def merge_ledger(self, spec: Optional[JobSpec] = None) -> None:
        """Fold the ledger shards of jobs this pool ran into its ledger:
        one settled job's, or — once no job runs — all of them in
        job-index order.  A shard is merged only when its job has
        settled (its worker may still append otherwise) and only by the
        pool that ran it (a peer runner sharing the ledger directory
        merges its own)."""
        if not self.ledger.enabled:
            return
        names = [(spec.index, spec.key)] if spec is not None \
            else sorted(self._ran)
        for index, key in names:
            if self._ran.pop((index, key), None) is not None:
                merge_shard(
                    shard_path(self.ledger.path.parent, index, key),
                    self.ledger,
                )

    def stats(self) -> Dict[str, int]:
        with self._lock:
            inbox = len(self._inbox)
        return {
            "workers": self.workers,
            "queued": len(self._heap) + inbox,
            "deferred": len(self._deferred),
            "executed": self.executed,
            "requeued": self.requeued,
            "quarantined": self.quarantined,
            "failed": self.failed,
        }
