"""Crash-safe process-parallel sweep orchestration with deterministic merge.

:class:`SweepRunner` evaluates a benchmark grid — a list of hashable
points plus one pure cell function — as a **batch client** of the
supervised :class:`~repro.sweep.pool.WorkerPool`, and merges the
results back **in grid order**, so the output list (and any
``BENCH_*.json`` serialised from it) is byte-identical to a serial run.
The determinism argument (DESIGN.md section 9) rests on three facts:

1. cells are pure functions of ``(env, point)`` — every RNG they touch
   is explicitly seeded, and each worker additionally seeds the global
   ``random`` / ``numpy.random`` state per job from the job key, so a
   job computes identical bytes on any worker in any order;
2. results are indexed by grid position and gathered by index, so pool
   completion order is irrelevant;
3. cached results are the pickled bytes of a previous identical job,
   addressed by a content hash over (schema version, driver, config
   fingerprint, workload fingerprint) — a cache hit *is* the serial
   result.

``map_grid`` probes the cache and the quarantine manifests in the
parent, then submits the remaining jobs to a pool of ``jobs`` workers
and gathers their futures.  Everything else — worker death, requeue,
poison quarantine, lease claims and heartbeats, waiting on keys a live
peer holds — is the pool's (DESIGN.md sections 9 and 13).
``shard=(i, N)`` runs the same grid concurrently from N processes or
hosts sharing one cache+lease directory: each runner starts its
submissions at a different offset, executes the keys it wins and picks
up the rest from the cache, so every runner returns the complete
grid-order result list, byte-identical to serial.

Failed jobs are collected (not raised mid-gather) so completed work
still lands in the cache, then surfaced as one
:class:`~repro.errors.SweepJobError` sorted by ``repr(point)``, or as
``None`` holes under ``keep_going``.  Progress is published through the
telemetry registry: ``spade_sweep_jobs_{completed,cached,failed,
requeued,quarantined}`` counters, ``spade_sweep_workers_restarted``,
and the ``spade_sweep_queue_depth`` gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SweepError, SweepJobError
from repro.jobmodel import JobSpec, build_jobs
from repro.obs.ledger import NULL_LEDGER
from repro.sweep.cache import ResultCache
from repro.sweep.lease import open_leases
from repro.sweep.pool import (
    JobExecutionError,
    JobQuarantined,
    PoolInstruments,
    WorkerPool,
    emit_quarantined,
    quarantine_error,
)
from repro.telemetry import ensure


@dataclass
class SweepReport:
    """Job accounting for one or more ``map_grid`` calls."""

    total: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0
    requeued: int = 0
    quarantined: int = 0

    @property
    def executed_fraction(self) -> float:
        return self.completed / self.total if self.total else 0.0

    @property
    def cached_fraction(self) -> float:
        return self.cached / self.total if self.total else 0.0

    def merge(self, other: "SweepReport") -> None:
        self.total += other.total
        self.completed += other.completed
        self.cached += other.cached
        self.failed += other.failed
        self.requeued += other.requeued
        self.quarantined += other.quarantined

    def summary(self) -> str:
        text = (
            f"{self.total} jobs: {self.completed} executed, "
            f"{self.cached} cached, {self.failed} failed"
        )
        # Only surface the crash-recovery columns when they fired, so
        # the common no-fault summary line stays stable for tooling.
        if self.requeued:
            text += f", {self.requeued} requeued"
        if self.quarantined:
            text += f", {self.quarantined} quarantined"
        return text


@dataclass
class _GridRun:
    """Mutable state for one ``map_grid`` call."""

    driver: str
    report: SweepReport
    results: Dict[int, Any] = field(default_factory=dict)
    failures: List[Tuple[Tuple, str]] = field(default_factory=list)


class SweepRunner:
    """Fans a grid of jobs over the supervised worker pool; merges in
    grid order."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        telemetry=None,
        resilience=None,
        ledger=None,
        chaos=None,
        max_attempts: int = 3,
        keep_going: bool = False,
        shard: Optional[Tuple[int, int]] = None,
        lease_dir: Optional[str] = None,
        lease_ttl_s: float = 30.0,
        foreign_poll_s: float = 0.05,
    ) -> None:
        if jobs < 1:
            raise SweepError(f"sweep jobs must be >= 1, got {jobs}")
        if max_attempts < 1:
            raise SweepError(
                f"sweep max_attempts must be >= 1, got {max_attempts}"
            )
        if shard is not None:
            index, count = shard
            if count < 1:
                raise SweepError(
                    f"sweep shard runner count must be >= 1, "
                    f"got {index}/{count}"
                )
            if not 0 <= index < count:
                # Shards are 0-based; spell out the valid range so a
                # 1-based "N/N" slip gets a fix-it, not just a bound.
                raise SweepError(
                    f"sweep shard index is 0-based: valid shards for "
                    f"{count} runner(s) are 0/{count} .. "
                    f"{count - 1}/{count}, got {index}/{count}"
                )
            if cache is None:
                raise SweepError(
                    "sharded sweeps need a shared result cache "
                    "(--cache-dir): the cache is how shard runners "
                    "exchange results"
                )
        self.jobs = jobs
        self.cache = cache
        self.resilience = resilience
        self.chaos = chaos
        self.max_attempts = max_attempts
        self.keep_going = keep_going
        self.shard = shard
        self.lease_ttl_s = lease_ttl_s
        self.foreign_poll_s = foreign_poll_s
        if lease_dir is None and cache is not None:
            lease_dir = cache.default_lease_dir()
        self.lease_dir = lease_dir
        self.leases = open_leases(lease_dir, ttl_s=lease_ttl_s)
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self.telemetry = ensure(telemetry)
        self.report = SweepReport()
        metrics = self.telemetry.metrics
        self._cached = metrics.counter(
            "spade_sweep_jobs_cached",
            help="sweep jobs served from the result cache",
        )
        self._failed = metrics.counter(
            "spade_sweep_jobs_failed",
            help="sweep jobs that raised in a worker",
        )
        self._instruments = PoolInstruments(
            executed=metrics.counter(
                "spade_sweep_jobs_completed",
                help="sweep jobs executed by a worker",
            ),
            requeued=metrics.counter(
                "spade_sweep_jobs_requeued",
                help="sweep jobs requeued after their worker died",
            ),
            quarantined=metrics.counter(
                "spade_sweep_jobs_quarantined",
                help="poison sweep jobs quarantined after attempt "
                     "exhaustion",
            ),
            restarted=metrics.counter(
                "spade_sweep_workers_restarted",
                help="sweep pool workers replaced after dying",
            ),
            depth=metrics.gauge(
                "spade_sweep_queue_depth",
                help="sweep jobs waiting for a worker",
            ),
        )

    def _job_resilience(self, env):
        """Per-job supervision policy: explicit override first, then the
        environment's watchdog/retry knobs, then all-off."""
        if self.resilience is not None:
            return self.resilience
        if hasattr(env, "resilience_config"):
            return env.resilience_config()
        from repro.config import ResilienceConfig

        return ResilienceConfig()

    def map_grid(
        self,
        driver: str,
        env: Any,
        cell: Callable[[Any, Tuple], Any],
        points: Sequence[Tuple],
    ) -> List[Any]:
        """Evaluate ``cell(env, point)`` for every point, in parallel,
        returning results in grid order.

        ``cell`` must be a module-level function (workers import it by
        reference) and its results must be picklable.  Under
        ``keep_going`` quarantined/failed grid positions come back as
        ``None`` holes instead of raising.
        """
        specs = build_jobs(driver, env, points)
        run = _GridRun(driver, SweepReport(total=len(specs)))
        pending: List[JobSpec] = []
        for spec in specs:
            if self.cache is not None:
                hit, value = self.cache.get(spec.key)
                if hit:
                    run.results[spec.index] = value
                    self._note_cached(run, spec)
                    continue
            manifest = (
                self.leases.is_quarantined(spec.key)
                if self.leases is not None else None
            )
            if manifest is not None:
                # Written by us or a peer runner: skip the job.
                self._instruments.quarantined.inc()
                emit_quarantined(
                    self.ledger, spec, driver,
                    str(manifest.get("error", "quarantined")),
                    manifest.get("attempts"),
                )
                self._note_quarantined(run, spec, quarantine_error(
                    manifest, self.leases.quarantine_path(spec.key)
                ))
                continue
            pending.append(spec)
        if pending:
            self._execute(run, env, cell, pending)
        self._instruments.depth.set(0)

        self.report.merge(run.report)
        if run.failures and not self.keep_going:
            run.failures.sort(key=lambda f: repr(f[0]))
            raise SweepJobError(driver, run.failures)
        return [run.results.get(i) for i in range(len(specs))]

    def _execute(self, run: _GridRun, env: Any,
                 cell: Callable[[Any, Tuple], Any],
                 pending: List[JobSpec]) -> None:
        """Submit ``pending`` to a fresh pool, gather in index order."""
        order = pending
        if self.shard is not None:
            # Start each shard runner's submissions at a different
            # offset so N runners fan out over the grid instead of
            # colliding on job 0 and serialising.
            index, count = self.shard
            offset = (index * len(pending)) // count
            order = pending[offset:] + pending[:offset]
        self._instruments.depth.set(len(pending))
        resilience = self._job_resilience(env)
        pool = WorkerPool(
            self.cache,
            workers=min(self.jobs, len(pending)),
            ledger=self.ledger,
            chaos=self.chaos,
            max_attempts=self.max_attempts,
            lease_dir=self.lease_dir,
            lease_ttl_s=self.lease_ttl_s,
            foreign_poll_s=self.foreign_poll_s,
            label=run.driver,
            instruments=self._instruments,
        )
        futures = {}
        worker_pids = set()
        try:
            for spec in order:
                futures[spec.index] = pool.submit(
                    spec, cell, resilience=resilience, priority="batch",
                    env=env,
                )
            for spec in pending:
                try:
                    result = futures[spec.index].result()
                except JobQuarantined as exc:
                    self._note_quarantined(run, spec, str(exc))
                    continue
                except JobExecutionError as exc:
                    run.report.failed += 1
                    self._failed.inc()
                    if not self.keep_going:
                        run.failures.append((spec.point, exc.error))
                    continue
                run.results[spec.index] = result.value
                if result.source == "cached":
                    self._note_cached(run, spec)
                else:
                    run.report.completed += 1
                    worker_pids.add(result.worker_pid)
        finally:
            for future in futures.values():
                future.cancel()  # no-op once resolved
            pool.close()
            pool.merge_ledger()
        run.report.requeued += pool.requeued
        tracer = getattr(self.telemetry, "tracer", None)
        if tracer is not None:
            for sort_index, pid in enumerate(sorted(worker_pids)):
                tracer.set_process_name(
                    pid, f"sweep worker {pid}", sort_index=sort_index + 1
                )

    def _note_cached(self, run: _GridRun, spec: JobSpec) -> None:
        run.report.cached += 1
        self._cached.inc()
        self.ledger.emit(
            "cache_hit", index=spec.index, key=spec.key, driver=run.driver
        )

    def _note_quarantined(self, run: _GridRun, spec: JobSpec,
                          error: str) -> None:
        run.report.quarantined += 1
        if not self.keep_going:
            run.failures.append((spec.point, error))


def sweep_map(
    sweep: Optional[SweepRunner],
    driver: str,
    env: Any,
    cell: Callable[[Any, Tuple], Any],
    points: Sequence[Tuple],
) -> List[Any]:
    """Driver-side entry point: run a grid through ``sweep`` when one is
    configured, else evaluate serially in-process (the pre-sweep code
    path, kept for embedding and tests)."""
    if sweep is None:
        return [cell(env, point) for point in points]
    return sweep.map_grid(driver, env, cell, points)
