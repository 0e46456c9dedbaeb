"""Service workload: a closed loop of ``nproc`` clients against a
``repro serve --workers nproc`` subprocess that starts with an empty
result cache.

Operation: one ``POST /v1/simulate``, timed from send to full reply.
The window is cut into equal slices by reply time; throughput and
median latency are medians over the slices, so a burst of host noise
moves a few slices, not the figure.  Executions of first-seen keys fill
the first seconds from the empty cache; the median slice is served from
memory, and the executions show in the tail and the per-layer metrics.

Requests follow a seeded Zipf popularity over tiny-scale suite points:
every suite matrix x kernel, at the K and PE count a request gets by
default (``RUN_DEFAULTS``; K=32 is also a Fig 9 K value).  The Zipf
exponent (``ZIPF_S``) is an assumption, not a measured request mix.
Each client is its own tenant.  The quota is set far above the offered
load, so a 429/503 is a failure, not shaping.  Answers for one key must
be identical whether they were executed, coalesced or memoized,
``/v1/stats`` must show exactly one pool execution per distinct key,
and every served answer must equal the same point run in-process
through ``run_cell``.

While it runs, one busy loop per CPU at ``SCHED_IDLE`` priority keeps
the CPUs from halting.  Every request wakes a client and the server in
turn; on a virtual machine, waking a halted virtual CPU waits for the
host's scheduler, and that wait, not the service, set most of the
run-to-run spread.  The busy loops yield to any other runnable task.
Times and rates are reported at the reference host's speed
(``common.HostSpeed``): each boot is scaled by the calibration samples
right before and after it, each slice by samples a separate process
takes during it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from common import (
    SAMPLES_AROUND, GateError, Outcome, median, nproc, peak_rss_mb, tail,
)
from spans import (
    KERNEL_LAYERS, KernelCall, Tracer, instrument, kernel_layer_metrics,
)

ZIPF_S = 1.1
"""Popularity exponent: unverified, no measured request mix exists."""
SLICES = 10
BOOT_REPEATS = 3
SAMPLE_EVERY_S = 0.25
"""Interval of the host-speed samples taken while the loop runs; each
slice is scaled by those taken during it."""
LAYERS = KERNEL_LAYERS + (
    "oracle.wall_s", "service.req_tail_ms", "service.memo_p50_ms",
    "service.executed_p50_ms", "service.coalesced_p50_ms", "service.memo",
    "service.coalesced", "service.executed", "pool.exec_ms",
    "pool.queue_wait_ms", "cache.hits", "cache.misses", "cache.writes",
    "admission.rejected", "trace.overhead_ratio",
)
"""Per-layer metrics a traced run must measure (the kernel layers from
the in-process reference runs)."""
SMOKE_MATRICES = ("KRO", "DEL")
BOOT_TIMEOUT_S = 60.0


def universe(smoke: bool) -> List[dict]:
    from repro.bench.fig09 import KERNELS
    from repro.service.simulate import RUN_DEFAULTS
    from repro.sparse.suite import SUITE

    names = [b.name for b in SUITE]
    if smoke:
        names = [n for n in names if n in SMOKE_MATRICES]
    return [
        {"matrix": m, "scale": "tiny", "kernel": kern,
         "k": RUN_DEFAULTS["k"], "pes": RUN_DEFAULTS["pes"]}
        for m in names for kern in KERNELS
    ]


class Requests:
    """The seeded request stream, shared by the client threads."""

    def __init__(self, points: List[dict], seed: int,
                 limit: Optional[int] = None) -> None:
        self._rng = np.random.default_rng([seed, 2])
        rank = self._rng.permutation(len(points))
        weight = 1.0 / (rank + 1.0) ** ZIPF_S
        self._p = weight / weight.sum()
        self._points = points
        self._block: List[int] = []
        self._lock = threading.Lock()
        self.issued = 0
        self.limit = limit

    def next(self) -> Optional[dict]:
        with self._lock:
            if self.limit is not None and self.issued >= self.limit:
                return None
            if not self._block:
                idx = self._rng.choice(len(self._points), 1024, p=self._p)
                self._block = idx.tolist()[::-1]
            self.issued += 1
            return dict(self._points[self._block.pop()])


class Server:
    """One ``repro serve`` subprocess with its own cache directory."""

    def __init__(self, src: Path, state: Path, workers: int,
                 ledger: bool) -> None:
        state.mkdir(parents=True)
        self.ledger_dir = state / "ledger" if ledger else None
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(workers),
            "--cache-dir", str(state / "cache"),
            "--max-queue", "1024",
            "--quota-rate", "1000000", "--quota-burst", "1000000",
        ]
        if ledger:
            argv += ["--ledger", str(self.ledger_dir)]
        env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(state))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        self.lines: List[str] = []
        self.port = self._await_port()
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()
        from repro.service.client import ServiceClient

        self.client = ServiceClient(port=self.port, timeout_s=120.0)
        if not self.client.healthy():
            self.stop()
            raise RuntimeError("server announced a port but is not healthy")
        self.boot_s = time.perf_counter() - t0

    def _await_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.lines.append(line)
            match = re.search(r"serving\s*: http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError(
            "repro serve never announced its port:\n" + "".join(self.lines)
        )

    def _read_rest(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def stop(self) -> None:
        """Ask for a clean shutdown; interrupt, then kill, if it hangs.
        Returns once the process has been reaped."""
        from repro.errors import SpadeError

        if self.proc.poll() is None and getattr(self, "client", None):
            try:
                self.client.shutdown()
            except (OSError, SpadeError):
                pass
        for escalate in (None, self.proc.terminate, self.proc.kill):
            if escalate is not None and self.proc.poll() is None:
                escalate()
            try:
                self.proc.wait(timeout=30)
                break
            except subprocess.TimeoutExpired:
                continue
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=30)
        self.proc.stdout.close()


@dataclass
class Answer:
    rid: int
    body: dict
    latency_s: float
    done_s: float
    """Reply time, seconds since the loop started."""
    source: str
    key: str
    result: object


def closed_loop(server: Server, stream: Requests, clients: int,
                deadline: Optional[float], tracer: Optional[Tracer]):
    """Run ``clients`` threads, each its own tenant and sending its next
    request only after the previous reply; stops at ``deadline`` or when
    ``stream`` runs out.  Returns (answers, failures, wall seconds)."""
    from repro.service.client import ServiceError

    answers: List[Answer] = []
    failures: List[str] = []
    lock = threading.Lock()

    def client_loop(tenant: str) -> None:
        while deadline is None or time.perf_counter() < deadline:
            with lock:
                body = stream.next()
                rid = stream.issued
            if body is None:
                return
            body["tenant"] = tenant
            span = tracer.span("service.request", rid=str(rid)) \
                if tracer is not None else nullcontext()
            try:
                with span:
                    t0 = time.perf_counter()
                    reply = server.client.simulate(**body)
                    latency = time.perf_counter() - t0
            except (ServiceError, OSError) as exc:
                with lock:
                    failures.append(f"request {rid}: {exc}")
                continue
            with lock:
                answers.append(Answer(
                    rid, body, latency, t0 + latency - start,
                    reply["source"], reply["key"], reply["result"],
                ))

    threads = [
        threading.Thread(target=client_loop, args=(f"client-{i}",))
        for i in range(clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return answers, failures, time.perf_counter() - start


def check_answers(answers: List[Answer], stats: dict) -> Dict[str, dict]:
    """Same key, same answer whatever its source; one pool execution
    per distinct key.  Returns the first answer body per key."""
    first: Dict[str, Answer] = {}
    executed = 0
    for answer in answers:
        seen = first.setdefault(answer.key, answer)
        if answer.result != seen.result:
            raise GateError(
                f"key {answer.key[:16]}: {answer.source} answer differs "
                f"from the {seen.source} answer"
            )
        executed += answer.source == "executed"
    pool = stats["pool"]["executed"]
    if not pool == executed == len(first):
        raise GateError(
            f"pool executed {pool} jobs and {executed} answers say "
            f"executed, for {len(first)} distinct keys"
        )
    return {key: a.body for key, a in first.items()}


def check_reference(answers: List[Answer], bodies: Dict[str, dict]) -> None:
    """Every served answer equals the point run in-process."""
    from repro.service.simulate import request_point, run_cell, to_plain

    want = {
        key: to_plain(run_cell(None, request_point(body)))
        for key, body in bodies.items()
    }
    for answer in answers:
        if answer.result != want[answer.key]:
            raise GateError(
                f"served answer for {answer.body} differs from run_cell"
            )


def _ledger_layers(ledger_dir: Path) -> Dict[str, float]:
    from repro.obs.ledger import read_events

    exec_s: Dict[str, float] = {}
    served: List[tuple] = []
    for path in sorted(ledger_dir.glob("*.jsonl")):
        for e in read_events(path):
            if e.get("e") == "sweep_job" and e.get("status") == "completed":
                exec_s[e["key"]] = e["wall_s"]
            elif e.get("e") == "service" and e.get("status") == "served" \
                    and e.get("source") == "executed":
                served.append((e["key"], e["wall_s"]))
    waits = [(wall - exec_s[key]) * 1e3 for key, wall in served
             if key in exec_s]
    layers = {}
    if exec_s:
        layers["pool.exec_ms"] = median(list(exec_s.values())) * 1e3
    if waits:
        layers["pool.queue_wait_ms"] = median(waits)
    return layers


def _source_p50_ms(answers: List[Answer], source: str) -> float:
    lat = [a.latency_s for a in answers if a.source == source]
    return median(lat) * 1e3 if lat else 0.0


SPIN = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True:\n"
    "    pass\n"
)


@contextmanager
def cpus_kept_awake(count: int) -> Iterator[None]:
    """Run ``count`` lowest-priority busy loops for the block."""
    spinners = [
        subprocess.Popen([sys.executable, "-c", SPIN])
        for _ in range(count)
    ]
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        scratch: Path, out: Outcome) -> None:
    with cpus_kept_awake(nproc()):
        _run(seed, seconds, trace, smoke, scratch, out)


def _run(seed: int, seconds: float, trace: bool, smoke: bool,
         scratch: Path, out: Outcome) -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    workers = clients = nproc()
    points = universe(smoke)

    if not trace:
        out.host.sample(SAMPLES_AROUND)
        boots = []
        scaled_boots = []
        for i in range(BOOT_REPEATS):
            server = Server(src, scratch / f"server-{i}", workers, False)
            boots.append(server.boot_s)
            scaled_boots.append(server.boot_s / out.host.after())
            if i + 1 < BOOT_REPEATS:
                server.stop()
        try:
            with out.host.sampling(SAMPLE_EVERY_S):
                begin = time.perf_counter()
                answers, failures, wall = closed_loop(
                    server, Requests(points, seed), clients,
                    time.perf_counter() + seconds, None,
                )
            stats = server.client.stats()
        finally:
            server.stop()
        rss = peak_rss_mb(include_self=False)
        bodies = check_answers(answers, stats)
        check_reference(answers, bodies)
        slices: List[List[float]] = [[] for _ in range(SLICES)]
        for a in answers:
            i = int(a.done_s / seconds * SLICES)
            if i < SLICES:
                slices[i].append(a.latency_s)
        width = seconds / SLICES
        hosts = [out.host.factor_between(begin + i * width,
                                         begin + (i + 1) * width)
                 for i in range(SLICES)]
        out.attempted = len(answers) + len(failures)
        out.failed = len(failures)
        out.notes += failures[:5]
        out.end_to_end = {
            "throughput_per_s": median(
                [len(x) / width * h for x, h in zip(slices, hosts)]),
            "latency_p50_ms": median(
                [median(x) * 1e3 / h for x, h in zip(slices, hosts) if x]),
            "setup_s": median(scaled_boots),
            "peak_rss_mb": rss,
        }
        out.detail = {
            "requests": out.attempted, "distinct_keys": len(bodies),
            "universe": len(points), "wall_s": wall, "boot_s": boots,
            "slice_requests": [len(x) for x in slices],
            "slice_host_factor": hosts,
            "server_stats": stats,
        }
        return

    # Traced run: the same request stream, first against an untraced
    # server for half the time, then the same number of requests against
    # a server recording its run ledger, with client spans on.
    tracer = Tracer()
    plain = Server(src, scratch / "server-plain", workers, False)
    try:
        plain_answers, plain_failures, plain_wall = closed_loop(
            plain, Requests(points, seed), clients,
            time.perf_counter() + seconds / 2, None,
        )
        plain_stats = plain.client.stats()
    finally:
        plain.stop()
    count = len(plain_answers) + len(plain_failures)
    traced = Server(src, scratch / "server-traced", workers, True)
    try:
        answers, failures, wall = closed_loop(
            traced, Requests(points, seed, limit=count), clients, None,
            tracer,
        )
        stats = traced.client.stats()
    finally:
        traced.stop()
    check_answers(plain_answers, plain_stats)
    bodies = check_answers(answers, stats)
    calls: List[KernelCall] = []
    t0 = time.perf_counter()
    with instrument(tracer, scratch, calls), tracer.span("oracle.run_cell"):
        check_reference(answers, bodies)
    oracle_s = time.perf_counter() - t0

    out.attempted = count + len(answers) + len(failures)
    out.failed = len(plain_failures) + len(failures)
    out.notes += (plain_failures + failures)[:5]
    admission = stats["admission"]
    layers = kernel_layer_metrics(calls)
    layers.update(_ledger_layers(traced.ledger_dir))
    layers.update({
        "oracle.wall_s": oracle_s,
        "service.req_tail_ms":
            tail([a.latency_s for a in plain_answers]) * 1e3,
        "service.memo_p50_ms": _source_p50_ms(answers, "memo"),
        "service.executed_p50_ms": _source_p50_ms(answers, "executed"),
        "service.coalesced_p50_ms": _source_p50_ms(answers, "coalesced"),
        "service.memo": stats["memo_hits"],
        "service.coalesced": stats["coalescing"]["coalesced"],
        "service.executed": stats["pool"]["executed"],
        "cache.hits": stats["cache"]["hits"],
        "cache.misses": stats["cache"]["misses"],
        "cache.writes": stats["cache"]["writes"],
        "admission.rejected":
            admission["rejected_overload"] + admission["rejected_quota"],
        "trace.overhead_ratio": wall / plain_wall,
    })
    out.per_layer = layers
    out.detail = {
        "requests": out.attempted, "distinct_keys": len(bodies),
        "universe": len(points), "untraced_wall_s": plain_wall,
        "traced_wall_s": wall, "server_stats": stats, "tracer": tracer,
    }
