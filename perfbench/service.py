"""serve_mixed: service set-up, cold and warm request passes, and
open-loop traffic at three fixed rates (rungs).

The load generator is open-loop: a seeded Poisson schedule fixes when
each operation is *due*, independent of completions, and every latency
is timed from that due time, so a stall also charges the requests queued
behind it.  ``repro.serve.traffic.open_loop`` times from submission
instead, which hides generator lateness, so it is not used here.  At
most ``nproc`` (two) generator threads send requests; writes run on
those same threads.

A write replaces a tenant's databases with fresh ones over the other
value window of the tenant's graph.  The service has no atomic replace,
so the generator attaches the new version under a fresh name, routes new
requests to it, and detaches the old one once its last request has
finished.  No request is refused by the swap itself.
"""

from __future__ import annotations

import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.errors import EngineFault, ServiceOverloaded
from repro.serve.service import QueryService
from repro.serve.traffic import percentile

from perfbench.clock import timed
from perfbench.oracle import ORACLES
from perfbench.trace import REQUEST_ID
from perfbench.workloads import ServiceInput

MAX_WORKERS = 2
GENERATOR_THREADS = 2
#: Deep enough that a slow stretch of the shared host shows as queueing
#: delay, not as refused requests counted with the program's failures.
QUEUE_DEPTH = 4096
#: The latency limit a rung's p99 must meet for ``max_rate_qps``.
LIMIT_MS = 50.0
RUNG_NAMES = ("low", "mid", "high")


def db_name(base: str, version: int) -> str:
    return f"{base}@{version}"


# ----------------------------------------------------------------------
# expected answers
# ----------------------------------------------------------------------
def expected_rows(inp: ServiceInput) -> dict:
    """Fault-free canonical rows per (tenant, graph, value window, request
    shape), from the benchmark's own oracle.  Every engine and every
    degradation stage must return these rows."""
    expected = {}
    shapes = {kind.shape: kind.database for kind in inp.kinds}
    for t, graphs in enumerate(inp.data):
        for g, windows in enumerate(graphs):
            for w, databases in enumerate(windows):
                for shape, base in shapes.items():
                    _, rows = ORACLES[shape](databases[base].relations)
                    expected[(t, g, w, shape)] = sorted(set(rows), key=repr)
    return expected


# ----------------------------------------------------------------------
# the service under test
# ----------------------------------------------------------------------
class Harness:
    """One ``QueryService`` plus the client-side routing state."""

    def __init__(
        self, inp: ServiceInput, expected: dict, graph: int = 0, tracer=None
    ) -> None:
        self.inp = inp
        self.graph = graph
        self.tracer = tracer
        self.expected = expected
        self.service = QueryService(max_workers=MAX_WORKERS, queue_depth=QUEUE_DEPTH)
        self.lock = threading.Lock()
        n = len(inp.data)
        self.current = [0] * n        # live version per tenant
        self.next_version = [1] * n   # database names count writes
        self.outstanding: list[dict[int, int]] = [dict() for _ in range(n)]
        self.retired: list[set[int]] = [set() for _ in range(n)]
        for t in range(n):
            self.service.create_tenant(f"tenant{t}", dictionary_cap=inp.dictionary_cap)
            self._attach(t, 0)

    def close(self) -> None:
        self.service.shutdown(wait=True)

    def _window(self, t: int, version: int) -> int:
        """Writes alternate a tenant between its graph's value windows."""
        return version % len(self.inp.data[t][self.graph])

    def _data(self, t: int, version: int) -> dict:
        return self.inp.data[t][self.graph][self._window(t, version)]

    def _attach(self, t: int, version: int) -> None:
        for base, served in self._data(t, version).items():
            self.service.attach_database(
                f"tenant{t}",
                db_name(base, version),
                served.build_relations(),
                fds=served.fds,
                udfs=list(served.udfs),
            )

    def _detach(self, t: int, version: int) -> None:
        for base in self._data(t, version):
            self.service.detach_database(f"tenant{t}", db_name(base, version))

    # -- operations ----------------------------------------------------
    def write(self, t: int) -> None:
        """Replace tenant ``t``'s databases with fresh ones over the other
        value window of its graph."""
        if self.tracer is None:
            self._write(t)
        else:
            with self.tracer.phase("write"):
                self._write(t)

    def _write(self, t: int) -> None:
        with self.lock:
            version = self.next_version[t]
            self.next_version[t] += 1
        self._attach(t, version)
        with self.lock:
            old = self.current[t]
            self.current[t] = version
            idle = self.outstanding[t].get(old, 0) == 0
            if not idle:
                self.retired[t].add(old)
        if idle:
            self._detach(t, old)

    def submit(self, t: int, kind, rid: int, on_done):
        """Submit one request; ``on_done(version, future)`` runs when it
        completes.  Raises what ``submit`` raises (overload)."""
        with self.lock:
            version = self.current[t]
            self.outstanding[t][version] = self.outstanding[t].get(version, 0) + 1
        token = REQUEST_ID.set(rid)
        try:
            future = self.service.submit(
                f"tenant{t}", db_name(kind.database, version), kind.query, kind.engine
            )
        except BaseException:
            self._release(t, version)
            raise
        finally:
            REQUEST_ID.reset(token)

        def done(fut):
            on_done(version, fut)
            self._release(t, version)

        future.add_done_callback(done)
        return future

    def _release(self, t: int, version: int) -> None:
        with self.lock:
            left = self.outstanding[t][version] - 1
            self.outstanding[t][version] = left
            drop = left == 0 and version in self.retired[t]
            if drop:
                self.retired[t].discard(version)
        if drop:
            self._detach(t, version)

    def check(self, t: int, version: int, kind, result) -> bool:
        key = (t, self.graph, self._window(t, version), kind.shape)
        return result.rows == self.expected[key]


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------
@dataclass
class Outcomes:
    """Per-operation accounting shared by every phase.  ``known`` maps a
    request-kind label to the error class it is known to fail with; that
    is the only failure allowed, and it is the expected outcome of such a
    request, so it counts in ``known_failures``, not in ``failed``.  A
    request that fails any other way is counted in ``unexpected`` and
    ``failed`` and, like a wrong answer, fails the run, so a service that
    breaks by failing fast cannot pass."""

    known: dict
    attempted: int = 0
    queries: int = 0
    failed: int = 0
    wrong: int = 0
    unexpected: int = 0
    known_failures: int = 0
    failure_classes: dict = field(default_factory=dict)
    attempts: list[int] = field(default_factory=list)
    touched: int = 0
    output_rows: int = 0
    slack_log2: list[float] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, harness: Harness, t: int, version: int, kind, future) -> bool:
        """Classify one finished request; True when it completed with the
        expected rows."""
        try:
            result = future.result()
        except Exception as err:
            self.fail(kind, err)
            return False
        ok = harness.check(t, version, kind, result)
        with self.lock:
            self.attempted += 1
            self.queries += 1
            self.attempts.append(1 + len(result.faults_absorbed))
            if not ok:
                self.wrong += 1
                self.failed += 1
                return False
            if result.tuples_touched is not None:
                self.touched += result.tuples_touched
            self.output_rows += result.row_count
            self.slack_log2.append(
                result.bound_log2 - math.log2(max(1, result.row_count))
            )
        return True

    def fail(self, kind, err: BaseException) -> None:
        label = f"{kind.label}:{type(err).__name__}"
        with self.lock:
            self.attempted += 1
            self.queries += 1
            self.failure_classes[label] = self.failure_classes.get(label, 0) + 1
            if isinstance(err, EngineFault):
                self.attempts.append(len(err.extra.get("absorbed", ())))
            if self.known.get(kind.label) == type(err).__name__:
                self.known_failures += 1
            else:
                self.unexpected += 1
                self.failed += 1

    def count_write(self) -> None:
        with self.lock:
            self.attempted += 1


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def setup(inp: ServiceInput, expected: dict, graph: int = 0, tracer=None):
    """Timed set-up: the service, its tenants and the initial attaches.
    Returns ``(harness, Sample)``."""
    return timed(Harness, inp, expected, graph, tracer)


def request_pass(
    harness: Harness, outcomes: Outcomes, rid: int, tenant: int = 0
) -> None:
    """One request of every kind on ``tenant``, submitted together; returns
    when all have finished.  (Concurrent, so both workers stay busy: one
    at a time, the pass time is dominated by thread wake-ups, whose cost
    on a shared host is bimodal.)"""
    futures = [harness.submit(tenant, kind, rid, _ignore) for kind in harness.inp.kinds]
    for kind, future in zip(harness.inp.kinds, futures):
        outcomes.record(harness, tenant, harness.current[tenant], kind, future)


def _ignore(version, future) -> None:
    pass


def timed_passes(
    harness: Harness, outcomes: Outcomes, budget_s: float, minimum: int
) -> list:
    """Timed request passes on tenant 0 until ``budget_s`` has passed (at
    least ``minimum``); a list of :class:`~perfbench.clock.Sample`."""
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < minimum or time.perf_counter() < deadline:
        samples.append(timed(request_pass, harness, outcomes, 0)[1])
    return samples


@dataclass
class Rung:
    rate: float
    latencies_ms: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    backlog: list[int] = field(default_factory=list)
    submits: dict = field(default_factory=dict)
    done_at: dict = field(default_factory=dict)
    wall_s: float = 0.0
    completed: int = 0
    #: Requests still outstanding when the rung gave up waiting.
    unfinished: int = 0
    #: Host-speed rescaling for this rung (see ``perfbench.clock``).
    scale: float = 1.0

    @property
    def p50(self) -> float:
        return percentile(self.latencies_ms, 0.50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies_ms, 0.99)

    @property
    def backlog_grows(self) -> bool:
        """Outstanding requests over the last quarter of the schedule
        well above the first quarter: the queue did not keep up."""
        q = max(1, len(self.backlog) // 4)
        head = statistics.fmean(self.backlog[:q])
        tail = statistics.fmean(self.backlog[-q:])
        return tail > 2 * head + MAX_WORKERS

    @property
    def passes(self) -> bool:
        return bool(self.latencies_ms) and self.p99 <= LIMIT_MS and not self.backlog_grows


def schedule(inp: ServiceInput, rate: float, queries: int, seed: int) -> list:
    """Seeded open-loop schedule: ``(due offset s, tenant, kind or None)``
    with ``None`` marking a write; exactly ``queries`` queries.

    Arrivals are Poisson at ``rate`` queries per second.  The mix is
    fixed, so only arrival times and order vary with the seed: every
    ``1 / write_share``-th operation is a write, alternating tenants, and
    each block of ``len(kinds)`` queries holds every kind once."""
    rng = random.Random(seed)
    write_every = round(1 / inp.write_share) if inp.write_share else 0
    total_rate = rate / (1.0 - inp.write_share)
    ops = []
    block: list = []
    due = 0.0
    writes = n_queries = 0
    while n_queries < queries:
        due += rng.expovariate(total_rate)
        if write_every and len(ops) % write_every == write_every - 1:
            ops.append((due, writes % len(inp.data), None))
            writes += 1
            continue
        if not block:
            block = rng.sample(inp.kinds, len(inp.kinds))
        ops.append((due, rng.randrange(len(inp.data)), block.pop()))
        n_queries += 1
    return ops


def run_rung(
    harness: Harness, outcomes: Outcomes, rate: float, queries: int, seed: int, rid_base: int
) -> Rung:
    """Drive one rung open-loop and wait until every request is done."""
    ops = schedule(harness.inp, rate, queries, seed)
    rung = Rung(rate)
    cursor = iter(range(len(ops)))
    lock = threading.Lock()
    in_flight = [0]
    t0 = time.perf_counter() + 0.01

    def finished(t, kind, due, rid):
        def on_done(version, future):
            now = time.perf_counter()
            ok = outcomes.record(harness, t, version, kind, future)
            with lock:
                rung.done_at[rid] = now
                if ok:
                    rung.latencies_ms.append((now - due) * 1e3)
                    rung.completed += 1
                in_flight[0] -= 1
        return on_done

    def generator():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            offset, t, kind = ops[i]
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            with lock:
                rung.lags_ms.append((sent - due) * 1e3)
                rung.backlog.append(in_flight[0])
            if kind is None:
                harness.write(t)
                outcomes.count_write()
                continue
            rid = rid_base + i
            with lock:
                in_flight[0] += 1
                rung.submits[rid] = sent
            try:
                harness.submit(t, kind, rid, finished(t, kind, due, rid))
            except ServiceOverloaded as err:
                with lock:
                    in_flight[0] -= 1
                outcomes.fail(kind, err)

    threads = [threading.Thread(target=generator) for _ in range(GENERATOR_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Each done callback records its request; wait for the last one.
    deadline = time.perf_counter() + 60
    while in_flight[0] and time.perf_counter() < deadline:
        time.sleep(0.001)
    rung.unfinished = in_flight[0]
    rung.wall_s = max(rung.done_at.values(), default=t0) - t0
    return rung
