"""One measured SI-Rep deployment on the wall-clock runtime.

Every run uses the same deployment: 3 replicas on
``ClusterConfig(runtime="wall")`` (asyncio timers, loopback TCP between
clients, replicas and the GCS sequencer), GCS batches of at most 4
writesets or 2 ms, and a writeset log per replica under a directory in
the checkout with ``os.fsync`` on every flushed record.  The load is a
closed loop of 2 client connections with no think time; client ``i`` is
pinned to replica ``R<i>`` so placement does not vary with the seed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.durable.store import DurabilityConfig
from repro.errors import DatabaseError, TransactionAborted
from repro.gcs import GcsConfig
from repro.obs.metrics import quantile
from repro.workloads import micro, tpcw
from repro.workloads.spec import Workload

N_REPLICAS = 3
N_CLIENTS = 2
GCS = GcsConfig(batch_max_messages=4, batch_window=0.002)
#: unmeasured seconds of load before the window opens (sockets, caches)
WARMUP_S = 1.0
#: a transaction aborted by certification or a lock conflict is retried
#: with the same statements; past this many attempts it counts as failed,
#: like one refused with any other error
MAX_ATTEMPTS = 50
#: mix quotas are met exactly inside every block of this many inputs
MIX_BLOCK = 200
#: longest wait for in-flight applies to land after the clients stop
DRAIN_TIMEOUT_S = 20.0


@functools.cache
def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads' names and rationales, and each
    metric's name, unit and direction."""
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    make: Callable[[int], Workload]
    #: inputs are generated for this many committed tps, above the rate
    #: measured when they were sized; a faster system draws more from the
    #: same random stream
    input_tps: int
    monitor: bool = False


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "write-hot", lambda seed: micro.make_workload(seed=seed), input_tps=400
        ),
        WorkloadSpec(
            "browse",
            lambda seed: tpcw.make_workload(seed=seed, mix="browsing"),
            input_tps=1200,
        ),
        WorkloadSpec(
            "order-monitored",
            lambda seed: tpcw.make_workload(seed=seed, mix="ordering"),
            input_tps=200,
            monitor=True,
        ),
    )
}


@dataclass(frozen=True)
class Txn:
    """One generated client transaction: its category and SQL."""

    readonly: bool
    statements: tuple


def check_clients(clients: int) -> None:
    """The load generator shares the machine with the cluster it drives:
    more connections than cores would measure the generator, not SI-Rep."""
    cores = os.cpu_count() or 1
    if not 1 <= clients <= cores:
        raise ValueError(
            f"{clients} client connections refused: between 1 and "
            f"os.cpu_count() = {cores} allowed"
        )


class InputStream:
    """One client's transactions, drawn from the seed alone.

    ``prefill`` transactions are generated before the run; a system fast
    enough to use them up gets more from the same random stream, so the
    sequence is the same either way and no input repeats.  The mix is
    stratified: each block of :data:`MIX_BLOCK` inputs holds each
    template's exact quota, shuffled, so the read/update split of a
    window does not wander with the seed the way independent draws do.
    """

    def __init__(self, workload: Workload, seed: int, client: int, prefill: int):
        weights = [weight for _template, weight in workload.mix]
        exact = [MIX_BLOCK * weight / sum(weights) for weight in weights]
        quotas = [int(share) for share in exact]
        by_remainder = sorted(
            range(len(exact)), key=lambda i: exact[i] - quotas[i], reverse=True
        )
        for i in by_remainder[: MIX_BLOCK - sum(quotas)]:
            quotas[i] += 1
        self._block = [
            template
            for (template, _weight), quota in zip(workload.mix, quotas)
            for _ in range(quota)
        ]
        self._rng = random.Random(f"{seed}/client{client}")
        self._queue: deque[Txn] = deque()
        while len(self._queue) < prefill:
            self._extend()

    def _extend(self) -> None:
        order = list(self._block)
        self._rng.shuffle(order)
        for template in order:
            params = template.make_params(self._rng)
            self._queue.append(Txn(template.readonly, tuple(template.statements(params))))

    def next(self) -> Txn:
        if not self._queue:
            self._extend()
        return self._queue.popleft()


def make_inputs(
    spec: WorkloadSpec, workload: Workload, seed: int, seconds: float
) -> list[InputStream]:
    """One stream per client, prefilled for ``spec.input_tps`` over the
    warm-up and ``seconds``."""
    prefill = math.ceil(spec.input_tps / N_CLIENTS * (seconds + WARMUP_S))
    return [InputStream(workload, seed, client, prefill) for client in range(N_CLIENTS)]


@dataclass
class Window:
    """What the clients observed between ``start`` and ``end`` (runtime s)."""

    start: float
    end: float
    #: category -> (commit time, user-visible latency from the first
    #: attempt to the commit) per committed transaction, in seconds
    commits_by: dict[str, list[tuple[float, float]]] = field(
        default_factory=lambda: {"update": [], "read": []}
    )
    #: attempts that ended inside the window: committed, aborted, refused
    attempts: int = 0
    #: transactions refused with an error other than an abort, or aborted
    #: MAX_ATTEMPTS times
    failed: int = 0

    def inside(self, t: float) -> bool:
        return self.start <= t < self.end

    @property
    def commits(self) -> int:
        return sum(len(samples) for samples in self.commits_by.values())


class Deployment:
    """A wall-clock SI-Rep cluster loaded with one workload."""

    def __init__(self, spec: WorkloadSpec, workload: Workload, seed: int, scratch: Path):
        self.spec = spec
        self.seed = seed
        self.log_dir = Path(tempfile.mkdtemp(prefix="logs-", dir=scratch))
        config = ClusterConfig(
            n_replicas=N_REPLICAS,
            seed=seed,
            gcs=GCS,
            runtime="wall",
            monitor=spec.monitor,
            durability=DurabilityConfig(log_dir=self.log_dir),
        )
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.cluster = SIRepCluster(config)
        workload.install(self.cluster)
        # joins, views and genesis records settle before traffic starts
        self.cluster.sim.run()
        self.setup_wall_s = time.perf_counter() - wall0
        self.setup_cpu_s = time.process_time() - cpu0
        self.sim = self.cluster.sim
        self.clients = 0
        self._stop_clients = False

    def describe(self) -> dict:
        """The configuration every result records next to its numbers."""
        wslog = self.cluster.replicas[0].wslog
        return {
            "runtime": "wall",
            "replicas": N_REPLICAS,
            "clients": self.clients,
            "client_mode": "closed loop, no think time, client i pinned to R<i>",
            "gcs": {
                "batch_max_messages": GCS.batch_max_messages,
                "batch_window_s": GCS.batch_window,
            },
            "flush_policy": (
                "writeset log per replica, os.fsync per flushed record"
                if wslog is not None and wslog.fsync
                else "no fsync"
            ),
            "monitor": self.spec.monitor,
            "seed": self.seed,
            "warmup_s": WARMUP_S,
        }

    def _client(self, index: int, inputs: InputStream, window: Window):
        driver = Driver(self.cluster.network, self.cluster.discovery)
        conn = yield from driver.connect(
            self.cluster.new_client_host(), address=f"R{index}"
        )
        sim = self.sim
        while not self._stop_clients:
            txn = inputs.next()
            first_start = sim.now
            for _attempt in range(MAX_ATTEMPTS):
                try:
                    for sql, params in txn.statements:
                        yield from conn.execute(sql, params, readonly=txn.readonly)
                    yield from conn.commit()
                except TransactionAborted:
                    if window.inside(sim.now):
                        window.attempts += 1
                    continue
                except DatabaseError:
                    if window.inside(sim.now):
                        window.attempts += 1
                        window.failed += 1
                    break
                now = sim.now
                if window.inside(now):
                    window.attempts += 1
                    category = "read" if txn.readonly else "update"
                    window.commits_by[category].append((now, now - first_start))
                break
            else:
                if window.inside(sim.now):
                    window.failed += 1

    def run(self, inputs: list[InputStream], seconds: float, on_window=None) -> Window:
        """Warm up, measure ``seconds``, stop the clients, drain.

        ``on_window(opening)`` is called with True as the window opens
        and False as it closes, between event-loop turns.
        """
        sim = self.sim
        start = sim.now + WARMUP_S
        window = Window(start=start, end=start + seconds)
        self.clients = len(inputs)
        for index in range(len(inputs)):
            sim.spawn(
                self._client(index, inputs[index], window),
                name=f"bench-client-{index}",
                daemon=True,
            )
        sim.run(until=window.start)
        if on_window is not None:
            on_window(True)
        sim.run(until=window.end)
        if on_window is not None:
            on_window(False)
        self._stop_clients = True
        self.drain()
        return window

    def drain(self) -> None:
        """Let the last transactions finish and every replica catch up."""
        deadline = self.sim.now + DRAIN_TIMEOUT_S
        while self.sim.now < deadline:
            self.sim.run(until=self.sim.now + 0.05)
            if self._settled():
                return

    def _settled(self) -> bool:
        clients_done = not any(
            p.alive for p in self.sim.processes if p.name.startswith("bench-client-")
        )
        replicas = self.cluster.replicas
        return clients_done and all(
            not r.manager.queue
            and r.wslog.durable_seq == r.wslog.tip_seq
            and r.db.csn == replicas[0].db.csn
            for r in replicas
        )

    def check(self) -> list[str]:
        """Correctness of the drained run; returns the problems found."""
        problems = []
        replicas = self.cluster.replicas
        first = committed_state(replicas[0].db)
        differ = [r.name for r in replicas[1:] if committed_state(r.db) != first]
        if differ:
            problems.append(f"committed state of {differ} differs from {replicas[0].name}")
        for r in replicas:
            if r.wslog.durable_seq != r.wslog.tip_seq:
                problems.append(
                    f"{r.name}: log durable_seq {r.wslog.durable_seq} "
                    f"!= tip_seq {r.wslog.tip_seq}"
                )
        monitor = self.cluster.monitor
        if monitor is not None:
            monitor.poll()
            if monitor.violations:
                problems.append(f"monitor violations: {monitor.violations}")
            if monitor.saturated:
                problems.append("monitor saturated: it stopped checking")
        return problems

    def stop(self) -> None:
        self.cluster.stop()
        shutil.rmtree(self.log_dir, ignore_errors=True)


def committed_state(db) -> frozenset:
    """A replica's latest committed rows, independent of row order."""
    return frozenset(
        (table, frozenset(frozenset(row.items()) for row in rows))
        for table, rows in db.export_committed().items()
    )


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    return quantile(sorted(samples), q / 100.0)

