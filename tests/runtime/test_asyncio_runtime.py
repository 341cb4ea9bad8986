"""AsyncioRuntime-specific behavior: graceful shutdown, resource hygiene
and real durability.

The contract tests prove the wall runtime schedules like the simulator;
these prove it *cleans up* like a real server — ``stop()`` fails blocked
waiters instead of leaking them, closes every socket and timer, and a
process can start and stop clusters repeatedly without accumulating
file descriptors or hanging — and that a disk-backed log on the wall
clock really forces its writes, however its store was handed over.
"""

import os
import time

import pytest

from repro.errors import RuntimeStopped
from repro.runtime import AsyncioRuntime, make_runtime
from repro.sim.sync import OneShot, Queue


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_make_runtime_kinds():
    from repro.errors import ReproError
    from repro.sim import Simulator

    assert isinstance(make_runtime("sim"), Simulator)
    wall = make_runtime("wall")
    assert isinstance(wall, AsyncioRuntime)
    wall.stop()
    with pytest.raises(ReproError):
        make_runtime("quantum")


def test_wall_clock_actually_elapses():
    rt = AsyncioRuntime(seed=0)
    try:
        started = time.monotonic()

        def proc():
            yield rt.sleep(0.05)
            return rt.now

        now = rt.run_process(proc())
        elapsed = time.monotonic() - started
        assert now >= 0.05
        assert elapsed >= 0.05
    finally:
        rt.stop()


def test_rng_streams_match_simulator():
    """Cross-runtime comparability: the same seed yields the same
    per-stream random sequences on both runtimes."""
    from repro.sim import Simulator

    sim = Simulator(seed=7)
    rt = AsyncioRuntime(seed=7)
    try:
        for stream in ("net", "gcs", "wl"):
            assert [rt.rng(stream).random() for _ in range(5)] == [
                sim.rng(stream).random() for _ in range(5)
            ]
    finally:
        rt.stop()


def test_stop_fails_pending_one_shot_waiters():
    """The shutdown sweep throws :class:`RuntimeStopped` into every
    process still blocked on an event — the OneShot ``fail`` path — so
    nothing is silently abandoned mid-request."""
    rt = AsyncioRuntime(seed=0)
    slot = OneShot()
    log = []

    def waiter():
        try:
            yield slot.wait()
            log.append("resolved")
        except RuntimeStopped:
            log.append("stopped")

    rt.spawn(waiter(), name="waiter", daemon=True)

    def settle():
        yield rt.sleep(0.01)

    rt.run_process(settle())
    assert log == []  # still parked on the slot
    rt.stop()
    assert log == ["stopped"]


def test_stop_is_idempotent_and_cancels_timers():
    rt = AsyncioRuntime(seed=0)
    fired = []

    def proc():
        rt.call_at(rt.now + 60.0, lambda: fired.append("late"))
        yield rt.sleep(0.01)

    rt.run_process(proc())
    rt.stop()
    rt.stop()  # second stop must be a no-op, not an error
    assert not fired
    assert not rt._timers


def test_twenty_cluster_cycles_leak_nothing():
    """Regression for shutdown hygiene: start and stop a wall-clock
    cluster 20 times in one process.  No leaked listening sockets or
    event loops (file-descriptor count stays flat) and no hangs."""
    from repro.client import Driver
    from repro.core import ClusterConfig, SIRepCluster
    from repro.testing import run_txn

    # a warmup cycle lets lazy imports/caches allocate their fds
    baseline = None
    for cycle in range(20):
        cluster = SIRepCluster(
            ClusterConfig(n_replicas=2, seed=cycle, runtime="wall")
        )
        sim = cluster.sim
        cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
        cluster.bulk_load("kv", [{"k": 1, "v": 0}])
        driver = Driver(cluster.network, cluster.discovery)

        def one_commit():
            conn = yield from driver.connect(cluster.new_client_host())
            yield from conn.execute(
                "UPDATE kv SET v = ? WHERE k = 1", (cycle,)
            )
            yield from conn.commit()
            return True

        assert sim.run_process(one_commit()) is True
        cluster.stop()
        if cycle == 0:
            baseline = open_fds()
    assert baseline is not None
    # allow a little slack for interpreter-internal churn, but leaked
    # sockets/pipes/loops would add several fds per cycle
    assert open_fds() <= baseline + 4


def test_queue_survives_stop_without_leak_warnings():
    """Processes blocked on queues at stop() are killed cleanly; a
    subsequent fresh runtime in the same process is unaffected."""
    rt = AsyncioRuntime(seed=0)
    q = Queue("q")

    def consumer():
        while True:
            yield q.get()

    rt.spawn(consumer(), name="consumer", daemon=True)

    def settle():
        yield rt.sleep(0.01)

    rt.run_process(settle())
    rt.stop()

    rt2 = AsyncioRuntime(seed=0)
    try:
        def proc():
            yield rt2.sleep(0.01)
            return "fresh"

        assert rt2.run_process(proc()) == "fresh"
    finally:
        rt2.stop()


def _commit_one(cluster) -> None:
    from repro.client import Driver

    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}])
    driver = Driver(cluster.network, cluster.discovery)

    def txn():
        conn = yield from driver.connect(cluster.new_client_host(), address="R0")
        yield from conn.execute("UPDATE kv SET v = ? WHERE k = ?", (1, 1))
        yield from conn.commit()

    cluster.sim.run_process(txn())
    cluster.sim.run()


@pytest.mark.parametrize("runtime", ["wall", "sim"])
def test_supplied_disk_store_fsyncs_exactly_on_the_wall_clock(tmp_path, runtime):
    """A disk-backed store handed in from outside (the cold-restart path)
    obeys the same forcing rule as one the cluster builds itself: fsync
    on the wall clock, never in the simulator."""
    from repro.core import ClusterConfig, SIRepCluster
    from repro.durable import DurabilityConfig, DurabilityStore

    cluster = SIRepCluster(
        ClusterConfig(runtime=runtime),
        durability=DurabilityStore(DurabilityConfig(log_dir=tmp_path)),
    )
    try:
        _commit_one(cluster)
        wall = runtime == "wall"
        for replica in cluster.replicas:
            assert replica.wslog.fsync is wall
            assert (replica.wslog.fsyncs > 0) is wall
    finally:
        cluster.stop()
