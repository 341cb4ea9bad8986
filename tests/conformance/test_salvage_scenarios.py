"""End-to-end salvage scenarios through the full replication stack.

Two concurrent single-row writers on different replicas race into
certification; whether the loser is salvaged must depend only on whether
its write was blind — and the decision must survive batching layout
(same batch vs. across batches) and replica recovery.
"""

from repro.client import Driver
from repro.core import ClusterConfig, SIRepCluster
from repro.durable import DurabilityConfig
from repro.gcs import GcsConfig
from repro.testing import query


def build(salvage=True, batch_max=4, window=0.05, n=2, seed=3, **cfg):
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=n,
            salvage=salvage,
            seed=seed,
            gcs=GcsConfig(batch_max_messages=batch_max, batch_window=window),
            **cfg,
        )
    )
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}, {"k": 2, "v": 0}])
    return cluster


def race(cluster, statements, delay_step=0.001, params=None):
    """Run one single-statement txn per replica, staggered by
    ``delay_step`` so they certify concurrently; returns outcome map."""
    sim = cluster.sim
    driver = Driver(cluster.network, cluster.discovery)
    results = {}

    def writer(name, address, sql, args, delay):
        yield sim.sleep(delay)
        conn = yield from driver.connect(
            cluster.new_client_host(), address=address
        )
        try:
            for one, one_args in zip(sql, args):
                yield from conn.execute(one, one_args)
            yield from conn.commit()
            results[name] = "committed"
        except Exception as err:
            results[name] = type(err).__name__

    for i, (sql, args) in enumerate(statements):
        if isinstance(sql, str):
            sql, args = [sql], [args]
        sim.spawn(
            writer(f"T{i}", f"R{i}", sql, args, i * delay_step), name=f"T{i}"
        )
    sim.run()
    sim.run(until=sim.now + 3.0)
    return results


def final_rows(cluster):
    states = {
        tuple(
            (r["k"], r["v"])
            for r in query(
                cluster.sim, rep.node.db, "SELECT k, v FROM kv ORDER BY k"
            )
        )
        for rep in cluster.replicas
        if rep.alive
    }
    assert len(states) == 1, "replicas diverged"
    return states.pop()


def test_blind_race_same_batch_salvages_loser():
    """Both writesets land in one sequencer batch; the second conflicts
    with a predecessor certified *in the same batch* and is salvaged."""
    cluster = build(batch_max=4, window=0.05)
    results = race(cluster, [
        ("UPDATE kv SET v = ? WHERE k = ?", (11, 1)),
        ("UPDATE kv SET v = ? WHERE k = ?", (22, 1)),
    ])
    assert list(results.values()) == ["committed", "committed"]
    assert cluster.replicas[0].certifier.salvaged == 1
    assert final_rows(cluster)[0] == (1, 22)  # later tid wins
    assert cluster.one_copy_report().ok


def test_blind_race_across_batch_boundary_salvages_loser():
    """A short window flushes the first writeset before the second one
    arrives, so the conflicting predecessor was sequenced and certified
    in an *earlier* batch."""
    cluster = build(batch_max=4, window=0.0005)
    results = race(cluster, [
        ("UPDATE kv SET v = ? WHERE k = ?", (11, 1)),
        ("UPDATE kv SET v = ? WHERE k = ?", (22, 1)),
    ])
    assert list(results.values()) == ["committed", "committed"]
    assert cluster.replicas[0].certifier.salvaged == 1
    assert cluster.bus.sequenced_batches >= 2
    assert final_rows(cluster)[0] == (1, 22)
    assert cluster.one_copy_report().ok


def test_rmw_race_still_aborts_loser():
    """``v = v + 1`` reads the row it writes: salvage must refuse, the
    loser aborts, and the counter reflects exactly one increment."""
    cluster = build()
    results = race(cluster, [
        ("UPDATE kv SET v = v + 1 WHERE k = ?", (1,)),
        ("UPDATE kv SET v = v + 1 WHERE k = ?", (1,)),
    ])
    assert sorted(results.values()) == ["CertificationAborted", "committed"]
    cert = cluster.replicas[0].certifier
    assert cert.salvaged == 0
    assert cert.salvage_rejects == 1
    assert final_rows(cluster)[0] == (1, 1)  # exactly one increment
    assert cluster.one_copy_report().ok


def test_select_then_update_still_aborts_loser():
    """An explicit read of the raced key makes the write non-blind even
    though the UPDATE itself covers the row."""
    cluster = build()
    results = race(cluster, [
        ("UPDATE kv SET v = ? WHERE k = ?", (11, 1)),
        (
            ["SELECT v FROM kv WHERE k = ?", "UPDATE kv SET v = ? WHERE k = ?"],
            [(1,), (22, 1)],
        ),
    ])
    assert sorted(results.values()) == ["CertificationAborted", "committed"]
    assert cluster.replicas[0].certifier.salvaged == 0
    assert final_rows(cluster)[0] == (1, 11)
    assert cluster.one_copy_report().ok


def test_disjoint_keys_need_no_salvage():
    cluster = build()
    results = race(cluster, [
        ("UPDATE kv SET v = ? WHERE k = ?", (11, 1)),
        ("UPDATE kv SET v = ? WHERE k = ?", (22, 2)),
    ])
    assert list(results.values()) == ["committed", "committed"]
    assert cluster.replicas[0].certifier.salvaged == 0
    assert final_rows(cluster) == ((1, 11), (2, 22))


def test_knob_wiring_follows_salvage():
    """salvage=True wires blind-write deferral, the backpressure gate and
    commit pipelining at every replica; salvage=False wires none."""
    on = build()
    assert all(r.db.defer_blind_ww for r in on.replicas)
    assert all(r.db.defer_gate is not None for r in on.replicas)
    assert all(r.db.defer_gate() for r in on.replicas)  # queues empty
    assert all(r.manager.commit_pipeline for r in on.replicas)

    off = build(salvage=False)
    assert not any(r.db.defer_blind_ww for r in off.replicas)
    assert all(r.db.defer_gate is None for r in off.replicas)
    assert not any(r.manager.commit_pipeline for r in off.replicas)


def test_closed_gate_disables_deferral_but_not_salvage():
    """With the backpressure gate pinned shut the engine falls back to
    eager first-updater checks — no blind-write deferrals — yet
    certifier-side salvage still rescues the blind loser."""
    cluster = build()
    for r in cluster.replicas:
        r.db.defer_gate = lambda: False
    results = race(cluster, [
        ("UPDATE kv SET v = ? WHERE k = ?", (11, 1)),
        ("UPDATE kv SET v = ? WHERE k = ?", (22, 1)),
    ])
    assert list(results.values()) == ["committed", "committed"]
    assert cluster.replicas[0].certifier.salvaged == 1
    assert cluster.metrics()["deferred_ww_total"] == 0
    assert final_rows(cluster)[0] == (1, 22)
    assert cluster.one_copy_report().ok


def test_pipeline_off_race_reaches_same_outcome():
    """Salvage semantics must not depend on commit pipelining: the same
    blind race resolves identically with the pipeline pinned off."""
    cluster = build()
    for r in cluster.replicas:
        r.manager.commit_pipeline = False
    results = race(cluster, [
        ("UPDATE kv SET v = ? WHERE k = ?", (11, 1)),
        ("UPDATE kv SET v = ? WHERE k = ?", (22, 1)),
    ])
    assert list(results.values()) == ["committed", "committed"]
    assert cluster.replicas[0].certifier.salvaged == 1
    assert final_rows(cluster)[0] == (1, 22)
    assert cluster.one_copy_report().ok


def test_recovered_replica_carries_salvage_state():
    """Crash/recover between two salvage races: the new incarnation must
    rebuild salvage mode + certifier state and keep deciding identically
    with the survivors (clone/checkpoint/log-replay path)."""
    cluster = build(durability=DurabilityConfig(), n=3)
    sim = cluster.sim
    results = race(cluster, [
        ("UPDATE kv SET v = ? WHERE k = ?", (11, 1)),
        ("UPDATE kv SET v = ? WHERE k = ?", (22, 1)),
    ])
    assert list(results.values()) == ["committed", "committed"]
    cluster.crash(2)
    sim.run(until=sim.now + 1.0)
    cluster.recover_replica(2)
    sim.run(until=sim.now + 5.0)
    recovered = cluster.replicas[2]
    donor = cluster.replicas[0]
    assert recovered.alive
    assert recovered.certifier.salvage is True
    assert recovered.certifier._deleted == donor.certifier._deleted
    assert recovered.certifier._last_writer == donor.certifier._last_writer
    assert (
        recovered.certifier.last_validated_tid
        == donor.certifier.last_validated_tid
    )
    # a fresh blind race after recovery: every incarnation, old and new,
    # reaches the same salvage decision
    results = race(cluster, [
        ("UPDATE kv SET v = ? WHERE k = ?", (33, 2)),
        ("UPDATE kv SET v = ? WHERE k = ?", (44, 2)),
    ])
    assert list(results.values()) == ["committed", "committed"]
    tids = {r.certifier.last_validated_tid for r in cluster.replicas}
    assert len(tids) == 1
    assert final_rows(cluster)[1] == (2, 44)
    assert cluster.one_copy_report().ok
