"""Definition 3 (1-copy-SI) checker tests, incl. the §4.3.2 anomaly."""

from repro.si import OneCopyGraph, Schedule, TxnSpec, check_one_copy_si
from repro.sim import Simulator
from repro.storage import Database
from repro.testing import commit_sync, execute_sync, run_txn


def spec(tid, rs=(), ws=()):
    return TxnSpec(tid, frozenset(rs), frozenset(ws))


def sched(text, txns):
    return Schedule.from_string(text, txns)


def test_single_replica_is_trivially_one_copy():
    t1 = spec("1", rs={"x"}, ws={"x"})
    t2 = spec("2", rs={"y"}, ws={"y"})
    report = check_one_copy_si(
        {"R1": sched("b1 c1 b2 c2", [t1, t2])},
        locality={"1": "R1", "2": "R1"},
    )
    assert report.ok
    assert report.witness.is_si_schedule()


def test_two_replicas_same_order_ok():
    # T1 local at R1, applied remotely at R2 (no readset there).
    t1_local = spec("1", rs={"x"}, ws={"x"})
    t1_remote = spec("1", rs=(), ws={"x"})
    t2_local = spec("2", rs={"x"}, ws={"y"})
    t2_remote = spec("2", rs=(), ws={"y"})
    report = check_one_copy_si(
        {
            "R1": sched("b1 c1 b2 c2", [t1_local, t2_remote]),
            "R2": sched("b1 c1 b2 c2", [t1_remote, t2_local]),
        },
        locality={"1": "R1", "2": "R2"},
    )
    assert report.ok


def test_ww_disagreement_across_replicas_fails():
    t1 = spec("1", ws={"x"})
    t2 = spec("2", ws={"x"})
    report = check_one_copy_si(
        {
            "R1": sched("b1 c1 b2 c2", [t1, t2]),
            "R2": sched("b2 c2 b1 c1", [t1, t2]),
        },
        locality={"1": "R1", "2": "R2"},
    )
    assert not report.ok
    assert any(v.rule == "ww-order" for v in report.violations)


def test_update_txn_missing_at_a_replica_fails_rowa():
    t1 = spec("1", ws={"x"})
    t2 = spec("2", ws={"y"})
    report = check_one_copy_si(
        {
            "R1": sched("b1 c1 b2 c2", [t1, t2]),
            "R2": sched("b1 c1", [t1]),
        },
        locality={"1": "R1", "2": "R1"},
    )
    assert not report.ok
    assert any(v.rule == "rowa" for v in report.violations)


def test_readonly_committed_only_locally_is_fine():
    t1 = spec("1", ws={"x"})
    ro = spec("q", rs={"x"})
    report = check_one_copy_si(
        {
            "R1": sched("b1 c1 bq cq", [t1, ro]),
            "R2": sched("b1 c1", [t1]),
        },
        locality={"1": "R1", "q": "R1"},
    )
    assert report.ok


def test_readonly_at_remote_replica_fails_rowa():
    t1 = spec("1", ws={"x"})
    ro = spec("q", rs={"x"})
    report = check_one_copy_si(
        {
            "R1": sched("b1 c1 bq cq", [t1, ro]),
            "R2": sched("b1 c1 bq cq", [t1, ro]),
        },
        locality={"1": "R1", "q": "R1"},
    )
    assert not report.ok


def test_remote_txn_with_readset_fails_rowa():
    t1_local = spec("1", rs={"x"}, ws={"x"})
    t1_remote_bad = spec("1", rs={"z"}, ws={"x"})
    report = check_one_copy_si(
        {
            "R1": sched("b1 c1", [t1_local]),
            "R2": sched("b1 c1", [t1_remote_bad]),
        },
        locality={"1": "R1"},
    )
    assert not report.ok


def test_paper_432_anomaly_detected():
    """§4.3.2: committing non-conflicting Ti, Tj in different orders at
    different replicas, with local readers Ta (at Rk) and Tb (at Rm)
    observing the two orders, has no global SI-schedule."""
    ti_k = spec("i", rs={"x"}, ws={"x"})     # Ti local at Rk
    tj_k = spec("j", rs=(), ws={"y"})        # Tj remote at Rk
    ta = spec("a", rs={"x", "y"})            # reader local at Rk
    ti_m = spec("i", rs=(), ws={"x"})        # Ti remote at Rm
    tj_m = spec("j", rs={"y"}, ws={"y"})     # Tj local at Rm
    tb = spec("b", rs={"x", "y"})            # reader local at Rm
    report = check_one_copy_si(
        {
            "Rk": sched("bi bj ci ba cj ca", [ti_k, tj_k, ta]),
            "Rm": sched("bj bi cj bb ci cb", [ti_m, tj_m, tb]),
        },
        locality={"i": "Rk", "j": "Rm", "a": "Rk", "b": "Rm"},
    )
    assert not report.ok
    assert report.cycle is not None
    assert any(v.rule == "1-copy-si" for v in report.violations)


def test_paper_432_without_readers_is_allowed():
    """Without Ta/Tb observing the orders, swapping non-conflicting
    commits is harmless — the checker must accept it."""
    ti_k = spec("i", rs={"x"}, ws={"x"})
    tj_k = spec("j", rs=(), ws={"y"})
    ti_m = spec("i", rs=(), ws={"x"})
    tj_m = spec("j", rs={"y"}, ws={"y"})
    report = check_one_copy_si(
        {
            "Rk": sched("bi bj ci cj", [ti_k, tj_k]),
            "Rm": sched("bj bi cj ci", [ti_m, tj_m]),
        },
        locality={"i": "Rk", "j": "Rm"},
    )
    assert report.ok


def test_witness_is_si_schedule_and_respects_ww_order():
    t1_l = spec("1", rs={"x"}, ws={"x"})
    t1_r = spec("1", rs=(), ws={"x"})
    t2_l = spec("2", rs={"x"}, ws={"x"})
    t2_r = spec("2", rs=(), ws={"x"})
    report = check_one_copy_si(
        {
            "R1": sched("b1 c1 b2 c2", [t1_l, t2_r]),
            "R2": sched("b1 c1 b2 c2", [t1_r, t2_l]),
        },
        locality={"1": "R1", "2": "R2"},
    )
    assert report.ok
    assert report.witness.is_si_schedule()
    assert report.witness.commit_order().index("1") < (
        report.witness.commit_order().index("2")
    )


def test_local_schedule_must_be_si():
    t1 = spec("1", ws={"x"})
    t2 = spec("2", ws={"x"})
    report = check_one_copy_si(
        {"R1": sched("b1 b2 c1 c2", [t1, t2])},  # concurrent ww pair
        locality={"1": "R1", "2": "R1"},
    )
    assert not report.ok
    assert any(v.rule == "local-si" for v in report.violations)


# ---------------------------------------------------------------------------
# The history feeder: live engine histories into the same engine
# ---------------------------------------------------------------------------


def setup_db(sim, name):
    db = Database(sim, name=name)
    run_txn(
        sim, db,
        [
            ("CREATE TABLE kv (k INT PRIMARY KEY, v INT)",),
            ("INSERT INTO kv (k, v) VALUES (1, 0), (2, 0)",),
        ],
        gid=f"setup-{name}",
    )
    return db


def test_history_feeder_committed_projection():
    sim = Simulator()
    db = setup_db(sim, "R1")
    # A committed writer, an aborted writer, a committed reader.
    t_commit = db.begin(gid="W")
    execute_sync(sim, db, t_commit, "UPDATE kv SET v = 1 WHERE k = 1")
    commit_sync(sim, db, t_commit)
    t_abort = db.begin(gid="A")
    execute_sync(sim, db, t_abort, "UPDATE kv SET v = 2 WHERE k = 2")
    db.abort(t_abort)
    t_read = db.begin(gid="Q")
    execute_sync(sim, db, t_read, "SELECT v FROM kv WHERE k = 1")
    commit_sync(sim, db, t_read)

    graph = OneCopyGraph()
    graph.replay("R1", db.history)
    report = graph.report()
    assert report.ok
    witness = report.witness
    # A dropped (committed projection)
    assert set(witness.transactions) == {"setup-R1", "W", "Q"}
    assert witness.is_si_schedule()
    assert witness.transactions["W"].writeset == frozenset({("kv", 1)})
    # a readset is kept only for a local commit: Q executed here
    assert witness.transactions["Q"].readset == frozenset({("kv", 1)})
    assert witness.transactions["Q"].is_readonly


def test_history_feeder_local_remote_round_trip():
    sim = Simulator()
    local = setup_db(sim, "R1")
    remote = setup_db(sim, "R2")

    # Local txn at R1, writeset applied at R2 (as the middleware would).
    txn = local.begin(gid="G1")
    execute_sync(sim, local, txn, "UPDATE kv SET v = 5 WHERE k = 1")
    ws = local.get_writeset(txn)
    commit_sync(sim, local, txn)

    def apply_remote():
        rtxn = remote.begin(gid="G1", remote=True)
        yield from remote.apply_writeset(rtxn, ws)
        yield from remote.commit(rtxn)

    sim.run_process(apply_remote())

    # Exclude the per-replica setup transactions: they are independent
    # bootstrap writes, not ROWA-mapped transactions.
    graph = OneCopyGraph()
    for name, db in (("R2", remote), ("R1", local)):
        graph.replay(
            name, [e for e in db.history if not str(e[1]).startswith("setup-")]
        )
    report = graph.report()
    assert report.ok
    # the readset comes from the local commit at R1, whichever replica
    # was replayed first
    local_commit = next(e for e in local.history if e[:2] == ("commit", "G1"))
    assert report.witness.transactions["G1"].readset == local_commit[3]
