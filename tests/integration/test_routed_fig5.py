"""Fig. 5 rides the read tier by default — and keeps its sessions safe.

The TPC-W bench now drives a :class:`RoutedDriver` against lazy read
replicas.  One test pins the wiring (reads really leave the full
replicas), one pins the guarantee that makes the wiring correct
(read-your-writes via session tokens, even on a deliberately lagging
reader, with the contention knobs switched on as the bench uses them).
"""

from repro.bench import figures
from repro.client import RoutedDriver
from repro.core import ClusterConfig, SIRepCluster
from repro.gcs import GcsConfig
from repro.reader import ReaderConfig


def test_fig5_default_routes_reads_through_read_tier():
    points = figures.fig5_tpcw(fast=True, quiet=True)
    replicated = [p for p in points if p.system == "SRCA-Rep"]
    assert replicated
    for point in replicated:
        routing = point.extras["routing"]
        assert routing is not None, "fig5 no longer drives a RoutedDriver"
        assert routing["reads_routed"] > 0
    for point in points:
        if point.system == "centralized":
            assert point.extras.get("routing") is None


def test_fig5_opt_out_restores_in_place_reads():
    points = figures.fig5_tpcw(fast=True, quiet=True, read_replicas=0)
    for point in points:
        if point.system == "SRCA-Rep":
            assert point.extras["routing"] is None


def test_read_your_writes_survives_contention_knobs():
    """A session's own commit is visible through the routed read path —
    token-enforced — while salvage and batching are live and
    the chosen reader demonstrably lags the write."""
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=3,
            seed=11,
            salvage=True,
            read_replicas=1,
            reader=ReaderConfig(apply_delay=0.05),
            gcs=GcsConfig(batch_max_messages=4, batch_window=0.002),
        )
    )
    sim = cluster.sim
    cluster.load_schema(["CREATE TABLE kv (k INT PRIMARY KEY, v INT)"])
    cluster.bulk_load("kv", [{"k": 1, "v": 0}])
    driver = RoutedDriver(
        cluster.network, cluster.discovery, reader_config=cluster.reader_config
    )
    seen = []

    def scenario():
        conn = yield from driver.connect(cluster.new_client_host())
        for value in (1, 2, 3):
            yield from conn.execute(
                "UPDATE kv SET v = ? WHERE k = ?", (value, 1)
            )
            yield from conn.commit()
            token = conn.session_csn
            assert token is not None and token >= value
            # apply_delay keeps the reader behind the fresh commit, so
            # only the session token can make this read correct
            result = yield from conn.execute(
                "SELECT v FROM kv WHERE k = 1", readonly=True
            )
            seen.append(result.rows[0]["v"])
            yield from conn.commit()
        conn.close()

    sim.run_process(scenario())
    sim.run()
    assert seen == [1, 2, 3]  # read-your-writes, every round
    assert driver.stats_reads_routed == 3
