"""Read-scaling tier — read throughput vs number of lazy read replicas.

Certification totally orders every update, so update capacity is flat
no matter how many replicas join (§6.3).  Reads are the opposite: a
lazy read replica applies the certified writeset stream without voting,
so each one added contributes its full residual capacity to read-only
transactions.  With zero readers the routed driver falls back to the
voting replicas, whose CPUs are already busy executing and applying
updates — read throughput is whatever fits in the cracks, and the
update path pays for sharing.

Setup: 3 voting replicas under a fixed offered update load that keeps
their CPUs busy (Fig. 7 cost model), plus a large closed-loop pool of
read-only clients offering more load than even the 4-reader tier can
absorb.  Update and read traffic come from separate client pools so
the update pressure is identical across configurations; the admission
controller queues the excess read load instead of aborting it.

Expected: read throughput scales near-linearly in the reader count
(baseline is writer-residual-bound, each reader is a whole extra CPU
minus the writeset-apply tax), while offloading reads keeps update p95
no worse than the share-everything baseline.
"""

from repro.bench.costs import MicroCost
from repro.bench.harness import per_replica_cost
from repro.client import RoutedDriver
from repro.core import ClusterConfig, SIRepCluster
from repro.obs import profile_run
from repro.reader import ReaderConfig
from repro.workloads import ClientPool
from repro.workloads.micro import make_mixed_workload, make_workload

READER_COUNTS = (0, 2, 4)
N_REPLICAS = 3
UPDATE_TPS = 140.0
READ_TPS = 800.0
UPDATE_CLIENTS = 80
READ_CLIENTS = 600
DURATION = 5.0
WARMUP = 1.0
READER = ReaderConfig(max_read_inflight=8, writer_read_inflight=1)


def _point(read_replicas, duration=DURATION, warmup=WARMUP, profile=False):
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=N_REPLICAS,
            seed=0,
            cost_model=per_replica_cost(MicroCost),
            read_replicas=read_replicas,
            reader=READER,
            span_trace=profile,
        )
    )
    update_workload = make_workload()
    read_workload = make_mixed_workload(read_weight=1.0)
    update_workload.install(cluster)

    # separate pools: update pressure is identical across configurations,
    # so any p95 movement is attributable to read traffic placement
    update_pool = ClientPool(
        cluster, update_workload, UPDATE_CLIENTS, UPDATE_TPS, duration,
        warmup=warmup, seed_stream="upd-clients",
    )
    read_pool = ClientPool(
        cluster, read_workload, READ_CLIENTS, READ_TPS, duration,
        warmup=warmup, seed_stream="read-clients",
        driver=RoutedDriver(
            cluster.network, cluster.discovery,
            reader_config=cluster.reader_config,
            tracer=cluster.tracer,
        ),
    )
    update_pool.start()
    read_pool.start()
    cluster.sim.run(until=duration)

    measured = duration - warmup
    update = update_pool.stats.categories["update"]
    read = read_pool.stats.categories["read-only"]
    result = {
        "read_tps": read.commits / measured,
        "update_tps": update.commits / measured,
        "read_p95_ms": read.percentile_ms(95),
        "update_p95_ms": update.percentile_ms(95),
        "routing": read_pool.driver.metrics(),
    }
    if profile:
        result["profile"] = profile_run(
            cluster.tracer, throughput=result["update_tps"]
        ).to_dict()
    return result


def _sweep():
    return {n: _point(n) for n in READER_COUNTS}


def test_read_scaling(benchmark):
    points = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    base = points[0]
    ratios = {n: points[n]["read_tps"] / base["read_tps"] for n in READER_COUNTS}
    for n in READER_COUNTS:
        p = points[n]
        print(
            f"readers={n}: {p['read_tps']:.1f} read tps (x{ratios[n]:.2f}), "
            f"update p95 {p['update_p95_ms']:.1f} ms"
        )

    # reads scale near-linearly with lazy replicas...
    assert ratios[2] >= 1.7
    assert ratios[4] >= 3.0
    # ...while taking reads off the voting replicas keeps update latency
    # no worse than the share-everything baseline
    for n in (2, 4):
        assert points[n]["update_p95_ms"] <= 1.10 * base["update_p95_ms"]
    # the admission controller queued the overload instead of failing it
    for n in READER_COUNTS:
        assert points[n]["routing"]["admission"]["queued"] > 0


# ---------------------------------------------------------------------------
# Canonical point for the unified suite runner (repro.bench.suite)
# ---------------------------------------------------------------------------

CANONICAL_READERS = 2


def canonical_point(quick: bool = True) -> dict:
    """Read-scaling anchor: the 2-reader tier with routed-read tracing."""
    duration, warmup = (2.5, 0.5) if quick else (DURATION, WARMUP)
    point = _point(
        CANONICAL_READERS, duration=duration, warmup=warmup, profile=True
    )
    routing = point["routing"]
    return {
        "config": {
            "read_replicas": CANONICAL_READERS,
            "n_replicas": N_REPLICAS,
            "offered_update_tps": UPDATE_TPS,
            "offered_read_tps": READ_TPS,
            "duration": duration,
            "warmup": warmup,
            "seed": 0,
        },
        "metrics": {
            "read_tps": point["read_tps"],
            "update_tps": point["update_tps"],
            "read_p95_ms": point["read_p95_ms"],
            "update_p95_ms": point["update_p95_ms"],
            "admission_queued": routing["admission"]["queued"],
        },
        "profile": point["profile"],
    }
