"""Sharded SI-Rep scaling — aggregate update throughput vs group count.

The unsharded cluster certifies every writeset in one total order, so
update capacity is flat no matter how many replicas are added (§6.3:
adding replicas helps reads, not updates).  Partitioning the tables
over independent replication groups splits the certification order: on
a fully partitioned update-only workload (every transaction touches a
single group), aggregate update-commit throughput should scale
near-linearly with the number of groups at fixed per-group size.

Setup: 3 replicas per group, the Fig. 7 cost model, 10 tables per group
with a key space wide enough that write-write conflicts stay rare, and
an offered load (600 tps) that saturates the 1- and 2-group configs.
"""

from repro.bench.costs import MicroCost
from repro.bench.harness import run_sharded
from repro.workloads.sharded import make_partitioned_workload, make_table_map

GROUP_COUNTS = (1, 2, 4)
REPLICAS_PER_GROUP = 3
TABLES_PER_GROUP = 10
ROWS_PER_TABLE = 5000
OFFERED_TPS = 600.0


def _point(
    n_groups: int,
    duration: float = 5.0,
    warmup: float = 1.0,
    rows_per_table: int = ROWS_PER_TABLE,
    profile: bool = False,
):
    workload = make_partitioned_workload(
        n_groups,
        tables_per_group=TABLES_PER_GROUP,
        rows_per_table=rows_per_table,
    )
    return run_sharded(
        workload,
        OFFERED_TPS,
        n_groups=n_groups,
        replicas_per_group=REPLICAS_PER_GROUP,
        cost_model=MicroCost,
        table_map=make_table_map(n_groups, TABLES_PER_GROUP),
        duration=duration,
        warmup=warmup,
        seed=0,
        profile=profile,
    )


def _sweep():
    return {n_groups: _point(n_groups) for n_groups in GROUP_COUNTS}


def test_shard_scaling(benchmark):
    points = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    base = points[1].throughput
    ratios = {g: points[g].throughput / base for g in GROUP_COUNTS}
    for g in GROUP_COUNTS:
        p = points[g]
        print(
            f"groups={g}: {p.throughput:.1f} tps committed "
            f"(x{ratios[g]:.2f}), abort rate {p.abort_rate:.3f}"
        )

    # near-linear update scaling once certification is per-group
    assert ratios[2] >= 1.6
    assert ratios[4] >= 2.5
    # the workload is fully partitioned: the router never saw a
    # cross-shard write attempt
    for g in GROUP_COUNTS:
        assert points[g].extras["rejected_cross_shard_writes"] == 0


# ---------------------------------------------------------------------------
# Canonical point for the unified suite runner (repro.bench.suite)
# ---------------------------------------------------------------------------

CANONICAL_GROUPS = 2


def canonical_point(quick: bool = True) -> dict:
    """Shard-scaling anchor: 2 groups, router spans stitched to branches."""
    duration, warmup = (2.5, 0.5) if quick else (5.0, 1.0)
    rows_per_table = 1000 if quick else ROWS_PER_TABLE
    point = _point(
        CANONICAL_GROUPS,
        duration=duration,
        warmup=warmup,
        rows_per_table=rows_per_table,
        profile=True,
    )
    return {
        "config": {
            "n_groups": CANONICAL_GROUPS,
            "replicas_per_group": REPLICAS_PER_GROUP,
            "tables_per_group": TABLES_PER_GROUP,
            "rows_per_table": rows_per_table,
            "offered_tps": OFFERED_TPS,
            "duration": duration,
            "warmup": warmup,
            "seed": 0,
        },
        "metrics": {
            "throughput_tps": point.throughput,
            "update_rt_ms": point.rt("update"),
            "abort_rate": point.abort_rate,
            "rejected_cross_shard_writes": point.extras[
                "rejected_cross_shard_writes"
            ],
        },
        "profile": point.extras["profile"],
    }
