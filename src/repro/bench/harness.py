"""One experiment = system + workload + offered load -> measured point.

Cost-model factories: :class:`~repro.core.cluster.ClusterConfig` takes
the **canonical** per-replica-index signature ``Callable[[int],
CostModel]`` (heterogeneous replicas need the index).  The ``run_*``
entry points here accept the friendlier zero-arg ``Callable[[],
CostModel]`` as well and adapt it via :func:`per_replica_cost`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.client import RoutedDriver
from repro.core import ClusterConfig, SIRepCluster
from repro.core.baselines import CentralizedSystem, TableLockSystem
from repro.durable.store import DurabilityConfig
from repro.gcs import GcsConfig
from repro.obs import profile_run, sanitize
from repro.reader import ReaderConfig
from repro.storage.engine import CostModel
from repro.workloads import ClientPool, ProcClientPool, Workload
from repro.workloads.stats import Stats


def _profile_extras(cluster, update_tps: Optional[float]) -> Optional[dict]:
    """Fold the run's span trees into the phase-attribution report.

    Benchmarks get latency attribution through ``extras["profile"]``
    without ever touching the Tracer: the report carries per-phase
    p50/p95 contributions, the dominant tail phase, and (when the obs
    sampler ran too) the Little's-law queueing diagnostics.
    """
    tracer = getattr(cluster, "tracer", None)
    if tracer is None:
        return None
    obs = getattr(cluster, "obs", None)
    report = profile_run(
        tracer,
        series=obs.sampler.series() if obs is not None else None,
        throughput=update_tps or None,
    )
    return report.to_dict()


def per_replica_cost(
    cost_model: Optional[Callable[..., CostModel]],
) -> Optional[Callable[[int], CostModel]]:
    """Adapt a cost-model factory to the canonical per-replica-index form.

    Accepts either signature — ``lambda: MicroCost()`` (one model shape
    for every replica) or ``lambda index: ...`` (per-replica
    heterogeneity) — and returns the ``Callable[[int], CostModel]`` that
    :class:`~repro.core.cluster.ClusterConfig` expects.
    """
    if cost_model is None:
        return None
    try:
        takes_index = len(inspect.signature(cost_model).parameters) >= 1
    except (TypeError, ValueError):  # builtins without introspectable sigs
        takes_index = False
    if takes_index:
        return cost_model
    return lambda _index: cost_model()


@dataclass
class LoadPoint:
    """One measured point of a response-time-vs-load sweep."""

    system: str
    load_tps: float
    throughput: float
    mean_rt_ms: dict[str, float]
    abort_rate: float
    extras: dict = field(default_factory=dict)

    def rt(self, category: str) -> float:
        return self.mean_rt_ms.get(category, float("nan"))


def _n_clients(load: float, expected_rt: float = 0.5) -> int:
    """Enough closed-loop clients to offer ``load`` tps even when the
    response time grows towards saturation."""
    return max(8, int(load * expected_rt) + 4)


def _collect(name: str, load: float, stats: Stats, **extras) -> LoadPoint:
    return LoadPoint(
        system=name,
        load_tps=load,
        throughput=stats.throughput(),
        mean_rt_ms={
            category: data["mean_ms"] for category, data in stats.summary().items()
        },
        abort_rate=stats.abort_rate(),
        extras={
            # latency tails per category: means hide queueing under load
            "p50_ms": {
                name: category.percentile_ms(50)
                for name, category in stats.categories.items()
            },
            "p95_ms": {
                name: category.percentile_ms(95)
                for name, category in stats.categories.items()
            },
            "commits": {
                name: category.commits
                for name, category in stats.categories.items()
            },
            **extras,
        },
    )


def run_sirep(
    workload: Workload,
    load: float,
    n_replicas: int = 5,
    hole_sync: bool = True,
    cost_model: Optional[Callable[[], CostModel]] = None,
    with_disk: bool = False,
    gcs: Optional[GcsConfig] = None,
    group_commit: bool = False,
    duration: float = 10.0,
    warmup: float = 2.0,
    seed: int = 0,
    label: Optional[str] = None,
    obs: bool = False,
    sampler_interval: float = 0.25,
    span_trace: bool = False,
    monitor: bool = False,
    read_replicas: int = 0,
    reader: Optional["ReaderConfig"] = None,
    n_clients: Optional[int] = None,
    salvage: bool = False,
    cpu_servers: int = 1,
    profile: bool = False,
    runtime: str = "sim",
    durability: Optional["DurabilityConfig"] = None,
) -> LoadPoint:
    """Measure SRCA-Rep (or SRCA-Opt with hole_sync=False) at one load.

    ``runtime`` selects the execution backend: ``"sim"`` measures in
    virtual time on the discrete-event kernel; ``"wall"`` runs the same
    protocol on :class:`repro.runtime.AsyncioRuntime` — real timers,
    real TCP sockets, real elapsed seconds.  The measured point's
    ``extras["metrics"]["runtime"]`` carries the tag so downstream
    tooling never compares the two clocks against each other.

    ``gcs`` overrides the GCS timing/batching knobs (batching sweeps);
    ``group_commit`` turns on per-replica commit-cost coalescing;
    ``obs`` attaches the repro.obs surface (registry + gauge sampler +
    event log — the measured point's ``extras["metrics"]["obs"]`` then
    carries the queue-depth/hole-age time-series).
    ``span_trace`` attaches the causal span Tracer and ``monitor`` the
    online 1-copy-SI monitor.  Monitoring only reads simulator state, so
    the measured numbers are identical with and without it.

    ``read_replicas``/``reader`` attach the lazy read tier; the client
    pool then drives a :class:`~repro.client.RoutedDriver` so read-only
    transactions are routed (with session tokens and admission control)
    instead of served in place, and the measured point's extras carry
    the read/update split plus the routing counters.

    ``profile`` turns on span tracing and folds the run's span trees
    into ``extras["profile"]`` — the critical-path phase attribution of
    :mod:`repro.obs.profile` (per-phase p50/p95, tail-dominant phase,
    queueing diagnostics when ``obs`` sampled gauges too).
    """
    cluster = SIRepCluster(
        ClusterConfig(
            n_replicas=n_replicas,
            hole_sync=hole_sync,
            group_commit=group_commit,
            seed=seed,
            gcs=gcs if gcs is not None else GcsConfig(),
            cost_model=per_replica_cost(cost_model),
            with_disk=with_disk,
            obs=obs,
            sampler_interval=sampler_interval,
            span_trace=span_trace or profile,
            monitor=monitor,
            read_replicas=read_replicas,
            reader=reader,
            salvage=salvage,
            cpu_servers=cpu_servers,
            runtime=runtime,
            durability=durability,
        )
    )
    workload.install(cluster)
    routed = read_replicas > 0 or reader is not None
    driver = (
        RoutedDriver(
            cluster.network, cluster.discovery,
            reader_config=cluster.reader_config,
            tracer=cluster.tracer,
        )
        if routed
        else None
    )
    pool = ClientPool(
        cluster, workload, n_clients or _n_clients(load), load, duration,
        warmup=warmup, driver=driver,
    )
    stats = pool.run()
    name = label or ("SRCA-Rep" if hole_sync else "SRCA-Opt")
    group_logs = [
        r.manager.group_log for r in cluster.replicas if r.manager.group_log
    ]
    measured = max(duration - warmup, 1e-9)
    split = {
        category: data.commits / measured
        for category, data in stats.categories.items()
    }
    point = _collect(
        name,
        load,
        stats,
        hole_wait_fraction=cluster.hole_wait_fraction(),
        certification_aborts=cluster.total_certification_aborts(),
        gcs_batches=cluster.bus.delivered_batches,
        gcs_mean_batch_size=cluster.bus.mean_batch_size,
        group_commit_mean_size=(
            sum(log.synced_entries for log in group_logs)
            / max(1, sum(log.flushes for log in group_logs))
            if group_logs
            else 0.0
        ),
        read_tps=split.get("read-only", 0.0),
        update_tps=split.get("update", 0.0),
        routing=driver.metrics() if driver is not None else None,
        profile=(
            _profile_extras(cluster, split.get("update", 0.0))
            if profile
            else None
        ),
        metrics=sanitize(cluster.metrics()),
    )
    if cluster.clock == "wall":
        cluster.stop()  # free the loop, sockets, and timers of this run
    return point


def run_centralized(
    workload: Workload,
    load: float,
    cost_model: Optional[Callable[[], CostModel]] = None,
    with_disk: bool = False,
    duration: float = 10.0,
    warmup: float = 2.0,
    seed: int = 0,
) -> LoadPoint:
    """Measure the single-database passthrough baseline at one load."""
    factory = per_replica_cost(cost_model)
    system = CentralizedSystem(
        seed=seed,
        cost_model=factory(0) if factory else None,
        with_disk=with_disk,
    )
    workload.install(system)
    pool = ClientPool(
        system, workload, _n_clients(load), load, duration, warmup=warmup
    )
    stats = pool.run()
    return _collect("centralized", load, stats)


def run_kernel(
    workload: Workload,
    load: float,
    n_replicas: int = 5,
    cost_model: Optional[Callable[[], CostModel]] = None,
    duration: float = 10.0,
    warmup: float = 2.0,
    seed: int = 0,
) -> LoadPoint:
    """Measure the Postgres-R(SI)-style kernel comparator at one load."""
    from repro.core.kernel_replication import KernelReplicatedSystem

    system = KernelReplicatedSystem(
        n_replicas=n_replicas,
        seed=seed,
        cost_model=per_replica_cost(cost_model),
    )
    workload.install(system)
    pool = ClientPool(
        system, workload, _n_clients(load), load, duration, warmup=warmup
    )
    stats = pool.run()
    return _collect("Postgres-R(SI)-style", load, stats)


def run_until_confident(
    run_point: Callable[[int], LoadPoint],
    category: str = "update",
    rel_half_width: float = 0.05,
    min_seeds: int = 3,
    max_seeds: int = 12,
) -> tuple[LoadPoint, float]:
    """The paper's stopping rule: "all tests were run until a 95/5
    confidence interval was achieved."

    Repeats ``run_point(seed)`` over seeds until the 95% confidence
    interval of the chosen category's mean response time is within
    ``rel_half_width`` of the mean (or ``max_seeds`` is hit).  Returns a
    LoadPoint whose response times and throughput are seed-averages, and
    the achieved relative half-width.
    """
    from repro.workloads.stats import mean_confidence_interval

    points: list[LoadPoint] = []
    achieved = float("inf")
    for seed in range(max_seeds):
        points.append(run_point(seed))
        if len(points) < min_seeds:
            continue
        samples = [p.rt(category) for p in points]
        mean, half = mean_confidence_interval(samples)
        achieved = half / mean if mean else float("inf")
        if achieved <= rel_half_width:
            break
    categories = set()
    for p in points:
        categories.update(p.mean_rt_ms)
    averaged = LoadPoint(
        system=points[0].system,
        load_tps=points[0].load_tps,
        throughput=sum(p.throughput for p in points) / len(points),
        mean_rt_ms={
            c: sum(p.mean_rt_ms.get(c, 0.0) for p in points) / len(points)
            for c in categories
        },
        abort_rate=sum(p.abort_rate for p in points) / len(points),
        extras={"seeds": len(points), "rel_ci": achieved},
    )
    return averaged, achieved


def run_sharded(
    workload: Workload,
    load: float,
    n_groups: int = 2,
    replicas_per_group: int = 3,
    hole_sync: bool = True,
    cost_model: Optional[Callable[..., CostModel]] = None,
    table_map: Optional[dict[str, int]] = None,
    gcs: Optional[GcsConfig] = None,
    group_commit: bool = False,
    duration: float = 10.0,
    warmup: float = 2.0,
    seed: int = 0,
    label: Optional[str] = None,
    obs: bool = False,
    sampler_interval: float = 0.25,
    span_trace: bool = False,
    monitor: bool = False,
    profile: bool = False,
) -> LoadPoint:
    """Measure a sharded deployment (router entry point) at one load.

    With ``table_map`` the partition is explicit; otherwise tables are
    hash-placed.  The workload's transactions must respect the
    single-group-write rule, or they surface as aborts.  ``obs``
    attaches one shared repro.obs surface across the groups;
    ``span_trace`` one shared Tracer (router hops included) and
    ``monitor`` per-group online 1-copy-SI monitors.  ``profile`` turns
    on the shared Tracer and folds the phase attribution (router spans
    stitched to their per-group branch trees) into ``extras["profile"]``.
    """
    from repro.shard import ShardClientPool, ShardConfig, ShardedCluster

    cluster = ShardedCluster(
        ShardConfig(
            n_groups=n_groups,
            replicas_per_group=replicas_per_group,
            hole_sync=hole_sync,
            seed=seed,
            cost_model=per_replica_cost(cost_model),
            partition="explicit" if table_map else "hash",
            table_map=table_map,
            gcs=gcs if gcs is not None else GcsConfig(),
            group_commit=group_commit,
            obs=obs,
            sampler_interval=sampler_interval,
            span_trace=span_trace or profile,
            monitor=monitor,
        )
    )
    workload.install(cluster)
    pool = ShardClientPool(
        cluster, workload, _n_clients(load), load, duration, warmup=warmup
    )
    stats = pool.run()
    name = label or f"sharded x{n_groups}"
    measured = max(duration - warmup, 1e-9)
    update_tps = stats.categories["update"].commits / measured if (
        "update" in stats.categories
    ) else 0.0
    return _collect(
        name,
        load,
        stats,
        n_groups=n_groups,
        update_commits=cluster.total_update_commits(),
        certification_aborts=cluster.total_certification_aborts(),
        cross_shard_readonly=cluster.router.stats_cross_shard_readonly,
        rejected_cross_shard_writes=cluster.router.stats_rejected_writes,
        profile=_profile_extras(cluster, update_tps) if profile else None,
        metrics=sanitize(cluster.metrics()),
    )


def run_tablelock(
    workload: Workload,
    load: float,
    n_replicas: int = 5,
    cost_model: Optional[Callable[[], CostModel]] = None,
    with_disk: bool = False,
    duration: float = 10.0,
    warmup: float = 2.0,
    seed: int = 0,
) -> LoadPoint:
    """Measure the [20] table-locking protocol at one load."""
    system = TableLockSystem(
        workload.procedures(),
        n_replicas=n_replicas,
        seed=seed,
        cost_model=per_replica_cost(cost_model),
        with_disk=with_disk,
    )
    workload.install(system)
    pool = ProcClientPool(
        system, workload, _n_clients(load), load, duration, warmup=warmup
    )
    stats = pool.run()
    return _collect("protocol of [20]", load, stats)
