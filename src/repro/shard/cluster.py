"""Sharded SI-Rep: several replication groups inside one simulator.

A :class:`ShardedCluster` assembles ``n_groups`` independent SRCA-Rep
deployments (each a full :class:`~repro.core.cluster.SIRepCluster`) on a
**shared** simulator and LAN.  Each group owns a disjoint table
partition (see :class:`~repro.shard.partition.Partitioner`) and runs the
paper's protocol unchanged within the group: writesets multicast on the
group's own bus, certification order is per-group, and the update
capacity of the whole deployment scales with the number of groups
because no replica ever sees another group's writesets.

Clients enter through the :class:`~repro.shard.router.ShardRouter`,
which keeps update transactions single-group and scatter-gathers
cross-shard read-only transactions over per-group snapshots stamped
with a group-CSN vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

from repro.core.cluster import ClusterConfig, SIRepCluster
from repro.durable.store import DurabilityConfig, DurabilityStore
from repro.errors import PlacementError, SQLError
from repro.gcs import DiscoveryService, GcsConfig, GroupBus
from repro.net import LatencyModel, Network
from repro.obs import FlightRecorder, Observability, Tracer, sanitize
from repro.reader import ReaderConfig
from repro.shard.partition import Partitioner
from repro.shard.router import ShardRouter
from repro.si.onecopy import OneCopyReport
from repro.sim import Simulator
from repro.sql.parser import parse_cached
from repro.storage.engine import CostModel


@dataclass
class ShardConfig:
    """Shape of one sharded deployment."""

    n_groups: int = 2
    replicas_per_group: int = 3
    #: True = SRCA-Rep within each group; False = SRCA-Opt
    hole_sync: bool = True
    #: per-replica group commit within each group (see GroupCommitLog)
    group_commit: bool = False
    #: SCAR-style abort salvage within each group (see ClusterConfig)
    salvage: bool = False
    seed: int = 0
    gcs: GcsConfig = field(default_factory=GcsConfig)
    net_base_latency: float = 0.0002
    net_jitter: float = 0.0001
    #: canonical per-replica-index factory (see ClusterConfig.cost_model);
    #: the index is the replica's position within its group
    cost_model: Optional[Callable[[int], CostModel]] = None
    with_disk: bool = False
    cpu_servers: int = 1
    #: one shared repro.obs surface across every group: the groups write
    #: into a single registry/event log, one sampler probes all gauges
    obs: bool = False
    sampler_interval: float = 0.25
    #: one shared causal-span Tracer across the groups AND the router,
    #: so a cross-shard transaction's router hops and per-group branches
    #: stitch into a single trace
    span_trace: bool = False
    #: per-group online 1-copy-SI monitors (certification order is
    #: per-group, so each group gets its own streaming Def. 3 check)
    monitor: bool = False
    #: one shared crash flight recorder across the groups
    flight: bool = False
    flight_dir: Optional[str] = None
    max_sessions: Optional[int] = None
    #: "hash" (balanced, deterministic) or "explicit" (requires table_map)
    partition: str = "hash"
    table_map: Optional[dict[str, int]] = None
    #: attach the durability subsystem to every group when set:
    #: per-replica writeset logs (names are globally unique via the group
    #: prefix), per-group stability watermarks, delta catch-up recovery
    durability: Optional[DurabilityConfig] = None
    #: lazy read replicas attached to each group's certified feed
    #: (named ``G<i>-Rr<j>``), registered under ``role="read"`` on that
    #: group's discovery service
    read_replicas_per_group: int = 0
    #: read-tier knobs shared by every group's readers
    reader: Optional[ReaderConfig] = None


@dataclass
class SnapshotStamp:
    """One committed routed transaction's snapshot vector (audit log)."""

    connection_id: int
    vector: dict[int, int]
    #: group -> replica address that served the branch; monotonicity is
    #: audited per served replica (a failover may legitimately land on a
    #: replica whose commit counter trails the crashed one's)
    addresses: dict[int, str]
    cross_shard: bool
    at: float


@dataclass
class ShardedReport:
    """Per-group 1-copy-SI audits plus the cross-shard freshness audit."""

    groups: dict[str, OneCopyReport]
    freshness_violations: list[str]

    @property
    def ok(self) -> bool:
        return (
            all(report.ok for report in self.groups.values())
            and not self.freshness_violations
        )

    def __str__(self) -> str:
        parts = [
            f"{name}: {'OK' if report.ok else report.violations}"
            for name, report in self.groups.items()
        ]
        parts.append(
            "freshness: "
            + ("OK" if not self.freshness_violations else str(self.freshness_violations))
        )
        return "; ".join(parts)


class ShardedCluster:
    """A sharded SI-Rep deployment: groups + partitioner + router."""

    def __init__(
        self,
        config: Optional[ShardConfig] = None,
        *,
        durability: Optional[DurabilityStore] = None,
        cold_start: bool = False,
    ):
        self.config = config or ShardConfig()
        cfg = self.config
        self.sim = Simulator(seed=cfg.seed)
        self.network = Network(
            self.sim,
            latency=LatencyModel(
                base=cfg.net_base_latency,
                jitter=cfg.net_jitter,
                rng=self.sim.rng("net"),
            ),
        )
        self.partitioner = Partitioner(
            cfg.n_groups,
            policy=cfg.partition,
            table_map=cfg.table_map,
            seed=cfg.seed,
        )
        self.obs = (
            Observability(self.sim, sampler_interval=cfg.sampler_interval)
            if cfg.obs
            else None
        )
        self.tracer = Tracer(self.sim) if cfg.span_trace else None
        self.flight = (
            FlightRecorder(
                self.sim,
                tracer=self.tracer,
                events=self.obs.events if self.obs is not None else None,
                directory=cfg.flight_dir,
            )
            if cfg.flight
            else None
        )
        #: ONE store shared by every group — replica names are globally
        #: unique (group prefix), so each group's logs coexist under one
        #: directory and a single handle suffices for cold restart
        self.durable_store = durability if durability is not None else (
            DurabilityStore(cfg.durability)
            if cfg.durability is not None
            else None
        )
        self.groups: list[SIRepCluster] = []
        for index in range(cfg.n_groups):
            group_cfg = ClusterConfig(
                n_replicas=cfg.replicas_per_group,
                hole_sync=cfg.hole_sync,
                group_commit=cfg.group_commit,
                salvage=cfg.salvage,
                seed=cfg.seed,
                gcs=cfg.gcs,
                cost_model=cfg.cost_model,
                with_disk=cfg.with_disk,
                cpu_servers=cfg.cpu_servers,
                monitor=cfg.monitor,
                max_sessions=cfg.max_sessions,
                replica_prefix=f"G{index}-R",
                read_replicas=cfg.read_replicas_per_group,
                reader=cfg.reader,
            )
            self.groups.append(
                SIRepCluster(
                    group_cfg,
                    sim=self.sim,
                    network=self.network,
                    bus=GroupBus(
                        self.sim, config=cfg.gcs, rng_stream=f"gcs-G{index}"
                    ),
                    discovery=DiscoveryService(self.sim),
                    obs=self.obs,
                    tracer=self.tracer,
                    flight=self.flight,
                    durability=self.durable_store,
                    cold_start=cold_start,
                )
            )
        self.router = ShardRouter(self)
        self._snapshot_log: list[SnapshotStamp] = []

    @classmethod
    def cold_restart(
        cls, config: ShardConfig, durability: DurabilityStore
    ) -> "ShardedCluster":
        """Rebuild every group from the shared durability store after a
        full-deployment crash (see :meth:`SIRepCluster.cold_restart`).
        Do NOT re-run ``load_schema``/``bulk_load`` — the per-replica
        genesis records replay them group by group."""
        cluster = cls(config, durability=durability, cold_start=True)
        for group in cluster.groups:
            group._level_after_cold_restart()
        return cluster

    # ------------------------------------------------------------ data loading

    def load_schema(self, ddl_statements: Iterable[str]) -> None:
        """Place each CREATE statement and apply it in the owning group."""
        for sql in ddl_statements:
            statement = parse_cached(sql)
            if statement.kind == "create_table":
                group = self.partitioner.place(statement.table)
            elif statement.kind == "create_index":
                group = self.partitioner.group_of(statement.table)
            else:
                raise SQLError(f"load_schema only accepts CREATE statements: {sql!r}")
            self.groups[group].load_schema([sql])

    def bulk_load(self, table: str, rows: list[dict]) -> None:
        """Seed initial data in the owning group (placement validated)."""
        if not self.partitioner.knows(table):
            raise PlacementError(
                f"bulk load of {table!r} before its CREATE TABLE was placed"
            )
        self.groups[self.partitioner.group_of(table)].bulk_load(table, rows)

    # ----------------------------------------------------------------- clients

    def new_client_host(self, name: Optional[str] = None):
        label = name or self.network.unique_address("shard-client")
        return self.network.register(label)

    def connect(self, host) -> Generator[Any, Any, Any]:
        """Open a routed connection (convenience over ``router.connect``)."""
        connection = yield from self.router.connect(host)
        return connection

    # ------------------------------------------------------------------ faults

    def crash(self, group: int, index: int) -> None:
        """Crash one replica of one group (the group's SRCA-Rep handles it)."""
        self.groups[group].crash(index)

    def recover_replica(
        self,
        group: int,
        index: int,
        donor_index: Optional[int] = None,
        mode: Optional[str] = None,
    ):
        """Recover a crashed replica from a donor within its group."""
        return self.groups[group].recover_replica(
            index, donor_index=donor_index, mode=mode
        )

    def add_replica(self, group: int, donor_index: Optional[int] = None):
        """Elastic online join: grow one group by a replica while the
        whole sharded deployment keeps serving traffic."""
        return self.groups[group].add_replica(donor_index=donor_index)

    def alive_replicas(self) -> list:
        return [r for group in self.groups for r in group.alive_replicas()]

    # ------------------------------------------------------------------ audits

    def record_snapshot_vector(
        self,
        connection_id: int,
        vector: dict[int, int],
        addresses: dict[int, str],
        cross_shard: bool,
    ) -> None:
        """Called by the router when a routed transaction commits."""
        self._snapshot_log.append(
            SnapshotStamp(
                connection_id, dict(vector), dict(addresses), cross_shard, self.sim.now
            )
        )

    @property
    def snapshot_log(self) -> list[SnapshotStamp]:
        return list(self._snapshot_log)

    def snapshot_freshness_report(self) -> list[str]:
        """Audit the recorded snapshot vectors (NMSI-style guarantees).

        Checks, per routed transaction:

        * **validity** — each vector component is a CSN the group has
          actually produced (``<=`` the group's current max commit CSN);
        * **per-connection monotonicity** — successive transactions of
          one connection, while served by the *same* replica of a group,
          never observe an older per-group snapshot than an earlier
          transaction did (session monotonic reads; a failover may move
          the branch to a replica whose commit counter trails, so the
          high-water mark resets when the serving replica changes).

        What is deliberately *not* checked: mutual freshness between the
        components of one vector.  There is no global certification
        order across groups, so a cross-shard read-only transaction sees
        a vector of per-group-consistent — but possibly mutually stale —
        snapshots (non-monotonic snapshot isolation).
        """
        violations: list[str] = []
        max_csn = {
            g: max(node.db.csn for node in group.nodes)
            for g, group in enumerate(self.groups)
        }
        high_water: dict[tuple[int, int], tuple[Optional[str], int]] = {}
        for stamp in self._snapshot_log:
            for group, csn in stamp.vector.items():
                if csn > max_csn[group]:
                    violations.append(
                        f"conn {stamp.connection_id} at t={stamp.at:.6f}: "
                        f"group {group} snapshot csn {csn} exceeds the "
                        f"group's max commit csn {max_csn[group]}"
                    )
                key = (stamp.connection_id, group)
                address = stamp.addresses.get(group)
                seen_address, seen_csn = high_water.get(key, (None, -1))
                if address == seen_address and csn < seen_csn:
                    violations.append(
                        f"conn {stamp.connection_id} at t={stamp.at:.6f}: "
                        f"group {group} snapshot went backwards on replica "
                        f"{address!r} ({csn} after {seen_csn})"
                    )
                if address != seen_address:
                    high_water[key] = (address, csn)
                else:
                    high_water[key] = (address, max(seen_csn, csn))
        return violations

    def one_copy_report(self) -> ShardedReport:
        """Definition-3 audit per group + the cross-shard freshness audit.

        Within a group the unsharded checker applies unchanged (the
        group is a complete SI-Rep deployment over its tables); across
        groups only snapshot-vector guarantees hold, so those are
        audited separately.
        """
        return ShardedReport(
            groups={
                f"G{index}": group.one_copy_report()
                for index, group in enumerate(self.groups)
            },
            freshness_violations=self.snapshot_freshness_report(),
        )

    # ------------------------------------------------------------------- stats

    def total_commits(self) -> int:
        return sum(group.total_commits() for group in self.groups)

    def total_update_commits(self) -> int:
        return sum(
            replica.stats_commits
            for group in self.groups
            for replica in group.replicas
        )

    def total_certification_aborts(self) -> int:
        return sum(group.total_certification_aborts() for group in self.groups)

    def metrics(self) -> dict:
        """Operational snapshot: per-group metrics plus router counters."""
        out = {
            "now": self.sim.now,
            "commits": self.total_commits(),
            "update_commits": self.total_update_commits(),
            "certification_aborts": self.total_certification_aborts(),
            "cross_shard_readonly_commits": self.router.stats_cross_shard_readonly,
            "rejected_cross_shard_writes": self.router.stats_rejected_writes,
            "partition": {
                f"G{index}": self.partitioner.tables_of(index)
                for index in range(self.config.n_groups)
            },
            "groups": {
                f"G{index}": group.metrics()
                for index, group in enumerate(self.groups)
            },
        }
        if self.tracer is not None:
            out["span_trace"] = {
                "started": self.tracer.started,
                "finished": self.tracer.finished_count,
                "open": len(self.tracer.open_spans()),
            }
        if self.obs is not None:
            # the shared surface: gauges of every group's replicas (the
            # per-group prefix disambiguates), one event log, one sampler
            out["obs"] = self.obs.snapshot()
        return sanitize(out)

    def stop(self) -> None:
        for group in self.groups:
            group.stop()
        if self.tracer is not None:
            self.tracer.close_open(status="shutdown")
