"""Full-system assembly: replicas + middleware + GCS + network + clients.

:class:`SIRepCluster` wires everything Fig. 3(c) shows: one middleware
replica per database replica, a group communication bus between them, a
discovery service, and a LAN for JDBC clients.  It also provides crash
injection and the recorded-schedule 1-copy-SI audit used by tests and the
consistency example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.core.replica import ReplicaNode
from repro.core.srca_rep import MiddlewareReplica
from repro.durable.store import DurabilityConfig, DurabilityStore
from repro.durable.watermark import StabilityTracker
from repro.gcs import DiscoveryService, GcsConfig, GroupBus
from repro.net import LatencyModel, Network
from repro.obs import (
    FlightRecorder,
    Observability,
    OneCopyMonitor,
    Tracer,
    sanitize,
)
from repro.reader import CertifiedFeed, ReaderConfig, ReadReplica
from repro.si.onecopy import OneCopyGraph, OneCopyReport
from repro.sim import Resource, Simulator
from repro.storage import Database
from repro.storage.engine import CostModel

#: backpressure bound for salvage's blind-write deferral: while the local
#: to-commit queue is at most this deep, blind first-updater conflicts
#: defer to certification (where salvage re-homes them); past it the
#: replica sheds load the classic way — eager aborts — so commit latency
#: stays bounded under overload
SALVAGE_DEFER_DEPTH = 16


@dataclass
class ClusterConfig:
    """Shape of one simulated SI-Rep deployment."""

    n_replicas: int = 3
    #: True = SRCA-Rep (1-copy-SI); False = SRCA-Opt (adjustments 1+2)
    hole_sync: bool = True
    #: amortise the commit-time fsync-equivalent over runs of entries
    #: committing together at a replica (see GroupCommitLog)
    group_commit: bool = False
    #: SCAR-style abort salvage: refresh a would-abort writeset's cert
    #: when every conflicting key was written blindly (never read) and
    #: its dependent readset is unchanged — first-committer-wins stays in
    #: force for read-modify-write keys.  Opt-in; all replicas share it.
    #: Blind first-updater conflicts then defer to certification while
    #: the local to-commit queue is shallow (:data:`SALVAGE_DEFER_DEPTH`).
    #: Salvage also turns on group-commit pipelining: a conflicting
    #: successor starts applying once its predecessor's versions are
    #: installed, while the predecessor's durability force is still
    #: batched in the group log (the client ack always waits for the
    #: force).  Deferral keeps conflicting entries alive in the queue,
    #: where chained installs would otherwise pay one full force per link.
    salvage: bool = False
    seed: int = 0
    gcs: GcsConfig = field(default_factory=GcsConfig)
    net_base_latency: float = 0.0002
    net_jitter: float = 0.0001
    #: replica index -> CostModel (None = zero-cost, pure correctness).
    #: This per-replica-index signature is the CANONICAL cost-model factory
    #: shape (heterogeneous replicas are expressible); the bench harness
    #: also accepts a zero-arg factory and adapts it via
    #: :func:`repro.bench.harness.per_replica_cost`.
    cost_model: Optional[Callable[[int], CostModel]] = None
    #: create a disk resource per replica (I/O-bound workloads, Fig. 6)
    with_disk: bool = False
    cpu_servers: int = 1
    #: attach the repro.obs surface: metrics registry + per-replica gauge
    #: sampler + protocol event log (monitoring never perturbs the sim)
    obs: bool = False
    #: sampler cadence in simulated seconds (only meaningful with obs)
    sampler_interval: float = 0.25
    #: attach a causal span Tracer (repro.obs.trace): every transaction
    #: yields a span tree across replicas, exportable as JSONL or Chrome
    #: trace-event JSON.  Read-only instrumentation — a traced run is
    #: event-for-event identical to an untraced one.
    span_trace: bool = False
    #: run the online 1-copy-SI monitor (repro.obs.monitor): a weak-timer
    #: daemon streaming the Def. 3 conflict-graph check over the live
    #: commit/begin histories, flagging violations at the sim time they
    #: become observable
    monitor: bool = False
    #: attach a crash flight recorder (repro.obs.flight): a bounded ring
    #: of recent spans/events snapshotted on crash, failed audit, or
    #: monitor violation
    flight: bool = False
    #: directory flight-recorder snapshots are dumped to (None = keep
    #: in memory only, retrievable via ``cluster.flight.snapshots``)
    flight_dir: Optional[str] = None
    #: §8 load balancing: per-replica session cap (None = unbounded);
    #: a replica at its cap declines discovery until a session closes
    max_sessions: Optional[int] = None
    #: replica names are ``f"{replica_prefix}{index}"``; a sharded
    #: deployment gives each group a distinct prefix (e.g. ``"G1-R"``) so
    #: hosts, GCS members, and gids stay unique on a shared network.
    #: Must not contain ``"."`` or ``":"`` (reserved by the gid format).
    replica_prefix: str = "R"
    #: attach the durability subsystem (repro.durable) when set:
    #: per-replica writeset logs + checkpoints, the cluster stability
    #: watermark, and delta catch-up recovery as the default recovery
    #: mode.  ``DurabilityConfig()`` gives in-memory logs with defaults.
    durability: Optional[DurabilityConfig] = None
    #: read-scaling tier (repro.reader): lazy read-only replicas created
    #: at bootstrap, named ``f"{replica_prefix}r{i}"`` — subscribed to
    #: the certified feed, never group members
    read_replicas: int = 0
    #: read-tier knobs: staleness bound, fan-out delay, routing policy,
    #: admission caps (None = defaults)
    reader: Optional[ReaderConfig] = None
    #: execution backend: ``"sim"`` (discrete-event simulator, virtual
    #: time) or ``"wall"`` (AsyncioRuntime: real timers, TCP sockets for
    #: client and GCS traffic, fsync-backed durable logs).  See
    #: :mod:`repro.runtime.api`.
    runtime: str = "sim"


class SIRepCluster:
    """A running SI-Rep deployment inside one simulator.

    By default the cluster owns its whole world: it creates the
    simulator, the LAN, the GCS bus, and the discovery service.  A
    sharded deployment (:class:`repro.shard.ShardedCluster`) instead
    passes ``sim``/``network`` (shared: one clock, one LAN) and
    per-group ``bus``/``discovery`` instances, so several replication
    groups coexist in one simulation.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
        bus: Optional[GroupBus] = None,
        discovery: Optional[DiscoveryService] = None,
        obs: Optional[Observability] = None,
        tracer: Optional[Tracer] = None,
        flight: Optional[FlightRecorder] = None,
        durability: Optional[DurabilityStore] = None,
        cold_start: bool = False,
    ):
        self.config = config or ClusterConfig()
        cfg = self.config
        if "." in cfg.replica_prefix or ":" in cfg.replica_prefix:
            raise ValueError(
                f"replica_prefix {cfg.replica_prefix!r} may not contain '.' or ':'"
            )
        if cfg.runtime not in ("sim", "wall"):
            raise ValueError(f"unknown runtime {cfg.runtime!r} ('sim' or 'wall')")
        self._owns_runtime = sim is None
        if sim is not None:
            self.sim = sim
        else:
            from repro.runtime.api import make_runtime

            self.sim = make_runtime(cfg.runtime, seed=cfg.seed)
        #: which clock this deployment runs on ("sim" | "wall"); tags
        #: metrics and bench envelopes so the two are never conflated
        self.clock = getattr(self.sim, "clock", "sim")
        if self.clock == "wall":
            from repro.runtime import TcpGroupBus, TcpNetwork

            self.network = network if network is not None else TcpNetwork(self.sim)
            self.bus = bus if bus is not None else TcpGroupBus(
                self.sim, config=cfg.gcs, network=self.network
            )
        else:
            self.network = network if network is not None else Network(
                self.sim,
                latency=LatencyModel(
                    base=cfg.net_base_latency,
                    jitter=cfg.net_jitter,
                    rng=self.sim.rng("net"),
                ),
            )
            self.bus = bus if bus is not None else GroupBus(self.sim, config=cfg.gcs)
        self.discovery = (
            discovery if discovery is not None else DiscoveryService(self.sim)
        )
        #: durable state shared across incarnations; pass an external
        #: DurabilityStore to make it outlive the cluster (cold restart)
        self.durable_store = durability if durability is not None else (
            DurabilityStore(cfg.durability)
            if cfg.durability is not None
            else None
        )
        self._cold_start = cold_start
        self.stability: Optional[StabilityTracker] = None
        if self.durable_store is not None:
            self.stability = StabilityTracker(self.durable_store.config.truncation)
            self.bus.stability = self.stability
        #: shared in a sharded deployment (one registry/sampler/event log
        #: across the groups), otherwise owned by this cluster when
        #: ``config.obs`` asks for it
        self.obs = obs if obs is not None else (
            Observability(self.sim, sampler_interval=cfg.sampler_interval)
            if cfg.obs
            else None
        )
        #: a shared (sharded) Observability is snapshotted by its owner,
        #: not duplicated into every group's metrics()
        self._owns_obs = obs is None and self.obs is not None
        if self.obs is not None:
            self._register_bus_gauges()
        #: shared across groups in a sharded deployment (one trace store,
        #: so cross-shard router hops stitch into one trace), otherwise
        #: owned here when ``config.span_trace`` asks for it
        self.tracer = tracer if tracer is not None else (
            Tracer(self.sim) if cfg.span_trace else None
        )
        self._owns_tracer = tracer is None and self.tracer is not None
        self.monitor = (
            OneCopyMonitor(
                self.sim,
                obs=self.obs,
                on_violation=self._on_monitor_violation,
            )
            if cfg.monitor
            else None
        )
        if self.monitor is not None:
            self.monitor.start()
        self.flight = flight if flight is not None else (
            FlightRecorder(
                self.sim,
                tracer=self.tracer,
                events=self.obs.events if self.obs is not None else None,
                directory=cfg.flight_dir,
            )
            if cfg.flight
            else None
        )
        self._owns_flight = flight is None and self.flight is not None
        self.nodes: list[ReplicaNode] = []
        self.replicas: list[MiddlewareReplica] = []
        self._client_count = 0
        self._schema_ddl: list[str] = []
        self._incarnations: dict[str, int] = {}
        self._recovered: set[str] = set()
        #: read tier: the certified-stream fan-out and the lazy replicas.
        #: The feed always exists (publishing with no subscribers is a
        #: pure bookkeeping no-op — it schedules nothing, so a run
        #: without readers is event-identical to one predating the tier)
        self.reader_config = cfg.reader or ReaderConfig()
        self.feed = CertifiedFeed(
            self.sim, fanout_delay=self.reader_config.fanout_delay
        )
        self.readers: list[ReadReplica] = []
        for index in range(cfg.n_replicas):
            self._add_replica(index)
        for index in range(cfg.read_replicas):
            self._add_reader(index)

    def _spawn_replica(
        self,
        index: int,
        name: str,
        incarnation: int = 0,
        recover_from: Optional[str] = None,
        mode: Optional[str] = None,
    ) -> tuple[ReplicaNode, MiddlewareReplica]:
        """Build one middleware/DB pair (fresh, recovering, or joining)."""
        cfg = self.config
        suffix = "" if incarnation == 0 else f"#{incarnation}"
        cpu = Resource(self.sim, f"{name}.cpu{suffix}", servers=cfg.cpu_servers)
        disk = (
            Resource(self.sim, f"{name}.disk{suffix}") if cfg.with_disk else None
        )
        cost_model = cfg.cost_model(index) if cfg.cost_model else None
        db = Database(
            self.sim,
            name=name,
            conflict_detection="locking",
            cost_model=cost_model,
            cpu=cpu if cost_model else None,
            disk=disk,
        )
        # salvage owns the fate of blind write-write conflicts: let them
        # reach certification instead of dying at the eager version check
        db.defer_blind_ww = cfg.salvage
        node = ReplicaNode(name=name, db=db, cpu=cpu, disk=disk)
        member = self.bus.join(name)
        # The network address IS the replica name, so view changes and
        # driver-side crash observations speak about the same identifier.
        host = self.network.register(name)
        durable = None
        if self.durable_store is not None:
            durable = self.durable_store.replica(name)
            # the one forcing rule, for built and supplied stores alike:
            # a disk-backed log pays for its durability on real hardware
            durable.log.fsync = (
                self.clock == "wall" and durable.log.directory is not None
            )
        replica = MiddlewareReplica(
            self.sim,
            name=name,
            node=node,
            member=member,
            host=host,
            hole_sync=cfg.hole_sync,
            group_commit=cfg.group_commit,
            discovery=self.discovery,
            incarnation=incarnation,
            recover_from=recover_from,
            max_sessions=cfg.max_sessions,
            obs=self.obs,
            durable=durable,
            recovery_mode=mode or ("delta" if durable is not None else "full"),
            cold_start=self._cold_start and recover_from is None,
            on_recovered=self._on_replica_recovered,
            feed=self.feed,
            salvage=cfg.salvage,
        )
        replica.tracer = self.tracer
        replica.manager.tracer = self.tracer
        replica.manager.commit_pipeline = cfg.salvage
        if cfg.salvage:
            # deferral stays open only while the to-commit queue is
            # shallow; past the cap the engine's eager aborts shed load
            queue = replica.manager.queue
            db.defer_gate = lambda: len(queue) <= SALVAGE_DEFER_DEPTH
        return node, replica

    def _add_replica(self, index: int) -> None:
        name = f"{self.config.replica_prefix}{index}"
        node, replica = self._spawn_replica(index, name)
        self.nodes.append(node)
        self.replicas.append(replica)
        self._register_replica_gauges(replica)
        if self.stability is not None and replica.wslog is not None:
            self.stability.register(name, replica.wslog.durable_seq)
        # cold restart defers watching until catch-up leveling is done
        # (see cold_restart); the covered set is only complete then
        if self.monitor is not None and not self._cold_start:
            self.monitor.watch(name, node.db)

    # --------------------------------------------------------------- read tier

    def _spawn_reader(self, index: int, name: str, from_seq: int = 0) -> ReadReplica:
        """Build one lazy read replica: its own engine + cpu + host, a
        feed subscription — but no group membership or durable log."""
        cfg = self.config
        cpu = Resource(self.sim, f"{name}.cpu", servers=cfg.cpu_servers)
        # readers index the cost-model factory after the voting replicas
        # (heterogeneous tiers stay expressible; zero-arg adapters ignore it)
        cost_model = (
            cfg.cost_model(cfg.n_replicas + index) if cfg.cost_model else None
        )
        db = Database(
            self.sim,
            name=name,
            conflict_detection="locking",
            cost_model=cost_model,
            cpu=cpu if cost_model else None,
        )
        node = ReplicaNode(name=name, db=db, cpu=cpu, disk=None)
        host = self.network.register(name)
        return ReadReplica(
            self.sim,
            name=name,
            node=node,
            host=host,
            feed=self.feed,
            config=self.reader_config,
            discovery=self.discovery,
            obs=self.obs,
            from_seq=from_seq,
            tracer=self.tracer,
        )

    def _add_reader(self, index: int) -> ReadReplica:
        name = f"{self.config.replica_prefix}r{index}"
        reader = self._spawn_reader(index, name)
        self.readers.append(reader)
        self._register_reader_gauges(reader)
        # cold restart watches after leveling, once the covered set is known
        if self.monitor is not None and not self._cold_start:
            self._watch_reader(reader)
        return reader

    def _watch_reader(self, reader: ReadReplica) -> None:
        """Admit a reader to the online monitor: its bootstrap prefix is
        covered, and its advertised staleness promise (if any) becomes a
        per-watch lost-writeset grace."""
        self.monitor.watch(
            reader.name,
            reader.db,
            covered=reader.replayed,
            grace=self.reader_config.staleness_grace,
        )

    def add_reader(self, donor_index: Optional[int] = None) -> ReadReplica:
        """Elastic read-tier join while traffic continues.

        The donor is captured atomically (no yields): with durability
        on, the reader replays the donor's writeset log — real
        replayable transactions, so the join stays inside the Def. 3
        audit; without it, the donor's committed row images plus its
        pending certified writesets (row images are not replayable, so
        that incarnation is excluded from the offline audit, like a
        full-state-recovered replica).  The feed subscription starts at
        the donor's feed position; anything newer is backfilled or fans
        out normally, so no certified item is missed or applied twice.
        """
        index = len(self.readers)
        if donor_index is None:
            donor_index = self._pick_donor(exclude=-1)
        donor = self.replicas[donor_index]
        if not donor.alive:
            raise ValueError(f"donor replica {donor_index} is not alive")
        name = f"{self.config.replica_prefix}r{index}"
        reader = self._spawn_reader(index, name, from_seq=donor.feed_seq)
        if donor.wslog is not None and donor.wslog.can_serve_from(0):
            reader.bootstrap_replay(donor.wslog.records_after(0))
        else:
            from repro.core import protocol as _protocol

            reader.bootstrap_snapshot(
                ddl=tuple(donor.ddl_log),
                rows=donor.db.export_committed(),
                csn=donor.db.csn,
                pending=tuple(entry.record for entry in donor.manager.queue),
                cert_tid=donor.certifier.last_validated_tid,
                committed_gids=[
                    gid for gid, outcome in donor.outcomes.items()
                    if outcome == _protocol.COMMITTED
                ],
            )
        self.readers.append(reader)
        self._register_reader_gauges(reader)
        if self.monitor is not None:
            self._watch_reader(reader)
        if self.flight is not None:
            self.flight.snapshot(
                f"reader-joined:{name}", replica=name,
                watermark=reader.watermark, feed_pos=reader.feed_pos,
            )
        return reader

    def _teardown_reader(self, reader: ReadReplica) -> None:
        self.discovery.unregister(reader.host.address)
        reader.crash()
        self.network.crash(reader.host.address)
        if self.monitor is not None:
            # a departed reader's missing suffix is legitimate — keep
            # auditing it and every certified update would eventually be
            # flagged lost
            self.monitor.unwatch(reader.name)
        if self.obs is not None:
            # same hygiene as a crashed full replica: no stale
            # ``R*.reader.*`` gauges probing the corpse
            self.obs.registry.unregister_prefix(f"{reader.name}.")

    def crash_reader(self, index: int) -> None:
        """Take down a lazy replica abruptly (fault injection)."""
        reader = self.readers[index]
        if not reader.alive:
            return
        self._teardown_reader(reader)
        if self.flight is not None:
            self.flight.snapshot(
                f"crash:{reader.name}", replica=reader.name, index=index
            )

    def remove_reader(self, index: int) -> None:
        """Decommission a lazy replica gracefully (scale-down): same
        teardown as a crash — readers hold no replicated state that
        needs handing off — minus the flight-recorder post-mortem."""
        reader = self.readers[index]
        if not reader.alive:
            return
        self._teardown_reader(reader)

    def alive_readers(self) -> list[ReadReplica]:
        return [r for r in self.readers if r.alive]

    def _register_reader_gauges(self, reader: ReadReplica) -> None:
        if self.obs is None:
            return
        registry = self.obs.registry
        name = reader.name
        registry.gauge(f"{name}.reader.watermark", lambda: reader.watermark)
        registry.gauge(f"{name}.reader.lag", lambda: reader.lag)
        registry.gauge(f"{name}.reader.staleness_s", lambda: reader.staleness_s)
        registry.gauge(f"{name}.reader.queue_depth", lambda: len(reader.inbox))
        registry.gauge(
            f"{name}.reader.active_sessions", lambda: reader.active_sessions
        )

    # --------------------------------------------------------------- observability

    def _on_monitor_violation(self, violation) -> None:
        """Snapshot the flight recorder the moment the monitor trips —
        the post-mortem then covers the window *around* the violation,
        not whatever remains at the end of the run."""
        if self.flight is not None:
            self.flight.snapshot(
                f"monitor:{violation.kind}", violation=violation.to_dict()
            )

    def _bus_label(self) -> str:
        """Gauge-name prefix for this cluster's GCS bus: ``gcs`` for a
        standalone deployment, ``G<k>.gcs`` for a sharded group (derived
        from the group's replica prefix, e.g. ``"G1-R"`` -> ``"G1"``)."""
        label = self.config.replica_prefix.rstrip("R").rstrip("-")
        return f"{label}.gcs" if label else "gcs"

    def _register_bus_gauges(self) -> None:
        registry = self.obs.registry
        label = self._bus_label()
        bus = self.bus
        registry.gauge(f"{label}.buffer_occupancy", lambda: len(bus._batch_buffer))
        registry.gauge(f"{label}.mean_batch_size", lambda: bus.mean_batch_size)
        registry.gauge(f"{label}.delivered_entries", lambda: bus.delivered_count)
        if self.stability is not None:
            tracker = self.stability
            registry.gauge(f"{label}.stable_watermark", tracker.stable_seq)

    def _register_replica_gauges(self, replica: MiddlewareReplica) -> None:
        """Point the sampler's per-replica gauges at one (possibly
        recovered) incarnation — re-registering under the same names
        replaces the previous incarnation's callbacks."""
        if self.obs is None:
            return
        registry = self.obs.registry
        name = replica.name
        manager = replica.manager
        registry.gauge(f"{name}.tocommit_depth", lambda: len(manager.queue))
        registry.gauge(f"{name}.holes", manager.holes.hole_count)
        registry.gauge(
            f"{name}.oldest_hole_age",
            lambda: manager.holes.oldest_hole_age(self.sim.now),
        )
        registry.gauge(
            f"{name}.active_sessions", lambda: replica.active_sessions
        )
        registry.gauge(
            f"{name}.cpu_utilization", replica.node.cpu.utilization
        )
        # read through the replica attribute: recovery swaps the
        # certifier object when the donor state is installed
        registry.gauge(
            f"{name}.certifier_window", lambda: replica.certifier.window_size
        )
        registry.gauge(
            f"{name}.certifier_gc_floor", lambda: replica.certifier.floor
        )
        registry.gauge(
            f"{name}.certifier_gc_collected",
            lambda: replica.certifier.gc_collected,
        )
        registry.gauge(
            f"{name}.group_commit_mean_size",
            lambda: manager.group_log.mean_group_size if manager.group_log else 0.0,
        )
        if replica.wslog is not None:
            wslog = replica.wslog
            registry.gauge(f"{name}.log_depth", lambda: wslog.retained_records)
            registry.gauge(f"{name}.log_durable_seq", lambda: wslog.durable_seq)
            registry.gauge(
                f"{name}.log_tail", lambda: wslog.tip_seq - wslog.durable_seq
            )

    # ------------------------------------------------------------ data loading

    def load_schema(self, ddl_statements: Iterable[str]) -> None:
        """Apply CREATE statements identically on every replica.

        With durability on, each statement also becomes a genesis log
        record so the log is replayable from sequence 1 (cold restart
        rebuilds the schema before it replays any writeset).
        """
        for sql in ddl_statements:
            self._schema_ddl.append(sql)
            for node, replica in zip(self.nodes, self.replicas):
                node.db.run_ddl(sql)
                replica.ddl_log.append(sql)
                replica.log_genesis_ddl(sql)
            for reader in self.readers:
                # genesis never rides the feed: readers get it directly
                reader.bootstrap_genesis_ddl(sql)

    def bulk_load(self, table: str, rows: list[dict]) -> None:
        """Seed identical initial data on every replica (csn-0 versions)."""
        for node, replica in zip(self.nodes, self.replicas):
            node.db.bulk_load(table, rows)
            replica.log_genesis_load(table, rows)
        for reader in self.readers:
            reader.bootstrap_rows(table, rows)

    # ----------------------------------------------------------------- clients

    def new_client_host(self, name: Optional[str] = None):
        self._client_count += 1
        label = name or self.network.unique_address("client")
        return self.network.register(label)

    # ------------------------------------------------------------------ faults

    def crash(self, index: int) -> None:
        """Take down a middleware/DB replica pair (§5.4).

        Kills the middleware processes, disconnects its clients, removes
        it from the group (survivors learn via view change after the
        failure-detection delay), and stops discovery responses.
        """
        replica = self.replicas[index]
        if not replica.alive:
            return
        self.discovery.unregister(replica.host.address)
        replica.crash()
        if replica.wslog is not None:
            # appended-but-unflushed log records die with the process;
            # the cluster-wide copies survive in the peers' logs
            replica.wslog.drop_tail()
        self.bus.crash(replica.name)
        self.network.crash(replica.host.address)
        if self.tracer is not None:
            # a crashed replica's in-flight spans will never finish
            # normally; close them so they export with status="crashed"
            self.tracer.close_open(replica=replica.name, status="crashed")
        if self.monitor is not None:
            # its history is legitimately a prefix now — auditing it
            # further would only raise false lost-writeset flags
            self.monitor.unwatch(replica.name)
        if self.obs is not None:
            # drop the dead incarnation's gauges instead of letting the
            # sampler probe them as NaN forever (recovery re-registers)
            self.obs.registry.unregister_prefix(f"{replica.name}.")
        if self.flight is not None:
            self.flight.snapshot(
                f"crash:{replica.name}", replica=replica.name, index=index
            )

    def alive_replicas(self) -> list[MiddlewareReplica]:
        return [r for r in self.replicas if r.alive]

    def _pick_donor(self, exclude: int) -> int:
        """Best recovery donor: the alive replica with the most durable
        log (it can serve the longest delta) and, tie-broken, the
        shallowest to-commit queue (least busy applying writesets)."""
        candidates = [
            i for i, r in enumerate(self.replicas) if r.alive and i != exclude
        ]
        if not candidates:
            raise ValueError("no alive donor replica")

        def score(i: int) -> tuple:
            replica = self.replicas[i]
            durable_seq = (
                replica.wslog.durable_seq if replica.wslog is not None else 0
            )
            return (-durable_seq, len(replica.manager.queue), i)

        return min(candidates, key=score)

    def recover_replica(
        self,
        index: int,
        donor_index: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> MiddlewareReplica:
        """Bring a crashed replica back online (§5.4 recovery, extended
        to the *online* scheme of §8: transaction processing continues).

        The new incarnation joins the group and multicasts a sync
        request.  On a durable cluster the default ``mode`` is
        ``"delta"``: the rejoiner replays its own durable log (plus its
        newest checkpoint) and the donor ships only the log records
        above the rejoiner's durable position — transfer proportional to
        downtime, and the history stays auditable.  ``mode="full"`` (the
        only mode without durability) ships the donor's entire committed
        state captured atomically at the sync point.  The donor defaults
        to the alive replica with the highest durable log / shallowest
        queue; ``donor_index`` overrides.
        """
        old = self.replicas[index]
        if old.alive:
            raise ValueError(f"replica {index} is still alive")
        if donor_index is None:
            donor_index = self._pick_donor(exclude=index)
        donor = self.replicas[donor_index]
        if not donor.alive:
            raise ValueError(f"donor replica {donor_index} is not alive")
        name = old.name
        incarnation = self._incarnations.get(name, 0) + 1
        self._incarnations[name] = incarnation
        node, replica = self._spawn_replica(
            index, name, incarnation=incarnation,
            recover_from=donor.name, mode=mode,
        )
        self.nodes[index] = node
        self.replicas[index] = replica
        # excluded from audits until recovery completes; a delta recovery
        # re-admits it (see _on_replica_recovered)
        self._recovered.add(name)
        self._register_replica_gauges(replica)
        return replica

    def add_replica(self, donor_index: Optional[int] = None) -> MiddlewareReplica:
        """Elastic online join: bootstrap replica N+1 while traffic
        continues (§8's online recovery, applied to a brand-new member).

        The joiner runs the ordinary recovery handshake with an empty
        local log, so a durable donor ships checkpoint + log suffix (or
        the whole log when nothing was truncated) and a non-durable one
        a full state transfer.  Clients discover it once installed.
        """
        index = len(self.replicas)
        if donor_index is None:
            donor_index = self._pick_donor(exclude=index)
        donor = self.replicas[donor_index]
        if not donor.alive:
            raise ValueError(f"donor replica {donor_index} is not alive")
        name = f"{self.config.replica_prefix}{index}"
        node, replica = self._spawn_replica(
            index, name, recover_from=donor.name,
        )
        self.nodes.append(node)
        self.replicas.append(replica)
        self._recovered.add(name)
        self._register_replica_gauges(replica)
        return replica

    def _on_replica_recovered(self, replica: MiddlewareReplica) -> None:
        """Recovery completed: rejoin the watermark and, if the whole
        history is made of replayable transactions, the audits."""
        name = replica.name
        if self.stability is not None and replica.wslog is not None:
            self.stability.register(name, replica.wslog.durable_seq)
            replica.member.ack_durable(replica.wslog.durable_seq)
        if replica.audit_complete:
            self._recovered.discard(name)
            if self.monitor is not None:
                # re-watch with the replayed prefix marked covered: those
                # gids committed here via log replay, before any event
                # the history will record
                self.monitor.watch(name, replica.db, covered=replica.replayed)
        if self.flight is not None:
            self.flight.snapshot(
                f"recovered:{name}", replica=name, stats=replica.recovery_stats
            )

    @classmethod
    def cold_restart(
        cls,
        config: ClusterConfig,
        durability: DurabilityStore,
        **kwargs,
    ) -> "SIRepCluster":
        """Rebuild a whole cluster from durable logs after every replica
        stopped (full-cluster crash).

        Each replica replays its own checkpoint + log; replicas whose
        log ends early (their tail died with them) catch up from the
        longest log before traffic starts.  Do NOT re-run
        ``load_schema``/``bulk_load`` — genesis records replay them.
        """
        cluster = cls(config, durability=durability, cold_start=True, **kwargs)
        cluster._level_after_cold_restart()
        return cluster

    def _level_after_cold_restart(self) -> None:
        """Post-cold-start leveling: bring short-logged replicas up to
        the longest log, then admit everyone to watermark + audits."""
        best = max(
            self.replicas,
            key=lambda r: r.wslog.tip_seq if r.wslog is not None else 0,
        )
        if best.wslog is not None:
            for replica in self.replicas:
                if replica.wslog.tip_seq < best.wslog.tip_seq:
                    replica.catch_up(
                        best.wslog.records_after(replica.wslog.tip_seq)
                    )
                if self.stability is not None:
                    self.stability.register(
                        replica.name, replica.wslog.durable_seq
                    )
                    replica.member.ack_durable(replica.wslog.durable_seq)
        for replica in self.replicas:
            if not replica.audit_complete:
                self._recovered.add(replica.name)
            elif self.monitor is not None:
                self.monitor.watch(
                    replica.name, replica.db, covered=replica.replayed
                )
        # readers restart empty (no durable log of their own): bootstrap
        # each from the leveled longest log, then admit to the monitor
        for reader in self.readers:
            if best.wslog is not None:
                reader.bootstrap_replay(best.wslog.records_after(0))
            if self.monitor is not None:
                self._watch_reader(reader)

    # ------------------------------------------------------------------ audits

    def one_copy_report(self) -> OneCopyReport:
        """Run the Definition-3 checker over the recorded histories.

        Only replicas that are still alive are audited: a crashed replica
        legitimately misses the suffix of committed transactions.
        Recovered replicas are also excluded — their pre-recovery history
        arrived via state transfer, not as begin/commit events — so the
        audit covers the continuously-alive replicas.
        """
        audited = [
            r
            for r in self.replicas
            if r.alive and r.name not in self._recovered
        ]
        # lazy read replicas are full members of the audit: their applied
        # stream is real remote transactions in certification order, and
        # their local read-only snapshots must embed into the 1-copy-SI
        # order like anyone else's.  Snapshot-joined readers (row images,
        # audit_complete=False) are excluded like full-state recoveries.
        audited += [r for r in self.readers if r.alive and r.audit_complete]
        # A log-replayed prefix (delta recovery, cold restart) committed
        # before the recorded history began, so it produced no events:
        # the engine orders it, in replay order, before them.
        graph = OneCopyGraph()
        for replica in audited:
            graph.replay(
                replica.name, replica.node.db.history, covered=replica.replayed
            )
        report = graph.report()
        if not report.ok and self.flight is not None:
            self.flight.snapshot(
                "audit-failed",
                violations=[str(v) for v in report.violations],
                cycle=[str(event) for event in (report.cycle or [])],
            )
        return report

    # ------------------------------------------------------------------- stats

    def total_commits(self) -> int:
        return sum(r.stats_commits + r.stats_readonly_commits for r in self.replicas)

    def total_certification_aborts(self) -> int:
        return sum(r.stats_aborts for r in self.replicas)

    def hole_wait_fraction(self) -> float:
        attempts = sum(r.manager.holes.start_attempts for r in self.replicas)
        waits = sum(r.manager.holes.start_waits for r in self.replicas)
        return waits / attempts if attempts else 0.0

    def metrics(self) -> dict:
        """Operational snapshot across replicas (monitoring surface)."""
        per_replica = {}
        for replica in self.replicas:
            manager = replica.manager
            per_replica[replica.name] = {
                "alive": replica.alive,
                "recovered": replica.name in self._recovered,
                "active_sessions": replica.active_sessions,
                "update_commits": replica.stats_commits,
                "readonly_commits": replica.stats_readonly_commits,
                "certification_aborts": replica.stats_aborts,
                "salvaged": replica.certifier.salvaged,
                "salvage_rejects": replica.certifier.salvage_rejects,
                "certifier_window": replica.certifier.window_size,
                "certifier_gc_floor": replica.certifier.floor,
                "certifier_gc_collected": replica.certifier.gc_collected,
                "certifier_floor_aborts": replica.certifier.floor_aborts,
                "tocommit_queue_len": len(manager.queue),
                "tocommit_appended": manager.queue.appended_total,
                "tocommit_batches": manager.queue.appended_batches,
                "remote_apply_retries": manager.remote_apply_retries,
                "group_commit_flushes": (
                    manager.group_log.flushes if manager.group_log else 0
                ),
                "group_commit_mean_size": (
                    manager.group_log.mean_group_size if manager.group_log else 0.0
                ),
                "hole_wait_fraction": manager.holes.hole_wait_fraction,
                "db_commits": replica.node.db.commits,
                "db_aborts": replica.node.db.aborts,
                "db_versions": replica.node.db.version_count(),
                "cpu_utilization": (
                    replica.node.cpu.utilization() if replica.node.cpu else 0.0
                ),
            }
            if replica.wslog is not None:
                per_replica[replica.name].update({
                    "log_tip_seq": replica.wslog.tip_seq,
                    "log_durable_seq": replica.wslog.durable_seq,
                    "log_depth": replica.wslog.retained_records,
                    "log_bytes": replica.wslog.durable_bytes,
                    "log_flushes": replica.wslog.flushes,
                    "checkpoints": (
                        replica.checkpoints.saved
                        if replica.checkpoints is not None
                        else 0
                    ),
                })
            if replica.recovery_stats:
                per_replica[replica.name]["recovery"] = dict(
                    replica.recovery_stats
                )
        out = {
            "now": self.sim.now,
            # which clock produced these numbers — sim seconds and wall
            # seconds must never be compared against each other
            "runtime": self.clock,
            "commits": self.total_commits(),
            "certification_aborts": self.total_certification_aborts(),
            "gcs_deliveries": self.bus.delivered_count,
            "gcs_batches": self.bus.delivered_batches,
            "gcs_mean_batch_size": self.bus.mean_batch_size,
            # salvage counters: certification is deterministic and
            # identical everywhere, so the cluster-level totals are the
            # max over replicas, not the sum
            "salvaged_total": max(
                (r.certifier.salvaged for r in self.replicas), default=0
            ),
            "salvage_rejects": max(
                (r.certifier.salvage_rejects for r in self.replicas), default=0
            ),
            # per-replica engine counter (blind stages that skipped the
            # eager first-updater check): a sum, unlike the cert totals
            "deferred_ww_total": sum(r.db.deferred_ww for r in self.replicas),
            "batch_window": self.bus.config.batch_window,
            "replicas": per_replica,
        }
        if self.readers:
            out["readers"] = {r.name: r.metrics() for r in self.readers}
            out["feed"] = self.feed.metrics()
        if self.stability is not None:
            out["stable_watermark"] = self.stability.stable_seq()
        if self.tracer is not None and self._owns_tracer:
            out["span_trace"] = {
                "started": self.tracer.started,
                "finished": self.tracer.finished_count,
                "open": len(self.tracer.open_spans()),
            }
        if self.monitor is not None:
            out["monitor"] = self.monitor.summary()
        if self.obs is not None and self._owns_obs:
            out["obs"] = self.obs.snapshot()
        # strict JSON: exported metrics must never contain literal NaN
        return sanitize(out)

    def stop(self) -> None:
        if self.monitor is not None:
            self.monitor.stop()
        for replica in self.replicas:
            if replica.alive:
                replica.crash()
        for reader in self.readers:
            if reader.alive:
                reader.crash()
        if self.tracer is not None and self._owns_tracer:
            self.tracer.close_open(status="shutdown")
        if self.obs is not None and self._owns_obs:
            for replica in self.replicas:
                self.obs.registry.unregister_prefix(f"{replica.name}.")
            for reader in self.readers:
                self.obs.registry.unregister_prefix(f"{reader.name}.")
        if self.clock == "wall" and self._owns_runtime:
            # wall runtime holds real resources (sockets, timers, an
            # event loop); sweep them so repeated runs never leak
            self.sim.stop()
