"""Online 1-copy-SI monitoring: the Def. 3 audit as a streaming check.

``si/onecopy.py`` decides *after* a run whether the per-replica histories
admit a global SI-schedule.  The :class:`OneCopyMonitor` feeds the same
engine, :class:`~repro.si.onecopy.OneCopyGraph`, **while the run is
going**: a weak sim-timer daemon hands it each watched database's new
``db.history`` entries (every entry carries its sim timestamp) and
flags

* ``1-copy-si`` — a constraint cycle, i.e. the §4.3.2 Ta/Tb anomaly,
  at the poll where the cycle closes (with the offending event's sim
  timestamp, not at end of run);
* ``local-si`` — a replica committing two concurrent ww-conflicting
  transactions (Def. 3(i): its own schedule is not an SI-schedule);
* ``ww-order``  — two replicas committing a ww-conflicting pair in
  different orders (a hole-order violation);
* ``rowa``      — the "same" transaction committing different writesets
  at different replicas;
* ``lost-writeset`` — an update committed somewhere but still missing at
  a watched replica ``loss_grace`` sim-seconds later.

Monitoring is read-only: the poll never yields mid-work, draws no
randomness, and notifies no gates, so a monitored run is event-identical
to an unmonitored one.  Crashed replicas are unwatched (their missing
suffix is legitimate) and the graph is rebuilt from the survivors;
already-flagged violations are never re-emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional

from repro.si.onecopy import OneCopyGraph
from repro.si.schedule import COMMIT

#: poll cadence in simulated seconds
POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class MonitorViolation:
    """One flagged invariant violation, stamped in simulated time."""

    kind: str
    detail: str
    #: sim time the monitor flagged it (the poll where it became visible)
    at: float
    #: sim time of the offending event itself (commit/begin)
    offending_t: float
    gids: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "at": self.at,
            "offending_t": self.offending_t,
            "gids": list(self.gids),
        }

    def __str__(self) -> str:
        return (
            f"[{self.kind}] t={self.offending_t:.6f} "
            f"(flagged at {self.at:.6f}): {self.detail}"
        )


class _Watch:
    """Cursor over one database's history, plus what a rebuild replays."""

    __slots__ = ("name", "db", "cursor", "events", "covered", "grace")

    def __init__(self, name: str, db, covered, grace):
        self.name = name
        self.db = db
        self.cursor = 0
        #: history entries consumed so far, replayed by a rebuild
        self.events: list[tuple] = []
        #: ``(gid, writeset)`` committed here before the watch began
        self.covered: list[tuple] = covered
        #: per-watch lost-writeset grace override (read-tier staleness
        #: bound); None falls back to the monitor-wide ``loss_grace``
        self.grace: Optional[float] = grace


class OneCopyMonitor:
    """Streaming Def. 3 checker over the live per-replica histories."""

    def __init__(
        self,
        sim,
        loss_grace: float = 5.0,
        max_txns: int = 20_000,
        obs=None,
        on_violation: Optional[Callable[[MonitorViolation], None]] = None,
    ):
        self.sim = sim
        self.loss_grace = loss_grace
        self.max_txns = max_txns
        self.obs = obs
        self.on_violation = on_violation
        self.violations: list[MonitorViolation] = []
        #: a constraint cycle is permanent — latch instead of re-flagging
        self.tripped = False
        self.saturated = False
        self.polls = 0
        self._watches: dict[str, _Watch] = {}
        self._engine = OneCopyGraph()
        #: update gid -> sim time of its first commit anywhere
        self._first_commit: dict[str, float] = {}
        #: keys of everything flagged so far, kept across rebuilds
        self._flagged: set[tuple] = set()
        self._process = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.alive

    def start(self) -> None:
        """Spawn the polling daemon (idempotent)."""
        if self.running:
            return
        self._process = self.sim.spawn(
            self._loop(), name="obs.monitor", daemon=True
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.kill()
            self._process = None

    def _loop(self) -> Generator[Any, Any, None]:
        while True:
            # weak tick: monitoring must never keep the simulation alive
            yield self.sim.sleep(POLL_INTERVAL, weak=True)
            self.poll()

    def watch(self, name: str, db, covered: Iterable[tuple] = (),
              grace: Optional[float] = None) -> None:
        """Start consuming ``db.history`` under this replica name.

        ``covered`` lists the ``(gid, writeset)`` pairs already committed
        at this replica through durable-log replay (delta recovery, cold
        restart), in replay order: they precede every event the history
        will produce but never appear in it.  A ``None`` writeset marks
        a row-image prefix whose keys and order are unknown.

        ``grace`` overrides ``loss_grace`` for this watch alone: a lazy
        read replica advertising a staleness bound is held to it — an
        update still missing ``grace`` seconds after its first commit is
        flagged as ``lost-writeset`` even though the monitor-wide grace
        would tolerate it.
        """
        self.unwatch(name)
        watch = _Watch(name, db, list(covered), grace)
        self._watches[name] = watch
        self._cover(watch)

    def unwatch(self, name: str) -> None:
        """Stop auditing a replica (crashed / recovered) and rebuild the
        constraint state from the remaining watches.  Already-flagged
        violations stay flagged and are not re-emitted."""
        if self._watches.pop(name, None) is None:
            return
        self._engine = OneCopyGraph()
        self._first_commit = {}
        for watch in self._watches.values():
            self._cover(watch)
            for entry in watch.events:
                self._feed(watch, entry)

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- the streaming check -----------------------------------------------------

    def poll(self) -> list[MonitorViolation]:
        """One incremental pass; returns the violations flagged by it."""
        if self.saturated:
            return []
        before = len(self.violations)
        self.polls += 1
        edges = self._engine.edges
        for watch in self._watches.values():
            history = watch.db.history
            while watch.cursor < len(history):
                entry = history[watch.cursor]
                watch.cursor += 1
                watch.events.append(entry)
                self._feed(watch, entry)
        if self._engine.edges != edges and not self.tripped:
            self._check_cycle()
        self._check_lost()
        if len(self._first_commit) > self.max_txns:
            # bounded memory on very long runs: stop checking rather
            # than degrade the run it is observing
            self.saturated = True
        return self.violations[before:]

    def _cover(self, watch: _Watch) -> None:
        self._engine.add_replica(watch.name)
        for gid, writeset in watch.covered:
            for found in self._engine.cover(watch.name, gid, writeset):
                self._flag(found.rule, found.detail, self.sim.now, found.gids)

    def _feed(self, watch: _Watch, entry: tuple) -> None:
        if entry[0] == "commit" and entry[4]:
            self._first_commit.setdefault(entry[1], entry[5])
        for found in self._engine.feed(watch.name, entry):
            self._flag(found.rule, found.detail, entry[-1], found.gids)

    def _check_cycle(self) -> None:
        nodes = self._engine.cycle()
        if nodes is None:
            return
        self.tripped = True
        engine = self._engine
        times = [
            (engine.commit_t if kind == COMMIT else engine.begin_t).get(gid)
            for kind, gid in nodes
        ]
        offending = max((t for t in times if t is not None), default=self.sim.now)
        chain = " -> ".join(f"{kind}{gid}" for kind, gid in nodes)
        self._flag(
            "1-copy-si",
            f"constraint cycle {chain}; latest event at t={offending:.6f}",
            offending_t=offending,
            gids=tuple(dict.fromkeys(gid for _kind, gid in nodes)),
        )

    def _check_lost(self) -> None:
        """An update committed somewhere must reach every watched replica
        within ``loss_grace`` sim-seconds (ROWA)."""
        now = self.sim.now
        min_grace = min(
            (w.grace for w in self._watches.values() if w.grace is not None),
            default=self.loss_grace,
        )
        floor = min(self.loss_grace, min_grace)
        for gid, first_t in self._first_commit.items():
            if now - first_t <= floor:
                continue
            for watch in self._watches.values():
                grace = watch.grace if watch.grace is not None else self.loss_grace
                if now - first_t <= grace:
                    continue
                if self._engine.committed_at(watch.name, gid):
                    continue
                self._flag(
                    "lost-writeset",
                    f"update {gid} committed at t={first_t:.6f} but still "
                    f"missing at {watch.name} after {grace:.1f}s",
                    offending_t=first_t,
                    gids=(gid,),
                    key=("lost-writeset", gid, watch.name),
                )

    # -- plumbing ----------------------------------------------------------------

    def _flag(
        self, kind: str, detail: str, offending_t: float,
        gids: tuple[str, ...], key: Optional[tuple] = None,
    ) -> None:
        """Flag once per ``key`` (default: kind and gids), across rebuilds."""
        key = key or (kind, gids)
        if key in self._flagged:
            return
        self._flagged.add(key)
        violation = MonitorViolation(
            kind=kind,
            detail=detail,
            at=self.sim.now,
            offending_t=offending_t,
            gids=gids,
        )
        self.violations.append(violation)
        if self.obs is not None:
            self.obs.registry.counter("monitor.violations").inc()
            self.obs.events.emit(
                "monitor_violation",
                kind=kind,
                detail=detail,
                offending_t=offending_t,
                gids=list(gids),
            )
        if self.on_violation is not None:
            self.on_violation(violation)

    def summary(self) -> dict:
        return {
            "polls": self.polls,
            "watched": sorted(self._watches),
            "transactions": len(self._first_commit),
            "tripped": self.tripped,
            "saturated": self.saturated,
            "violations": [v.to_dict() for v in self.violations],
        }
