"""Definition 3: 1-copy-SI — the replicated correctness criterion.

Given the committed local schedule S^k of every replica, decide whether a
single global SI-schedule S exists such that each S^k relates to S as
Definition 3(ii) demands:

  (a) ww-conflicting commits ordered in S exactly as in every S^k, and
  (b) each *local* transaction's reads-from relation (c_i vs b_j for
      WS_i ∩ RS_j ≠ ∅) preserved.

Reduction to graph acyclicity
-----------------------------
Build a digraph over events {b_i, c_i}:

* ``b_i -> c_i`` for every transaction;
* for every ww-conflicting pair committed ``c_i`` before ``c_j`` at the
  replicas (they must all agree — checked first): ``c_i -> c_j`` *and*
  ``c_i -> b_j``.  The second edge is exactly Def. 1(ii): two
  ww-conflicting transactions may not be concurrent in S, so the later
  one must begin after the earlier commits;
* for every replica R_k, local transaction T_j at R_k, and update
  transaction T_i with WS_i ∩ RS_j ≠ ∅: ``c_i -> b_j`` if c_i preceded
  b_j in S^k, else ``b_j -> c_i``.

Any topological order of this graph is a valid witness S: all Def. 1 and
Def. 3(ii) constraints are edges, and unconstrained event pairs cannot
violate Def. 1 (which only restricts ww pairs, all fully constrained).
A cycle is a genuine counterexample — e.g. the §4.3.2 anomaly produces
``c_i < b_a < c_j`` at one replica and ``c_j < b_b < c_i`` at another,
which closes a cycle through the reads-from edges.

One engine
----------
:class:`OneCopyGraph` is the only derivation of these constraints.  It
ingests per-replica begin/commit events one at a time, so the offline
audit (:func:`check_one_copy_si`, ``SIRepCluster.one_copy_report``) and
the online monitor (:mod:`repro.obs.monitor`) feed it the same way.
Each constraint pair is decided once, when its second event arrives:

* a ww pair at replica R when the later of the two commits at R;
* a reads-from pair when the later of (the reader's local commit, the
  writer's first commit anywhere) is ingested.  A writer not yet
  committed at the reader's home commits there after everything
  ingested so far, the reader's begin included, so the answer is
  already final.

Either holds whatever the interleaving across replicas, so a replay
replica by replica derives the same graph as a live poll.  Def. 3(i)
is checked at each commit against each key's last commit position at
that replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import networkx as nx

from repro.si.schedule import BEGIN, COMMIT, Schedule, TxnSpec, Violation


@dataclass
class OneCopyReport:
    """Outcome of the 1-copy-SI check."""

    ok: bool
    violations: list[Violation] = field(default_factory=list)
    witness: Optional[Schedule] = None  # a global SI-schedule when ok
    cycle: Optional[list] = None  # offending event cycle when not ok

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return f"1-copy-SI OK; witness: {self.witness}"
        lines = ["1-copy-SI VIOLATED:"]
        lines.extend(f"  {violation}" for violation in self.violations)
        if self.cycle:
            chain = " -> ".join(f"{k}{t}" for k, t in self.cycle)
            lines.append(f"  cycle: {chain}")
        return "\n".join(lines)


class _Replica:
    """One replica's committed schedule, as positions."""

    __slots__ = ("name", "position", "pending", "commit_pos", "last_write")

    def __init__(self, name: str):
        self.name = name
        self.position = 0
        #: gid -> (position, remote, t) of its latest begin; a retried
        #: remote apply begins several times and the last one counts
        self.pending: dict[str, tuple[int, bool, Optional[float]]] = {}
        #: gid -> commit position; 0 for a covered gid of unknown order
        self.commit_pos: dict[str, int] = {}
        #: key -> (position, gid) of the key's latest commit here
        self.last_write: dict = {}


class OneCopyGraph:
    """Incremental Def. 3 constraint graph over per-replica events.

    ``begin``/``commit`` take one event of one replica's schedule;
    ``feed`` takes one ``db.history`` entry; ``cover`` marks a
    transaction committed before every history event (a log-replayed
    prefix).  ``commit`` and ``cover`` return the violations they find;
    :attr:`violations` keeps them all.  ``edges`` counts edge
    insertions, so a caller can tell whether a batch of events grew
    the graph.
    """

    def __init__(self):
        self.graph = nx.DiGraph()
        #: gid -> agreed writeset + the readset of its local commit
        self.txns: dict[str, TxnSpec] = {}
        self.violations: list[Violation] = []
        self.edges = 0
        #: sim time of each gid's first commit / local begin, when given
        self.commit_t: dict[str, float] = {}
        self.begin_t: dict[str, float] = {}
        self._replicas: dict[str, _Replica] = {}
        #: key -> gids whose writeset holds it
        self._writers: dict = {}
        #: key -> local readers whose readset holds it
        self._readers: dict = {}
        #: local reader gid -> (home replica, begin position there)
        self._home: dict[str, tuple[_Replica, int]] = {}

    # -- ingestion -----------------------------------------------------------

    def add_replica(self, name: str) -> None:
        """Audit ``name`` even before it records any event."""
        self._replica(name)

    def committed_at(self, name: str, gid: str) -> bool:
        replica = self._replicas.get(name)
        return replica is not None and gid in replica.commit_pos

    def begin(self, name: str, gid: str, remote: bool,
              t: Optional[float] = None) -> None:
        replica = self._replica(name)
        replica.position += 1
        replica.pending[gid] = (replica.position, remote, t)

    def commit(self, name: str, gid: str, readset: Iterable = (),
               writeset: Iterable = (), t: Optional[float] = None,
               ) -> list[Violation]:
        """Ingest ``c_gid`` at replica ``name``.

        A commit with no begin before it is a remote apply that began
        just before.  A gid commits once per replica; a repeat is
        ignored.
        """
        replica = self._replica(name)
        if gid in replica.commit_pos:
            return []
        found: list[Violation] = []
        replica.position += 1
        position = replica.position
        begin_pos, remote, begin_t = replica.pending.pop(
            gid, (position, True, None)
        )
        writeset = frozenset(writeset)
        spec = self.txns.get(gid)
        new = spec is None
        if new:
            spec = self.txns[gid] = TxnSpec(gid, writeset=writeset)
            self._edge((BEGIN, gid), (COMMIT, gid), "b<c")
            if t is not None:
                self.commit_t[gid] = t
        elif spec.writeset != writeset:
            self._report(found, "rowa", (gid,),
                         f"txn {gid} committed different writesets across "
                         f"replicas (seen at {name})")
        # Def. 3(i): no key of WS_gid committed here since b_gid
        concurrent: dict[str, list] = {}
        for key in writeset:
            last = replica.last_write.get(key)
            if last is not None and last[0] > begin_pos:
                concurrent.setdefault(last[1], []).append(key)
            replica.last_write[key] = (position, gid)
        for other, keys in concurrent.items():
            self._report(found, "local-si", (other, gid),
                         f"replica {name}: concurrent ww-conflicting txns "
                         f"{other},{gid} on {sorted(keys, key=str)}")
        # (ii.a): every conflicting txn committed here precedes gid
        for other in self._conflicts(self._writers, spec.writeset, gid):
            if other in replica.commit_pos:
                self._order(found, replica, other, gid)
        replica.commit_pos[gid] = position
        if new:
            for key in writeset:
                self._writers.setdefault(key, []).append(gid)
        # (ii.b): reads-from of local readers
        readset = frozenset(readset)
        if not remote:
            if begin_t is not None:
                self.begin_t.setdefault(gid, begin_t)
            if readset and gid not in self._home:
                self.txns[gid] = TxnSpec(gid, readset, spec.writeset)
                self._home[gid] = (replica, begin_pos)
                for key in readset:
                    self._readers.setdefault(key, []).append(gid)
                for writer in self._conflicts(self._writers, readset, gid):
                    self._reads_from(writer, gid)
        if new:
            for reader in self._conflicts(self._readers, writeset, gid):
                self._reads_from(gid, reader)
        return found

    def cover(self, name: str, gid: str,
              writeset: Optional[Iterable]) -> list[Violation]:
        """Mark ``gid`` committed at ``name`` before every history event.

        Covered transactions come in replay order with their write keys
        (a durable-log replay) and count as remote transactions like any
        other.  ``writeset=None`` covers a row-image prefix instead:
        only the fact of the commit is known, not its keys or its order.
        """
        replica = self._replica(name)
        if gid in replica.commit_pos:
            return []
        if writeset is None:
            replica.commit_pos[gid] = 0
            return []
        self.begin(name, gid, remote=True)
        return self.commit(name, gid, (), writeset)

    def feed(self, name: str, entry: tuple) -> list[Violation]:
        """Ingest one ``db.history`` entry of replica ``name``:
        ``("begin", gid, csn, remote, t)`` or
        ``("commit", gid, csn, readset, writeset, t)``."""
        if entry[0] == "begin":
            self.begin(name, entry[1], entry[3], entry[4])
            return []
        return self.commit(name, entry[1], entry[3], entry[4], entry[5])

    def replay(self, name: str, history: Iterable[tuple],
               covered: Iterable[tuple] = ()) -> None:
        """Ingest a whole history after its ``(gid, writeset)`` prefix."""
        self.add_replica(name)
        for gid, writeset in covered:
            self.cover(name, gid, writeset)
        for entry in history:
            self.feed(name, entry)

    # -- verdicts ------------------------------------------------------------

    def cycle(self) -> Optional[list]:
        """The events of one constraint cycle, or None."""
        try:
            return [edge[0] for edge in nx.find_cycle(self.graph)]
        except nx.NetworkXNoCycle:
            return None

    def witness(self) -> Optional[Schedule]:
        """A global SI-schedule (lexicographic topological order), or
        None when the constraints are cyclic."""
        try:
            order = list(nx.lexicographical_topological_sort(self.graph, key=str))
        except nx.NetworkXUnfeasible:
            return None
        return Schedule(transactions=dict(self.txns), events=order)

    def report(self) -> OneCopyReport:
        """The offline verdict: every update must have committed at every
        replica, then no violation, then a witness."""
        violations = list(self.violations)
        for gid, spec in self.txns.items():
            if not spec.writeset:
                continue
            for replica in self._replicas.values():
                if gid not in replica.commit_pos:
                    violations.append(Violation(
                        "rowa", f"update txn {gid} missing at replica "
                        f"{replica.name}", (gid,),
                    ))
        if violations:
            return OneCopyReport(ok=False, violations=violations)
        witness = self.witness()
        if witness is not None:
            return OneCopyReport(ok=True, witness=witness)
        cycle = self.cycle()
        detail = " -> ".join(f"{kind}{gid}" for kind, gid in cycle)
        return OneCopyReport(
            ok=False,
            violations=[Violation(
                "1-copy-si", f"constraint cycle: {detail}",
                tuple(dict.fromkeys(gid for _kind, gid in cycle)),
            )],
            cycle=cycle,
        )

    # -- derivation ------------------------------------------------------------

    def _replica(self, name: str) -> _Replica:
        replica = self._replicas.get(name)
        if replica is None:
            replica = self._replicas[name] = _Replica(name)
        return replica

    def _edge(self, src: tuple, dst: tuple, reason: str) -> None:
        self.graph.add_edge(src, dst, reason=reason)
        self.edges += 1

    def _report(self, found: list, rule: str, gids: tuple, detail: str) -> None:
        violation = Violation(rule, detail, gids)
        found.append(violation)
        self.violations.append(violation)

    @staticmethod
    def _conflicts(index: dict, keys: frozenset, gid: str) -> set[str]:
        return {
            other for key in keys for other in index.get(key, ()) if other != gid
        }

    def _order(self, found: list, replica: _Replica, first: str,
               second: str) -> None:
        """Replica orders c_first before c_second; all must agree."""
        if self.graph.has_edge((COMMIT, second), (COMMIT, first)):
            pair = tuple(sorted((first, second)))
            self._report(found, "ww-order", pair,
                         f"replicas disagree on the commit order of the "
                         f"ww-conflicting pair {pair[0]},{pair[1]} "
                         f"({replica.name} commits {first} first)")
        elif not self.graph.has_edge((COMMIT, first), (COMMIT, second)):
            self._edge((COMMIT, first), (COMMIT, second), "ww")
            self._edge((COMMIT, first), (BEGIN, second), "ww-noconc")

    def _reads_from(self, writer: str, reader: str) -> None:
        home, begin_pos = self._home[reader]
        commit_pos = home.commit_pos.get(writer)
        if commit_pos is not None and commit_pos < begin_pos:
            self._edge((COMMIT, writer), (BEGIN, reader), "rf")
        else:
            self._edge((BEGIN, reader), (COMMIT, writer), "not-rf")


def check_one_copy_si(
    schedules: dict[str, Schedule],
    locality: dict[str, str],
) -> OneCopyReport:
    """Check Definition 3 over per-replica committed schedules.

    Parameters
    ----------
    schedules:
        replica name -> its local :class:`Schedule`.  Remote transactions
        must appear with empty readsets (the ROWA mapping).
    locality:
        global transaction id -> the replica where it executed (was
        local).  Read-only transactions appear only at their local
        replica.
    """
    violations: list[Violation] = []
    for name, schedule in schedules.items():
        for violation in schedule.structure_violations():
            violations.append(
                Violation("local-si", f"replica {name}: {violation}")
            )
        for tid, spec in schedule.transactions.items():
            home = locality.get(tid)
            if home is None:
                detail = f"txn {tid} at {name} has no locality"
            elif home != name and not spec.writeset:
                detail = f"read-only txn {tid} committed at non-local {name}"
            elif home != name and spec.readset:
                detail = f"remote txn {tid} at {name} has a readset"
            else:
                continue
            violations.append(Violation("rowa", detail, (tid,)))
    if violations:
        return OneCopyReport(ok=False, violations=violations)
    graph = OneCopyGraph()
    for name, schedule in schedules.items():
        graph.add_replica(name)
        for kind, tid in schedule.events:
            if kind == BEGIN:
                graph.begin(name, tid, remote=locality[tid] != name)
            else:
                spec = schedule.transactions[tid]
                graph.commit(name, tid, spec.readset, spec.writeset)
    return graph.report()
