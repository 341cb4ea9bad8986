"""The durable writeset log: segmented, append-only, replayable.

Every middleware replica appends one :class:`LogRecord` per *certified*
writeset, in validation order, plus records for replicated DDL and the
bootstrap schema/data (so the log is self-contained from sequence 1).
Because certification is deterministic and DDL travels on the same
total-order channel, every replica's log holds the **same records at the
same sequence numbers** — which is what makes delta catch-up recovery
possible: a rejoining replica can fetch exactly the suffix it misses
from any peer's log.

Durability is two-staged, mirroring a WAL:

* :meth:`WritesetLog.append` puts a record in the in-memory **tail**
  (cheap, synchronous — called from the delivery loop);
* a flush (driven by the replica's flusher daemon through
  :meth:`flush`) makes the tail durable, paying one fsync-equivalent
  disk charge per *group* of records — the same coalescing idea as
  :class:`repro.core.tocommit.GroupCommitLog`.  A crash loses the tail
  (``drop_tail``), never flushed records.

With ``directory`` set, durable records are additionally written as
JSONL segment files, so a cold restart can rebuild the cluster from
disk; without it the segments live in memory and survive replica
incarnations through the owning :class:`repro.durable.store.DurabilityStore`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Generator, Optional

from repro.storage.writeset import WriteOp

WS = "ws"
DDL = "ddl"
LOAD = "load"


@dataclass(frozen=True)
class LogRecord:
    """One replayable log entry.

    ``seq`` is the log position (identical across replicas); ``nbytes``
    the serialized size used for disk-charge and transfer accounting.
    """

    seq: int
    kind: str  # ws | ddl | load
    gid: str = ""  # ws: global transaction id
    tid: int = 0  # ws: certification tid assigned by the validator
    sender: str = ""  # ws: home replica of the transaction
    ops: tuple = ()  # ws: the WriteOps, in write order
    sql: str = ""  # ddl: the CREATE statement
    table: str = ""  # load: bulk-loaded table
    rows: tuple = ()  # load: bulk-loaded row dicts
    nbytes: int = 0
    #: True for bootstrap records appended outside the replicated stream
    #: (genesis schema/load).  Replay distinguishes them because only
    #: *replicated* records advance the certified-feed position that the
    #: read tier subscribes at.
    genesis: bool = False

    @classmethod
    def ws(cls, seq: int, gid: str, tid: int, sender: str, ops) -> "LogRecord":
        ops = tuple(ops)
        size = len(json.dumps([seq, gid, tid, sender] + _encode_ops(ops)))
        return cls(seq=seq, kind=WS, gid=gid, tid=tid, sender=sender,
                   ops=ops, nbytes=size)

    @classmethod
    def ddl(cls, seq: int, sql: str, genesis: bool = False) -> "LogRecord":
        return cls(seq=seq, kind=DDL, sql=sql, genesis=genesis,
                   nbytes=len(json.dumps([seq, sql])))

    @classmethod
    def load(cls, seq: int, table: str, rows) -> "LogRecord":
        rows = tuple(dict(row) for row in rows)
        size = len(json.dumps([seq, table, list(rows)]))
        return cls(seq=seq, kind=LOAD, table=table, rows=rows, nbytes=size,
                   genesis=True)

    @property
    def keys(self) -> frozenset:
        """The (table, pk) identifiers a ws record touches."""
        return frozenset(op.key for op in self.ops)

    def to_json(self) -> dict:
        out: dict[str, Any] = {"seq": self.seq, "kind": self.kind}
        if self.kind == WS:
            out.update(gid=self.gid, tid=self.tid, sender=self.sender,
                       ops=_encode_ops(self.ops))
        elif self.kind == DDL:
            out["sql"] = self.sql
            if self.genesis:
                out["genesis"] = True
        else:
            out.update(table=self.table, rows=list(self.rows))
        return out

    @classmethod
    def from_json(cls, data: dict) -> "LogRecord":
        kind = data["kind"]
        if kind == WS:
            ops = tuple(
                WriteOp(table, pk, op, values)
                for table, pk, op, values in data["ops"]
            )
            return cls.ws(data["seq"], data["gid"], data["tid"],
                          data["sender"], ops)
        if kind == DDL:
            return cls.ddl(data["seq"], data["sql"],
                           genesis=data.get("genesis", False))
        return cls.load(data["seq"], data["table"], data["rows"])


def _encode_ops(ops: tuple) -> list:
    return [[op.table, op.pk, op.op, op.values] for op in ops]


class Segment:
    """A run of consecutive durable records (one file when disk-backed)."""

    __slots__ = ("base_seq", "records", "sealed", "path")

    def __init__(self, base_seq: int, path: Optional[Path] = None):
        self.base_seq = base_seq
        self.records: list[LogRecord] = []
        self.sealed = False
        self.path = path

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else self.base_seq - 1

    def __len__(self) -> int:
        return len(self.records)


class WritesetLog:
    """Per-replica segmented append-only log of certified writesets."""

    def __init__(self, name: str, segment_records: int = 256,
                 fsync_time: float = 0.0002, byte_time: float = 2e-9,
                 directory: Optional[Path] = None):
        self.name = name
        self.segment_records = max(1, segment_records)
        self.fsync_time = fsync_time
        self.byte_time = byte_time
        self.directory = Path(directory) if directory is not None else None
        #: call os.fsync on each group-commit flush.  The owning cluster
        #: sets this: true exactly when the log has a directory and the
        #: cluster runs on the wall clock (durability paid for, not just
        #: accounted)
        self.fsync = False
        self.fsyncs = 0
        #: durable records, oldest first; the last segment is the active one
        self.segments: list[Segment] = []
        #: appended but not yet durable (lost on crash)
        self.tail: list[LogRecord] = []
        #: seq of the oldest *retained* durable record (truncation floor + 1)
        self.start_seq = 1
        self.durable_seq = 0
        self.tip_seq = 0
        self.appended = 0
        self.flushes = 0
        self.truncated_records = 0
        self.dropped_tail_records = 0
        self.durable_bytes = 0
        #: set when a full-state recovery discarded the prefix (see rebase)
        self.rebased_at: Optional[int] = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._load_from_disk()

    # ------------------------------------------------------------------ append

    @property
    def next_seq(self) -> int:
        return self.tip_seq + 1

    @property
    def retained_records(self) -> int:
        """Durable records currently retained (log depth for gauges)."""
        return sum(len(segment) for segment in self.segments)

    def append(self, record: LogRecord) -> None:
        """Stage one record in the tail (durable only after a flush)."""
        if record.seq != self.next_seq:
            raise AssertionError(
                f"{self.name}: log append {record.seq} after {self.tip_seq}"
            )
        self.tail.append(record)
        self.tip_seq = record.seq
        self.appended += 1

    def append_durable(self, record: LogRecord) -> None:
        """Append write-through, bypassing the costed flush path.

        Bootstrap only: genesis schema/load records and cold-restart
        catch-up happen outside simulated time, before traffic starts.
        """
        if self.tail:
            raise AssertionError(f"{self.name}: durable append behind a tail")
        self.append(record)
        self.tail = []
        self._commit_flush([record], record.nbytes)

    # ------------------------------------------------------------------- flush

    def flush(self, charge: Callable[[float], Generator]) -> Generator[Any, Any, int]:
        """Make the tail durable; ``charge(seconds)`` is a sim generator
        that bills the replica's disk resource.

        One charge covers the whole group of records staged when the
        flush starts (group commit); records appended *during* the
        charge are flushed by the next loop iteration.  The move from
        tail to segment happens atomically after the charge, so a crash
        mid-flush loses the records (they were never durable).
        """
        flushed_total = 0
        while self.tail:
            group_len = len(self.tail)
            nbytes = sum(record.nbytes for record in self.tail[:group_len])
            yield from charge(self.fsync_time + nbytes * self.byte_time)
            group, self.tail = self.tail[:group_len], self.tail[group_len:]
            self._commit_flush(group, nbytes)
            flushed_total += group_len
        return flushed_total

    def _commit_flush(self, group: list[LogRecord], nbytes: int) -> None:
        for record in group:
            segment = self._active_segment(record.seq)
            segment.records.append(record)
            if self.directory is not None and segment.path is not None:
                with open(segment.path, "a") as fh:
                    fh.write(json.dumps(record.to_json()) + "\n")
                    if self.fsync:
                        fh.flush()
                        os.fsync(fh.fileno())
                        self.fsyncs += 1
            if len(segment) >= self.segment_records:
                segment.sealed = True
        self.durable_seq = group[-1].seq
        self.durable_bytes += nbytes
        self.flushes += 1

    def _active_segment(self, seq: int) -> Segment:
        if self.segments and not self.segments[-1].sealed:
            return self.segments[-1]
        path = None
        if self.directory is not None:
            path = self.directory / f"seg-{seq:08d}.jsonl"
        segment = Segment(base_seq=seq, path=path)
        self.segments.append(segment)
        return segment

    # ------------------------------------------------------------------- reads

    def records_after(self, seq: int) -> list[LogRecord]:
        """All appended records with ``record.seq > seq`` in order
        (durable segments first, then the tail)."""
        if seq + 1 < self.start_seq:
            raise AssertionError(
                f"{self.name}: records after {seq} requested but log starts "
                f"at {self.start_seq} (truncated)"
            )
        out = []
        for segment in self.segments:
            if segment.last_seq <= seq:
                continue
            out.extend(r for r in segment.records if r.seq > seq)
        out.extend(r for r in self.tail if r.seq > seq)
        return out

    def can_serve_from(self, seq: int) -> bool:
        """Can a delta starting after ``seq`` be served from this log?"""
        return seq + 1 >= self.start_seq

    # ------------------------------------------------------------- maintenance

    def truncate_to(self, seq: int) -> int:
        """Drop sealed segments wholly covered by the stability watermark
        ``seq``.  Only whole sealed segments go (the active segment and
        any partially-covered one stay), so ``start_seq`` is always a
        segment boundary.  Returns the number of records dropped."""
        dropped = 0
        while self.segments:
            segment = self.segments[0]
            if not segment.sealed or segment.last_seq > seq:
                break
            dropped += len(segment)
            if segment.path is not None:
                try:
                    segment.path.unlink()
                except FileNotFoundError:
                    pass
            self.segments.pop(0)
            self.start_seq = segment.last_seq + 1
        self.truncated_records += dropped
        return dropped

    def drop_tail(self) -> int:
        """Crash semantics: records never flushed are gone."""
        lost = len(self.tail)
        self.tail = []
        self.tip_seq = self.durable_seq
        self.dropped_tail_records += lost
        return lost

    def rebase(self, seq: int) -> None:
        """Reset to an empty log that (logically) ends at ``seq``.

        Used when a replica recovers via *full* state transfer or a
        shipped checkpoint: its own history below ``seq`` is superseded
        and future appends must stay seq-aligned with the cluster.  The
        discarded prefix is unavailable locally afterwards (``rebased_at``
        records the gap).
        """
        for segment in self.segments:
            if segment.path is not None:
                try:
                    segment.path.unlink()
                except FileNotFoundError:
                    pass
        self.segments = []
        self.tail = []
        self.start_seq = seq + 1
        self.durable_seq = seq
        self.tip_seq = seq
        self.rebased_at = seq

    # -------------------------------------------------------------------- disk

    def _load_from_disk(self) -> None:
        paths = sorted(self.directory.glob("seg-*.jsonl"))
        for path in paths:
            records = [
                LogRecord.from_json(json.loads(line))
                for line in path.read_text().splitlines()
                if line.strip()
            ]
            if not records:
                continue
            segment = Segment(base_seq=records[0].seq, path=path)
            segment.records = records
            segment.sealed = len(records) >= self.segment_records
            self.segments.append(segment)
        if self.segments:
            self.start_seq = self.segments[0].base_seq
            self.durable_seq = self.segments[-1].last_seq
            self.tip_seq = self.durable_seq
            self.durable_bytes = sum(
                r.nbytes for s in self.segments for r in s.records
            )
