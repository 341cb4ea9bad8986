"""The traced run: spans around each layer's entry points, per-layer metrics.

Nothing in ``src/`` is edited.  Each probe replaces a name where its
caller looks it up (a class attribute, a module global, or the runtime
loop's ``call_later``) and is restored when the run ends.  Counts and
times are taken over the measured window only and divided by the
transactions committed in it (``bench.traced_commits``).  ``*.self_ms``
is wall self time: the protocol runs on one event-loop thread, so it is
the time that thread spent in the layer itself, blocking calls
included.  ``process.unattributed_cpu_ms`` is process CPU minus the
self CPU of every span, which the recorder sums exactly.

BENCHMARK.json gives each per-layer metric its unit and direction;
:data:`MOVES` gives the end-to-end metric and workload it should move.
The per-layer list also names the wall-clock rates, latencies and
failures of an untraced window, which every run prints but which are
too noisy to bound (see ``metrics.py``).
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from pathlib import Path

import harness
import metrics
from repro.client.driver import Connection
from repro.core.replica import ReplicaManager
from repro.core.validation import Certifier
from repro.durable import log as durable_log
from repro.durable.log import WritesetLog
from repro.obs.monitor import OneCopyMonitor
from repro.runtime import tcpnet
from repro.runtime.tcpbus import TcpGroupMember
from repro.sql import executor as sql_executor
from repro.sql import parser as sql_parser
from repro.storage import engine as storage_engine
from repro.storage.engine import Database
from spans import SpanRecorder, traced

#: the traced run measures at most this long: the Def. 3 audit it ends
#: with grows about as the 2.5th power of the recorded history (browse:
#: 4 s after a 3 s window, 9 s after 5 s), and a run must end in 180 s
#: even on a system several times faster than these figures came from
TRACE_WINDOW_S = 3.0
#: length of the untraced window before the traced one
UNTRACED_WINDOW_S = 10.0
#: where the recorded spans are written: one JSON-lines file per
#: workload, replaced by its next traced run
SPAN_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

#: per-layer metric -> the end-to-end metric and workload it should move
#: (units and directions are in BENCHMARK.json)
MOVES = {
    "bench.traced_commits": "base of every per-txn metric",
    "runtime.frames": "cpu_ms_per_txn, read_p50_ms on browse; update_p50_ms on write-hot",
    "runtime.frame_bytes_mean": "cpu_ms_per_txn, read_p50_ms on browse",
    "runtime.send.self_ms": "cpu_ms_per_txn, read_p50_ms on browse; update_p50_ms on write-hot",
    "runtime.timers": "cpu_ms_per_txn on browse; update_p50_ms on write-hot",
    "runtime.zero_delay_timer_ratio": "cpu_ms_per_txn, read_p50_ms on browse",
    "client.execute.calls": "splits update_p50_ms on write-hot, read_p50_ms on browse",
    "client.execute.p50_ms": "update_p50_ms on write-hot; read_p50_ms on browse",
    "client.commit.p50_ms": "update_p50_ms on write-hot; read_p50_ms on browse",
    "sql.execute.calls": "read_tps on browse; no change on write-hot",
    "sql.execute.self_ms": "read_tps, read_p50_ms on browse; no change on write-hot",
    "sql.parse.calls": "read_tps on browse; no change on write-hot",
    "sql.parse_cache_hit_ratio": "read_p50_ms on browse; no change on write-hot",
    "sql.rows_examined_per_row": "read_tps, read_p50_ms on browse",
    "storage.execute.self_ms": "read_tps on browse; update_tps on write-hot",
    "storage.commit.calls": "update_tps on write-hot",
    "storage.commit.self_ms": "update_tps on write-hot",
    "storage.apply_writeset.calls": "update_tps on write-hot",
    "storage.apply_writeset.self_ms": "update_tps on write-hot",
    "storage.versions_per_row": "peak_rss_mb on every workload",
    "storage.abort_ratio": "update_tps on write-hot",
    "core.certify.calls": "failed_ratio, update_p95_ms on write-hot",
    "core.certify.self_ms": "update_p95_ms on write-hot",
    "core.certify.reject_ratio": "failed_ratio on write-hot",
    "core.hole_wait.calls": "update_p95_ms on write-hot",
    "core.hole_wait.wait_ms": "update_p95_ms on write-hot",
    "core.tocommit.depth_mean": "update_p95_ms on write-hot",
    "gcs.multicast.calls": "update_p50_ms on write-hot",
    "gcs.batches": "update_p50_ms on write-hot",
    "gcs.mean_batch_size": "update_p50_ms on write-hot",
    "durable.flush.calls": "update_tps, update_p50_ms on write-hot; no change on browse",
    "durable.flush.self_ms": "update_tps, update_p50_ms on write-hot; no change on browse",
    "durable.fsync.calls": "update_tps, update_p50_ms on write-hot; no change on browse",
    "durable.fsync.ms": "update_tps, update_p50_ms on write-hot; no change on browse",
    "durable.records_per_fsync": "update_tps on write-hot; no change on browse",
    "durable.bytes_per_txn": "update_tps on write-hot; no change on browse",
    "obs.monitor.poll.calls": "commit_tps, cpu_ms_per_txn on order-monitored only",
    "obs.monitor.poll.self_ms": "commit_tps, update_p95_ms, read_p95_ms, cpu_ms_per_txn on order-monitored only",
    "obs.monitor.poll.max_ms": "update_p95_ms, read_p95_ms on order-monitored only",
    "obs.monitor.cpu_share": "commit_tps, cpu_ms_per_txn on order-monitored only",
    "si.audit_s": "none: the cost of checking correctness",
    "si.audit_txns": "none: the base of si.audit_s",
    "process.cpu_ms": "cpu_ms_per_txn on every workload",
    "process.wait_ms": "update_p95_ms, read_p95_ms on every workload",
    "process.gc_ms": "update_p95_ms, read_p95_ms on every workload (GC pauses)",
    "process.gc.calls": "update_p95_ms, read_p95_ms on every workload",
    "process.unattributed_cpu_ms": "cpu_ms_per_txn on every workload",
    "bench.trace_overhead_ratio": "none: traced / untraced commit_tps",
}


class _OsWithTimedFsync:
    """Stands in for ``os`` inside the log module, timing each fsync."""

    def __init__(self, fsync):
        self.fsync = fsync

    def __getattr__(self, name):
        return getattr(os, name)


class Probes:
    """Installs the layer wrappers around one deployment; restores them."""

    def __init__(self, recorder: SpanRecorder, deployment: harness.Deployment):
        self.rec = recorder
        self.deployment = deployment
        self.counts: dict[str, float] = {}
        #: to-commit queue length after each enqueue at any replica
        self.depths: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []
        self._before: dict[str, float] = {}
        self._after: dict[str, float] = {}

    # -- installing ------------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def _span(self, owner, attr: str, name: str, **kwargs) -> None:
        self._replace(owner, attr, traced(self.rec, name, getattr(owner, attr), **kwargs))

    def _count(self, key: str, n: float = 1) -> None:
        if self.rec.measuring:
            self.counts[key] = self.counts.get(key, 0) + n

    def install(self) -> None:
        rec = self.rec
        gid = lambda _self, txn, *args, **kwargs: txn.gid  # noqa: E731

        # runtime: frames (pickling inside send), timers on the loop
        real_frame = tcpnet._frame

        def frame(obj):
            data = real_frame(obj)
            self._count("frames")
            self._count("frame_bytes", len(data))
            return data

        self._replace(tcpnet, "_frame", frame)
        self._span(tcpnet.TcpChannelEnd, "send", "runtime.send")
        loop = self.deployment.sim._loop
        real_call_later = loop.call_later

        def call_later(delay, callback, *args, **kwargs):
            self._count("timers")
            if delay == 0:
                self._count("zero_delay_timers")
            return real_call_later(delay, callback, *args, **kwargs)

        self._replace(loop, "call_later", call_later)

        # client driver round trips
        self._span(Connection, "execute", "client.execute", txn_of=lambda conn, *a, **k: conn._gid)
        self._span(Connection, "commit", "client.commit", txn_of=lambda conn, *a, **k: conn._gid)

        # sql: the engine looks both names up as module globals
        def on_result(result, _db, _txn, _statement, _params):
            self._count("rows_examined", result.rows_examined)
            self._count("rows_returned", result.rowcount)

        self._span(sql_executor, "execute", "sql.execute", txn_of=lambda db, txn, *a: txn.gid, on_return=on_result)
        self._span(storage_engine, "parse_cached", "sql.parse")
        real_parse = sql_parser.parse

        def parse(sql):
            self._count("parse_misses")
            return real_parse(sql)

        self._replace(sql_parser, "parse", parse)

        # storage engine
        self._span(Database, "execute", "storage.execute", txn_of=gid)
        self._span(Database, "commit", "storage.commit", txn_of=gid)
        self._span(Database, "apply_writeset", "storage.apply_writeset", txn_of=gid)

        # middleware core
        def on_certified(ok, _certifier, _record):
            if not ok:
                self._count("certify_rejects")

        self._span(Certifier, "validate", "core.certify", txn_of=lambda _c, record: record.gid, on_return=on_certified)
        self._span(ReplicaManager, "wait_local_start", "core.hole_wait")
        for attr in ("enqueue", "enqueue_batch"):
            real = getattr(ReplicaManager, attr)

            def enqueue(manager, entries, _real=real):
                _real(manager, entries)
                if rec.measuring:
                    self.depths.append(len(manager.queue))

            self._replace(ReplicaManager, attr, enqueue)

        # gcs, durable log, online monitor
        self._span(TcpGroupMember, "multicast", "gcs.multicast")
        self._span(WritesetLog, "flush", "durable.flush")
        real_commit_flush = WritesetLog._commit_flush

        def commit_flush(wslog, group, nbytes):
            real_commit_flush(wslog, group, nbytes)
            self._count("durable_records", len(group))
            self._count("durable_bytes", nbytes)

        self._replace(WritesetLog, "_commit_flush", commit_flush)
        self._replace(
            durable_log, "os",
            _OsWithTimedFsync(traced(rec, "durable.fsync", os.fsync)),
        )
        self._span(OneCopyMonitor, "poll", "obs.monitor.poll")

    def restore(self) -> None:
        for owner, attr, old, own in reversed(self._undo):
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- program counters read at the window edges ------------------------------

    def _program_counters(self) -> dict[str, float]:
        cluster = self.deployment.cluster
        dbs = [r.db for r in cluster.replicas]
        return {
            "db_commits": sum(db.commits for db in dbs),
            "db_aborts": sum(db.aborts for db in dbs),
            "gcs_batches": cluster.bus.sequenced_batches,
            "gcs_batched": cluster.bus.batched_entries,
        }

    def window(self, opening: bool) -> None:
        if opening:
            self._before = self._program_counters()
        else:
            self._after = self._program_counters()

    def delta(self, key: str) -> float:
        return self._after[key] - self._before[key]


def _ms(ns: float) -> float:
    return ns / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    probes: Probes,
    meter: metrics.ProcessMeter,
    window: harness.Window,
    untraced_tps: float,
    seconds: float,
    audit_s: float,
    audit_txns: int,
) -> dict[str, float]:
    rec = probes.rec
    counts = probes.counts
    commits = max(1, window.commits)
    update_commits = max(1, len(window.commits_by["update"]))
    totals = rec.totals

    def calls(name):
        return totals[name].calls / commits if name in totals else 0.0

    def self_ms(name):
        return _ms(totals[name].self_wall) / commits if name in totals else 0.0

    def p50_ms(name):
        spans = [s for s in rec.named(name) if s.end is not None]
        return _ms(harness.percentile([s.end - s.start for s in spans], 50)) if spans else 0.0

    hole_spans = [s for s in rec.named("core.hole_wait") if s.end is not None]
    fsync = totals.get("durable.fsync")
    poll = totals.get("obs.monitor.poll")
    cluster = probes.deployment.cluster
    dbs = [r.db for r in cluster.replicas]
    rows = sum(len(t.rows) for db in dbs for t in db.catalog.tables.values())
    db_ended = probes.delta("db_commits") + probes.delta("db_aborts")
    return {
        "bench.traced_commits": window.commits,
        "runtime.frames": counts.get("frames", 0) / commits,
        "runtime.frame_bytes_mean": _ratio(counts.get("frame_bytes", 0), counts.get("frames", 0)),
        "runtime.send.self_ms": self_ms("runtime.send"),
        "runtime.timers": counts.get("timers", 0) / commits,
        "runtime.zero_delay_timer_ratio": _ratio(counts.get("zero_delay_timers", 0), counts.get("timers", 0)),
        "client.execute.calls": calls("client.execute"),
        "client.execute.p50_ms": p50_ms("client.execute"),
        "client.commit.p50_ms": p50_ms("client.commit"),
        "sql.execute.calls": calls("sql.execute"),
        "sql.execute.self_ms": self_ms("sql.execute"),
        "sql.parse.calls": calls("sql.parse"),
        "sql.parse_cache_hit_ratio": 1 - _ratio(
            counts.get("parse_misses", 0), totals["sql.parse"].calls if "sql.parse" in totals else 0
        ),
        "sql.rows_examined_per_row": _ratio(counts.get("rows_examined", 0), counts.get("rows_returned", 0)),
        "storage.execute.self_ms": self_ms("storage.execute"),
        "storage.commit.calls": calls("storage.commit"),
        "storage.commit.self_ms": self_ms("storage.commit"),
        "storage.apply_writeset.calls": calls("storage.apply_writeset"),
        "storage.apply_writeset.self_ms": self_ms("storage.apply_writeset"),
        "storage.versions_per_row": _ratio(sum(db.version_count() for db in dbs), rows),
        "storage.abort_ratio": _ratio(probes.delta("db_aborts"), db_ended),
        "core.certify.calls": calls("core.certify"),
        "core.certify.self_ms": self_ms("core.certify"),
        "core.certify.reject_ratio": _ratio(
            counts.get("certify_rejects", 0), totals["core.certify"].calls if "core.certify" in totals else 0
        ),
        "core.hole_wait.calls": calls("core.hole_wait"),
        "core.hole_wait.wait_ms": _ms(sum(s.wait_wall for s in hole_spans)) / commits,
        "core.tocommit.depth_mean": statistics.fmean(probes.depths) if probes.depths else 0.0,
        "gcs.multicast.calls": calls("gcs.multicast"),
        "gcs.batches": probes.delta("gcs_batches") / commits,
        "gcs.mean_batch_size": _ratio(probes.delta("gcs_batched"), probes.delta("gcs_batches")),
        "durable.flush.calls": calls("durable.flush"),
        "durable.flush.self_ms": self_ms("durable.flush"),
        "durable.fsync.calls": calls("durable.fsync"),
        "durable.fsync.ms": _ms(fsync.busy_wall) / commits if fsync else 0.0,
        "durable.records_per_fsync": _ratio(counts.get("durable_records", 0), fsync.calls if fsync else 0),
        "durable.bytes_per_txn": counts.get("durable_bytes", 0) / update_commits,
        "obs.monitor.poll.calls": calls("obs.monitor.poll"),
        "obs.monitor.poll.self_ms": self_ms("obs.monitor.poll"),
        "obs.monitor.poll.max_ms": _ms(poll.max_busy_wall) if poll else 0.0,
        "obs.monitor.cpu_share": _ratio(poll.self_cpu, meter.cpu_ns) if poll else 0.0,
        "si.audit_s": audit_s,
        "si.audit_txns": audit_txns,
        "process.cpu_ms": 1000 * meter.cpu_s / commits,
        "process.wait_ms": 1000 * (meter.wall_s - meter.cpu_s) / commits,
        "process.gc_ms": 1000 * meter.gc_s / commits,
        "process.gc.calls": meter.gc_calls / commits,
        "process.unattributed_cpu_ms": _ms(meter.cpu_ns - rec.self_cpu_ns()) / commits,
        "bench.trace_overhead_ratio": _ratio(window.commits / seconds, untraced_tps),
    }


def traced_run(name: str, seed: int, seconds: float, scratch: Path) -> metrics.Result:
    """An untraced window, then a traced one on a fresh deployment.

    The untraced window gives the end-to-end rates, latencies and
    failures that BENCHMARK.json lists among the per-layer metrics; its
    first :data:`TRACE_WINDOW_S` seconds are the base of
    ``bench.trace_overhead_ratio``.
    """
    spec = harness.WORKLOADS[name]
    workload = spec.make(seed)
    seconds = min(seconds, UNTRACED_WINDOW_S)
    traced_s = min(seconds, TRACE_WINDOW_S)
    deployment = harness.Deployment(spec, workload, seed, scratch)
    try:
        reference = deployment.run(harness.make_inputs(spec, workload, seed, seconds), seconds)
        problems = deployment.check()
    finally:
        deployment.stop()
    gc.collect()
    untraced = {m.name: m for m in metrics.window_metrics(reference, seconds)}
    early = sum(
        1
        for samples in reference.commits_by.values()
        for t, _latency in samples
        if t < reference.start + traced_s
    )

    deployment = harness.Deployment(spec, workload, seed, scratch)
    recorder = SpanRecorder(measuring=False)
    probes = Probes(recorder, deployment)
    meter = metrics.ProcessMeter()

    def on_window(opening: bool) -> None:
        if opening:
            probes.window(True)
            meter.window(True)
            recorder.measuring = True
        else:
            recorder.measuring = False
            meter.window(False)
            probes.window(False)

    # the same inputs again, for the same transaction sequence
    inputs = harness.make_inputs(spec, workload, seed, traced_s)
    probes.install()
    try:
        window = deployment.run(inputs, traced_s, on_window=on_window)
        problems += deployment.check()
        started = time.perf_counter()
        report = deployment.cluster.one_copy_report()
        audit_s = time.perf_counter() - started
        if not report.ok:
            problems.append(f"1-copy-SI audit failed: {report}")
        audit_txns = len(report.witness.transactions) if report.witness is not None else 0
        values = layer_metrics(
            probes, meter, window, early / traced_s, traced_s, audit_s, audit_txns
        )
        config = deployment.describe()
    finally:
        probes.restore()
        deployment.stop()
        meter.close()
    recorder.dump(SPAN_DIR / f"spans-{name}.jsonl")
    config["untraced_window_s"] = seconds
    config["traced_window_s"] = traced_s
    reported = []
    for entry in harness.benchmark_spec()["per_layer"]:
        metric = entry["name"]
        if metric in MOVES:
            reported.append(
                metrics.Metric(metric, float(values[metric]), window.commits, MOVES[metric])
            )
        else:
            # an end-to-end metric of the untraced window; a category
            # with no commits reports 0 over 0 samples
            if metric not in metrics.WINDOW_METRICS:
                raise KeyError(f"BENCHMARK.json names {metric}, which no run measures")
            m = untraced.get(metric, metrics.Metric(metric, 0.0, 0))
            reported.append(metrics.Metric(metric, m.value, m.samples, "untraced window"))
    return metrics.Result(
        workload=name,
        config=config,
        correct=not problems,
        problems=problems,
        attempted=reference.attempts + window.attempts,
        failed=reference.failed + window.failed,
        metrics=reported,
    )
