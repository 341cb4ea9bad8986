"""Crash flight recorder (repro.obs.flight): capture, dump, render, CLI."""

import json

import pytest

from repro.obs import FlightRecorder, Tracer
from repro.obs.events import EventLog
from repro.obs.flight import FORMAT_VERSION, main, render


class FakeSim:
    def __init__(self):
        self.now = 0.0


@pytest.fixture
def env():
    sim = FakeSim()
    tracer = Tracer(sim)
    events = EventLog(sim)
    flight = FlightRecorder(sim, tracer=tracer, events=events)
    return sim, tracer, events, flight


def test_snapshot_captures_spans_events_and_context(env):
    sim, tracer, events, flight = env
    tracer.record("txn", "g1", start=0.0, replica="R0")
    stuck = tracer.start("apply", "g2", replica="R1")
    events.emit("ws_delivered", gid="g1")
    sim.now = 1.5
    snap = flight.snapshot("audit-failed", cycle=["cR0:g1"])
    assert snap["format"] == FORMAT_VERSION
    assert snap["reason"] == "audit-failed" and snap["t"] == 1.5
    assert snap["context"] == {"cycle": ["cR0:g1"]}
    assert [s["name"] for s in snap["spans"]] == ["txn"]
    assert [s["name"] for s in snap["open_spans"]] == ["apply"]
    assert snap["open_spans"][0]["end"] is None
    assert [e["event"] for e in snap["events"]] == ["ws_delivered"]
    assert flight.snapshots == [snap]
    assert stuck.open  # capture is read-only: the span stays open


def test_snapshot_ring_is_bounded(env):
    sim, _tracer, _events, flight = env
    flight.max_snapshots = 3
    for i in range(5):
        flight.snapshot(f"r{i}")
    assert [s["reason"] for s in flight.snapshots] == ["r2", "r3", "r4"]


def test_span_tail_is_bounded(env):
    sim, tracer, _events, flight = env
    flight.max_spans = 2
    for i in range(4):
        tracer.record(f"s{i}", "g", start=float(i))
    snap = flight.snapshot("bounded")
    assert [s["name"] for s in snap["spans"]] == ["s2", "s3"]


def test_directory_dumps_strict_json(env, tmp_path):
    sim, tracer, _events, flight = env
    flight.directory = str(tmp_path / "flights")
    tracer.record("txn", "g1", start=0.0, replica="R0", n=float("inf"))
    sim.now = 0.25
    flight.snapshot("crash:R0")
    assert len(flight.dumped) == 1
    path = flight.dumped[0]
    assert "flight-crash-R0-0.250000.json" in path  # ':' sanitized
    loaded = json.loads(open(path).read())  # strict: would reject Infinity
    assert loaded["reason"] == "crash:R0"
    assert loaded["spans"][0]["attrs"]["n"] is None  # sanitized


def test_guard_snapshots_and_reraises(env):
    sim, _tracer, _events, flight = env
    with pytest.raises(RuntimeError, match="boom"):
        with flight.guard("worker-died", worker="w1"):
            raise RuntimeError("boom")
    assert len(flight.snapshots) == 1
    snap = flight.snapshots[0]
    assert snap["reason"] == "worker-died"
    assert snap["context"]["worker"] == "w1"
    assert "RuntimeError" in snap["context"]["error"]
    # no exception -> no snapshot
    with flight.guard("quiet"):
        pass
    assert len(flight.snapshots) == 1


def test_render_shows_timelines_and_open_work(env):
    sim, tracer, events, flight = env
    tracer.record("commit", "g1", start=0.1, replica="R0")
    tracer.record("deliver", "g1", start=0.1, replica="R1", status="aborted")
    tracer.start("apply", "g2", replica="R1")
    events.emit("ws_delivered", gid="g1")
    sim.now = 0.5
    text = render(flight.snapshot("crash:R1"))
    assert "reason: crash:R1" in text
    assert "replica R0" in text and "replica R1" in text
    assert "commit  g1" in text
    assert "[aborted]" in text
    assert "in flight at capture: 1 open span(s)" in text
    assert "ws_delivered" in text


def test_cli_renders_a_dump(env, tmp_path, capsys):
    sim, tracer, _events, flight = env
    tracer.record("txn", "g1", start=0.0, replica="R0")
    path = flight.dump(flight.snapshot("post-mortem"), str(tmp_path / "f.json"))
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "reason: post-mortem" in out
    assert "txn  g1" in out
    # --tail trims the per-replica timelines
    assert main([path, "--tail", "1"]) == 0


def test_recorder_without_tracer_or_events(env, tmp_path):
    sim = FakeSim()
    flight = FlightRecorder(sim)
    snap = flight.snapshot("bare")
    assert snap["spans"] == [] and snap["events"] == []
    text = render(snap)
    assert "in flight at capture: 0 open span(s)" in text


def test_cli_renders_the_committed_fixture(capsys):
    """The truncated quickstart capture kept in-repo (the full file is
    rewritten by every examples/trace_quickstart.py run, not committed)
    must stay renderable."""
    import pathlib

    fixture = str(
        pathlib.Path(__file__).parent
        / "fixtures"
        / "flight_quickstart_truncated.json"
    )
    assert main([fixture, "--tail", "5"]) == 0
    out = capsys.readouterr().out
    assert "reason: quickstart" in out
    assert "truncated fixture" in out
