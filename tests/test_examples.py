"""Every example script must run cleanly end to end (guards doc rot)."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from repro.obs import flight

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert {
        "quickstart.py",
        "bookstore.py",
        "failover_demo.py",
        "consistency_audit.py",
        "recovery_demo.py",
    } <= names


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    args = [sys.executable, str(script)]
    if script.name == "bookstore.py":
        args.append("40")  # lighter load for the test run
    completed = subprocess.run(
        args, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()  # every example narrates something


def test_quickstart_output_mentions_audit():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES[0].parent / "quickstart.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert "1-copy-SI audit: OK" in completed.stdout


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_trace_quickstart_exports(tmp_path, monkeypatch):
    """The traced example's exports: a strict-JSON Chrome trace whose
    spans nest inside their parents (+/-1 us) and cover the commit path,
    and a flight dump the post-mortem CLI renders."""
    path = EXAMPLES[0].parent / "trace_quickstart.py"
    spec = importlib.util.spec_from_file_location("trace_quickstart", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    monkeypatch.setattr(example, "RESULTS", tmp_path)
    example.main()

    chrome = json.loads(
        (tmp_path / "trace_quickstart.json").read_text(),
        parse_constant=_reject_constant,
    )
    events = [e for e in chrome["traceEvents"] if e.get("ph") == "X"]
    assert events, "no spans exported"
    by_id = {e["args"]["span_id"]: e for e in events}
    strays = [
        e
        for e in events
        if (parent := by_id.get(e["args"].get("parent_id"))) is not None
        and not (
            parent["ts"] - 1 <= e["ts"]
            and e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1
        )
    ]
    assert not strays, f"spans escape their parents: {strays[:3]}"
    names = {e["name"] for e in events}
    assert {"txn", "gcs", "certify", "commit", "deliver"} <= names, names
    dump = str(tmp_path / "flight_quickstart.json")
    assert flight.main([dump, "--tail", "5"]) == 0
