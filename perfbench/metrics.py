"""End-to-end metrics of one untraced run, and the result every run prints.

The result line carries the metrics BENCHMARK.json bounds
(``end_to_end``): the ones measured in process CPU time or bytes.
``setup_s`` is the process CPU time of a set-up.  The wall-clock rates
and latencies are printed with them but not bounded: on a 2-vCPU
virtual machine on a shared host, host CPU steal and the disk's fsync
latency drift between runs, which spreads write-hot's commit_tps and
order-monitored's p95 latencies by more than 0.25 of their median over
10 seeds.  BENCHMARK.json names them among the per-layer metrics, which
the traced run reports from an untraced window.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

import harness

@dataclass
class Metric:
    name: str
    value: float
    #: how many observations the value summarises
    samples: int
    #: what the metric should move, for per-layer metrics
    note: str = ""
    #: defaults to the unit BENCHMARK.json gives the name
    unit: str = ""

    def __post_init__(self):
        if not self.unit:
            spec = harness.benchmark_spec()
            named = spec["end_to_end"] + spec["per_layer"]
            self.unit = {m["name"]: m["unit"] for m in named}[self.name]


@dataclass
class Result:
    workload: str
    config: dict
    correct: bool
    problems: list[str]
    #: attempts that ended in the window, retried conflict aborts
    #: included: the base of failed_ratio
    attempted: int
    #: transactions given up: refused with an error other than an abort,
    #: or aborted harness.MAX_ATTEMPTS times
    failed: int
    #: the metrics the result line carries
    metrics: list[Metric]
    #: printed in the report only: not defined on every workload, or
    #: without a bound
    extra: list[Metric] = field(default_factory=list)

    def line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                m.name: {"value": m.value, "unit": m.unit} for m in self.metrics
            },
        }


class ProcessMeter:
    """CPU, wall and garbage-collector time of this process over a window.

    ``window(True)``/``window(False)`` bracket the measured interval;
    ``gc.callbacks`` times every collection that starts inside it.
    """

    def __init__(self):
        #: process CPU and wall time of the window, in nanoseconds
        self.cpu_ns = 0
        self.wall_ns = 0
        self.gc_s = 0.0
        self.gc_calls = 0
        self._open = False
        self._gc_started = None
        self._cpu0 = self._wall0 = 0
        gc.callbacks.append(self._on_gc)

    @property
    def cpu_s(self) -> float:
        return self.cpu_ns / 1e9

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter() if self._open else None
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_calls += 1
            self._gc_started = None

    def window(self, opening: bool) -> None:
        if opening:
            self._open = True
            self._cpu0 = time.process_time_ns()
            self._wall0 = time.perf_counter_ns()
        else:
            self.cpu_ns = time.process_time_ns() - self._cpu0
            self.wall_ns = time.perf_counter_ns() - self._wall0
            self._open = False

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: what :func:`window_metrics` can report
WINDOW_METRICS = (
    "commit_tps",
    *(f"{c}_{m}" for c in ("update", "read") for m in ("tps", "p50_ms", "p95_ms")),
    "failed_ratio",
)


def window_metrics(window: harness.Window, seconds: float) -> list[Metric]:
    """Throughput, latency and failure metrics of one window.

    A category with no committed transactions reports no latency or
    throughput of its own.
    """
    commits = window.commits
    out = [Metric("commit_tps", commits / seconds, commits)]
    for category in ("update", "read"):
        samples = [latency for _t, latency in window.commits_by[category]]
        if not samples:
            continue
        n = len(samples)
        out.append(Metric(f"{category}_tps", n / seconds, n))
        out.append(Metric(f"{category}_p50_ms", 1000 * harness.percentile(samples, 50), n))
        out.append(Metric(f"{category}_p95_ms", 1000 * harness.percentile(samples, 95), n))
    out.append(
        Metric(
            "failed_ratio",
            (window.attempts - commits) / max(1, window.attempts),
            window.attempts,
        )
    )
    return out


def end_to_end_run(name: str, seed: int, seconds: float, scratch, setups: int) -> Result:
    """Set up ``setups`` times, measure the last deployment untraced."""
    spec = harness.WORKLOADS[name]
    workload = spec.make(seed)
    inputs = harness.make_inputs(spec, workload, seed, seconds)
    setup_cpu, setup_wall = [], []
    deployment = None
    for _ in range(setups):
        if deployment is not None:
            deployment.stop()
        # every set-up starts from an empty collector, so whether a full
        # collection lands inside it does not depend on what ran before
        gc.collect()
        deployment = harness.Deployment(spec, workload, seed, scratch)
        setup_cpu.append(deployment.setup_cpu_s)
        setup_wall.append(deployment.setup_wall_s)
    meter = ProcessMeter()
    try:
        window = deployment.run(inputs, seconds, on_window=meter.window)
        problems = deployment.check()
        config = deployment.describe()
    finally:
        deployment.stop()
        meter.close()
    measured = [
        Metric("setup_s", statistics.median(setup_cpu), len(setup_cpu)),
        Metric("setup_wall_s", statistics.median(setup_wall), len(setup_wall), unit="s"),
        *window_metrics(window, seconds),
        Metric("cpu_ms_per_txn", 1000 * meter.cpu_s / max(1, window.commits), window.commits),
        Metric("peak_rss_mb", peak_rss_mb(), 1),
    ]
    by_name = {m.name: m for m in measured}
    expected = {"read" if t.readonly else "update" for t, _weight in workload.mix}
    idle = [c for c in sorted(expected) if not window.commits_by[c]]
    if idle:
        problems.append(f"no {idle} transaction committed in the window")
    gated = [m["name"] for m in harness.benchmark_spec()["end_to_end"]]
    return Result(
        workload=name,
        config=config,
        correct=not problems,
        problems=problems,
        attempted=window.attempts,
        failed=window.failed,
        metrics=[by_name[n] for n in gated],
        extra=[m for m in measured if m.name not in gated],
    )


def print_report(result: Result) -> None:
    why = {w["name"]: w["why"] for w in harness.benchmark_spec()["workloads"]}
    print(f"workload {result.workload}: {why[result.workload]}")
    print(f"  config {result.config}")
    for label, group in (("metric", result.metrics), ("reported", result.extra)):
        for m in group:
            line = f"  {label:8s} {m.name:34s} {m.value:14.6g} {m.unit:7s} n={m.samples}"
            print(f"{line}  ({m.note})" if m.note else line)
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  correct={result.correct}")
