"""Metric primitives: counters, gauges, histograms, and their registry.

The paper's §6 evaluation reasons about *where time goes* — execution vs
communication vs certification-queue waits vs hole-induced stalls — and
Cecchet et al. note that middleware replication prototypes rarely expose
the metrics surface a deployment needs.  This module is that surface's
foundation: a :class:`MetricsRegistry` every component hangs its
instruments on, with one quantile implementation shared by histograms and
the critical-path profiler (``repro.obs.profile``).

All instruments are plain in-process objects — reading them never blocks
and never perturbs the simulation (no yields, no RNG draws), so a run
with metrics enabled is event-for-event identical to one without.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

PERCENTILES = ((50, "p50"), (95, "p95"), (99, "p99"))


def quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sample.

    Returns ``nan`` for an empty sample — callers that serialise must
    pass the result through :func:`sanitize` (JSON has no NaN).
    """
    if not ordered:
        return float("nan")
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def sanitize(obj: Any) -> Any:
    """Replace NaN/±inf floats with ``None``, recursively.

    ``json.dump`` happily writes literal ``NaN`` (invalid JSON) unless
    told otherwise; every metrics/trace dict headed for a JSON export
    (BENCH envelopes, event-log and flight dumps) goes through here first
    so the files stay loadable.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(value) for value in obj]
    return obj


class Counter:
    """A monotonically increasing count (events, commits, aborts)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time reading, backed by a callback.

    The callback closes over live component state (queue lengths, session
    counts); :meth:`read` evaluates it on demand, so a gauge is never
    stale and costs nothing between probes.  A gauge whose component has
    died may raise — :meth:`read` maps that to ``nan`` rather than
    poisoning a whole sampler sweep.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]):
        self.name = name
        self.fn = fn

    def read(self) -> float:
        try:
            return float(self.fn())
        except Exception:  # noqa: BLE001 - a dead component reads as nan
            return float("nan")

    def __repr__(self) -> str:
        return f"<Gauge {self.name}>"


class Histogram:
    """A sample distribution with mean and p50/p95/p99 quantiles.

    Samples are retained exactly (sorted lazily); ``max_samples`` bounds
    retention for long runs by dropping the *oldest* half once the cap
    is hit — recent behaviour is what dashboards read, and the count/sum
    aggregates stay exact regardless.
    """

    __slots__ = ("name", "count", "total", "_samples", "_sorted", "max_samples")

    def __init__(self, name: str, max_samples: Optional[int] = None):
        self.name = name
        self.count = 0
        self.total = 0.0
        self._samples: list[float] = []
        self._sorted = True
        self.max_samples = max_samples

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self._samples.append(value)
        self._sorted = False
        if self.max_samples is not None and len(self._samples) > self.max_samples:
            self._samples = self._samples[len(self._samples) // 2 :]

    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def _ordered(self) -> list[float]:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    def quantile(self, q: float) -> float:
        return quantile(self._ordered(), q)

    def summary(self) -> dict[str, float]:
        out = {"n": float(self.count), "mean": self.mean()}
        for percent, suffix in PERCENTILES:
            out[suffix] = self.quantile(percent / 100.0)
        return out

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Get-or-create home for every instrument of one deployment.

    Names are flat strings, conventionally ``<component>.<metric>``
    (``R0.tocommit_depth``, ``gcs.buffer_occupancy``); a sharded
    deployment shares one registry across groups and disambiguates via
    the per-group replica prefix.  Re-registering a gauge under an
    existing name *replaces* its callback — exactly what replica
    recovery needs (the new incarnation takes over the old name).
    """

    def __init__(self, histogram_max_samples: Optional[int] = None):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.histogram_max_samples = histogram_max_samples

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = Counter(name)
            self.counters[name] = counter
        return counter

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        gauge = Gauge(name, fn)
        self.gauges[name] = gauge
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Histogram(name, max_samples=self.histogram_max_samples)
            self.histograms[name] = histogram
        return histogram

    def unregister(self, name: str) -> bool:
        """Drop one gauge (crashed component teardown).

        A gauge whose component died would otherwise be probed as NaN by
        the sampler forever.  Counters and histograms are *not*
        unregistered: they hold accumulated run data, not live callbacks.
        Returns whether the gauge existed.
        """
        return self.gauges.pop(name, None) is not None

    def unregister_prefix(self, prefix: str) -> int:
        """Drop every gauge under a component prefix (e.g. ``"R1."``).

        Callers pass dot-terminated prefixes so ``"R1."`` cannot match
        ``"R10.holes"``.  Returns how many gauges were removed.
        """
        doomed = [name for name in self.gauges if name.startswith(prefix)]
        for name in doomed:
            del self.gauges[name]
        return len(doomed)

    def read_gauges(self) -> dict[str, float]:
        """One probe across every registered gauge (the sampler's tick)."""
        return {name: gauge.read() for name, gauge in self.gauges.items()}

    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument's current state."""
        return sanitize(
            {
                "counters": {name: c.value for name, c in self.counters.items()},
                "gauges": self.read_gauges(),
                "histograms": {
                    name: h.summary() for name, h in self.histograms.items()
                },
            }
        )
