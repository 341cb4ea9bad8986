"""Spans around calls into the program, with self time on two clocks.

A :class:`SpanRecorder` keeps every span in memory: its name, start,
end, parent span and the transaction id the call carried.  The stack of
*executing* spans is what makes self time exact:

* a plain call is one busy interval, from entry to return;
* a generator call is one busy interval per resume (``send``/``throw``
  /``close`` into it); the gaps between resumes are its wait;
* when an interval ends, its length is added to the span's busy time,
  its length minus the intervals of the spans nested in it to the
  span's self time, and its length to the parent interval's nested
  total.

Both clocks are integer nanoseconds, so the self times of a nest sum
exactly to the busy time of its outermost interval, and process CPU
minus the summed self CPU is exactly what no span covered.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


class Span:
    __slots__ = (
        "sid", "name", "parent", "txn", "start", "end",
        "busy_wall", "busy_cpu", "self_wall", "self_cpu",
    )

    def __init__(self, sid: int, name: str, parent: Optional[int], txn, start: int):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.txn = txn
        self.start = start
        self.end: Optional[int] = None
        self.busy_wall = self.busy_cpu = 0
        self.self_wall = self.self_cpu = 0

    @property
    def wait_wall(self) -> int:
        """Time between start and end not spent executing (ns)."""
        return (self.end - self.start) - self.busy_wall

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


@dataclass
class Totals:
    """Per-name sums over the measured window, all in nanoseconds."""

    calls: int = 0
    busy_wall: int = 0
    busy_cpu: int = 0
    self_wall: int = 0
    self_cpu: int = 0
    #: longest single busy total of one span
    max_busy_wall: int = 0


class SpanRecorder:
    """Collects spans while ``measuring``; sums them per name.

    ``wall`` and ``cpu`` are the two clocks, in integer nanoseconds.
    """

    def __init__(
        self,
        wall: Callable[[], int] = time.perf_counter_ns,
        cpu: Callable[[], int] = time.process_time_ns,
        measuring: bool = True,
    ):
        self.wall = wall
        self.cpu = cpu
        self.measuring = measuring
        self.spans: list[Span] = []
        self.totals: dict[str, Totals] = {}
        #: executing intervals: [span, wall0, cpu0, nested_wall, nested_cpu]
        self._stack: list[list] = []
        self._ids = itertools.count()

    def open(self, name: str, txn=None) -> Span:
        parent = self._stack[-1][0].sid if self._stack else None
        span = Span(next(self._ids), name, parent, txn, self.wall())
        if self.measuring:
            self.spans.append(span)
            self._totals(name).calls += 1
        return span

    def close(self, span: Span) -> None:
        span.end = self.wall()

    def enter(self, span: Span) -> None:
        self._stack.append([span, self.wall(), self.cpu(), 0, 0])

    def exit(self) -> None:
        span, wall0, cpu0, nested_wall, nested_cpu = self._stack.pop()
        d_wall = self.wall() - wall0
        d_cpu = self.cpu() - cpu0
        if self._stack:
            outer = self._stack[-1]
            outer[3] += d_wall
            outer[4] += d_cpu
        if not self.measuring:
            return
        span.busy_wall += d_wall
        span.busy_cpu += d_cpu
        span.self_wall += d_wall - nested_wall
        span.self_cpu += d_cpu - nested_cpu
        totals = self._totals(span.name)
        totals.busy_wall += d_wall
        totals.busy_cpu += d_cpu
        totals.self_wall += d_wall - nested_wall
        totals.self_cpu += d_cpu - nested_cpu
        totals.max_busy_wall = max(totals.max_busy_wall, span.busy_wall)

    def _totals(self, name: str) -> Totals:
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = Totals()
        return totals

    def self_cpu_ns(self) -> int:
        """Self CPU summed over every span name."""
        return sum(t.self_cpu for t in self.totals.values())

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def traced(
    recorder: SpanRecorder,
    name: str,
    fn: Callable,
    txn_of: Optional[Callable[..., Any]] = None,
    on_return: Optional[Callable[..., None]] = None,
) -> Callable:
    """``fn`` wrapped so that each call records one span.

    ``txn_of(*args, **kwargs)`` names the transaction the call carries;
    ``on_return(result, *args, **kwargs)`` sees each result (counts that
    must be taken where the work happens).  Generator functions get a
    generator wrapper that relays ``send``/``throw``/``close``.
    """
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            span = recorder.open(name, txn_of(*args, **kwargs) if txn_of else None)
            gen = fn(*args, **kwargs)
            value, error = None, None
            try:
                while True:
                    recorder.enter(span)
                    try:
                        if error is not None:
                            item = gen.throw(error)
                        else:
                            item = gen.send(value)
                    except StopIteration as stop:
                        result = stop.value
                        break
                    finally:
                        recorder.exit()
                    try:
                        value, error = (yield item), None
                    except GeneratorExit:
                        recorder.enter(span)
                        try:
                            gen.close()
                        finally:
                            recorder.exit()
                        raise
                    except BaseException as err:  # relayed into fn's generator
                        value, error = None, err
            finally:
                recorder.close(span)
            if on_return is not None:
                on_return(result, *args, **kwargs)
            return result

        return traced_generator

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        span = recorder.open(name, txn_of(*args, **kwargs) if txn_of else None)
        recorder.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
            recorder.close(span)
        if on_return is not None:
            on_return(result, *args, **kwargs)
        return result

    return traced_call
