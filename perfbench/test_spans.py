"""The span wrapper on a hand-built nest of plain and generator calls.

Run with ``python3 -m pytest perfbench/test_spans.py``.  A fake clock
advances only when the test says work happens, so every busy, self and
wait time is known exactly.
"""

import pytest

from spans import SpanRecorder, traced


class FakeClock:
    """One counter serves as both clocks: all work here is CPU work."""

    def __init__(self):
        self.now = 0

    def read(self) -> int:
        return self.now

    def work(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def nest():
    clock = FakeClock()
    rec = SpanRecorder(wall=clock.read, cpu=clock.read)

    def leaf():
        clock.work(1)

    def inner_plain():
        clock.work(2)
        leaf()

    def inner_gen():
        clock.work(4)
        yield "inner-wait"
        clock.work(6)
        return "inner-done"

    def outer():
        clock.work(5)
        got = yield "outer-wait"
        clock.work(3)
        inner_plain()
        result = yield from inner_gen()
        clock.work(1)
        return (got, result)

    leaf = traced(rec, "leaf", leaf)
    inner_plain = traced(rec, "inner_plain", inner_plain)
    inner_gen = traced(rec, "inner_gen", inner_gen, txn_of=lambda: "t1")
    outer = traced(rec, "outer", outer)
    return clock, rec, outer


def drive(clock, gen, gap):
    """Resume ``gen`` to completion, idling ``gap`` ns between resumes."""
    items = [next(gen)]
    value = "sent"
    while True:
        clock.work(gap)
        try:
            items.append(gen.send(value))
        except StopIteration as stop:
            return items, stop.value


def test_self_times_sum_to_outer_busy_and_remainder_is_exact(nest):
    clock, rec, outer = nest
    items, result = drive(clock, outer(), gap=100)
    assert items == ["outer-wait", "inner-wait"]
    assert result == ("sent", "inner-done")
    spans = {s.name: s for s in rec.spans}
    assert {n: s.self_wall for n, s in spans.items()} == {
        "outer": 5 + 3 + 1,
        "inner_plain": 2,
        "leaf": 1,
        "inner_gen": 4 + 6,
    }
    outer_span = spans["outer"]
    assert outer_span.busy_wall == 22
    assert sum(s.self_wall for s in rec.spans) == outer_span.busy_wall
    assert sum(s.self_cpu for s in rec.spans) == outer_span.busy_cpu
    # the two idle gaps are the outer span's wait and nobody's self time
    assert outer_span.end - outer_span.start == 22 + 200
    assert outer_span.wait_wall == 200
    assert clock.now - rec.self_cpu_ns() == 200
    assert spans["inner_gen"].wait_wall == 100
    assert spans["inner_gen"].txn == "t1"
    assert spans["inner_gen"].parent == outer_span.sid
    assert spans["leaf"].parent == spans["inner_plain"].sid
    assert rec.totals["outer"].calls == 1


def test_throw_and_close_are_relayed(nest):
    clock, rec, outer = nest
    gen = outer()
    next(gen)
    with pytest.raises(KeyError):
        gen.throw(KeyError("boom"))
    assert rec.spans[0].end is not None

    closing = outer()
    next(closing)
    closing.close()
    assert rec.spans[-1].name == "outer" and rec.spans[-1].end is not None
    assert clock.now == rec.self_cpu_ns()


def test_nothing_is_summed_outside_the_window(nest):
    clock, rec, outer = nest
    rec.measuring = False
    drive(clock, outer(), gap=7)
    assert rec.spans == [] and rec.totals == {}
