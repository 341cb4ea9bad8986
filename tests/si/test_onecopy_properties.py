"""Property tests for the Definition-3 checker.

Soundness round trip: take a random *global* SI-schedule S as ground
truth, derive each replica's local schedule from it exactly as a correct
ROWA system would (same ww commit order everywhere; remote transactions
with empty readsets; local reads-from positions consistent with S) — the
checker must accept.  Conversely, swapping the commit order of a
ww-conflicting pair at one replica must be rejected.

Independent oracle: on small cases (at most 4 transactions), Def. 3 is
decided by brute force — every interleaving of the global begin/commit
events is tried as the global schedule S — and both the offline checker
and the online monitor must agree with that verdict.
"""

import functools
import itertools
import random
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import OneCopyMonitor
from repro.si import Schedule, TxnSpec, check_one_copy_si
from repro.si.schedule import BEGIN, COMMIT

N_OBJECTS = 5
REPLICAS = ("R0", "R1")


@st.composite
def global_executions(draw, max_txns=6, n_objects=N_OBJECTS):
    """A random valid global execution: specs + a global SI-schedule."""
    n_txns = draw(st.integers(min_value=2, max_value=max_txns))
    rng = random.Random(draw(st.integers(0, 10_000)))
    specs = []
    for i in range(n_txns):
        writes = frozenset(
            rng.sample(range(n_objects), rng.randint(0, 2))
        )
        reads = frozenset(rng.sample(range(n_objects), rng.randint(0, 3)))
        specs.append(TxnSpec(str(i), readset=reads, writeset=writes))
    schedule = si_schedule(specs, rng)
    locality = {s.tid: rng.choice(REPLICAS) for s in specs}
    return specs, schedule, locality, rng


def si_schedule(specs, rng):
    """A random concurrent SI-schedule over ``specs``, built greedily: a
    transaction may stay open across others' commits as long as no two
    open transactions ww-conflict (exactly Def. 1's requirement)."""
    events = []
    open_txns = []
    for spec in specs:
        for other in list(open_txns):
            if spec.writeset & other.writeset:
                events.append((COMMIT, other.tid))
                open_txns.remove(other)
        events.append((BEGIN, spec.tid))
        open_txns.append(spec)
        if rng.random() < 0.5 and open_txns:
            victim = rng.choice(open_txns)
            events.append((COMMIT, victim.tid))
            open_txns.remove(victim)
    rng.shuffle(open_txns)
    for spec in open_txns:
        events.append((COMMIT, spec.tid))
    schedule = Schedule({s.tid: s for s in specs}, events)
    assert schedule.is_si_schedule()
    return schedule


def derive_local(specs, schedule, locality, replica):
    """Project the global schedule onto one replica (correct ROWA)."""
    transactions = {}
    events = []
    for kind, tid in schedule.events:
        spec = next(s for s in specs if s.tid == tid)
        is_local = locality[tid] == replica
        if spec.is_readonly and not is_local:
            continue  # read-only transactions exist only at home
        transactions[tid] = TxnSpec(
            tid,
            spec.readset if is_local else frozenset(),
            spec.writeset,
        )
        events.append((kind, tid))
    return Schedule(transactions, events)


@settings(max_examples=80, deadline=None)
@given(global_executions())
def test_correct_rowa_projection_always_accepted(execution):
    specs, schedule, locality, _rng = execution
    schedules = {r: derive_local(specs, schedule, locality, r) for r in REPLICAS}
    report = check_one_copy_si(schedules, locality)
    assert report.ok, [str(v) for v in report.violations]
    assert report.witness is not None
    assert report.witness.is_si_schedule()


@settings(max_examples=80, deadline=None)
@given(global_executions())
def test_ww_order_swap_at_one_replica_rejected(execution):
    specs, schedule, locality, rng = execution
    schedules = {r: derive_local(specs, schedule, locality, r) for r in REPLICAS}
    # find a ww-conflicting pair present at R1 and swap their commits
    target = schedules["R1"]
    pair = None
    tids = list(target.transactions)
    for i, a in enumerate(tids):
        for b in tids[i + 1:]:
            if target.transactions[a].conflicts_with(target.transactions[b]):
                pair = (a, b)
                break
        if pair:
            break
    if pair is None:
        return  # nothing to corrupt in this example
    a, b = pair
    events = list(target.events)
    ia, ib = events.index((COMMIT, a)), events.index((COMMIT, b))
    events[ia], events[ib] = events[ib], events[ia]
    # swapping commits may also break Def. 1 locally; either way the
    # checker must not report success
    schedules["R1"] = Schedule(target.transactions, events)
    report = check_one_copy_si(schedules, locality)
    assert not report.ok


@settings(max_examples=60, deadline=None)
@given(global_executions())
def test_witness_is_equivalent_projection_per_replica(execution):
    """The produced witness must order ww commits exactly as the locals."""
    specs, schedule, locality, _rng = execution
    schedules = {r: derive_local(specs, schedule, locality, r) for r in REPLICAS}
    report = check_one_copy_si(schedules, locality)
    assert report.ok
    witness = report.witness
    for replica, local in schedules.items():
        tids = [t for t, s in local.transactions.items() if s.writeset]
        for i, a in enumerate(tids):
            for b in tids[i + 1:]:
                if not local.transactions[a].conflicts_with(local.transactions[b]):
                    continue
                assert witness.before((COMMIT, a), (COMMIT, b)) == local.before(
                    (COMMIT, a), (COMMIT, b)
                )


# ---------------------------------------------------------------------------
# Independent oracle: Def. 3 by brute force over every global schedule
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def interleavings(tids):
    """Every event sequence over ``tids`` in which each transaction
    begins before it commits (a tid's first occurrence is its begin)."""
    out = []
    for order in set(itertools.permutations(tids * 2)):
        first = {tid: order.index(tid) for tid in tids}
        out.append(tuple((BEGIN if first[tid] == i else COMMIT, tid)
                         for i, tid in enumerate(order)))
    return tuple(out)


def one_copy_si_by_brute_force(schedules, locality):
    """Def. 3 read literally: (i) every local schedule is an SI-schedule,
    (ii) some global SI-schedule S agrees with every local one on (a) ww
    commit orders and (b) local reads-from.  The cases obey the ROWA
    mapping by construction, so each transaction's spec is its home's."""
    if any(local.violations() for local in schedules.values()):
        return False
    specs = {
        tid: spec for name, local in schedules.items()
        for tid, spec in local.transactions.items() if locality[tid] == name
    }
    # the pairs Def. 3(ii) constrains, as (event, event, local order)
    constraints = []
    for name, local in schedules.items():
        position = {event: index for index, event in enumerate(local.events)}
        for ti, tj in itertools.permutations(local.transactions, 2):
            ws_i = local.transactions[ti].writeset
            if ws_i & local.transactions[tj].writeset:
                first, second = (COMMIT, ti), (COMMIT, tj)
            elif locality[tj] == name and ws_i & specs[tj].readset:
                first, second = (COMMIT, ti), (BEGIN, tj)
            else:
                continue
            constraints.append((first, second, position[first] < position[second]))
    for events in interleavings(tuple(sorted(specs))):
        position = {event: index for index, event in enumerate(events)}
        if all(
            (position[first] < position[second]) == ordered
            for first, second, ordered in constraints
        ) and Schedule(specs, events).is_si_schedule():
            return True
    return False


def perturb(schedule, rng):
    """Swap two commits or move a begin, keeping every begin before its
    commit (a database history is always well-formed)."""
    events = schedule.events
    position = {event: index for index, event in enumerate(events)}
    commits = [i for i, (kind, _tid) in enumerate(events) if kind == COMMIT]
    swaps = [
        (i, j) for i, j in itertools.combinations(commits, 2)
        if position[(BEGIN, events[j][1])] < i
    ]
    moved = list(events)
    if swaps and rng.random() < 0.5:
        i, j = rng.choice(swaps)
        moved[i], moved[j] = moved[j], moved[i]
    elif schedule.transactions:
        tid = rng.choice(sorted(schedule.transactions))
        moved.remove((BEGIN, tid))
        moved.insert(rng.randrange(moved.index((COMMIT, tid)) + 1), (BEGIN, tid))
    return Schedule(schedule.transactions, moved)


def as_history(name, schedule, locality):
    """A local schedule as the ``db.history`` entries the engine records."""
    return [
        ("begin", tid, 0, locality[tid] != name, float(t)) if kind == BEGIN
        else ("commit", tid, 1, schedule.transactions[tid].readset,
              schedule.transactions[tid].writeset, float(t))
        for t, (kind, tid) in enumerate(schedule.events)
    ]


@st.composite
def small_cases(draw):
    """At most 4 transactions on 2 replicas: correct ROWA projections of
    a global SI-schedule — or R1 projecting another one, as a replica
    ordering commits on its own would — each then perturbed 0-3 times."""
    specs, schedule, locality, rng = draw(
        global_executions(max_txns=4, n_objects=3)
    )
    schedules = {r: derive_local(specs, schedule, locality, r) for r in REPLICAS}
    if draw(st.booleans()):
        other = si_schedule(rng.sample(specs, len(specs)), rng)
        schedules["R1"] = derive_local(specs, other, locality, "R1")
    for _ in range(draw(st.integers(0, 3))):
        name = rng.choice(REPLICAS)
        schedules[name] = perturb(schedules[name], rng)
    return schedules, locality


def paper_432_case():
    """§4.3.2: each replica commits its own writer first and a local
    reader observes that order (a constraint cycle, nothing else)."""
    i, j = TxnSpec("i", {0}, {0}), TxnSpec("j", {1}, {1})
    a, b = TxnSpec("a", {0, 1}), TxnSpec("b", {0, 1})
    schedules = {
        "R0": Schedule.from_string(
            "bi bj ci ba cj ca", [i, TxnSpec("j", writeset={1}), a]
        ),
        "R1": Schedule.from_string(
            "bj bi cj bb ci cb", [TxnSpec("i", writeset={0}), j, b]
        ),
    }
    return schedules, {"i": "R0", "a": "R0", "j": "R1", "b": "R1"}


@settings(max_examples=150, deadline=None)
@given(small_cases())
@example(paper_432_case())
def test_brute_force_oracle_agrees_with_checker_and_monitor(case):
    schedules, locality = case
    verdict = one_copy_si_by_brute_force(schedules, locality)
    report = check_one_copy_si(schedules, locality)
    assert report.ok == verdict, str(report)

    # polled once, past every lost-writeset grace
    monitor = OneCopyMonitor(SimpleNamespace(now=100.0))
    for name, local in schedules.items():
        monitor.watch(name, SimpleNamespace(history=as_history(name, local, locality)))
    flagged = monitor.poll()
    assert bool(flagged) == (not report.ok), [str(v) for v in flagged]
