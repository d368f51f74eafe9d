import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import expand_runs, reference_verify_schedule
from hmsched.model import (
    FeasibilityQuery,
    HMSchedule,
    Instance,
    MalformedInputError,
    Runs,
    aggregate_jobs,
    deal,
    format_rational,
    make_schedule,
    objective_value,
    parse_rational,
    verify_schedule,
)


@pytest.fixture
def fig1():
    return Instance(p=(1,), n=(7,), s=(15, 13, 11), m=(1, 1, 1))


@pytest.fixture
def fig1_schedule():
    # 3, 3, 1 unit jobs on the three machines
    return make_schedule(1, [(0, (3,), 1), (1, (3,), 1), (2, (1,), 1)])


@given(num=st.integers(-10**12, 10**12), den=st.integers(1, 10**9))
def test_rational_round_trip(num, den):
    r = Fraction(num, den)
    assert parse_rational(format_rational(r)) == r


def test_format_always_carries_denominator():
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(3) == "3/1"
    assert parse_rational("7") == 7


def test_verify_quarter_feasible_with_idle(fig1, fig1_schedule):
    q = FeasibilityQuery("<=", Fraction(1, 4))
    report = verify_schedule(fig1, fig1_schedule, q)
    assert report.ok
    assert report.max_completion == Fraction(3, 13)
    assert report.max_idle_load == Fraction(7, 4)
    assert report.job_usage == (7,)


def test_verify_empty_schedule_zero_threshold():
    inst = Instance(p=(1,), n=(0,), s=(3, 2), m=(0, 0))
    report = verify_schedule(inst, HMSchedule(1, ()),
                             FeasibilityQuery("<=", Fraction(0)))
    assert report.ok
    assert report.max_completion == 0


def test_verify_fails_below_true_makespan(fig1, fig1_schedule):
    report = verify_schedule(fig1, fig1_schedule,
                             FeasibilityQuery("<=", Fraction(1, 5)))
    assert not report.ok
    assert any("13" in v for v in report.violations)
    # report fields are filled even on failure
    assert report.max_completion == Fraction(3, 13)


def test_verify_is_pure(fig1, fig1_schedule):
    q = FeasibilityQuery("<=", Fraction(1, 4))
    assert verify_schedule(fig1, fig1_schedule, q) == \
        verify_schedule(fig1, fig1_schedule, q)


def test_verify_machine_count_mismatch_is_violation(fig1):
    short = make_schedule(1, [(0, (7,), 1)])
    report = verify_schedule(fig1, short, FeasibilityQuery("<=", Fraction(1)))
    assert not report.ok


def test_verify_dimension_mismatch_raises(fig1):
    bad = HMSchedule(2, ((0, (1, 1), 1),))
    with pytest.raises(MalformedInputError):
        verify_schedule(fig1, bad, FeasibilityQuery("<=", Fraction(1)))
    out_of_range = HMSchedule(1, ((5, (1,), 1),))
    with pytest.raises(MalformedInputError):
        verify_schedule(fig1, out_of_range, FeasibilityQuery("<=", Fraction(1)))


def test_verify_reports_restriction_violation():
    inst = Instance(p=(1, 1), n=(1, 1), s=(2, 2), m=(1, 1),
                    restrict=((True, False), (False, True)))
    sched = make_schedule(2, [(0, (0, 1), 1), (1, (1, 0), 1)])
    report = verify_schedule(inst, sched, FeasibilityQuery("<=", Fraction(1)))
    assert not report.ok
    assert any("not allowed" in v for v in report.violations)


def _random_certificate(rnd: random.Random):
    """A seeded instance, schedule and query near the schedule's own values.

    Machine counts, job usage and restrictions are right or off by a
    little, speeds include 0, and the threshold is a completion of the
    schedule, a value next to one, or 0.
    """
    d, tau = rnd.randint(1, 3), rnd.randint(1, 3)
    p = tuple(rnd.randint(1, 6) for _ in range(d))
    s = tuple(rnd.choice((0, 1, 2, 3, 5, 7)) for _ in range(tau))
    m = tuple(rnd.randint(0, 3) for _ in range(tau))
    raw = []
    for t in range(tau):
        machines = max(0, m[t] + rnd.choice((0, 0, 0, -1, 1)))
        while machines:
            k = rnd.randint(0 if rnd.random() < 0.1 else 1, machines)
            counts = tuple(0 if s[t] == 0 and rnd.random() < 0.8
                           else rnd.randint(0, 3) for _ in range(d))
            raw.append((t, counts, k))
            machines -= k
    sched = HMSchedule(d, tuple(raw))
    usage = aggregate_jobs(sched)
    n = tuple(max(0, u + rnd.choice((0, 0, 0, -1, 1))) for u in usage)
    restrict = None
    if rnd.random() < 0.5:
        restrict = tuple(tuple(rnd.random() < 0.8 for _ in range(tau))
                         for _ in range(d))
    inst = Instance(p, n, s, m, restrict)
    loads = [(sum(a * b for a, b in zip(p, counts)), s[t])
             for t, counts, count in raw if count and s[t]]
    if loads and rnd.random() < 0.8:
        load, speed = rnd.choice(loads)
        T = Fraction(load, speed) + rnd.choice((0, 0, Fraction(1, 7), -Fraction(1, 7)))
    else:
        T = Fraction(rnd.randint(0, 12), rnd.randint(1, 5))
    q = FeasibilityQuery(rnd.choice(("<=", ">=")), max(T, Fraction(0)))
    return inst, sched, q


VIOLATION_KINDS = ("covers", "not allowed", "exceeds", "below", "usage")


def test_verify_matches_the_fraction_reference():
    # the integer comparisons give the Fraction check's report, field for
    # field, violation strings included
    rnd = random.Random(2024)
    seen = set()
    for _ in range(3000):
        inst, sched, q = _random_certificate(rnd)
        report = verify_schedule(inst, sched, q)
        assert report == reference_verify_schedule(inst, sched, q), (inst, sched, q)
        seen.add(report.ok)
        for violation in report.violations:
            seen.add(next(k for k in VIOLATION_KINDS if k in violation))
        seen |= {("speed 0", s == 0) for s, m in zip(inst.s, inst.m) if m}
        seen.add(("idle", report.max_idle_load > 0))
        if all(inst.s):
            assert objective_value(inst, sched, "cmax") == report.max_completion
            assert objective_value(inst, sched, "cmin") == report.min_completion
            assert objective_value(inst, sched, "cenvy") == (
                report.max_completion - report.min_completion)
    # every kind of report occurred: machine counts, disallowed job types,
    # loads above and below the threshold, usage other than n
    assert {True, False, "covers", "not allowed", "exceeds", "below", "usage",
            ("speed 0", True), ("idle", True)} <= seen, seen


def test_query_validation():
    with pytest.raises(MalformedInputError):
        FeasibilityQuery("<", Fraction(1))


def test_aggregate_jobs_examples(fig1_schedule):
    sched = make_schedule(1, [(0, (3,), 1), (1, (2,), 2)])
    assert aggregate_jobs(sched) == (7,)
    assert aggregate_jobs(HMSchedule(2, ())) == (0, 0)
    assert aggregate_jobs(fig1_schedule) == (7,)


def test_instance_validation():
    with pytest.raises(MalformedInputError):
        Instance(p=(0,), n=(1,), s=(1,), m=(1,))
    with pytest.raises(MalformedInputError):
        Instance(p=(1,), n=(1, 2), s=(1,), m=(1,))
    with pytest.raises(MalformedInputError):
        Instance(p=(1,), n=(1,), s=(1,), m=(1,), restrict=((True, True),))



@pytest.mark.parametrize("field,value", [
    ("p", 1.7), ("n", True), ("s", "3"), ("m", Fraction(2)),
], ids=["float", "bool", "str", "Fraction"])
def test_instance_rejects_non_integer_entries(field, value):
    fields = dict(p=(1,), n=(1,), s=(1,), m=(1,))
    fields[field] = (value,)
    with pytest.raises(MalformedInputError):
        Instance(**fields)


@pytest.mark.parametrize("cell", ["no", 1, 0, None],
                         ids=["str", "one", "zero", "None"])
def test_instance_rejects_non_boolean_restrict_cells(cell):
    with pytest.raises(MalformedInputError):
        Instance(p=(1,), n=(1,), s=(1, 1), m=(1, 1), restrict=((True, cell),))


@pytest.mark.parametrize("counts", [
    (1.7,), (True,), ("1",), (Fraction(1),),
], ids=["float", "bool", "str", "Fraction"])
def test_configuration_rejects_non_integer_entries(counts):
    with pytest.raises(MalformedInputError):
        HMSchedule(1, ((0, counts, 1),))


@pytest.mark.parametrize("counts", [(-1,), (1, 1)],
                         ids=["negative", "wrong-length"])
def test_schedule_rejects_bad_configuration_counts(counts):
    with pytest.raises(MalformedInputError):
        HMSchedule(1, ((0, counts, 1),))


@pytest.mark.parametrize("t,count", [
    (0.9, 1), (False, 1), (0, 2.5), (0, True), (0, "2"), (0, Fraction(2)),
], ids=["float-type", "bool-type", "float-count", "bool-count", "str-count",
        "Fraction-count"])
def test_schedule_rejects_non_integer_entries(t, count):
    with pytest.raises(MalformedInputError):
        HMSchedule(1, ((t, (1,), count),))


@pytest.mark.parametrize("seed", range(20))
def test_deal_matches_per_machine_slices(seed):
    rnd = random.Random(seed)
    machines = rnd.randint(0, 30)
    widths = [rnd.randint(0, 4) for _ in range(rnd.randint(1, 3))]
    shared = rnd.random() < 0.5  # every draw from one multiset, in order
    need = [machines * w for w in widths]
    totals = [sum(need)] if shared else need
    runs = [sorted((rnd.randint(0, 9), k) for k in split(rnd, total))
            for total in totals]
    pools = [Runs(r) for r in runs]
    draws = [(pools[0 if shared else i], w) for i, w in enumerate(widths)]
    got = [list(slices) for k, slices in deal(machines, *draws)
           for _ in range(k)]
    flat = [expand_runs(r) for r in runs]
    at = [0] * len(flat)
    want = []
    for i, w in enumerate(widths):
        src = 0 if shared else i
        block = flat[src][at[src]:at[src] + machines * w]
        at[src] += machines * w
        want.append([block[k * w:(k + 1) * w] for k in range(machines)])
    assert [[expand_runs(s) for s in slices] for slices in got] == [
        list(per) for per in zip(*want)]
    assert all(pool.left == 0 for pool in pools)


def split(rnd, total):
    """Positive parts summing to total, in random sizes."""
    out = []
    while total:
        k = rnd.randint(1, total)
        out.append(k)
        total -= k
    return out

@given(st.lists(st.integers(0, 5), min_size=1, max_size=4))
def test_aggregate_matches_manual_sum(counts):
    counts = tuple(counts)
    sched = make_schedule(len(counts), [(0, counts, 2), (0, counts, 1)])
    assert aggregate_jobs(sched) == tuple(3 * c for c in counts)
