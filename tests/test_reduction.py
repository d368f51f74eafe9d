import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    cut_block,
    is_identity,
    random_runs,
    reference_lift,
    window_decomposes,
)
from hmsched.model import (
    FeasibilityQuery,
    HMSchedule,
    Instance,
    MalformedInputError,
    dot,
    make_schedule,
    verify_schedule,
)
from hmsched.oracle import (
    GenParams,
    OracleCapError,
    brute_force_feasibility,
    feasible_schedule,
    generate,
)
from hmsched.reduction import (
    compress,
    CompressionMap,
    lift_schedule,
    normalize,
    reduce_window,
    reduction_constants,
)


@pytest.mark.parametrize("p,delta,gamma", [
    ((2, 3), 6, 36),
    ((1,), 1, 1),
    ((4, 6), 12, 144),
])
def test_reduction_constants(p, delta, gamma):
    k = reduction_constants(p)
    assert (k.lcm_load, k.cut_threshold) == (delta, gamma)


@pytest.mark.parametrize("p,w", [
    ((2, 3), (18, 0)),
    ((1,), (1,)),
    ((2, 3), (12, 4)),
])
def test_cut_block_examples(p, w):
    k = reduction_constants(p)
    out = cut_block(w, p)
    assert all(0 <= o <= x for o, x in zip(out, w))
    assert dot(p, out) == k.lcm_load


def test_cut_block_forced_witness():
    assert cut_block((1,), (1,)) == (1,)
    assert cut_block((18, 0), (2, 3)) == (3, 0)


def test_cut_block_rejects_small_load():
    with pytest.raises(ValueError):
        cut_block((1, 1), (2, 3))  # load 5 < 36


sizes = st.lists(st.integers(1, 8), min_size=1, max_size=3)


@settings(max_examples=200)
@given(p=sizes, data=st.data())
def test_cut_block_postcondition(p, data):
    p = tuple(p)
    k = reduction_constants(p)
    w = tuple(data.draw(st.integers(0, 3 * k.cut_threshold)) for _ in p)
    assume(dot(p, w) >= k.cut_threshold)
    out = cut_block(w, p)
    assert all(0 <= o <= x for o, x in zip(out, w))
    assert dot(p, out) == k.lcm_load


def test_cut_block_agrees_with_enumeration_d2():
    # all valid witnesses for small d=2 cases, ours among them
    p = (2, 3)
    k = reduction_constants(p)
    for w in [(18, 0), (12, 4), (0, 12), (6, 8)]:
        if dot(p, w) < k.cut_threshold:
            continue
        valid = {(a, b)
                 for a in range(w[0] + 1) for b in range(w[1] + 1)
                 if 2 * a + 3 * b == k.lcm_load}
        assert valid, "cutting guarantee broken"
        assert cut_block(w, p) in valid


def test_reduce_window_golden():
    k = reduction_constants((2, 3))
    red = reduce_window(40, 100, k)
    assert (red.exact_blocks, red.slack_blocks) == (1, 4)
    assert (red.core_lower, red.core_upper) == (34, 70)

    red = reduce_window(0, 5, k)
    assert (red.exact_blocks, red.slack_blocks, red.core_lower, red.core_upper) \
        == (0, 0, 0, 5)

    # unbounded window: peel load->= blocks while the lower bound allows;
    # 72 needs seven peels of 6 before dropping under the threshold 36
    red = reduce_window(72, None, k)
    assert (red.exact_blocks, red.slack_blocks) == (7, 0)
    assert (red.core_lower, red.core_upper) == (30, None)


@settings(max_examples=150)
@given(p=sizes, lower=st.integers(0, 400), span=st.integers(0, 400),
       unbounded=st.booleans())
def test_reduce_window_invariants(p, lower, span, unbounded):
    k = reduction_constants(tuple(p))
    upper = None if unbounded else lower + span
    red = reduce_window(lower, upper, k)
    assert red.core_lower < k.cut_threshold
    if upper is None:
        assert red.core_upper is None and red.slack_blocks == 0
    else:
        assert red.core_upper - red.core_lower < k.cut_threshold + k.lcm_load
        # bookkeeping telescopes back to the original window
        assert red.core_lower + red.exact_blocks * k.lcm_load == lower
        assert (red.core_upper + (red.exact_blocks + red.slack_blocks)
                * k.lcm_load == upper)


@pytest.mark.parametrize("p", [(1,), (2, 3), (4, 6, 7)])
@pytest.mark.parametrize("lower, span", [
    (0, 10**15), (10**15, 0), (10**15, 10**15), (10**15, None),
])
def test_reduce_window_huge_windows(p, lower, span):
    # The block counts are computed, not peeled one lcm at a time, so a
    # window of 10^15 load returns at once with the same invariants.
    k = reduction_constants(p)
    upper = None if span is None else lower + span
    red = reduce_window(lower, upper, k)
    assert 0 <= red.core_lower < k.cut_threshold
    assert red.core_lower + red.exact_blocks * k.lcm_load == lower
    if upper is None:
        assert red.core_upper is None and red.slack_blocks == 0
    else:
        assert red.core_upper - red.core_lower < k.cut_threshold + k.lcm_load
        assert (red.core_upper + (red.exact_blocks + red.slack_blocks)
                * k.lcm_load == upper)
        # one more slack block would push the span under the threshold
        assert (red.slack_blocks == 0 or red.core_upper - red.core_lower
                >= k.cut_threshold)




@pytest.mark.parametrize("p,window", [
    ((2, 3), (40, 56)),
    ((2, 3), (36, 80)),
    ((1,), (3, 9)),
    ((2, 5), (20, 75)),
    ((2, 3), (40, None)),
])
def test_reduce_window_minkowski_identity(p, window):
    k = reduction_constants(p)
    lower, upper = window
    red = reduce_window(lower, upper, k)
    cap = (upper if upper is not None else lower + k.lcm_load) + 5
    top = [cap // pj for pj in p]
    for c in product(*(range(x + 1) for x in top)):
        load = dot(p, c)
        inside = load >= lower and (upper is None or load <= upper)
        assert inside == window_decomposes(c, p, red, k), (c, red)


def test_normalize_fig1():
    inst = Instance(p=(1,), n=(7,), s=(15, 13, 11), m=(1, 1, 1))
    out = normalize(inst, "<=", Fraction(1, 5))
    assert out.s == (3, 2, 2)
    assert out.p == inst.p and out.n == inst.n and out.m == inst.m


def test_normalize_zero_threshold():
    inst = Instance(p=(2,), n=(3,), s=(4, 9), m=(1, 1))
    out = normalize(inst, "<=", Fraction(0))
    assert out.s == (0, 0)
    assert not brute_force_feasibility(out, "<=", Fraction(1))
    empty = Instance(p=(2,), n=(0,), s=(4,), m=(1,))
    assert brute_force_feasibility(normalize(empty, "<=", Fraction(0)),
                                   "<=", Fraction(1))


def test_normalize_ceil_for_lower_bounds():
    inst = Instance(p=(2,), n=(3,), s=(4,), m=(1,))
    out = normalize(inst, ">=", Fraction(3, 2))
    assert out.s == (6,)


def test_normalize_clamps_unreachable_lower_bounds():
    # a lower bound above the total load is unsatisfiable either way
    inst = Instance(p=(2,), n=(3,), s=(100,), m=(1,))
    out = normalize(inst, ">=", Fraction(1))
    assert out.s == (7,)
    assert not brute_force_feasibility(out, ">=", Fraction(1))
    assert not brute_force_feasibility(inst, ">=", Fraction(1))


def test_normalize_speed_bound():
    inst = Instance(p=(3,), n=(4,), s=(1000,), m=(2,))
    out = normalize(inst, "<=", Fraction(7))
    assert max(out.s) <= 1 + inst.total_load


@pytest.mark.parametrize("rel", ["<=", ">="])
def test_normalize_preserves_feasibility(rel):
    checked = 0
    for seed in range(40):
        inst = generate(GenParams(seed=seed, job_total_range=(0, 8),
                                  machine_count_range=(1, 3),
                                  speed_range=(1, 9)))
        if inst.machine_count == 0:
            continue
        num = (seed * 7) % 23
        den = 1 + seed % 5
        T = Fraction(num, den)
        try:
            want = brute_force_feasibility(inst, rel, T)
            got = brute_force_feasibility(normalize(inst, rel, T), rel,
                                          Fraction(1))
        except OracleCapError:
            continue
        assert want == got, (inst, rel, T)
        checked += 1
    assert checked >= 25


def test_compress_unit_size_split():
    # sizes (1): lcm 1, threshold 1; a speed-5 machine becomes three
    # speed-1 machines plus a residual of speed 2
    inst = Instance(p=(1,), n=(3,), s=(5,), m=(1,))
    out, cmap = compress(inst)
    assert sorted(zip(out.s, out.m)) == [(1, 3), (2, 1)]
    assert cmap.pieces_per_machine == (3,)


def test_compress_noop_below_threshold():
    inst = Instance(p=(2, 3), n=(1, 1), s=(41, 10), m=(1, 2))
    out, cmap = compress(inst)
    assert out.s == inst.s and out.m == inst.m
    assert is_identity(cmap)


def test_compress_large_speed():
    inst = Instance(p=(2, 3), n=(4, 4), s=(100,), m=(1,))
    out, cmap = compress(inst)  # ceil((100-42)/6) = 10 pieces, residual 40
    assert sorted(zip(out.s, out.m)) == [(6, 10), (40, 1)]


def test_compress_idempotent_and_bounded():
    for seed in range(30):
        inst = generate(GenParams(seed=seed, speed_range=(1, 60),
                                  job_total_range=(0, 10)))
        inst = normalize(inst, "<=", Fraction(1))
        out, _ = compress(inst)
        k = reduction_constants(inst.p)
        limit = k.cut_threshold + k.lcm_load
        assert max(out.s, default=0) <= limit
        assert out.tau <= min(1 + limit, 1 + inst.tau)
        assert out.machine_count <= (2 + inst.total_load) * inst.machine_count
        again, cmap2 = compress(out)
        assert again.s == out.s and again.m == out.m
        assert is_identity(cmap2)


@pytest.mark.parametrize("rel", ["<=", ">="])
def test_compress_preserves_feasibility(rel):
    checked = 0
    for seed in range(40):
        inst = generate(GenParams(seed=100 + seed, job_total_range=(0, 5),
                                  machine_count_range=(1, 2),
                                  speed_range=(1, 20)))
        if inst.machine_count == 0:
            continue
        norm = normalize(inst, rel, Fraction(1 + seed % 3, 1 + seed % 2))
        out, _ = compress(norm)
        try:
            want = brute_force_feasibility(norm, rel, Fraction(1))
            got = brute_force_feasibility(out, rel, Fraction(1),
                                          machine_cap=80, state_cap=2_000_000)
        except OracleCapError:
            continue
        assert want == got, (inst, rel)
        checked += 1
    assert checked >= 20


def test_compress_rejects_restricted():
    inst = Instance(p=(1,), n=(1,), s=(5,), m=(1,), restrict=((True,),))
    with pytest.raises(MalformedInputError):
        compress(inst)


def test_lift_identity():
    inst = Instance(p=(2,), n=(2,), s=(5,), m=(1,))
    norm = normalize(inst, "<=", Fraction(1))
    out, cmap = compress(norm)
    assert is_identity(cmap)
    sched = feasible_schedule(out, "<=", Fraction(1))
    assert lift_schedule(sched, cmap) == sched


def test_lift_merges_split_machine():
    # unit sizes, speed 5 -> pieces {1,1,1} + residual 2; a <=1-feasible
    # compressed schedule lifts to load 5 on the original machine
    inst = Instance(p=(1,), n=(5,), s=(5,), m=(1,))
    comp, cmap = compress(inst)
    sched = feasible_schedule(comp, "<=", Fraction(1))
    lifted = lift_schedule(sched, cmap)
    report = verify_schedule(inst, lifted, FeasibilityQuery("<=", Fraction(1)))
    assert report.ok
    assert dot(inst.p, lifted.entries[0][1]) == 5


@pytest.mark.parametrize("rel", ["<=", ">="])
def test_lift_preserves_verdict(rel):
    lifted_any = 0
    for seed in range(30):
        inst = generate(GenParams(seed=300 + seed, job_total_range=(0, 8),
                                  machine_count_range=(1, 2),
                                  speed_range=(1, 25)))
        if inst.machine_count == 0:
            continue
        norm = normalize(inst, rel, Fraction(1, 1 + seed % 3))
        comp, cmap = compress(norm)
        try:
            sched = feasible_schedule(comp, rel, Fraction(1),
                                      machine_cap=40, state_cap=2_000_000)
        except OracleCapError:
            continue
        if sched is None:
            continue
        lifted = lift_schedule(sched, cmap)
        report = verify_schedule(norm, lifted,
                                 FeasibilityQuery(rel, Fraction(1)))
        assert report.ok, (inst, rel, report.violations)
        lifted_any += 1
    assert lifted_any >= 10


def random_lift_case(rnd, d=2):
    """A compression map with 2..4 pieces per machine and a schedule with
    seeded runs on its compressed types; type 0's residual speed is the
    piece speed, so one pool feeds both residuals and pieces."""
    delta = 2
    tau = rnd.randint(1, 3)
    original_m = tuple(rnd.randint(0, 30) for _ in range(tau))
    residual = (delta,) + tuple(rnd.choice((3, 5)) for _ in range(tau - 1))
    pieces = tuple(rnd.randint(2, 4) for _ in range(tau))
    speeds = tuple(dict.fromkeys(residual + (delta,)))
    need = dict.fromkeys(speeds, 0)
    for m, r, k in zip(original_m, residual, pieces):
        need[r] += m
        need[delta] += m * k
    raw = [(speeds.index(speed), cfg, count)
           for speed, total in need.items()
           for cfg, count in random_runs(rnd, total, d, 2).items()]
    cmap = CompressionMap(original_m, residual, pieces, speeds, delta)
    return make_schedule(d, raw), cmap


@pytest.mark.parametrize("seed", range(30))
def test_lift_runs_match_per_machine_expansion(seed):
    sched, cmap = random_lift_case(random.Random(seed))
    assert lift_schedule(sched, cmap) == reference_lift(sched, cmap)


@pytest.mark.parametrize("change", [-1, 1])
def test_lift_rejects_miscounted_pools(change):
    sched, cmap = random_lift_case(random.Random(7))
    t, cfg, count = sched.entries[-1]
    entries = sched.entries[:-1] + ((t, cfg, count + change),)
    bad = HMSchedule(sched.d, entries)
    with pytest.raises(MalformedInputError):
        reference_lift(bad, cmap)
    with pytest.raises(MalformedInputError):
        lift_schedule(bad, cmap)
