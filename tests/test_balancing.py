import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    build_fractional_schedule,
    check_fractional_schedule_properties,
    check_unconditional_properties,
    fastest_type,
    is_regular,
    large_instance_stream,
    load_multiple_subvector,
    reference_guesses,
    relative_weights,
    round_schedule,
    rounded_schedule,
)
from hmsched.balancing import (
    guess_configs,
    idle_cmax_speeds,
    large_machine_cutoff,
    reduced_schedule,
)
from hmsched.model import Instance, dot, make_schedule
from hmsched.oracle import (
    GenParams,
    OracleCapError,
    brute_force_feasibility,
    generate,
)


def test_cutoff_formula():
    assert large_machine_cutoff(1, 1) == 5
    assert large_machine_cutoff(2, 3) == 42
    assert large_machine_cutoff(3, 6) == 180


def test_two_even_machines_hand_example():
    # unit jobs, cutoff 5, two machines of speed 6, ten jobs
    inst = Instance(p=(1,), n=(10,), s=(6,), m=(2,))
    fs = build_fractional_schedule(inst, (10,))
    assert fs.phase_1a == (Fraction(1),)
    assert fs.phase_1b == (Fraction(3),)
    assert fs.phase_2 == ((Fraction(1),),)
    assert fs.weights == (Fraction(1, 2),)
    assert fs.area_2 == 2
    assert fs.total(0) == (Fraction(5),)
    assert fs.job_totals() == (Fraction(10),)
    rs = round_schedule(fs, fastest_type(fs))
    assert rs.total(0) == (Fraction(5),)


def test_zero_jobs_zero_schedule():
    inst = Instance(p=(1,), n=(0,), s=(6,), m=(2,))
    fs = build_fractional_schedule(inst, (0,))
    assert fs.total(0) == (Fraction(0),)
    rs = round_schedule(fs, fastest_type(fs))
    assert rs.total(0) == (Fraction(0),)


def test_overfull_instance_still_sums_exactly():
    # fourteen unit jobs on total speed twelve: fractionally infeasible,
    # but the construction still distributes all jobs evenly
    inst = Instance(p=(1,), n=(14,), s=(6,), m=(2,))
    fs = build_fractional_schedule(inst, (14,))
    assert fs.total(0) == (Fraction(7),)
    assert fs.job_totals() == (Fraction(14),)


def test_rounding_error_bound_two_speeds():
    inst = Instance(p=(1,), n=(9,), s=(7, 6), m=(1, 1))
    fs = build_fractional_schedule(inst, (9,))
    rs = round_schedule(fs, fastest_type(fs))
    for t in range(inst.tau):
        for j in range(inst.d):
            diff = fs.total(t)[j] - rs.total(t)[j]
            assert 0 <= diff <= 2


def test_speed_below_cutoff_rejected():
    inst = Instance(p=(1,), n=(1,), s=(4,), m=(1,))  # cutoff is 5
    with pytest.raises(ValueError):
        build_fractional_schedule(inst, (1,))


def test_is_regular():
    pmax = 3
    mixed = make_schedule(1, [(0, (pmax,), 1), (0, (pmax - 1,), 1)])
    assert not is_regular(mixed, pmax)
    uniform = make_schedule(1, [(0, (pmax,), 1), (0, (pmax + 2,), 1)])
    assert is_regular(uniform, pmax)
    low = make_schedule(1, [(0, (1,), 1), (0, (0,), 1)])
    assert is_regular(low, pmax)
    assert is_regular(make_schedule(1, []), pmax)


def test_reduced_schedule_margins():
    assert reduced_schedule(((5,),), 2, 2, 3) == ((1,),)   # 5 - (3 + 1)
    assert reduced_schedule(((5,),), None, 2, 3) == ((2,),)  # 5 - 3
    assert reduced_schedule(((0, 0),), 5, 1, 4) == ((0, 0),)


def test_filtered_guesses_place_at_most_n():
    # The balanced pipeline caps its guesses so that
    #   mL * (g1a + g1b)_j * area2_max + area_2 * g2_j <= n_j * area2_max,
    # i.e. the fast machines' fractional usage is at most n.  Flooring
    # and the balancing margin only lower entries, so the preassignment
    # never places more than n and the residual demand is exact.
    rnd = random.Random(920)
    checked = tight = 0
    while checked < 2000:
        d = rnd.randint(1, 3)
        p = tuple(rnd.randint(1, 6) for _ in range(d))
        pmax = max(p)
        cutoff = large_machine_cutoff(d, pmax)
        speeds = tuple(sorted({cutoff + rnd.randint(1, 60)
                               for _ in range(rnd.randint(1, 3))}))
        m = tuple(rnd.randint(1, 4) for _ in speeds)
        mL, area2_max = sum(m), max(speeds) - cutoff
        area_2 = sum(k * (s - cutoff) for s, k in zip(speeds, m))
        g1a, g1b, g2 = (tuple(rnd.randint(0, 2 * pmax) for _ in p)
                        for _ in range(3))
        # n at the caps' boundary or a little above it
        need = [-(-(mL * (a + b) * area2_max + area_2 * x) // area2_max)
                for a, b, x in zip(g1a, g1b, g2)]
        n = tuple(v + rnd.choice((0, 0, 1, 2)) for v in need)
        assert all(mL * (a + b) * area2_max + area_2 * x <= nj * area2_max
                   for a, b, x, nj in zip(g1a, g1b, g2, n))
        floors = guess_configs(speeds, cutoff, g1a, g1b, g2)
        for rows in (floors, reduced_schedule(floors, None, min(p), pmax),
                     reduced_schedule(floors, pmax - 1, min(p), pmax)):
            placed = [sum(k * row[j] for k, row in zip(m, rows))
                      for j in range(d)]
            assert all(u <= v for u, v in zip(placed, n)), (speeds, m, n)
        tight += tuple(need) == n
        checked += 1
    assert tight > 0


def test_guesses_within_the_caps_keep_floored_rows_within_speed():
    # Every guess within the balanced pipeline's caps (``reference_guesses``
    # lists the same guesses) has floored rows with dot(p, row) <= s on
    # each fast speed s, because dot(p, g1a + g1b) <= cutoff and
    # dot(p, g2) <= area2_max.  So the residual speeds are never
    # negative.
    rnd = random.Random(2404)
    guesses = 0
    for _ in range(150):
        d = rnd.randint(1, 2)
        p = tuple(rnd.randint(1, 4) for _ in range(d))
        cutoff = large_machine_cutoff(d, max(p))
        speeds = tuple(sorted({cutoff + rnd.randint(1, 30)
                               for _ in range(rnd.randint(1, 3))}))
        m = tuple(rnd.randint(1, 4) for _ in speeds)
        n = tuple(rnd.randint(0, 12 * sum(m)) for _ in p)
        for g1a, g1b, g2 in reference_guesses(Instance(p, n, speeds, m)):
            floors = guess_configs(speeds, cutoff, g1a, g1b, g2)
            assert all(dot(p, row) <= s for row, s in zip(floors, speeds)), (
                p, speeds, g1a, g1b, g2)
            guesses += 1
    assert guesses > 1000


def test_cmin_conversion_formula():
    inst = Instance(p=(2, 3), n=(1, 1), s=(4, 7), m=(1, 1))
    assert idle_cmax_speeds(inst.s, inst.pmax) == (6, 9) and inst.pmax - 1 == 2
    unit = Instance(p=(1,), n=(1,), s=(4, 7), m=(1, 1))
    assert idle_cmax_speeds(unit.s, unit.pmax) == (4, 7) and unit.pmax - 1 == 0


def test_cmin_conversion_round_trip():
    checked = 0
    for seed in range(60):
        inst = generate(GenParams(seed=seed, job_total_range=(0, 8),
                                  machine_count_range=(1, 3),
                                  speed_range=(1, 9)))
        if inst.machine_count == 0:
            continue
        conv = Instance(inst.p, inst.n, idle_cmax_speeds(inst.s, inst.pmax),
                        inst.m, inst.restrict, inst.name)
        cap = inst.pmax - 1
        try:
            direct = brute_force_feasibility(inst, ">=", Fraction(1))
            via = brute_force_feasibility(conv, "<=", Fraction(1),
                                          idle_cap=cap, job_relation="<=")
        except OracleCapError:
            continue
        assert direct == via, inst
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize("p,j,v,expect_w,expect_alpha", [
    ((2, 3), 0, (0, 3), (0, 2), 3),
    ((5,), 0, (1,), (1,), 1),
    ((2, 3), 1, (3, 0), (3, 0), 2),
])
def test_load_multiple_examples(p, j, v, expect_w, expect_alpha):
    w, alpha = load_multiple_subvector(v, j, p)
    assert (w, alpha) == (expect_w, expect_alpha)


def test_load_multiple_rejects_short_vector():
    with pytest.raises(ValueError):
        load_multiple_subvector((1, 0), 1, (2, 3))  # one job, need three


@settings(max_examples=300)
@given(p=st.lists(st.integers(1, 8), min_size=1, max_size=3), data=st.data())
def test_load_multiple_postcondition(p, data):
    p = tuple(p)
    j = data.draw(st.integers(0, len(p) - 1))
    v = tuple(data.draw(st.integers(0, 12)) for _ in p)
    assume(sum(v) >= p[j])
    w, alpha = load_multiple_subvector(v, j, p)
    assert any(w) and all(0 <= x <= y for x, y in zip(w, v))
    assert dot(p, w) == alpha * p[j]
    assert 1 <= alpha <= max(p)


def test_fractional_schedule_properties_sample():
    for inst in large_instance_stream(60, base_seed=900):
        check_fractional_schedule_properties(inst)


def test_guess_configs_round_the_reference_schedule():
    # the balanced pipeline's integer configurations are the floor of
    # the reference rounded schedule built over one zero-job shape, on
    # each instance's own rounded data and on random guesses
    rnd = random.Random(910)
    checked = 0
    for inst in large_instance_stream(40, base_seed=910):
        cutoff = large_machine_cutoff(inst.d, inst.pmax)
        fast = [t for t in range(inst.tau) if inst.m[t] > 0 and inst.s[t] > cutoff]
        if not fast:
            continue
        sub = Instance(inst.p, inst.n, tuple(inst.s[t] for t in fast),
                       tuple(inst.m[t] for t in fast))
        shape = build_fractional_schedule(sub, (0,) * inst.d)
        imax = fastest_type(shape)
        ratios = relative_weights(shape, imax)
        rs = round_schedule(build_fractional_schedule(sub, sub.n), imax)
        guesses = [tuple(tuple(int(x) for x in phase) for phase in
                         (rs.phase_1a, rs.phase_1b, rs.phase_2[imax]))]
        guesses += [tuple(tuple(rnd.randint(0, 2 * inst.pmax) for _ in inst.p)
                          for _ in range(3)) for _ in range(20)]
        for g1a, g1b, g2 in guesses:
            totals = [rounded_schedule(shape, ratios, g1a, g1b, g2).total(k)
                      for k in range(sub.tau)]
            assert guess_configs(sub.s, cutoff, g1a, g1b, g2) == tuple(
                tuple(math.floor(x) for x in row) for row in totals), inst
            checked += 1
    assert checked >= 400


def test_regularity_of_construction():
    for inst in large_instance_stream(25, base_seed=50):
        fs = build_fractional_schedule(inst, inst.n)
        assert is_regular(fs, inst.pmax)


def test_unconditional_properties_beyond_capacity():
    # overflowing instances still satisfy the area and rounding bounds
    for inst in large_instance_stream(40, base_seed=77,
                                      fractionally_feasible=False):
        check_unconditional_properties(inst)
