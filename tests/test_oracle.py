from fractions import Fraction

import pytest

from hmsched.model import FeasibilityQuery, Instance, verify_schedule
from hmsched.oracle import (
    GenParams,
    OracleCapError,
    brute_force,
    brute_force_feasibility,
    feasible_schedule,
    generate,
)

from helpers import brute_force_reference

FIG1 = Instance(p=(1,), n=(7,), s=(15, 13, 11), m=(1, 1, 1))


@pytest.mark.parametrize("objective,value", [
    ("cmax", Fraction(1, 5)),
    ("cmin", Fraction(2, 13)),
    ("cenvy", Fraction(3, 65)),
])
def test_fig1_optima(objective, value):
    got, sched = brute_force(FIG1, objective)
    assert got == value
    assert brute_force_reference(FIG1, objective) == value


def test_zero_jobs():
    inst = Instance(p=(2,), n=(0,), s=(3, 5), m=(1, 1))
    for objective in ("cmax", "cmin", "cenvy"):
        value, sched = brute_force(inst, objective)
        assert value == 0


def test_single_machine_forced():
    inst = Instance(p=(2, 3), n=(2, 1), s=(4,), m=(1,))
    assert brute_force(inst, "cmax")[0] == Fraction(7, 4)
    assert brute_force(inst, "cmin")[0] == Fraction(7, 4)
    assert brute_force(inst, "cenvy")[0] == 0


def test_fig1_feasibility_queries():
    assert brute_force_feasibility(FIG1, "<=", Fraction(1, 4))
    sched = feasible_schedule(FIG1, "<=", Fraction(1, 4))
    report = verify_schedule(FIG1, sched,
                             FeasibilityQuery("<=", Fraction(1, 4)))
    assert report.ok and report.max_idle_load <= Fraction(7, 4)

    # capacity violation: total load above total speed * T
    assert not brute_force_feasibility(FIG1, "<=", Fraction(1, 10))
    # threshold zero lower bounds hold for any full assignment
    assert brute_force_feasibility(FIG1, ">=", Fraction(0))


def test_idle_cap_query():
    # fig1 at 1/4 has min idle 1/4 across required windows; cap 0 forbids
    assert not brute_force_feasibility(FIG1, "<=", Fraction(1, 4), idle_cap=0)
    assert brute_force_feasibility(FIG1, "<=", Fraction(1, 4), idle_cap=2)


def test_job_relations():
    inst = Instance(p=(2,), n=(3,), s=(4,), m=(1,))
    assert not brute_force_feasibility(inst, "<=", Fraction(1))
    assert brute_force_feasibility(inst, "<=", Fraction(1), job_relation="<=")
    assert brute_force_feasibility(inst, "<=", Fraction(2), job_relation=">=")


def test_over_covering_job_relation():
    inst = Instance(p=(1,), n=(4,), s=(9,), m=(1,))
    # idle cap 0 forces load exactly 9 > n: possible only when usage
    # beyond n is allowed
    assert brute_force_feasibility(inst, "<=", Fraction(1), idle_cap=0,
                                   job_relation=">=")
    assert not brute_force_feasibility(inst, "<=", Fraction(1), idle_cap=0)
    # lower-bound form of the same effect
    assert brute_force_feasibility(inst, ">=", Fraction(1),
                                   job_relation=">=")


def test_config_floor_constrains_search():
    inst = Instance(p=(1,), n=(4,), s=(2, 2), m=(1, 1))
    assert brute_force_feasibility(inst, "<=", Fraction(1),
                                   config_floor=((2,), (2,)))
    assert not brute_force_feasibility(inst, "<=", Fraction(1),
                                       config_floor=((3,), (0,)))


def test_dp_and_recursion_agree():
    agreed = 0
    for seed in range(40):
        inst = generate(GenParams(seed=seed, job_total_range=(0, 6),
                                  machine_count_range=(1, 3),
                                  speed_range=(1, 7)))
        if inst.machine_count == 0 or inst.machine_count > 3:
            continue
        for objective in ("cmax", "cmin", "cenvy"):
            assert brute_force(inst, objective)[0] == \
                brute_force_reference(inst, objective), (inst, objective)
            agreed += 1
    assert agreed >= 45


def test_optima_are_achieved_and_tight():
    import math
    for seed in range(15):
        inst = generate(GenParams(seed=100 + seed, job_total_range=(1, 8),
                                  machine_count_range=(1, 3),
                                  speed_range=(1, 7)))
        if inst.machine_count == 0:
            continue
        step = Fraction(1, math.lcm(*(s for s, m in zip(inst.s, inst.m) if m)))
        value, sched = brute_force(inst, "cmax")
        assert verify_schedule(inst, sched, FeasibilityQuery("<=", value)).ok
        if value > 0:
            assert not brute_force_feasibility(inst, "<=", value - step)
        value, sched = brute_force(inst, "cmin")
        assert verify_schedule(inst, sched, FeasibilityQuery(">=", value)).ok
        assert not brute_force_feasibility(inst, ">=", value + step)


def test_generator_determinism():
    params = GenParams(seed=42, restricted=True)
    a, b = generate(params), generate(params)
    assert a == b
    assert generate(GenParams(seed=43)) != a


def test_generator_contracts():
    for seed in range(30):
        inst = generate(GenParams(seed=seed, restricted=True))
        assert all(any(row) for row in inst.restrict)
        assert max(inst.p) <= 6 and inst.d <= 3
    empty = generate(GenParams(seed=7, job_total_range=(0, 0)))
    assert all(x == 0 for x in empty.n)
    big = generate(GenParams(seed=3, large_machines=True, d_range=(2, 2),
                             pmax_range=(3, 3)))
    assert min(big.s) >= 42  # cutoff for d=2, pmax=3


def test_machine_cap_refusal():
    inst = Instance(p=(1,), n=(2,), s=(1,), m=(9,))
    with pytest.raises(OracleCapError):
        brute_force_feasibility(inst, "<=", Fraction(1))
    with pytest.raises(OracleCapError):
        brute_force_feasibility(FIG1, "<=", Fraction(1, 4), state_cap=2)


def test_restricted_instances_supported():
    inst = Instance(p=(1, 1), n=(2, 2), s=(2, 2), m=(1, 1),
                    restrict=((True, False), (False, True)))
    assert brute_force(inst, "cmax")[0] == 1
    blocked = Instance(p=(1,), n=(1,), s=(2,), m=(1,),
                       restrict=((False,),))
    with pytest.raises(ValueError):
        brute_force(blocked, "cmax")
