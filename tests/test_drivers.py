import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hmsched import cli, drivers
from hmsched.balancing import (
    guess_configs,
    idle_cmax_speeds,
    large_machine_cutoff,
)
from hmsched.confilp import (
    ResourceLimitError,
    build_model,
    solve_model,
)
from hmsched.drivers import (
    InfeasibleRestrictionError,
    balanced_feasibility,
    candidate_values,
    feasibility,
    maximize_min_completion,
    minimize_envy,
    minimize_makespan,
    solve_restricted,
)
from hmsched.model import (
    FeasibilityQuery,
    Instance,
    MalformedInputError,
    aggregate_jobs,
    dot,
    format_rational,
    objective_value,
    schedule_completions,
    verify_schedule,
)
from hmsched.oracle import (
    GenParams,
    OracleCapError,
    assignable,
    brute_force,
    brute_force_feasibility,
    generate,
)
from hmsched.reduction import normalized_speeds

from helpers import _search_grid as reference_search_grid
from helpers import (
    guessing_corpus,
    instance_stream,
    reference_guesses,
    reference_minimize_envy,
)

DATA = Path(__file__).parent / "data"
FIG1 = Instance(p=(1,), n=(7,), s=(15, 13, 11), m=(1, 1, 1))
# machine type 0 may run neither job type
RESTRICTED_NO_REPEAT = Instance(p=(2, 2), n=(5, 2), s=(2, 3, 7), m=(1, 1, 1),
                                restrict=((False, True, False),
                                          (False, False, True)))


def test_candidate_values_grids():
    grid = candidate_values(FIG1, "cmax")
    t, den, top = grid.entries[0]
    assert (den, top) == (15, 7)  # values k/15 up to the total load 7

    # each type's grid stops at the load of the job types it may run
    grid = candidate_values(RESTRICTED_NO_REPEAT, "cmax")
    assert grid.entries == ((0, 2, 0), (1, 3, 10), (2, 7, 4))

    single = Instance(p=(2,), n=(3,), s=(4,), m=(1,))
    grid = candidate_values(single, "cmax")
    _, den, top = grid.entries[0]
    opt = brute_force(single, "cmax")[0]
    assert opt.denominator == 1 or den % opt.denominator == 0
    assert opt <= Fraction(top, den)

    # envy: one grid {k / L} per type with machines, L the lcm of their
    # speeds, up to pmax
    envy = candidate_values(Instance(p=(1,), n=(1,), s=(2, 3), m=(1, 1)),
                            "cenvy")
    assert envy.entries == ((0, 6, 6), (1, 6, 6))
    inst = Instance(p=(2, 3), n=(2, 1), s=(2, 3, 4), m=(1, 0, 1))
    envy = candidate_values(inst, "cenvy")
    assert envy.entries == ((0, 4, 12), (2, 4, 12))
    opt = brute_force(inst, "cenvy")[0]
    assert (opt * 4).denominator == 1 and opt <= Fraction(12, 4)


def test_makespan_fig1():
    result = minimize_makespan(FIG1)
    assert result.value == Fraction(1, 5)
    assert sorted(dot(FIG1.p, counts)
                  for _, counts, _ in result.schedule.entries) == [2, 2, 3]
    report = verify_schedule(FIG1, result.schedule,
                             FeasibilityQuery("<=", result.value))
    assert report.ok


def test_makespan_no_jobs():
    inst = Instance(p=(3,), n=(0,), s=(2, 5), m=(1, 2))
    result = minimize_makespan(inst)
    assert result.value == 0
    assert aggregate_jobs(result.schedule) == (0,)
    assert result.schedule.machines_of_type(1) == 2


def test_makespan_single_machine():
    inst = Instance(p=(2, 3), n=(2, 1), s=(7,), m=(1,))
    assert minimize_makespan(inst).value == 1


def test_min_completion_fig1():
    assert maximize_min_completion(FIG1).value == Fraction(2, 13)


def test_min_completion_no_jobs():
    inst = Instance(p=(3,), n=(0,), s=(2, 5), m=(1, 2))
    result = maximize_min_completion(inst)
    assert result.value == 0
    assert aggregate_jobs(result.schedule) == (0,)


def test_min_completion_two_identical():
    inst = Instance(p=(2,), n=(2,), s=(2,), m=(2,))
    assert maximize_min_completion(inst).value == 1


def test_min_completion_starved_machine():
    # more machines than jobs: some machine stays empty
    inst = Instance(p=(2,), n=(1,), s=(3,), m=(3,))
    assert maximize_min_completion(inst).value == 0


def test_min_completion_incumbent_fills_the_slowest_machine():
    # The last job type's leftovers go to the machines that complete
    # earliest before taking one, so the speed-2 machine, whose share
    # floors to 0, takes one; the makespan rule (earliest after taking
    # one) passed it over and left the incumbent at 0.
    inst = Instance(p=(3,), n=(12,), s=(2, 7, 9, 10, 12), m=(1, 1, 1, 1, 1))
    value, sched = drivers._incumbent(inst, ">=")
    assert value == Fraction(3, 4)
    assert sched.entries == ((0, (1,), 1), (1, (2,), 1), (2, (3,), 1),
                             (3, (3,), 1), (4, (3,), 1))
    result = maximize_min_completion(inst)
    assert result.value == Fraction(3, 4)
    assert result.trace["probes"] == 2


def test_incumbents_lie_within_the_distance_bound():
    # Each machine takes floor(n_j * s_i / S) jobs of type j plus at most
    # one leftover, so its completion is within sum(p) / s_i of P / S
    # whichever machines the leftovers go to, and so within the
    # d * pmax / s_min that the probe-count claim rests on.
    rnd = random.Random(29)
    for _ in range(400):
        d = rnd.randint(1, 4)
        p = tuple(rnd.randint(1, 9) for _ in range(d))
        n = tuple(rnd.randint(0, 200) for _ in range(d))
        tau = rnd.randint(1, 4)
        s = tuple(rnd.randint(1, 20) for _ in range(tau))
        m = tuple(rnd.randint(1, 50) for _ in range(tau))
        inst = Instance(p, n, s, m)
        area = Fraction(inst.total_load, dot(s, m))
        for rel in ("<=", ">="):
            value, _ = drivers._incumbent(inst, rel)
            assert abs(value - area) <= Fraction(sum(p), min(s)), (inst, rel)


@pytest.mark.parametrize("inst", [
    Instance(p=(2, 3), n=(48, 32), s=(5, 7), m=(16, 16)),
    Instance(p=(2, 3), n=(96, 64), s=(5, 7), m=(32, 32)),
    Instance(p=(1,), n=(256,), s=(1,), m=(256,)),
], ids=["p23-k16", "p23-k32", "unit-k256"])
def test_min_completion_past_oracle_caps(inst):
    # every machine can be filled to exactly its speed, so the optimum is 1
    auto = maximize_min_completion(inst)
    assert auto.value == 1
    assert verify_schedule(inst, auto.schedule,
                           FeasibilityQuery(">=", auto.value)).ok
    direct = maximize_min_completion(inst, method="confilp")
    assert direct.value == auto.value
    assert verify_schedule(inst, direct.schedule,
                           FeasibilityQuery(">=", direct.value)).ok



@pytest.mark.parametrize("inst,optimum", [
    (Instance(p=(1,), n=(3,), s=(1,), m=(10**12,)), Fraction(1)),
    # pmax / smax = 3/7 bounds every schedule and is reached
    (Instance(p=(2, 3), n=(5, 4), s=(5, 7), m=(10**9, 10**9)), Fraction(3, 7)),
], ids=["unit-m1e12", "p23-m1e9"])
def test_makespan_with_huge_machine_counts(inst, optimum):
    # schedules stay (configuration, count) runs: no step lists machines
    result = minimize_makespan(inst)
    assert result.value == optimum
    assert len(result.schedule.entries) <= 2 * inst.tau
    assert verify_schedule(inst, result.schedule,
                           FeasibilityQuery("<=", optimum)).ok


@pytest.mark.parametrize("solver,rel", [(minimize_makespan, "<="),
                                        (maximize_min_completion, ">=")])
def test_unit_billion_meets_the_area_bound_without_probes(monkeypatch, solver,
                                                         rel):
    # the proportional incumbent gives every machine one job, which is
    # the area bound P/S, so the bracket is empty; the incumbent's own
    # check is the only verification, and the trace names the incumbent
    inst = Instance(p=(1,), n=(10**9,), s=(1,), m=(10**9,))
    checked = []
    plain_verify = drivers.verify_schedule

    def spy(*args, **kwargs):
        checked.append(args[2].threshold)
        return plain_verify(*args, **kwargs)

    monkeypatch.setattr(drivers, "verify_schedule", spy)
    result = solver(inst)
    assert result.value == 1
    assert checked == [1]
    assert result.trace == {"probes": 0, "path": "incumbent"}
    assert verify_schedule(inst, result.schedule, FeasibilityQuery(rel, 1)).ok


def test_perturbed_p23_probes_stay_flat():
    # one extra size-2 job lifts the optimum above the area bound, so the
    # grid search runs; its bracket does not widen with k
    probes = set()
    for k in (8, 16, 32, 64):
        inst = Instance(p=(2, 3), n=(3 * k + 1, 2 * k), s=(5, 7), m=(k, k))
        result = minimize_makespan(inst)
        assert result.value == Fraction(8, 7)
        probes.add(result.trace["probes"])
    assert len(probes) == 1 and probes.pop() > 0


def test_trace_keeps_only_the_last_probes_keys(monkeypatch):
    # an early probe takes the balanced path, the last one the direct path
    inst = Instance(p=(4, 5), n=(32, 30), s=(2, 4, 7), m=(2, 1, 2))
    paths = []
    plain_balanced = drivers.balanced_feasibility

    def spy(*args, **kwargs):
        paths.append("balanced")
        return plain_balanced(*args, **kwargs)

    monkeypatch.setattr(drivers, "balanced_feasibility", spy)
    result = minimize_makespan(inst)
    assert paths
    assert result.trace["path"] == "direct-confilp"
    assert set(result.trace) == {"probes", "path"}


def test_feasibility_fig1_thresholds():
    assert feasibility(FIG1, "<=", Fraction(1, 4)) is not None
    assert feasibility(FIG1, "<=", Fraction(1, 5)) is not None
    assert feasibility(FIG1, "<=", Fraction(1, 6)) is None


def test_feasibility_capacity_bound():
    inst = Instance(p=(5,), n=(4,), s=(2, 3), m=(1, 1))
    T = Fraction(19, 10)  # total capacity 9.5 < load 20
    assert T * sum(inst.s) < inst.total_load
    assert feasibility(inst, "<=", T) is None


def test_feasibility_requires_machines():
    none = Instance(p=(1,), n=(0,), s=(2,), m=(0,))
    assert feasibility(none, "<=", Fraction(1)) is not None
    some = Instance(p=(1,), n=(3,), s=(2,), m=(0,))
    assert feasibility(some, "<=", Fraction(1)) is None


def test_feasibility_answers_restricted_questions():
    stream = [generate(GenParams(seed=2200 + seed, restricted=True,
                                 job_total_range=(0, 8),
                                 machine_count_range=(1, 3),
                                 speed_range=(1, 9))) for seed in range(30)]
    # a demanded job type that no machine may run
    stream.append(Instance(p=(1, 1), n=(1, 1), s=(2,), m=(1,),
                           restrict=((True,), (False,))))
    answers = []
    for inst in stream:
        for rel in ("<=", ">="):
            for T in (Fraction(1, 3), Fraction(1), Fraction(5, 3), Fraction(4)):
                sched = feasibility(inst, rel, T)
                want = brute_force_feasibility(inst, rel, T)
                assert (sched is not None) == want, (inst, rel, T)
                if sched is not None:
                    q = FeasibilityQuery(rel, T)
                    assert verify_schedule(inst, sched, q).ok, (inst, rel, T)
                answers.append((rel, want))
    assert set(answers) == {(rel, want) for rel in ("<=", ">=")
                            for want in (True, False)}
    # the drivers know two methods, auto and confilp
    with pytest.raises(ValueError):
        feasibility(inst, "<=", Fraction(1), method="balanced")


@pytest.mark.parametrize("solve", [minimize_makespan, maximize_min_completion])
def test_unknown_method_is_rejected_without_a_probe(solve):
    # the incumbent meets the area bound, so no probe would check the method
    inst = Instance(p=(1,), n=(4,), s=(1,), m=(2,))
    assert solve(inst).trace == {"probes": 0, "path": "incumbent"}
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        solve(inst, method="bogus")


def test_idle_capped_feasibility_matches_oracle():
    checked = 0
    for seed in range(30):
        inst = generate(GenParams(seed=1300 + seed, job_total_range=(0, 8),
                                  machine_count_range=(1, 3),
                                  speed_range=(1, 8)))
        if inst.machine_count == 0:
            continue
        cap = seed % 4
        windows = [(max(0, s - cap), s) for s in inst.s]
        for job_relation in ("=", "<="):
            model = build_model(inst, windows, demand_relation=job_relation)
            sched = solve_model(model, None)
            want = brute_force_feasibility(inst, "<=", Fraction(1),
                                           idle_cap=cap,
                                           job_relation=job_relation)
            assert (sched is not None) == want, (inst, cap, job_relation)
            if sched is not None:
                # every load in its window, usage by the relation, and
                # every machine scheduled
                for t, counts, count in sched.entries:
                    lo, hi = windows[t]
                    assert lo <= dot(inst.p, counts) <= hi, (inst, cap)
                usage = aggregate_jobs(sched)
                assert all(u <= v for u, v in zip(usage, inst.n)), (inst, cap)
                assert job_relation == "<=" or usage == inst.n, (inst, cap)
                assert all(sched.machines_of_type(t) == m
                           for t, m in enumerate(inst.m)), (inst, cap)
            checked += 1
    assert checked >= 40


def _grid_tight_cases(seeds, objective):
    """(instance, optimum, feasible-at-T) for plain and restricted solves."""
    unrestricted = {"cmax": minimize_makespan,
                    "cmin": maximize_min_completion}[objective]
    rel = "<=" if objective == "cmax" else ">="
    for seed in seeds:
        for restricted in (False, True):
            inst = generate(GenParams(seed=seed, job_total_range=(1, 9),
                                      machine_count_range=(1, 3),
                                      speed_range=(1, 9),
                                      restricted=restricted))
            if inst.machine_count == 0 or not assignable(inst):
                continue
            if restricted:
                value = solve_restricted(inst, objective).value
                yield inst, value, (lambda T, inst=inst:
                                    brute_force_feasibility(inst, rel, T))
            else:
                value = unrestricted(inst).value
                yield inst, value, (lambda T, inst=inst:
                                    feasibility(inst, rel, T) is not None)


def test_min_completion_grid_tight():
    kinds = set()
    for inst, value, feasible in _grid_tight_cases((2, 9, 23), "cmin"):
        # next grid value in every type's grid is infeasible
        above = min(Fraction((value * s).__floor__() + 1, s)
                    for s, m in zip(inst.s, inst.m) if m)
        assert not feasible(above), inst
        kinds.add(inst.restrict is None)
    assert kinds == {True, False}


def test_balanced_needs_a_fast_machine():
    # cutoff 12: no machine is fast, so there is nothing to guess
    inst = Instance(p=(2,), n=(3,), s=(4, 2), m=(1, 1))
    with pytest.raises(MalformedInputError):
        balanced_feasibility(inst, "<=")


def test_only_a_probe_that_guesses_lifts(monkeypatch):
    # Compression splits every machine into speed-1 pieces plus speed-3
    # residuals, none above the cutoff 10, so auto asks one direct model
    # on the normalized instance, as confilp does, and nothing is lifted.
    inst = Instance(p=(1, 1), n=(15, 15), s=(4, 6, 7), m=(3, 1, 1))
    lifted = []
    plain_lift = drivers.lift_schedule
    monkeypatch.setattr(drivers, "lift_schedule",
                        lambda *args: lifted.append(args) or plain_lift(*args))
    auto = minimize_makespan(inst)
    direct = minimize_makespan(inst, method="confilp")
    assert auto.value == direct.value == Fraction(5, 4)
    assert auto.schedule == direct.schedule
    assert auto.trace["path"] == direct.trace["path"] == "direct-confilp"
    assert lifted == []


def test_balanced_two_fast_machines():
    # cutoff is 5; two speed-6 machines are "fast"
    inst = Instance(p=(1,), n=(10,), s=(6,), m=(2,))
    sched, info = balanced_feasibility(inst, "<=")
    assert info == {"path": "balanced", "guesses": 1}
    report = verify_schedule(inst, sched, FeasibilityQuery("<=", Fraction(1)))
    assert report.ok
    over = Instance(p=(1,), n=(14,), s=(6,), m=(2,))
    sched, info = balanced_feasibility(over, "<=")
    assert sched is None
    assert info == {"path": "direct-confilp", "guesses": 4}


@pytest.mark.parametrize("n, s, remainder", [
    ((20, 11), (36, 45, 69, 72), ((17, 11), (66, 66, 36, 45))),
    ((28, 9), (8, 43, 73, 74), ((23, 9), (67, 65, 8, 43))),
])
def test_balanced_case_one(monkeypatch, n, s, remainder):
    # Cutoff 64: two fast and two slow machines.  The first guess
    # preassigns its reduced floors, and its residual lists the fast
    # types first at the speed their rows leave and asks the rest of n
    # exactly.
    inst = Instance(p=(3, 4), n=n, s=s, m=(1, 1, 1, 1))
    assert large_machine_cutoff(inst.d, inst.pmax) == 64
    asked = []
    solve_at_one = drivers._solve_at_one

    def spy(sub, rel, state_limit):
        asked.append((sub.n, sub.s, rel))
        return solve_at_one(sub, rel, state_limit)

    monkeypatch.setattr(drivers, "_solve_at_one", spy)
    sched, info = balanced_feasibility(inst, "<=")
    assert asked == [(*remainder, "<=")]
    _certified_first_guess(inst, sched, info)


def _certified_first_guess(inst, sched, info):
    assert info == {"path": "balanced", "guesses": 1}
    report = verify_schedule(inst, sched, FeasibilityQuery("<=", Fraction(1)))
    assert report.ok, report.violations
    assert aggregate_jobs(sched) == inst.n
    assert feasibility(inst, "<=", Fraction(1), method="confilp") is not None


def test_balanced_case_one_refutes_a_slow_residual_that_fits():
    # Cutoff 24: one speed-34 machine is fast, and the slow machines sum
    # to speed 52 but hold at most 3 + 11 + 11 jobs of size 2, so the
    # fast machine must take most of n; the first guess does.
    inst = Instance(p=(2, 2), n=(24, 8), s=(6, 23, 34), m=(1, 2, 1))
    sched, info = balanced_feasibility(inst, "<=")
    _certified_first_guess(inst, sched, info)


def test_balanced_case_one_trim_splits_a_run():
    # Cutoff 10: three speed-14 and two speed-24 machines are fast.  The
    # first guess's floored rows place at most n, so its residual demand
    # is the rest of n exactly.
    inst = Instance(p=(1, 1), n=(18, 46), s=(2, 14, 24), m=(1, 3, 2))
    sched, info = balanced_feasibility(inst, "<=")
    _certified_first_guess(inst, sched, info)


def test_balanced_guess_count_on_several_fast_machines():
    # Three speed-73 machines (cutoff 64).  The load 218 fits in 219, but
    # no schedule exists at threshold 1, so the guess loop runs to its
    # end and the direct model refutes the question.  With more than one
    # machine on a fast type the g2 caps depend on the machine counts in
    # area_2; 23 guesses pass them (24 if area_2 ignored the counts).
    inst = Instance(p=(3, 4), n=(2, 53), s=(73,), m=(3,))
    assert inst.s[0] > large_machine_cutoff(inst.d, inst.pmax)
    assert inst.total_load <= inst.s[0] * inst.m[0]
    sched, info = balanced_feasibility(inst, "<=")
    assert sched is None
    assert info == {"path": "direct-confilp", "guesses": 23}
    assert feasibility(inst, "<=", Fraction(1), method="confilp") is None


def test_case_one_bound_leaves_one_guess_on_a_held_out_instance():
    # guess-80006 of the held-out guessing corpus: guesses whose spread
    # phase is empty would leave the speed-1 machine more than it can
    # hold, and the loop attempts none; its first guess succeeds.
    inst = Instance(p=(4, 5), n=(28, 24), s=(1, 6), m=(1, 1))
    result = minimize_makespan(inst)
    assert result.value == Fraction(199, 6)
    assert result.schedule.entries == ((0, (2, 5), 1), (1, (26, 19), 1))
    assert result.trace == {"probes": 1, "path": "balanced", "guesses": 1}


def test_case_two_skips_every_g1b_of_a_g1a_without_a_g2(monkeypatch):
    # One speed-1 type of two machines: every g1a before the first whose
    # g2 box at g1b = 0 reaches g2's lower end is skipped without
    # enumerating its g1b, and that g1a's first guess succeeds.  Without
    # the skip the loop asked 1 702 192 boxes, 1 698 094 of them empty.
    calls = []
    enumerate_uncached = drivers.enumerate_uncached

    def spy(p, cap, window):
        calls.append(window)
        return enumerate_uncached(p, cap, window)

    monkeypatch.setattr(drivers, "enumerate_uncached", spy)
    inst = Instance(p=(2, 3, 5, 7), n=(401, 300, 200, 100), s=(1,), m=(2,))
    result = minimize_makespan(inst)
    assert result.value == 1701
    assert result.trace == {"probes": 1, "path": "balanced", "guesses": 1}
    assert len(calls) == 3


@pytest.mark.parametrize("rel", ["<", "bogus", "="])
def test_balanced_rejects_other_relations(rel):
    inst = Instance(p=(1,), n=(10,), s=(6,), m=(2,))
    with pytest.raises(MalformedInputError):
        balanced_feasibility(inst, rel)


def _fast_instances(count, seed):
    """1-3 fast types of 1-4 machines, sometimes slow types, loads near
    the total speed."""
    rnd = random.Random(seed)
    for _ in range(count):
        d = rnd.randint(1, 2)
        p = tuple(rnd.randint(1, 3) for _ in range(d))
        cutoff = large_machine_cutoff(d, max(p))
        fast = rnd.sample(range(cutoff + 1, cutoff + 25), rnd.randint(1, 3))
        slow = rnd.sample(range(1, cutoff + 1), rnd.choice((0, 0, 1, 2)))
        s = tuple(sorted(fast + slow))
        m = tuple(rnd.randint(1, 4) if x > cutoff else rnd.randint(1, 2)
                  for x in s)
        load = rnd.uniform(0.6, 1.05) * dot(s, m)
        w = [rnd.random() for _ in p]
        n = tuple(int(load * wj / sum(w) / pj) for wj, pj in zip(w, p))
        yield Instance(p, n, s, m)


def test_guess_loop_attempts_the_filtered_box_guesses(monkeypatch):
    # The caps visit the guesses the filtered box attempted, in its order,
    # and ``guesses`` counts them: each attempt builds its configurations
    # once.
    attempted = []

    def spy(speeds, cutoff, g1a, g1b, g2):
        attempted.append((g1a, g1b, g2))
        return guess_configs(speeds, cutoff, g1a, g1b, g2)

    monkeypatch.setattr(drivers, "guess_configs", spy)
    outcomes = set()
    for inst in _fast_instances(60, 2424):
        want = list(reference_guesses(inst))
        for rel in ("<=", ">="):
            attempted.clear()
            _, info = balanced_feasibility(inst, rel)
            found = info["path"] == "balanced"
            assert attempted == (want[:len(attempted)] if found else want), (
                inst, rel)
            assert info["guesses"] == len(attempted), (inst, rel)
            outcomes.add((rel, found))
    assert len(outcomes) == 4


def test_every_refutation_comes_from_the_direct_model():
    # The guess loop only finds schedules: a question that no guess
    # answers goes to the direct model of the same instance, so every
    # verdict is the exact model's.  ``>=`` asks the converted question.
    paths = set()
    for inst in _fast_instances(120, 777):
        for rel in ("<=", ">="):
            question = inst if rel == "<=" else Instance(
                inst.p, inst.n, idle_cmax_speeds(inst.s, inst.pmax), inst.m)
            sched, info = balanced_feasibility(question, rel)
            direct = feasibility(inst, rel, Fraction(1), method="confilp")
            assert (sched is None) == (direct is None), (inst, rel)
            if sched is None:
                assert info["path"] == "direct-confilp", (inst, rel)
            paths.add((rel, info["path"], sched is None))
    assert paths >= {("<=", "balanced", False), ("<=", "direct-confilp", True),
                     ("<=", "direct-confilp", False), (">=", "balanced", False),
                     (">=", "direct-confilp", True)}


def test_direct_model_answers_a_question_without_a_guess():
    # Cutoff 21: both types are fast, but g2 must load at least 19 and no
    # saturated g1a leaves it more than 15, so the loop attempts no guess
    # and the direct model finds the schedule.
    inst = Instance(p=(3,), n=(54,), s=(41, 42), m=(4, 2))
    sched, info = balanced_feasibility(inst, "<=")
    assert info == {"path": "direct-confilp", "guesses": 0}
    report = verify_schedule(inst, sched, FeasibilityQuery("<=", Fraction(1)))
    assert report.ok, report.violations
    assert aggregate_jobs(sched) == inst.n


def test_capacity_bound_solves_fast_machines_within_3000_states():
    # The fast-machine family p=(2,5), n=(30k+1, 20k), s=(2,3,6) at k=4,
    # solved directly.  Its probes' dynamic programs need between 3 000
    # and 10 000 states without the capacity bound, at most 1 500 with it.
    inst = Instance(p=(2, 5), n=(121, 80), s=(2, 3, 6), m=(1, 1, 1))
    result = minimize_makespan(inst, method="confilp", state_limit=3000)
    assert result.value == Fraction(117, 2)
    assert verify_schedule(inst, result.schedule,
                           FeasibilityQuery("<=", result.value)).ok


def test_direct_fast_machines_solve_uncompressed_within_1200_states():
    # The same instance asks its uncompressed direct models 1 103 states
    # at most; compressed, one of them needed 1 476.
    inst = Instance(p=(2, 5), n=(121, 80), s=(2, 3, 6), m=(1, 1, 1))
    result = minimize_makespan(inst, method="confilp", state_limit=1200)
    assert result.value == Fraction(117, 2)


@pytest.mark.parametrize("method", ["auto", "confilp"])
@pytest.mark.parametrize("inst, threshold", [
    (Instance(p=(1,), n=(10**9,), s=(10**6, 1), m=(1, 1)),
     Fraction(999999001, 10**6)),
    (Instance(p=(2, 3), n=(10**6, 10**6), s=(1000, 7), m=(1, 1)),
     Fraction(4994)),
])
def test_direct_probe_cost_does_not_grow_with_speed(method, inst, threshold):
    # Neither instance guesses, so the fast machine's normalized speed
    # (about 10^9 and 5*10^6) reaches build_model uncompressed; its window
    # must be cut into lcm blocks in closed form, leaving the state budget
    # to bound the probe.
    start = time.monotonic()
    for rel in ("<=", ">="):
        try:
            sched = feasibility(inst, rel, threshold, method=method,
                                state_limit=2000)
        except ResourceLimitError:
            continue
        if sched is not None:
            assert verify_schedule(inst, sched,
                                   FeasibilityQuery(rel, threshold)).ok
    assert time.monotonic() - start < 5


def test_balanced_matches_direct_on_fast_instances():
    checked = 0
    for seed in range(25):
        inst = generate(GenParams(seed=400 + seed, large_machines=True,
                                  d_range=(1, 2), pmax_range=(1, 3),
                                  job_total_range=(0, 25),
                                  machine_count_range=(1, 3),
                                  speed_range=(1, 20)))
        if inst.machine_count == 0:
            continue
        cutoff = large_machine_cutoff(inst.d, inst.pmax)
        assert min(inst.s) >= cutoff
        for num, den in ((1, 1), (3, 4), (5, 4)):
            T = Fraction(num, den)
            direct = feasibility(inst, "<=", T, method="confilp")
            auto = feasibility(inst, "<=", T)
            assert (direct is None) == (auto is None), (inst, T)
            checked += 1
    assert checked >= 30


def test_guessing_path_optima_match_direct():
    # shapes whose size lcm clears the fast-machine cutoff after
    # compression, so the guessing pipeline really runs end to end
    exercised = 0
    for seed in range(18):
        rnd = random.Random(4400 + seed)
        p = rnd.choice([(2, 5), (3, 4), (3, 5), (2, 7)])
        n = tuple(rnd.randint(6, 15) for _ in p)
        speeds = tuple(sorted({rnd.randint(4, 40) for _ in
                               range(rnd.randint(1, 2))}))
        inst = Instance(p, n, speeds, tuple(1 for _ in speeds))
        for solver in (minimize_makespan, maximize_min_completion):
            direct = solver(inst, method="confilp")
            auto = solver(inst)
            assert direct.value == auto.value, (inst, solver.__name__)
            tr = {}
            feasibility(inst, "<=" if solver is minimize_makespan else ">=",
                        direct.value, trace=tr)
            if tr.get("path") == "balanced" and tr.get("guesses", 0) > 0:
                exercised += 1
    assert exercised >= 5


def test_balanced_path_matches_its_golden_record():
    # auto solves of the benchmark's 12 default guessing instances:
    # values, guess counts, paths and schedules must stay exactly as
    # recorded
    records = json.loads((DATA / "balanced_golden.json").read_text())
    assert len(records) == 24
    solver = {"cmax": minimize_makespan, "cmin": maximize_min_completion}
    for rec in records:
        inst = cli.instance_from_doc(rec["instance"])
        result = solver[rec["objective"]](inst)
        got = {
            "value": format_rational(result.value),
            "trace": {k: result.trace.get(k)
                      for k in ("guesses", "path", "probes")},
            "schedule": cli.schedule_to_doc(result.schedule),
        }
        assert got == {k: rec[k] for k in got}, (rec["objective"], inst)


def test_guessing_corpus_models_hold_380_columns(monkeypatch):
    # Each type's window is narrowed by what the other machines must
    # carry before any column is listed; without that the same models
    # held 5 441 columns.
    columns = []
    build_model = drivers.build_model

    def spy(inst, windows, **kwargs):
        model = build_model(inst, windows, **kwargs)
        columns.append(sum(len(g.configs) for g in model.groups))
        return model

    monkeypatch.setattr(drivers, "build_model", spy)
    solver = {"cmax": minimize_makespan, "cmin": maximize_min_completion}
    for kind, inst, want in guessing_corpus():
        assert solver[kind](inst).value == want, (kind, inst)
    assert (len(columns), sum(columns)) == (19, 380)


@pytest.mark.parametrize("method", ["auto", "confilp"])
def test_methods_reach_guessing_corpus_optima(method):
    solves = guessing_corpus()
    solver = {"cmax": minimize_makespan, "cmin": maximize_min_completion}
    assert len(solves) == 24
    for kind, inst, want in solves:
        assert solver[kind](inst, method=method).value == want, (kind, inst)


def test_makespan_optimum_is_grid_tight():
    kinds = set()
    for inst, value, feasible in _grid_tight_cases((3, 11, 19), "cmax"):
        # previous grid value in any type's grid is infeasible
        below = max((Fraction((value * s).__ceil__() - 1, s)
                     for s, m in zip(inst.s, inst.m) if m), default=None)
        if below is not None and below >= 0:
            assert not feasible(below), inst
            kinds.add(inst.restrict is None)
    assert kinds == {True, False}


def test_restricted_diagonal():
    inst = Instance(p=(1, 1), n=(2, 2), s=(2, 2), m=(1, 1),
                    restrict=((True, False), (False, True)))
    result = solve_restricted(inst, "cmax")
    assert result.value == 1
    assert solve_restricted(inst, "cmin").value == 1


def test_restricted_all_true_equals_unrestricted():
    # An all-true matrix skips compression, so this compares the
    # uncompressed and the compressed pipeline, also past the oracle's
    # six-machine cap: the p23 family at k=8 and the unit family at k=64.
    for base in (Instance(p=(2, 3), n=(3, 2), s=(3, 4), m=(1, 1)),
                 Instance(p=(2, 3), n=(24, 16), s=(5, 7), m=(8, 8)),
                 Instance(p=(1,), n=(64,), s=(1,), m=(64,))):
        allowed = Instance(base.p, base.n, base.s, base.m,
                           restrict=((True,) * base.tau,) * base.d)
        assert solve_restricted(allowed, "cmax").value == \
            minimize_makespan(base).value, base
        assert solve_restricted(allowed, "cmin").value == \
            maximize_min_completion(base).value, base


def test_restricted_completion_respects_restrictions():
    # type 1's jobs may only run on machine type 1, so its leftover jobs
    # must not be completed onto the first entry (machine type 0)
    inst = Instance(p=(1, 1, 1), n=(4, 3, 2), s=(1, 7), m=(1, 1),
                    restrict=((True, False), (False, True), (True, True)))
    result = solve_restricted(inst, "cmin")
    assert result.value == Fraction(5, 7) == brute_force(inst, "cmin")[0]
    assert verify_schedule(inst, result.schedule,
                           FeasibilityQuery(">=", result.value)).ok


def test_restricted_impossible_job():
    inst = Instance(p=(1, 1), n=(1, 1), s=(2,), m=(1,),
                    restrict=((True,), (False,)))
    with pytest.raises(InfeasibleRestrictionError):
        solve_restricted(inst, "cmax")


def test_envy_symmetric_split():
    inst = Instance(p=(2,), n=(2,), s=(1,), m=(2,))
    result = minimize_envy(inst)
    assert result.value == 0


def test_envy_fig1():
    result = minimize_envy(FIG1)
    assert result.value == Fraction(3, 65)
    comps = schedule_completions(FIG1, result.schedule)
    assert max(comps) - min(comps) == Fraction(3, 65)


def test_envy_ignores_empty_machine_types():
    # a zero-count type must not constrain the candidate windows
    inst = Instance(p=(1, 3, 3), n=(2, 0, 3), s=(8, 7), m=(1, 0))
    result = minimize_envy(inst)
    assert result.value == 0  # single machine, envy is always zero


def test_envy_no_jobs():
    inst = Instance(p=(4,), n=(0,), s=(2, 7), m=(1, 1))
    assert minimize_envy(inst).value == 0


@pytest.mark.parametrize("inst, beaten", [
    (FIG1, False),  # the incumbent's envy 3/65 is optimal
    # the incumbent's envy is 3/2, a probe finds envy 0
    (Instance(p=(2, 3), n=(3, 2), s=(1, 2), m=(1, 1)), True),
])
def test_envy_verifies_the_returned_schedule_once(monkeypatch, inst, beaten):
    checked = []
    plain_verify = drivers.verify_schedule

    def spy(*args, **kwargs):
        checked.append(args[1])
        return plain_verify(*args, **kwargs)

    monkeypatch.setattr(drivers, "verify_schedule", spy)
    result = minimize_envy(inst)
    assert result.trace["probes"] > 0
    # _incumbent certifies the incumbent; a probe's schedule is certified
    # once the search returns it
    assert len(checked) == 1 + beaten
    assert checked[-1] == result.schedule
    assert verify_schedule(inst, result.schedule, FeasibilityQuery(
        "<=", max(schedule_completions(inst, result.schedule)))).ok


def _column_less_models_end_there(models) -> int:
    """Check that every model with a group without a column ends at that
    group and solves to None; return how many such models there are."""
    ended = 0
    for model in models:
        empty = [i for i, g in enumerate(model.groups) if not g.configs]
        if empty:
            assert empty == [len(model.groups) - 1]
            assert solve_model(model) is None
            ended += 1
    return ended


def test_envy_memo_builds_each_window_tuple_once(monkeypatch):
    built = []
    models = []
    build_model = drivers.build_model

    def spy(inst, windows, **kwargs):
        built.append(tuple(windows))
        models.append(build_model(inst, windows, **kwargs))
        return models[-1]

    monkeypatch.setattr(drivers, "build_model", spy)
    # FIG1's incumbent already has the optimal envy, so it probes no model
    result = minimize_envy(Instance(p=(1,), n=(3,), s=(5, 6, 13), m=(1, 1, 1)))
    assert result.value == Fraction(8, 65)
    assert result.trace["solves"] == len(built) == len(set(built))
    _column_less_models_end_there(models)

    # Every load here is a multiple of 4: the scan rounds its windows to
    # multiples of 4 and builds fewer models than the same scan without
    # the rounding, with the same value and schedule.
    inst = Instance(p=(4,), n=(29,), s=(1, 3, 11), m=(2, 1, 1))
    plain_refutes = drivers.capacity_refutes
    monkeypatch.setattr(drivers, "capacity_refutes", lambda total, windows:
                        plain_refutes(total, [(m, 1, cap, lo, hi) for
                                              m, _, cap, lo, hi in windows]))
    built.clear()
    unrounded = minimize_envy(inst)
    unrounded_built = len(built)
    monkeypatch.setattr(drivers, "capacity_refutes", plain_refutes)
    built.clear()
    models.clear()
    result = minimize_envy(inst)
    assert result.value == unrounded.value == brute_force(inst, "cenvy")[0]
    assert result.schedule == unrounded.schedule
    assert result.trace["solves"] == len(built) == len(set(built))
    assert len(built) < unrounded_built

    # this gcd-1 instance meets a window that holds no load, skipped
    # before a model is built, core windows without a configuration,
    # whose models end at that group, and repeated window tuples
    built.clear()
    models.clear()
    inst = Instance(p=(3, 4), n=(4, 2), s=(1, 6, 7), m=(2, 1, 1))
    result = minimize_envy(inst)
    assert result.value == brute_force(inst, "cenvy")[0]
    assert result.trace["solves"] == len(built) == len(set(built))
    assert result.trace["cache_hits"] > 0
    assert result.trace["empty_windows"] > 0
    assert _column_less_models_end_there(models) > 0


def _spy_questions(monkeypatch):
    """Lists that collect every feasibility call's normalized speeds and
    every model's window tuple."""
    asked, built = [], []
    plain_feasibility, plain_build = drivers.feasibility, drivers.build_model

    def spy_feasibility(inst, rel, T, **kwargs):
        asked.append(normalized_speeds(inst, rel, T))
        return plain_feasibility(inst, rel, T, **kwargs)

    def spy_build(inst, windows, **kwargs):
        built.append(tuple(windows))
        return plain_build(inst, windows, **kwargs)

    monkeypatch.setattr(drivers, "feasibility", spy_feasibility)
    monkeypatch.setattr(drivers, "build_model", spy_build)
    return asked, built


def _solve_asking_each_question_once(asked, built, inst, objective):
    # each probe's answer narrows the one bracket past every value it
    # settles, so no two probes of a solve ask the same normalized
    # speeds (see candidate_values), and no restricted solve, which
    # builds one model per probe, builds a window tuple twice
    asked.clear()
    built.clear()
    if inst.restrict is None:
        solver = {"cmax": minimize_makespan, "cmin": maximize_min_completion}
        result = solver[objective](inst)
    else:
        result = solve_restricted(inst, objective)
    assert result.trace["probes"] == len(asked), (inst, objective)
    assert len(set(asked)) == len(asked), (inst, objective)
    if inst.restrict is not None:
        assert len(set(built)) == len(built), (inst, objective)
    return result


def test_probe_memo_reuses_repeated_normalized_questions(monkeypatch):
    # a solve that repeated normalized questions, answered by a probe
    # memo, while every grid entry restarted its search from the area
    # bound; the one bracket asks each question once
    inst = Instance(p=(2, 4), n=(28, 40), s=(2, 4, 6), m=(5, 1, 2))
    plain_feasibility = drivers.feasibility
    asked, built = _spy_questions(monkeypatch)
    result = _solve_asking_each_question_once(asked, built, inst, "cmax")
    # the search that restarts every entry, with every probe asked afresh
    plain = {"probes": 0}
    value, _ = reference_search_grid(
        candidate_values(inst, "cmax"),
        lambda entry, T: plain_feasibility(inst, "<=", T),
        True, plain, drivers._incumbent(inst, "<="))
    assert result.value == value
    assert result.trace["probes"] < plain["probes"]


# Restricted solves that repeated window tuples while every grid entry
# restarted its search from the area bound.
RESTRICTED_REPEATS = [
    Instance(p=(2, 3), n=(0, 9), s=(2, 6, 8, 9), m=(1, 1, 1, 1),
             restrict=((False, True, False, False), (True, False, True, False))),
    Instance(p=(1,), n=(6,), s=(2, 3, 4), m=(1, 2, 1),
             restrict=((True, True, True),)),
    # machine type 0 may run only the smaller size
    Instance(p=(1, 3), n=(1, 3), s=(1, 4), m=(1, 2),
             restrict=((True, True), (False, True))),
]


@pytest.mark.parametrize("inst, objective", [
    (RESTRICTED_REPEATS[0], "cmax"),
    (RESTRICTED_REPEATS[0], "cmin"),
    (RESTRICTED_REPEATS[1], "cmin"),
    (RESTRICTED_REPEATS[2], "cmin"),
])
def test_restricted_memo_builds_each_window_tuple_once(monkeypatch, inst,
                                                       objective):
    asked, built = _spy_questions(monkeypatch)
    refuted = []
    plain_refutes = drivers.capacity_refutes

    def spy(total, windows):
        refuted.append(plain_refutes(total, windows))
        return refuted[-1]

    monkeypatch.setattr(drivers, "capacity_refutes", spy)
    result = _solve_asking_each_question_once(asked, built, inst, objective)
    # every probe builds one model, unless the capacity check refutes it
    assert result.trace["probes"] == len(built) + sum(refuted)
    assert result.value == brute_force(inst, objective)[0]


def _restricted_stream(count: int, base_seed: int):
    out, seed = [], base_seed
    while len(out) < count:
        inst = generate(GenParams(seed=seed, restricted=True,
                                  job_total_range=(0, 10),
                                  machine_count_range=(1, 4),
                                  speed_range=(1, 9)))
        seed += 1
        if inst.machine_count > 0 and assignable(inst):
            out.append(inst)
    return out


def test_searches_never_repeat_a_question(monkeypatch):
    asked, built = _spy_questions(monkeypatch)
    # RESTRICTED_NO_REPEAT made 10 probes, 5 of them repeats, while every
    # grid entry restarted its search from the area bound
    cases = [(RESTRICTED_NO_REPEAT, "cmax")] + [
        (inst, objective)
        for inst in (instance_stream(30, base_seed=6_000)
                     + _restricted_stream(30, base_seed=7_000))
        if inst.machine_count > 0 for objective in ("cmax", "cmin")]
    for inst, objective in cases:
        result = _solve_asking_each_question_once(asked, built, inst,
                                                  objective)
        assert result.value == brute_force(inst, objective)[0], (inst,
                                                                 objective)


def test_capacity_check_refutes_only_infeasible_models():
    # At every grid threshold of the oracle and restricted streams where
    # the capacity check refutes the normalized question, the model that
    # feasibility would otherwise ask has no schedule either.
    refuted = asked = 0
    for inst in (instance_stream(35, base_seed=8_000)
                 + _restricted_stream(35, base_seed=9_000)):
        if inst.machine_count == 0:
            continue
        loads = drivers.type_loads(inst)
        seen = set()
        for rel in ("<=", ">="):
            for t, den, top in candidate_values(inst, "cmax").entries:
                for k in range(top + 1):
                    speeds = normalized_speeds(inst, rel, Fraction(k, den))
                    if (rel, speeds) in seen:
                        continue
                    seen.add((rel, speeds))
                    asked += 1
                    windows = [(m, g, cap, 0, s) if rel == "<=" else
                               (m, g, cap, s, None)
                               for (m, g, cap), s in zip(loads, speeds) if m]
                    if not drivers.capacity_refutes(inst.total_load, windows):
                        continue
                    refuted += 1
                    if rel == ">=":
                        speeds = idle_cmax_speeds(speeds, inst.pmax)
                    question = Instance(inst.p, inst.n, speeds, inst.m,
                                        inst.restrict)
                    assert drivers._solve_at_one(question, rel, None) is None, (
                        inst, rel, k, den)
    assert refuted > asked // 4, (refuted, asked)


# Envy instances with 8 to 40 machines, past the oracle's six-machine cap.
ENVY_PAST_CAPS = [
    Instance(p=(2, 3), n=(40, 30), s=(3, 4, 5), m=(8, 6, 4)),
    Instance(p=(3, 5), n=(30, 20), s=(2, 3), m=(12, 8)),
    Instance(p=(1, 4), n=(33, 16), s=(2, 3, 5), m=(10, 12, 6)),
    Instance(p=(2, 3, 7), n=(20, 15, 6), s=(4, 7), m=(9, 5)),
    Instance(p=(3,), n=(85,), s=(2, 5), m=(20, 20)),
    Instance(p=(5, 7), n=(6, 5), s=(2, 3, 4), m=(3, 3, 2)),
]
ENVY_IDS = [f"m{inst.machine_count}-d{inst.d}" for inst in ENVY_PAST_CAPS]
# The metamorphic relations below check every ENVY_PAST_CAPS instance for
# cenvy, and for cmax and cmin under both methods.
PAST_CAPS = [pytest.param(inst, "cenvy", "auto", id=name)
             for inst, name in zip(ENVY_PAST_CAPS, ENVY_IDS)] + [
    pytest.param(inst, objective, method, id=f"{objective}-{method}-{name}")
    for objective in ("cmax", "cmin") for method in ("auto", "confilp")
    for inst, name in zip(ENVY_PAST_CAPS, ENVY_IDS)]


def _optimum(inst: Instance, objective: str, method: str) -> Fraction:
    """The optimum, checked to be the returned schedule's own value."""
    if objective == "cenvy":
        result = minimize_envy(inst)
    else:
        solver = (minimize_makespan if objective == "cmax"
                  else maximize_min_completion)
        result = solver(inst, method=method)
    assert objective_value(inst, result.schedule, objective) == result.value
    return result.value


@pytest.mark.parametrize("method", ["auto", "confilp"])
def test_per_job_check_refutes_before_the_dynamic_program(method):
    # The one probe, T = 1, lets each of the 4000 speed-5 machines hold at
    # most one job of size 3, short of the 5000 needed: the model's
    # per-job check refutes it at once, where the dynamic program would
    # exhaust a 20000-state budget.
    inst = Instance(p=(2, 3), n=(2000, 5000), s=(5,), m=(4000,))
    result = minimize_makespan(inst, method=method, state_limit=20_000)
    assert result.value == Fraction(6, 5)
    assert result.trace["probes"] == 1


@pytest.mark.parametrize("inst, objective, method", PAST_CAPS)
def test_envy_speed_scaling(inst, objective, method):
    base = _optimum(inst, objective, method)
    scaled = Instance(inst.p, inst.n, tuple(3 * s for s in inst.s), inst.m)
    assert _optimum(scaled, objective, method) == base / 3


@pytest.mark.parametrize("inst, objective, method", PAST_CAPS)
def test_envy_type_permutation(inst, objective, method):
    base = _optimum(inst, objective, method)
    jobs = Instance(inst.p[1:] + inst.p[:1], inst.n[1:] + inst.n[:1],
                    inst.s, inst.m)
    machines = Instance(inst.p, inst.n, inst.s[::-1], inst.m[::-1])
    assert _optimum(jobs, objective, method) == base
    assert _optimum(machines, objective, method) == base


@pytest.mark.parametrize("inst, objective, method", PAST_CAPS)
def test_envy_machine_type_split(inst, objective, method):
    base = _optimum(inst, objective, method)
    m1 = inst.m[0] // 2
    split = Instance(inst.p, inst.n, inst.s + (inst.s[0],),
                     (inst.m[0] - m1,) + inst.m[1:] + (m1,))
    assert _optimum(split, objective, method) == base


@pytest.mark.parametrize("inst, objective, method", PAST_CAPS)
def test_job_type_split(inst, objective, method):
    # half of job type 0's jobs become a second type of the same size
    base = _optimum(inst, objective, method)
    half = inst.n[0] // 2
    split = Instance(inst.p + inst.p[:1], (inst.n[0] - half,) + inst.n[1:]
                     + (half,), inst.s, inst.m)
    assert _optimum(split, objective, method) == base


@pytest.mark.parametrize("inst, objective, method", PAST_CAPS)
def test_replication_never_worsens_the_optimum(inst, objective, method):
    # k copies of the jobs and machines can run k copies of any schedule,
    # with the same completions, so the optimum is no worse: makespan and
    # envy do not rise, minimum completion does not fall.
    base = _optimum(inst, objective, method)
    for k in (2, 3):
        copies = Instance(inst.p, tuple(k * n for n in inst.n), inst.s,
                          tuple(k * m for m in inst.m))
        value = _optimum(copies, objective, method)
        assert value >= base if objective == "cmin" else value <= base, k


def _scaled_optimum(inst: Instance, objective: str, k: int) -> Fraction:
    """The optimum with every job size times k; ``r`` objectives forbid
    job type j on machine type t when j + t is 1 modulo 3."""
    inst = Instance(tuple(k * p for p in inst.p), inst.n, inst.s, inst.m)
    if not objective.startswith("r"):
        return _optimum(inst, objective, "auto")
    inst = Instance(inst.p, inst.n, inst.s, inst.m, restrict=tuple(
        tuple((j + t) % 3 != 1 for t in range(inst.tau))
        for j in range(inst.d)))
    result = solve_restricted(inst, objective[1:])
    assert objective_value(inst, result.schedule, objective[1:]) == result.value
    return result.value


@pytest.mark.parametrize("objective", ["cmax", "cmin", "cenvy", "rcmax",
                                       "rcmin"])
@pytest.mark.parametrize("inst", ENVY_PAST_CAPS, ids=ENVY_IDS)
def test_job_size_scaling(inst, objective):
    # Every load, and so every completion and the optimum, scales with the
    # job sizes; the capacity check then sees every gcd times 3.
    assert _scaled_optimum(inst, objective, 3) == \
        3 * _scaled_optimum(inst, objective, 1)


def test_envy_matches_the_search_without_shortcuts(monkeypatch):
    # One grid per top type changes no answer, and its bracket skips only
    # work whose answer is already known: value and schedule stay those
    # of the search over type pairs that restarts every entry from the
    # bound, scans every probe and builds every window tuple, and no
    # instance takes more probes than it.
    probes, models = [], []
    search_grid, build_model = drivers._search_grid, drivers.build_model

    def logged_search(inst, grid, probe, *args):
        def logged(entry, E):
            sched = probe(entry, E)
            probes.append((entry[0], E, sched is None))
            return sched
        return search_grid(inst, grid, logged, *args)

    def spy(inst, windows, **kwargs):
        models.append(build_model(inst, windows, **kwargs))
        return models[-1]

    monkeypatch.setattr(drivers, "_search_grid", logged_search)
    monkeypatch.setattr(drivers, "build_model", spy)
    instances = [inst for inst in instance_stream(72, base_seed=4_000)
                 if inst.machine_count > 0] + ENVY_PAST_CAPS
    assert len(instances) == 78
    empty_windows = 0
    for inst in instances:
        probes.clear()
        got, want = minimize_envy(inst), reference_minimize_envy(inst)
        assert got.value == want.value, inst
        assert got.schedule.entries == want.schedule.entries, inst
        assert got.trace["probes"] == len(probes) <= want.trace["probes"], inst
        # no probe asks an E that an earlier refutation of its top type
        # already settled
        refuted = {}
        for t1, E, infeasible in probes:
            assert E > refuted.get(t1, -1), inst
            if infeasible:
                refuted[t1] = E
        empty_windows += got.trace["empty_windows"]
    assert empty_windows
    # a model whose window has a group without a column ends at that
    # group and is refuted before the dynamic program
    assert _column_less_models_end_there(models) > 0


def test_envy_settles_each_top_type_with_one_probe(monkeypatch):
    # When the incumbent's envy is optimal, each top type's first probe,
    # the grid value just below it, is refuted and empties every entry of
    # that top type, so the search costs at most one probe per top type.
    probes = []
    search_grid = drivers._search_grid

    def logged_search(inst, grid, probe, *args):
        def logged(entry, E):
            sched = probe(entry, E)
            probes.append((entry[0], sched is None))
            return sched
        return search_grid(inst, grid, logged, *args)

    monkeypatch.setattr(drivers, "_search_grid", logged_search)
    instances = [inst for inst in instance_stream(72, base_seed=4_000)
                 if inst.machine_count > 0] + ENVY_PAST_CAPS
    probed = 0
    for inst in instances:
        probes.clear()
        result = minimize_envy(inst)
        _, start = drivers._incumbent(inst, "<=")
        if objective_value(inst, start, "cenvy") != result.value:
            continue
        top_types = [t1 for t1, _ in probes]
        assert len(top_types) == len(set(top_types)), inst
        assert all(refuted for _, refuted in probes), inst
        assert result.schedule == start, inst
        assert result.trace["probes"] == len(probes), inst
        probed += bool(probes)
    # 64 of the 78 instances have an optimal incumbent, 47 of them probe
    assert probed >= 40, probed


@pytest.mark.parametrize("solve,optimum", [
    (minimize_makespan, 1),
    (maximize_min_completion, 1),
    (minimize_envy, 0),
    (lambda inst: solve_restricted(inst, "cmax"), 1),
], ids=["cmax", "cmin", "cenvy", "restricted"])
def test_drivers_reject_speed_zero_machines(solve, optimum):
    with pytest.raises(MalformedInputError):
        solve(Instance(p=(1,), n=(1,), s=(0, 1), m=(1, 1)))
    # a speed-0 type without machines is ignored
    assert solve(Instance(p=(1,), n=(1,), s=(0, 1), m=(0, 1))).value == optimum


def test_results_always_verify():
    for seed in range(12):
        inst = generate(GenParams(seed=800 + seed, job_total_range=(1, 9),
                                  machine_count_range=(1, 4),
                                  speed_range=(1, 9)))
        if inst.machine_count == 0:
            continue
        r = minimize_makespan(inst)
        assert verify_schedule(inst, r.schedule,
                               FeasibilityQuery("<=", r.value)).ok
        r = maximize_min_completion(inst)
        assert verify_schedule(inst, r.schedule,
                               FeasibilityQuery(">=", r.value)).ok
        r = minimize_envy(inst)
        comps = schedule_completions(inst, r.schedule)
        assert max(comps) - min(comps) == r.value
        assert aggregate_jobs(r.schedule) == inst.n


def test_driver_oracle_equivalence_sample():
    checked = 0
    for seed in range(20):
        inst = generate(GenParams(seed=600 + seed, job_total_range=(0, 9),
                                  machine_count_range=(1, 4),
                                  speed_range=(1, 9)))
        if inst.machine_count == 0:
            continue
        for objective, solver in (("cmax", minimize_makespan),
                                  ("cmin", maximize_min_completion),
                                  ("cenvy", minimize_envy)):
            try:
                want, _ = brute_force(inst, objective)
            except OracleCapError:
                continue
            assert solver(inst).value == want, (inst, objective)
            checked += 1
    assert checked >= 40
