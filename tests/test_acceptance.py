"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line with the counts
it actually ran.  All comparisons are exact rational equalities against
the brute-force oracle -- there are no tolerances anywhere.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    build_fractional_schedule,
    check_fractional_schedule_properties,
    cut_block,
    guessing_corpus,
    instance_stream,
    large_instance_stream,
    load_multiple_subvector,
    window_decomposes,
)
from hmsched.balancing import idle_cmax_speeds, reduced_schedule
from hmsched.drivers import (
    _incumbent,
    feasibility,
    maximize_min_completion,
    minimize_envy,
    minimize_makespan,
    solve_restricted,
)
from hmsched.model import (
    FeasibilityQuery,
    Instance,
    dot,
    make_schedule,
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
from hmsched.reduction import (
    compress,
    normalize,
    reduce_window,
    reduction_constants,
)

DATA = Path(__file__).parent / "data"


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS - {detail}")


# -- criterion 1: figure reproduction ---------------------------------------

def test_criterion_1_reference_schedule():
    start = time.monotonic()
    inst = Instance(p=(1,), n=(7,), s=(15, 13, 11), m=(1, 1, 1))
    sched = make_schedule(1, [(0, (3,), 1), (1, (3,), 1), (2, (1,), 1)])
    rep = verify_schedule(inst, sched, FeasibilityQuery("<=", Fraction(1, 4)))
    assert rep.ok
    assert rep.max_idle_load == Fraction(7, 4)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"3/3/1 schedule is <=1/4-feasible with idle load 7/4 "
              f"({elapsed * 1000:.1f} ms)")


# -- criterion 2 + 7: oracle equivalence and path equivalence ---------------

N_MIXED = 510


@pytest.fixture(scope="module")
def mixed_results():
    """Solver and oracle optima for the shared mixed-regime stream."""
    out = []
    for inst in instance_stream(N_MIXED, base_seed=10_000):
        assert inst.d <= 3 and inst.pmax <= 6
        assert inst.machine_count <= 5 and sum(inst.n) <= 30
        values = {}
        for objective, solver in (("cmax", minimize_makespan),
                                  ("cmin", maximize_min_completion),
                                  ("cenvy", minimize_envy)):
            want, _ = brute_force(inst, objective)
            got = solver(inst)
            values[objective] = (got.value, want)
        out.append((inst, values))
    return out


def test_criterion_2_oracle_equivalence(mixed_results):
    assert len(mixed_results) >= 500
    checks = 0
    for inst, values in mixed_results:
        for objective, (got, want) in values.items():
            assert got == want, (inst, objective, got, want)
            checks += 1
    report(2, f"{len(mixed_results)} instances x 3 objectives "
              f"({checks} exact matches)")


def test_criterion_7_path_equivalence(mixed_results):
    probes = []
    for inst, values in mixed_results:
        cmax_opt = values["cmax"][1]
        probes += [(inst, "<=", cmax_opt), (inst, ">=", values["cmin"][1])]
        if cmax_opt > 0:
            s = max(inst.s)
            probes.append((inst, "<=",
                           Fraction(math.ceil(cmax_opt * s) - 1, s)))
    # the benchmark's guessing instances, at each committed optimum and
    # one grid step of the fastest type past it
    for objective, inst, opt in guessing_corpus():
        s = max(inst.s)
        if objective == "cmax":
            past = Fraction(math.ceil(opt * s) - 1, s)
            probes += [(inst, "<=", opt), (inst, "<=", past)]
        else:
            past = Fraction(math.floor(opt * s) + 1, s)
            probes += [(inst, ">=", opt), (inst, ">=", past)]
    guessing_runs = 0
    for inst, rel, T in probes:
        direct = feasibility(inst, rel, T, method="confilp")
        trace: dict = {}
        auto = feasibility(inst, rel, T, trace=trace)
        assert (direct is None) == (auto is None), (inst, rel, T)
        if trace.get("guesses", 0) > 0:
            guessing_runs += 1
    assert guessing_runs > 0
    report(7, f"{len(probes)} feasibility probes agree across both pipelines "
              f"({guessing_runs} of them guessed)")


def _certified_incumbent(inst, rel):
    value, sched = _incumbent(inst, rel)
    assert verify_schedule(inst, sched, FeasibilityQuery(rel, value)).ok
    return value, sched


def _area_bound(inst):
    return Fraction(inst.total_load, sum(s * m for s, m in zip(inst.s, inst.m)))


def _check_bracket(inst, objective, opt):
    """The search's bracket holds the oracle optimum."""
    if objective == "cmax":
        assert _area_bound(inst) <= opt <= _certified_incumbent(inst, "<=")[0]
    elif objective == "cmin":
        assert _certified_incumbent(inst, ">=")[0] <= opt <= _area_bound(inst)
    else:
        completions = schedule_completions(inst, _certified_incumbent(inst, "<=")[1])
        assert opt <= max(completions) - min(completions)


def test_criterion_2_bracket_holds_the_optimum(mixed_results):
    checks = 0
    for inst, values in mixed_results:
        for objective, (_, want) in values.items():
            _check_bracket(inst, objective, want)
            checks += 1
    report(2, f"{checks} oracle optima lie inside the certified bracket")


def test_criterion_2_cmin_incumbent_meets_the_optimum(mixed_results):
    # The last job type's leftovers go to the machines that complete
    # earliest before taking one; dealing them by completion after one
    # more job, as ``<=`` does, met the optimum on 344 of the 510.
    optimal = sum(_incumbent(inst, ">=")[0] == values["cmin"][1]
                  for inst, values in mixed_results)
    assert optimal >= 429
    report(2, f"the >= incumbent meets the cmin optimum on {optimal} of "
              f"{len(mixed_results)} instances")


# -- criterion 3: restricted assignment --------------------------------------

def _restricted_stream(count=200):
    """Criterion 3's assignable restricted instances, in order."""
    seed = 20_000
    while count:
        seed += 1
        inst = generate(GenParams(seed=seed, restricted=True,
                                  job_total_range=(0, 10),
                                  machine_count_range=(1, 4),
                                  speed_range=(1, 9)))
        if inst.machine_count == 0 or not assignable(inst):
            continue
        count -= 1
        yield inst


def test_criterion_3_restricted_equivalence():
    checked = 0
    for inst in _restricted_stream():
        objective = "cmax" if checked % 2 == 0 else "cmin"
        want, _ = brute_force(inst, objective)
        got = solve_restricted(inst, objective)
        assert got.value == want, (inst, objective)
        checked += 1
    report(3, f"{checked} restricted instances match the oracle exactly")


def test_criterion_3_bracket_holds_the_optimum():
    checks = 0
    for inst in _restricted_stream():
        for objective in ("cmax", "cmin"):
            _check_bracket(inst, objective, brute_force(inst, objective)[0])
            checks += 1
    report(3, f"{checks} restricted optima lie inside the certified bracket")


# -- criterion 4: reduction property suites ------------------------------------------------

def test_criterion_4a_cut_postcondition():
    import random
    rnd = random.Random(41)
    done = 0
    while done < 1000:
        d = rnd.randint(1, 3)
        p = tuple(rnd.randint(1, 8) for _ in range(d))
        k = reduction_constants(p)
        w = tuple(rnd.randint(0, 3 * k.cut_threshold) for _ in range(d))
        if dot(p, w) < k.cut_threshold:
            continue
        out = cut_block(w, p)
        assert all(0 <= o <= x for o, x in zip(out, w))
        assert dot(p, out) == k.lcm_load
        done += 1
    report(4, f"(a) cut postcondition on {done} random vectors")


def test_criterion_4b_window_decomposition():
    from itertools import product as iproduct
    windows_checked = 0
    cases = {
        (2, 3): [(36, 50), (40, 80), (0, 45), (36, 36), (72, 90), (38, None),
                 (50, None), (0, 100), (37, 79), (44, 44)],
        (1,): [(1, 3), (0, 9), (2, None), (5, 11), (1, 1), (3, None),
               (0, 0), (2, 8), (4, 9), (6, None)],
        (2, 5): [(100, 140), (0, 115), (100, 100), (105, None), (20, 130),
                 (100, 124), (110, 160), (0, 112), (101, None), (115, 151)],
    }
    for p, windows in cases.items():
        k = reduction_constants(p)
        for lower, upper in windows:
            red = reduce_window(lower, upper, k)
            cap = (upper if upper is not None else lower + k.lcm_load) + 3
            tops = [cap // pj for pj in p]
            for c in iproduct(*(range(x + 1) for x in tops)):
                load = dot(p, c)
                inside = load >= lower and (upper is None or load <= upper)
                assert inside == window_decomposes(c, p, red, k), (p, lower,
                                                                   upper, c)
            windows_checked += 1
    assert windows_checked >= 30
    report(4, f"(b) window reduction identity on {windows_checked} windows "
              f"by exhaustive enumeration")


def test_criterion_4c_normalize_compress_preservation():
    checked = 0
    seed = 30_000
    while checked < 300:
        seed += 1
        inst = generate(GenParams(seed=seed, job_total_range=(0, 7),
                                  machine_count_range=(1, 3),
                                  speed_range=(1, 12)))
        if inst.machine_count == 0:
            continue
        rel = "<=" if checked % 2 == 0 else ">="
        T = Fraction(1 + seed % 5, 1 + seed % 3)
        norm = normalize(inst, rel, T)
        comp, _ = compress(norm)
        k = reduction_constants(inst.p)
        limit = k.cut_threshold + k.lcm_load
        assert max(comp.s, default=0) <= limit
        assert comp.tau <= min(1 + limit, 1 + norm.tau)
        assert comp.machine_count <= (2 + inst.total_load) * inst.machine_count
        try:
            want = brute_force_feasibility(inst, rel, T)
            mid = brute_force_feasibility(norm, rel, Fraction(1))
            got = brute_force_feasibility(comp, rel, Fraction(1),
                                          machine_cap=150,
                                          state_cap=2_000_000)
        except OracleCapError:
            continue
        assert want == mid == got, (inst, rel, T)
        checked += 1
    report(4, f"(c) normalize+compress preserve verdicts on {checked} "
              f"instances; compression bounds hold on every output")


def test_criterion_4d_load_multiple_postcondition():
    import random
    rnd = random.Random(43)
    done = 0
    while done < 1000:
        d = rnd.randint(1, 3)
        p = tuple(rnd.randint(1, 8) for _ in range(d))
        j = rnd.randrange(d)
        v = tuple(rnd.randint(0, 10) for _ in range(d))
        if sum(v) < p[j]:
            continue
        w, alpha = load_multiple_subvector(v, j, p)
        assert any(w) and all(0 <= x <= y for x, y in zip(w, v))
        assert dot(p, w) == alpha * p[j]
        assert 1 <= alpha <= max(p)
        done += 1
    report(4, f"(d) load-multiple subvector postcondition on {done} inputs")


# -- criterion 5: fractional schedule properties ------------------------------

def test_criterion_5_fractional_schedule_properties():
    instances = large_instance_stream(310, base_seed=40_000)
    for inst in instances:
        check_fractional_schedule_properties(inst)
    report(5, f"nine structural properties hold on {len(instances)} "
              f"fractionally feasible all-fast instances")


# -- criterion 6: balancing equivalence ---------------------------------------

def _per_type_floor(inst, idle_cap):
    fs = build_fractional_schedule(inst, inst.n)
    floors = tuple(tuple(map(math.floor, fs.total(t))) for t in range(fs.tau))
    return reduced_schedule(floors, idle_cap, inst.pmin, inst.pmax)


def test_criterion_6_balancing_equivalence():
    checked = 0
    for idx, inst in enumerate(large_instance_stream(210, base_seed=50_000)):
        # makespan form: feasible iff the floored preassignment extends
        # to a schedule covering at least n
        floor = _per_type_floor(inst, None)
        try:
            feas = brute_force_feasibility(inst, "<=", Fraction(1))
            ext = brute_force_feasibility(inst, "<=", Fraction(1),
                                          job_relation=">=",
                                          config_floor=floor)
        except OracleCapError:
            continue
        assert feas == ext, (inst, "cmax form")
        # the balanced pipeline's makespan form: the floor extends to a
        # schedule using exactly n
        try:
            ext = brute_force_feasibility(inst, "<=", Fraction(1),
                                          job_relation="=",
                                          config_floor=floor)
        except OracleCapError:
            continue
        assert feas == ext, (inst, "production cmax form")

        # idle-capped form with a rotating cap
        cap = (0, 1, inst.pmax - 1, inst.pmax + 1)[idx % 4]
        floor = _per_type_floor(inst, cap)
        try:
            feas = brute_force_feasibility(inst, "<=", Fraction(1),
                                           idle_cap=cap)
            ext = brute_force_feasibility(inst, "<=", Fraction(1),
                                          idle_cap=cap, config_floor=floor)
        except OracleCapError:
            continue
        assert feas == ext, (inst, "idle form", cap)

        # the balanced pipeline's minimum-completion form: a converted
        # question has cap pmax - 1 and job usage at most n
        cap = inst.pmax - 1
        floor = _per_type_floor(inst, cap)
        try:
            feas = brute_force_feasibility(inst, "<=", Fraction(1),
                                           idle_cap=cap, job_relation="<=")
            ext = brute_force_feasibility(inst, "<=", Fraction(1),
                                          idle_cap=cap, job_relation="<=",
                                          config_floor=floor)
        except OracleCapError:
            continue
        assert feas == ext, (inst, ">= form")
        checked += 1
    assert checked >= 200

    # conversion round trip on general instances
    conversions = 0
    seed = 60_000
    while conversions < 200:
        seed += 1
        inst = generate(GenParams(seed=seed, job_total_range=(0, 8),
                                  machine_count_range=(1, 3),
                                  speed_range=(1, 9)))
        if inst.machine_count == 0:
            continue
        conv = replace(inst, s=idle_cmax_speeds(inst.s, inst.pmax))
        cap = inst.pmax - 1
        try:
            direct = brute_force_feasibility(inst, ">=", Fraction(1))
            via = brute_force_feasibility(conv, "<=", Fraction(1),
                                          idle_cap=cap, job_relation="<=")
        except OracleCapError:
            continue
        assert direct == via, inst
        conversions += 1
    report(6, f"extendability equals feasibility on {checked} all-fast "
              f"instances (all four forms); conversion round-trips on "
              f"{conversions} instances")


# -- criterion 8: CLI determinism ---------------------------------------------

def test_criterion_8_cli_determinism(tmp_path):
    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "hmsched", *args],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    gen_file = tmp_path / "inst.json"
    commands = [
        ("gen", "--seed", "42", "--restricted", "--output", str(gen_file)),
        ("solve", str(DATA / "fig1.json"), "--objective", "cmax"),
        ("solve", str(DATA / "fig1.json"), "--objective", "cmin",
         "--method", "confilp"),
        ("solve", str(DATA / "fig1.json"), "--objective", "cenvy"),
        ("check", str(DATA / "fig1.json"), str(DATA / "fig1_schedule.json"),
         "--objective", "cmax", "--value", "3/13"),
        ("bench", "--seed", "5", "--count", "4", "--objective", "cmax"),
    ]
    compared = 0
    for args in commands:
        first = run(*args)
        file_first = gen_file.read_bytes() if gen_file.exists() else b""
        second = run(*args)
        file_second = gen_file.read_bytes() if gen_file.exists() else b""
        assert first == second, args
        assert file_first == file_second, args
        compared += 1
    report(8, f"{compared} CLI commands are bytewise identical across reruns")
