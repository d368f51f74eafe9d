import math
import random
import re
from fractions import Fraction

import pytest

from helpers import (
    capacity_refutes,
    random_runs,
    reference_recombine,
    reference_solve_model,
    unreduced_model,
)
from hmsched import confilp
from hmsched.confilp import (
    ConfILPModel,
    ModelGroup,
    ResourceLimitError,
    build_model,
    enumerate_configs,
    narrow_windows,
    solve_model,
    type_loads,
)
from hmsched.model import (
    CertificateError,
    FeasibilityQuery,
    Instance,
    JOB_LE,
    MalformedInputError,
    aggregate_jobs,
    ceil_times,
    dot,
    floor_times,
    verify_schedule,
)
from hmsched.oracle import (
    GenParams,
    OracleCapError,
    assignable,
    brute_force_feasibility,
    feasible_schedule,
    generate,
)
from hmsched.reduction import normalize


def nested_loop_count(p, cap, lo, hi):
    """Independent d-nested-loop enumeration used to cross-check counts."""
    total = 0
    stack = [(0, 0)]
    while stack:
        j, load = stack.pop()
        if j == len(p):
            total += lo <= load <= hi
            continue
        for c in range(cap[j] + 1):
            stack.append((j + 1, load + c * p[j]))
    return total


def test_enumerate_examples():
    out = enumerate_configs((2, 3), (3, 2), (0, 6))
    assert set(out) == {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2)}
    assert len(out) == 7
    assert out == sorted(out)  # deterministic lexicographic order

    assert enumerate_configs((2, 3), (3, 2), (0, 0)) == [(0, 0)]

    # a job type the machine may not run gets cap 0
    restricted = enumerate_configs((2, 3), (3, 0), (0, 6))
    assert restricted == [(0, 0), (1, 0), (2, 0), (3, 0)]


@pytest.mark.parametrize("p,cap,window", [
    ((2, 3), (3, 2), (0, 6)),
    ((1, 4, 5), (4, 2, 2), (3, 11)),
    ((2,), (9,), (4, 4)),
    ((3, 3), (5, 5), (6, 30)),
])
def test_enumerate_count_matches_nested_loops(p, cap, window):
    got = enumerate_configs(p, cap, window)
    assert len(got) == nested_loop_count(p, cap, *window)
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("p,cap,window", [
    ((2, 3), (3, 2), (13, 20)),  # the heaviest column loads 12
    ((4, 5), (1, 1), (10, 30)),  # the heaviest column loads 9
    ((2, 3), (3, 2), (7, 6)),  # lower end above the upper end
])
def test_empty_box_leaves_no_cache_entry(p, cap, window):
    before = confilp._enumerate.cache_info()
    assert enumerate_configs(p, cap, window) == []
    assert confilp._enumerate.cache_info() == before
    assert nested_loop_count(p, cap, *window) == 0


FIG1 = Instance(p=(1,), n=(7,), s=(15, 13, 11), m=(1, 1, 1))


def test_build_model_fig1_columns():
    norm = normalize(FIG1, "<=", Fraction(1, 5))  # speeds (3, 2, 2)
    windows = [(0, s) for s in norm.s]
    model = unreduced_model(norm, windows)
    assert [len(g.configs) for g in model.groups] == [4, 3, 3]
    assert model.demand == (7,)


def test_build_model_no_machines():
    inst = Instance(p=(1,), n=(0,), s=(3,), m=(0,))
    model = build_model(inst, [(0, 3)])
    assert model.groups == ()
    assert solve_model(model) is not None
    bad = Instance(p=(1,), n=(2,), s=(3,), m=(0,))
    assert solve_model(build_model(bad, [(0, 3)])) is None


@pytest.mark.parametrize("bad", [(-1, 3), (4, 3)])
@pytest.mark.parametrize("m", [(1, 1), (1, 0)])
def test_build_model_rejects_bad_windows(bad, m):
    # every type's window is checked, also one without machines
    inst = Instance(p=(1,), n=(2,), s=(3, 3), m=m)
    with pytest.raises(MalformedInputError, match="bad window"):
        build_model(inst, [(0, 3), bad])


def test_build_model_restricted_columns():
    inst = Instance(p=(1, 1), n=(2, 2), s=(2, 2), m=(1, 1),
                    restrict=((True, False), (False, True)))
    model = unreduced_model(inst, [(0, 2), (0, 2)])
    by_type = {g.machine_type: g.configs for g in model.groups}
    assert all(c[1] == 0 for c in by_type[0])
    assert all(c[0] == 0 for c in by_type[1])


def test_solve_fig1_threshold_fifth():
    norm = normalize(FIG1, "<=", Fraction(1, 5))
    windows = [(0, s) for s in norm.s]
    sched = solve_model(build_model(norm, windows))
    assert sched is not None
    loads = sorted(dot(norm.p, counts) for _, counts, _ in sched.entries)
    assert loads == [2, 2, 3]
    assert aggregate_jobs(sched) == (7,)


def test_solve_fig1_threshold_sixth_infeasible():
    norm = normalize(FIG1, "<=", Fraction(1, 6))  # speeds (2, 2, 1), capacity 5
    windows = [(0, s) for s in norm.s]
    assert solve_model(build_model(norm, windows)) is None


def test_solve_empty_demand():
    inst = Instance(p=(2,), n=(0,), s=(5, 3), m=(2, 1))
    sched = solve_model(build_model(inst, [(0, 5), (0, 3)]))
    assert sched is not None
    assert aggregate_jobs(sched) == (0,)
    assert sched.machines_of_type(0) == 2


def test_reduced_windows_bookkeeping():
    # Usage at most n leaves both windows as they are: the lone machine
    # may carry less than the whole load of 100.
    inst = Instance(p=(2, 3), n=(20, 20), s=(100,), m=(1,))
    loads = type_loads(inst)
    assert narrow_windows(loads, 100, [(40, 100)], JOB_LE) == ((40, 100),)
    groups = build_model(inst, [(40, 100)], demand_relation=JOB_LE).groups
    assert [(g.role, g.count) for g in groups] == [
        ("core", 1), ("exact", 1), ("slack", 4)]
    assert [g.window for g in groups] == [(34, 70), (6, 6), (0, 6)]

    assert narrow_windows(loads, 100, [(0, 5)], JOB_LE) == ((0, 5),)
    groups = build_model(inst, [(0, 5)], demand_relation=JOB_LE).groups
    assert [(g.role, g.count) for g in groups] == [("core", 1)]
    assert groups[0].window == (0, 5)

    # Usage exactly n: the lone machine carries all 100, so [40, 100]
    # narrows to [100, 100], which the model keeps as it is given, and
    # [0, 5] is refuted before any model.
    narrowed = narrow_windows(loads, 100, [(40, 100)], "=")
    assert narrowed == ((100, 100),)
    model = build_model(inst, narrowed)
    assert [(g.role, g.count, g.window) for g in model.groups] == [
        ("core", 1, (34, 34)), ("exact", 11, (6, 6))]
    assert model.raw_windows == narrowed
    assert narrow_windows(loads, 100, [(0, 5)], "=") is None

    # Every load is a multiple of the gcd 2: [4, 5] rounds to [4, 4] and
    # [9, 10] to [10, 10], whose loads 4 and 10 fit the total 18.
    inst = Instance(p=(2,), n=(9,), s=(4, 9), m=(1, 1))
    assert narrow_windows(type_loads(inst), 18, [(4, 5), (9, 10)],
                          JOB_LE) == ((4, 4), (10, 10))


def _effective_windows(inst, model):
    """Each type's load window as its groups carry it: a core plus its
    blocks per machine, so the sums of count * lower and count * upper
    over the type's groups are m_t times the window ``build_model`` cut,
    and (0, 0) for a type without machines."""
    out = [(0, 0)] * inst.tau
    for g in model.groups:
        lo, hi = out[g.machine_type]
        out[g.machine_type] = (lo + g.count * g.window[0],
                               hi + g.count * g.window[1])
    return tuple((lo // m, hi // m) if m else (0, 0)
                 for m, (lo, hi) in zip(inst.m, out))


def _narrowed(inst, windows, relation):
    """The windows ``narrow_windows`` is meant to return, computed on its
    own, or None when no schedule can keep its loads in them."""
    whole = dot(inst.p, inst.n)
    rounded = {}
    for t, (lo, hi) in enumerate(windows):
        if not inst.m[t]:
            continue
        # a machine runs only sizes with demand that it may run, so its
        # load is a multiple of their gcd and at most their total load
        sizes = [(pj, nj) for j, (pj, nj) in enumerate(zip(inst.p, inst.n))
                 if nj and inst.allowed(j, t)]
        g = math.gcd(*(pj for pj, _ in sizes)) or 1
        top = sum(pj * nj for pj, nj in sizes)
        lo, hi = -(-lo // g) * g, min(hi // g * g, top)
        if lo > hi:
            return None
        rounded[t] = (lo, hi)
    most = sum(inst.m[t] * hi for t, (_, hi) in rounded.items())
    least = sum(inst.m[t] * lo for t, (lo, _) in rounded.items())
    if least > whole or (relation == "=" and most < whole):
        return None
    out = [(0, 0)] * inst.tau  # a type without machines
    for t, (lo, hi) in rounded.items():
        # every other machine's load lies in its window, and all loads
        # sum to the whole load (at most that for "<=")
        new_hi = min(hi, whole - (least - lo))
        new_lo = lo if relation == "<=" else max(lo, whole - (most - hi))
        out[t] = (new_lo, new_hi)
    return tuple(out)


def test_reduction_does_not_change_verdicts():
    checked = narrowed = emptied = 0
    for seed in range(120):
        inst = generate(GenParams(seed=700 + seed, job_total_range=(0, 9),
                                  machine_count_range=(1, 3),
                                  speed_range=(1, 9),
                                  restricted=bool(seed % 2)))
        if inst.machine_count == 0:
            continue
        T = Fraction(1 + seed % 5, 1 + seed % 3)
        # ">=" is asked in converted form: loads in [ceil(T*s), ceil(T*s)
        # + pmax_t - 1] with usage at most n, which has the same verdict
        # whenever every demanded job type has a machine that may run it.
        assert assignable(inst), inst
        rnd = random.Random(seed)
        share = dot(inst.p, inst.n) // inst.machine_count
        asked = []
        for rel in ("<=", ">="):
            if rel == "<=":
                windows = [(0, (T * s).__floor__()) for s in inst.s]
                relation = "="
            else:
                windows = []
                for t, s in enumerate(inst.s):
                    lower = (T * s).__ceil__()
                    top = max((pj for pj, a in zip(inst.p, inst.allowed_row(t))
                               if a), default=1)
                    windows.append((lower, lower + top - 1))
                relation = "<="
            asked.append((rel, windows, relation))
        # windows with positive lower ends around an even share, under
        # both relations, with no oracle to ask
        for _ in range(3):
            windows = []
            for _ in inst.s:
                lower = rnd.randint(0, share + 2)
                windows.append((lower, lower + rnd.randint(0, share + 4)))
            asked += [(None, windows, "="), (None, windows, "<=")]
        for rel, windows, relation in asked:
            narrow = _narrowed(inst, windows, relation)
            assert narrow_windows(type_loads(inst), inst.total_load, windows,
                                  relation) == narrow, (inst, windows)
            with_red = None  # a refuted question builds no model
            if narrow is None:
                emptied += 1
            else:
                # the model cuts the narrowed windows as they are given
                model = build_model(inst, narrow, demand_relation=relation)
                if model.groups[-1].configs:
                    assert _effective_windows(inst, model) == narrow, (
                        inst, windows, relation)
                narrowed += narrow != tuple(
                    w if m else (0, 0) for w, m in zip(windows, inst.m))
                with_red = solve_model(model)
            without = solve_model(unreduced_model(inst, windows,
                                                  demand_relation=relation))
            assert (with_red is None) == (without is None), (
                inst, windows, relation)
            if rel is None:
                continue
            try:
                want = brute_force_feasibility(inst, rel, T)
            except OracleCapError:
                continue
            assert (with_red is not None) == want, (inst, rel, T)
            checked += 1
    assert checked >= 200
    assert narrowed >= 250 and emptied >= 300


def _random_question(rnd, inst):
    """A question the oracle can ask, as (rel, T, idle cap, windows):
    ``<=`` windows [max(0, ceil(T * s) - idle), floor(T * s)], lower end
    0 without an idle cap, and ``>=`` windows [ceil(T * s), P], P the
    total load, which no machine exceeds."""
    rel = rnd.choice(("<=", ">="))
    T = Fraction(rnd.randint(0, 12), rnd.randint(1, 4))
    if rel == ">=":
        return rel, T, None, [(ceil_times(T, s), inst.total_load)
                              for s in inst.s]
    idle = rnd.choice((None, 0, 1, 2, 4))
    return rel, T, idle, [
        (0 if idle is None else max(0, ceil_times(T, s) - idle),
         floor_times(T, s)) for s in inst.s]


def test_window_rule_refutes_only_questions_without_an_oracle_schedule():
    # Seeded questions on instances with at most six machines, restricted
    # or not, with zero speeds and types without machines, under both
    # demand relations: a question the rule refutes has no oracle
    # schedule, and every machine of an oracle schedule loads inside the
    # narrowed window the rule returns.
    rnd = random.Random(38)
    refuted = witnessed = 0
    for seed in range(300):
        inst = generate(GenParams(seed=3_800 + seed, job_total_range=(0, 9),
                                  machine_count_range=(1, 6),
                                  speed_range=(1, 9),
                                  restricted=bool(seed % 2)))
        inst = Instance(inst.p, inst.n,
                        tuple(0 if rnd.random() < 0.2 else s for s in inst.s),
                        tuple(0 if rnd.random() < 0.2 else m for m in inst.m),
                        inst.restrict)
        loads = type_loads(inst)
        for _ in range(6):
            rel, T, idle, windows = _random_question(rnd, inst)
            relation = rnd.choice(("=", "<="))
            narrow = _narrowed(inst, windows, relation)
            assert narrow_windows(loads, inst.total_load, windows,
                                  relation) == narrow, (inst, windows)
            sched = feasible_schedule(inst, rel, T, idle_cap=idle,
                                      job_relation=relation)
            if narrow is None:
                assert sched is None, (inst, windows, relation)
                refuted += 1
            elif sched is not None:
                for t, counts, _ in sched.entries:
                    lo, hi = narrow[t]
                    assert lo <= dot(inst.p, counts) <= hi, (inst, windows)
                witnessed += 1
    assert refuted >= 1_000 and witnessed >= 500, (refuted, witnessed)


def test_window_rule_keeps_the_verdicts_of_the_capacity_check():
    # The rule asks a ">=" probe on the windows of its converted model,
    # [s, s + pmax - 1] with usage at most n; the check it replaced
    # (helpers.capacity_refutes) asked [s, oo) with usage exactly n.  The
    # verdicts agree whenever every demanded job type has a machine that
    # may run it, which feasibility checks first; "<=" probes ask both
    # rules on [0, s] with usage exactly n.  Random normalized speeds,
    # zero included, on instances restricted or not, with types without
    # machines.
    rnd = random.Random(3_801)
    asked = refuted = 0
    for _ in range(600):
        d, tau = rnd.randint(1, 3), rnd.randint(1, 4)
        p = tuple(rnd.randint(1, 6) for _ in range(d))
        n = tuple(rnd.randint(0, 5) for _ in range(d))
        m = tuple(rnd.choice((0, 1, 1, 2, 3, 40)) for _ in range(tau))
        restrict = None if rnd.random() < 0.5 else tuple(
            tuple(rnd.random() < 0.6 for _ in range(tau)) for _ in range(d))
        inst = Instance(p, n, (1,) * tau, m, restrict)
        if not assignable(inst):
            continue
        loads, P = type_loads(inst), inst.total_load
        for _ in range(12):
            speeds = [rnd.choice((0, rnd.randint(0, P + 1),
                                  rnd.randint(0, 2 * max(p))))
                      for _ in range(tau)]
            for rel in ("<=", ">="):
                old = capacity_refutes(P, [
                    (mt, g, cap, 0, s) if rel == "<=" else (mt, g, cap, s, None)
                    for (mt, g, cap), s in zip(loads, speeds) if mt])
                windows = [(0, s) if rel == "<=" else (s, s + inst.pmax - 1)
                           for s in speeds]
                new = narrow_windows(loads, P, windows,
                                     "=" if rel == "<=" else "<=") is None
                assert new == old, (inst, rel, speeds)
                asked += 1
                refuted += new
    assert asked >= 10_000 and asked // 4 < refuted < asked, (asked, refuted)


def test_solved_schedules_respect_windows():
    for seed in range(25):
        inst = generate(GenParams(seed=seed, job_total_range=(1, 9),
                                  machine_count_range=(1, 3),
                                  speed_range=(2, 9)))
        if inst.machine_count == 0:
            continue
        windows = [(0, 2 * s) for s in inst.s]
        sched = solve_model(build_model(inst, windows))
        if sched is None:
            continue
        assert aggregate_jobs(sched) == inst.n
        for t, counts, count in sched.entries:
            assert 0 <= dot(inst.p, counts) <= 2 * inst.s[t]
        for t in range(inst.tau):
            assert sched.machines_of_type(t) == inst.m[t]


def test_resource_limit_is_distinct_from_infeasible():
    inst = Instance(p=(1, 1, 1), n=(4, 4, 4), s=(6, 6), m=(2, 2))
    windows = [(0, 6), (0, 6)]
    model = build_model(inst, windows)
    with pytest.raises(ResourceLimitError):
        solve_model(model, state_limit=3)
    assert solve_model(model) is not None


def test_demand_relations():
    inst = Instance(p=(2,), n=(3,), s=(4,), m=(1,))
    windows = [(0, 4)]
    # exactly three jobs of size two cannot fit a speed-4 machine
    assert solve_model(build_model(inst, windows)) is None
    le = solve_model(build_model(inst, windows, demand_relation="<="))
    assert le is not None and aggregate_jobs(le)[0] <= 3
    # the model asks only "usage = n" or "usage <= n"
    with pytest.raises(MalformedInputError, match="bad demand relation"):
        build_model(inst, windows, demand_relation=">=")


def test_verified_against_oracle_sweep():
    checked = 0
    for seed in range(50):
        inst = generate(GenParams(seed=2000 + seed, job_total_range=(0, 10),
                                  machine_count_range=(1, 4),
                                  speed_range=(1, 8)))
        if inst.machine_count == 0:
            continue
        T = Fraction(1 + seed % 7, 1 + seed % 4)
        windows = [(0, (T * s).__floor__()) for s in inst.s]
        sched = solve_model(build_model(inst, windows))
        try:
            want = brute_force_feasibility(inst, "<=", T)
        except OracleCapError:
            continue
        assert (sched is not None) == want
        if sched is not None:
            report = verify_schedule(inst, sched, FeasibilityQuery("<=", T))
            assert report.ok, report.violations
        checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# Run-length recombination against the per-machine reference
# ---------------------------------------------------------------------------

def straddles(runs, width: int) -> int:
    """Machines whose width-sized slice of the sorted runs spans two runs."""
    at, cut = 0, 0
    for _, count in sorted(runs.items())[:-1]:
        at += count
        cut += width > 0 and at % width != 0
    return cut


def hand_built_model(rnd, p=(1, 2)):
    """Core, exact and slack groups with 2..3 blocks per machine, and a
    demand met by one random pick per machine and block."""
    lcm, groups, raw, demand = 2, [], [], [0, 0]
    for t in range(rnd.randint(1, 2)):
        m, epm, spm = rnd.randint(2, 6), rnd.randint(2, 3), rnd.randint(2, 3)
        for role, count, window in (
                ("core", m, (0, 3)),
                ("exact", m * epm, (lcm, lcm)),
                ("slack", m * spm, (0, lcm))):
            configs = tuple(enumerate_configs(p, (8, 8), window))
            groups.append(ModelGroup(t, role, count, window, configs))
            for _ in range(count):
                pick = rnd.choice(configs)
                demand = [a + b for a, b in zip(demand, pick)]
        raw.append((epm * lcm, 3 + (epm + spm) * lcm))
    return ConfILPModel(p, tuple(demand), "=", tuple(groups), tuple(raw))


def test_solve_model_recombines_like_per_machine_expansion(monkeypatch):
    seen = []
    recombine = confilp._recombine

    def spy(model, chosen):
        seen.append(chosen)
        return recombine(model, chosen)

    monkeypatch.setattr(confilp, "_recombine", spy)
    cut = 0
    for seed in range(40):
        model = hand_built_model(random.Random(seed))
        sched = solve_model(model)
        assert sched is not None, seed
        chosen = seen[-1]
        assert sched == reference_recombine(model, chosen), seed
        assert [sum(c.values()) for c in chosen] == [g.count for g in model.groups]
        machines = {g.machine_type: g.count for g in model.groups
                    if g.role == "core"}
        cut += sum(straddles(runs, g.count // machines[g.machine_type])
                   for g, runs in zip(model.groups, chosen))
    assert cut > 0


@pytest.mark.parametrize("seed", range(30))
def test_recombine_runs_match_per_machine_expansion(seed):
    rnd = random.Random(seed)
    p = (1, 2, 3)
    groups, chosen, raw = [], [], []
    for t in range(rnd.randint(1, 3)):
        m = rnd.randint(1, 40)
        per_machine = {"core": 1, "exact": rnd.randint(0, 4),
                       "slack": rnd.randint(0, 4)}
        for role, width in per_machine.items():
            if role != "core" and width == 0:
                continue
            groups.append(ModelGroup(t, role, m * width, (0, 0), ()))
            chosen.append(random_runs(rnd, m * width, len(p), 3))
        raw.append((0, rnd.randint(40, 120)))
    model = ConfILPModel(p, (0,) * len(p), "=", tuple(groups), tuple(raw))
    try:
        want = reference_recombine(model, chosen)
    except CertificateError as exc:
        # a load that escapes its raw window fails the same way
        with pytest.raises(CertificateError, match=re.escape(str(exc))):
            confilp._recombine(model, chosen)
    else:
        assert confilp._recombine(model, chosen) == want


def random_dp_model(rnd: random.Random, relation: str) -> ConfILPModel:
    """A seeded model whose demand entries sit at the packing's width boundary.

    Each demand entry is 2**k - 1, 2**k or a value below them, so digit
    widths land on both sides of a bit-length step; half the windows
    have a lower bound.
    """
    d = rnd.randint(1, 3)
    k = rnd.randint(1, 3)
    demand = tuple(rnd.choice((2 ** k - 1, 2 ** k, rnd.randint(0, 2 ** k)))
                   for _ in range(d))
    tau = rnd.randint(1, 2)
    inst = Instance(p=tuple(rnd.randint(1, 4) for _ in range(d)), n=demand,
                    s=tuple(rnd.randint(1, 8) for _ in range(tau)),
                    m=tuple(rnd.randint(1, 3) for _ in range(tau)))
    windows = []
    for _ in range(tau):
        upper = rnd.randint(1, 12)
        lower = rnd.randint(0, upper) if rnd.random() < 0.5 else 0
        windows.append((lower, upper))
    build = build_model if rnd.random() < 0.5 else unreduced_model
    return build(inst, windows, demand_relation=relation)


def smallest_sufficient_limit(model: ConfILPModel,
                              solve=reference_solve_model) -> int:
    """Fewest states ``solve`` needs without ResourceLimitError."""
    lo, hi = 0, 1
    while True:
        try:
            solve(model, state_limit=hi)
            break
        except ResourceLimitError:
            lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            solve(model, state_limit=mid)
            hi = mid
        except ResourceLimitError:
            lo = mid + 1
    return lo


def entries_or_none(sched):
    return None if sched is None else sched.entries


@pytest.mark.parametrize("relation", ["=", "<="])
def test_packed_dp_matches_tuple_reference(relation):
    rnd = random.Random(f"packed-{relation}")
    verdicts = set()
    over_covered = pruned = 0
    for _ in range(80):
        model = random_dp_model(rnd, relation)
        over_covered += any(c > need for g in model.groups
                            for cfg in g.configs
                            for c, need in zip(cfg, model.demand))
        want = reference_solve_model(model)
        assert entries_or_none(solve_model(model)) == entries_or_none(want), model
        verdicts.add(want is not None)
        limit = smallest_sufficient_limit(model)
        assert entries_or_none(solve_model(model, state_limit=limit)) == \
            entries_or_none(want), (model, limit)
        if limit > 0:
            with pytest.raises(ResourceLimitError):
                reference_solve_model(model, state_limit=limit - 1)
        # the capacity bound only ever drops states
        own = smallest_sufficient_limit(model, solve_model)
        assert own <= limit, (model, own, limit)
        pruned += own < limit
        assert entries_or_none(solve_model(model, state_limit=own)) == \
            entries_or_none(want), (model, own)
        if own > 0:
            with pytest.raises(ResourceLimitError):
                solve_model(model, state_limit=own - 1)
    assert verdicts == {True, False}
    assert pruned > 0
    # no column exceeds the demand, which ``_packing``'s width relies on
    assert over_covered == 0
