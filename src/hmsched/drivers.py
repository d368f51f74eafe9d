"""Optimization drivers: one search over exact value grids.

Every objective reduces to feasibility questions "is there a schedule at
least as good as T".  Any optimum is some machine's integer load divided
by that machine's speed (for envy, a difference of two such values), so
every driver runs ``_search_grid`` over the exact grids listed by
``candidate_values`` and never leaves rational arithmetic.  It asks each
question first at the grid value next to the best side, then bisects.

Each search keeps one certified bracket that every probe narrows.  One
side is the best schedule so far at its own value, first an incumbent
(``_incumbent``): the proportional assignment, rounded by run.  Its
leftover jobs go to the machines that complete earliest after taking
one, except that a ``>=`` incumbent deals its last job type's by
completion before taking one, the max-min greedy rule.  Moves on the
critical machine, the one that completes last (first for ``>=``),
then improve the deal while a move leaves both machines it touches
strictly better than the critical one was: jump and swap moves, which
move at most one job each way, and only when none qualifies, pair
moves, which move up to two.  No other machine changes, so the value
never gets worse, and the moves take at most d times the number of
runs steps of O(runs * B^2) integer operations each, B = 1 + d + d(d +
1) / 2 the bundles of at most two jobs.  The other side is refuted,
first at the area bound P / S, because sum_i s_i * C_i = P on every
schedule.  So no solve asks a question twice.  Without restrictions
every machine takes its floored share of each job type plus at most
one leftover, whichever machines the leftovers go to, so its load is
within sum(p) of its proportional share, the deal lies within d * pmax
/ s_min of P / S, the improved incumbent between the deal and P / S,
and the number of probes does not grow with n or m.  A solve whose
incumbent meets the area bound probes nothing, and one whose incumbent
is optimal at most once.

Every solve route, the drivers' and the command line's oracle alike,
first asks ``admit`` whether the instance can be solved at all.  Before
that, every driver, and ``feasibility``, reads a ``state_limit`` of None
from the environment (``confilp.state_limit_default``) once, so a
malformed budget is rejected whether or not a model gets built.

Makespan and minimum-completion solves, restricted or not, share one
threshold driver (``_optimize_threshold``) and one feasibility route
(``feasibility``): normalize the instance to threshold 1
(``reduction.normalize``), compute its model's load windows once, those
of an idle-capped makespan question (``idle_cmax_speeds``) for a
minimum-completion one, refute the probe without a model when the
load-window rule (``confilp.narrow_windows``) refutes them, and
otherwise solve the one model on them that ``method="confilp"`` asks.
Before the model, an ``"auto"`` probe of an unrestricted instance with
a machine above the large-machine cutoff after compression looks for a
schedule by guessing (``balanced_feasibility``), which, like
``_incumbent``, only finds schedules, so both methods share every
refutation.  Envy's scan (``minimize_envy``) takes the range of its top
completions from the area bound and asks the rule inside it.

One certification rule holds for every objective: a schedule is
verified against the caller's instance, at a threshold its own makespan
(minimum completion for ``>=``) meets, before the search moves to it,
by ``_incumbent`` or by the probe that returns it (``feasibility`` or
envy's scan), so every probe returns a certified schedule or None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .balancing import (
    guess_configs,
    idle_cmax_speeds,
    large_machine_cutoff,
    reduced_schedule,
)
from .confilp import (
    build_model,
    enumerate_configs,
    narrow_windows,
    solve_model,
    state_limit_default,
    type_loads,
)
from .model import (
    CertificateError,
    FeasibilityQuery,
    GE,
    HMSchedule,
    Instance,
    JOB_EQ,
    JOB_LE,
    LE,
    MalformedInputError,
    aggregate_jobs,
    ceil_times,
    dot,
    floor_times,
    make_schedule,
    objective_value,
    verify_schedule,
)
from .reduction import compress, lift_schedule, normalize


# the solving methods ``feasibility`` and the threshold drivers accept
METHODS = ("auto", "confilp")


class InfeasibleRestrictionError(RuntimeError):
    """A demanded job type has no machine type that may run it."""


@dataclass(frozen=True)
class SolveResult:
    objective: str
    value: Fraction
    schedule: HMSchedule
    trace: dict


@dataclass(frozen=True)
class CandidateGrid:
    """Description of the exact search set for one objective.

    Each entry is (type, denominator, max_numerator): the values
    {k / denominator : 0 <= k <= max_numerator}.  The type is the machine
    type whose completion the value is (cmax, cmin) or that completes
    last (cenvy).  No schedule does better than ``bound``: the area
    bound P / S (S the summed speed of all machines) is below every
    makespan and above every minimum completion, because
    sum_i s_i * C_i = P; envy is >= 0.
    """

    objective: str
    entries: tuple[tuple[int, ...], ...]
    bound: Fraction


def candidate_values(inst: Instance, objective: str) -> CandidateGrid:
    """The exact grid every optimum of ``objective`` lies on.

    A makespan or minimum completion is some type t machine's load k
    over s_t, with k at most P_t, the load of the job types t may run.
    With this cap no two probes of a ``_search_grid`` solve share
    normalized speeds, min(floor(T * s_t), 1 + P) for ``<=``.  A later
    probe lies inside the bracket an earlier probe T1 left.  If T1 was
    refuted, a later probe k / s_t (k <= P_t) lies above it: type t's
    normalized speed is k there and below k at T1.  If T1 returned a
    schedule of makespan L / s_u (L <= P), a later probe lies below it:
    type u's normalized speed is below L there and at least L at T1.
    The 1 + P clamp cannot equalize speeds that low.  ``>=`` mirrors
    this with ceilings.

    An envy is a difference of two completions a / s_t, each a multiple
    of 1 / L, L the lcm of the speeds of the types with machines, so
    every envy lies on {k / L}; it is at most pmax (``minimize_envy``).
    Envy lists one entry (t1, L, pmax * L) per type t1 with machines,
    for the top type whose machines complete last.  ``inst`` must pass
    ``admit``.
    """
    P = inst.total_load
    if objective in ("cmax", "cmin"):
        entries = tuple((t, inst.s[t], cap) for t, (m, _, cap)
                        in enumerate(type_loads(inst)) if m > 0)
        capacity = sum(s * m for s, m in zip(inst.s, inst.m))
        return CandidateGrid(objective, entries, Fraction(P, capacity))
    if objective == "cenvy":
        present = [t for t in range(inst.tau) if inst.m[t] > 0]
        L = math.lcm(*(inst.s[t] for t in present))
        return CandidateGrid(objective, tuple(
            (t1, L, inst.pmax * L) for t1 in present), Fraction(0))
    raise ValueError(f"unknown objective {objective!r}")


def _unrunnable_job_type(inst: Instance) -> int | None:
    """A job type with demand that no machine may run (None if none is)."""
    return next((j for j in range(inst.d) if inst.n[j] > 0 and not any(
        inst.m[t] > 0 and inst.allowed(j, t) for t in range(inst.tau))), None)


def admit(inst: Instance, objective: str) -> None:
    """Reject an instance that no route can solve for ``objective``.

    Every solve route asks this first, so each input ends in the same
    exit code whichever method solves it.  No job types (as ``gen``
    asks d >= 1; the envy grid needs pmax), no machines, or a machine
    type with machines but speed 0 (the value grids divide by every
    speed present; speed 0 without machines stays allowed), is
    malformed, and so is a restricted ``cenvy`` solve: restricted
    assignment is defined for makespan and minimum completion only.  A
    job type with demand that no machine may run leaves no schedule
    (``InfeasibleRestrictionError``).
    """
    if inst.d < 1:
        raise MalformedInputError("need at least one job type")
    if inst.machine_count < 1:
        raise MalformedInputError("need at least one machine")
    if any(s == 0 and m > 0 for s, m in zip(inst.s, inst.m)):
        raise MalformedInputError("machine types with machines need speed >= 1")
    if objective == "cenvy" and inst.restrict is not None:
        raise MalformedInputError("cenvy needs an unrestricted instance")
    j = _unrunnable_job_type(inst)
    if j is not None:
        raise InfeasibleRestrictionError(
            f"job type {j} has {inst.n[j]} jobs but no machine may run it")


def _certify(inst: Instance, sched: HMSchedule, q: FeasibilityQuery) -> None:
    report = verify_schedule(inst, sched, q)
    if not report.ok:
        raise CertificateError("; ".join(report.violations))


def _complete_to_demand(inst: Instance, sched: HMSchedule) -> HMSchedule:
    """Add leftover jobs until usage equals inst.n (loads only increase).

    Each job type's leftover goes onto one machine of the first entry
    whose machine type may run it; leftovers that pick the same entry
    share that machine.  ``feasibility`` runs it on the caller's
    instance, after lifting a guessed schedule.
    """
    usage = aggregate_jobs(sched)
    extra: dict[int, list[int]] = {}
    for j, (u, v) in enumerate(zip(usage, inst.n)):
        if u > v:
            raise CertificateError(f"usage {usage} exceeds demand {inst.n}")
        if u == v:
            continue
        i = next((i for i, (t, _, count) in enumerate(sched.entries)
                  if count and inst.allowed(j, t)), None)
        if i is None:
            raise CertificateError(f"no machine may take leftover jobs of type {j}")
        extra.setdefault(i, [0] * inst.d)[j] = v - u
    if not extra:
        return sched
    raw = []
    for i, (t, counts, count) in enumerate(sched.entries):
        if i in extra:
            raw.append((t, tuple(c + x for c, x in zip(counts, extra[i])), 1))
            count -= 1
        raw.append((t, counts, count))
    return make_schedule(inst.d, raw)


# ---------------------------------------------------------------------------
# Balanced pipeline
# ---------------------------------------------------------------------------

def balanced_feasibility(inst: Instance, rel: str,
                         state_limit: int | None = None
                         ) -> tuple[HMSchedule | None, dict]:
    """Feasibility at threshold 1 via rounded-schedule guessing.

    ``rel == "<="`` answers: is there a <=1-feasible schedule using
    exactly n?  ``rel == ">="`` expects the instance to be the converted
    form of a minimum-completion question (speeds already raised by
    pmax - 1, see ``idle_cmax_speeds``) and answers: is there a
    schedule using at most n whose idle load is at most pmax - 1 on
    every machine at threshold 1?  Another relation, or no machine above
    the large-machine cutoff, raises ``MalformedInputError``.

    The loop enumerates the three integral vectors that determine the
    rounded fractional schedule for the (unknown) jobs of the fast
    machines: the common floor phase g1a (load at most the cutoff), the
    spread phase floor g1b (load from 1 to what g1a leaves of the
    cutoff), and the floored proportional phase g2 of the fastest
    machine (load from area2_max - sum_p + 1 to area2_max, its speed
    above the cutoff).  Caps keep the fractional usage ``mL * (g1a +
    g1b) * area2_max + area_2 * g2`` within ``n * area2_max``: g1a_j <=
    min(pmax, n_j // mL), g1b_j <= n_j // mL - g1a_j and g2_j <= (n_j -
    mL * (g1a_j + g1b_j)) * area2_max // area_2, the last two 0 unless
    g1a_j == pmax (type j saturated).  g2's window starts at area2_max
    - sum_p + 1: phase 1b holds jobs only once phase 2 fills area 2, so
    with g1b non-empty the fastest machine's phase 2 loads area2_max,
    and flooring it loses less than sum_p.  g2's cap is largest at g1b = 0,
    so a g1a whose g2 box there loads less than g2's lower end has no
    g2 at all and is skipped whole.  ``info["guesses"]`` counts the
    guesses the loop visits, and it attempts every one.  The boxes are
    listed by ``confilp.enumerate_configs``, as model columns are.

    Every guess preassigns ``balancing.reduced_schedule`` of the floors
    that ``balancing.guess_configs`` gives, one row per fast type (zero
    elsewhere), and solves one configuration model of a residual
    instance that keeps inst's types in order, each at the speed r its
    row leaves, and demands n minus the rows; the rows are then folded
    back.  Each type's load window is [0, r] with usage exactly the
    residual demand for ``<=``, and [max(0, r - pmax + 1), r] with usage
    at most it for ``>=`` (inst's speeds already raised by
    ``idle_cmax_speeds``).  The rows never place more than n: the caps
    bound the fractional usage by n, and flooring and
    ``reduced_schedule`` only lower entries.  Nor does a row overload
    its machine: the floored row of speed s has load at most dot(p, g1a
    + g1b) + (s - cutoff) / area2_max * dot(p, g2) <= s, so no residual
    speed is negative.  A guess yields either a schedule or nothing, so
    enumeration order cannot affect soundness.

    When no guess yields a schedule this returns None: the loop only
    finds schedules, and a None refutes nothing.  ``feasibility`` then
    asks the direct model of the normalized question, as ``--method
    confilp`` does.  A schedule is not certified here: ``feasibility``
    certifies it once, lifted, against the caller's instance.
    """
    if rel not in (LE, GE):
        raise MalformedInputError(f"bad relation {rel!r}")
    d, p, n, pmax = inst.d, inst.p, inst.n, inst.pmax
    idle_cap = None if rel == LE else pmax - 1
    usage = JOB_EQ if rel == LE else JOB_LE
    cutoff = large_machine_cutoff(d, pmax)
    large = [t for t in range(inst.tau) if inst.m[t] > 0 and inst.s[t] > cutoff]
    if not large:
        raise MalformedInputError("the guessing pipeline needs a fast machine")
    info: dict = {"path": "balanced", "guesses": 0}

    fast_s = tuple(inst.s[t] for t in large)
    fast_m = tuple(inst.m[t] for t in large)
    mL = sum(fast_m)
    area2_max = max(fast_s) - cutoff
    area_2 = sum(m * (s - cutoff) for s, m in zip(fast_s, fast_m))
    g2_lower = max(0, area2_max - sum(p) + 1)

    g1a_cap = tuple(min(pmax, nj // mL) for nj in n)
    for g1a in enumerate_configs(p, g1a_cap, (0, cutoff)):
        if sum(pj * ((nj - mL * a) * area2_max // area_2)
               for pj, a, nj in zip(p, g1a, n) if a == pmax) < g2_lower:
            continue
        g1b_cap = tuple(nj // mL - a if a == pmax else 0
                        for a, nj in zip(g1a, n))
        for g1b in enumerate_configs(p, g1b_cap, (1, cutoff - dot(p, g1a))):
            g2_cap = tuple((nj - mL * (a + b)) * area2_max // area_2
                           if a == pmax else 0
                           for a, b, nj in zip(g1a, g1b, n))
            for g2 in enumerate_configs(p, g2_cap, (g2_lower, area2_max)):
                info["guesses"] += 1
                # a fast type's row is its reduced floor, every other's 0
                reduced = iter(reduced_schedule(
                    guess_configs(fast_s, cutoff, g1a, g1b, g2),
                    idle_cap, inst.pmin, pmax))
                rows = [next(reduced) if t in large else (0,) * d
                        for t in range(inst.tau)]
                demand = tuple(nj - sum(m * r[j] for m, r in zip(inst.m, rows))
                               for j, nj in enumerate(n))
                spare = tuple(s - dot(p, r) for s, r in zip(inst.s, rows))
                part = solve_model(build_model(
                    Instance(p, demand, spare, inst.m),
                    [(0 if rel == LE else max(0, s - idle_cap), s)
                     for s in spare], demand_relation=usage), state_limit)
                if part is not None:
                    return make_schedule(d, [
                        (t, tuple(a + b for a, b in zip(c, rows[t])), count)
                        for t, c, count in part.entries]), info
    return None, info


# ---------------------------------------------------------------------------
# Feasibility front door
# ---------------------------------------------------------------------------

def feasibility(inst: Instance, rel: str, threshold: Fraction,
                method: str = "auto", state_limit: int | None = None,
                trace: dict | None = None) -> HMSchedule | None:
    """Decide rel-threshold feasibility and return a certified schedule.

    The threshold must be an int or a Fraction (``normalize`` checks),
    and an instance without job types is malformed, as ``admit`` says.
    Every query, with job usage exactly n, is normalized to threshold 1
    (``reduction.normalize``); a ``>=`` question becomes an idle-capped
    ``<=`` one with usage at most n (``idle_cmax_speeds``), whose leftover
    jobs are added back afterwards, which only raises loads.

    The direct model's windows are computed once, from the normalized
    speeds s_t: [0, s_t] with usage exactly n for ``<=``, and the
    converted speeds' windows [s_t, s_t + pmax - 1] with usage at most n
    for ``>=``.  First the load-window rule (``confilp.narrow_windows``)
    asks them.  A refutation answers the probe (``trace["path"] ==
    "capacity"``) before any model or compressed instance is built.  For
    ``>=`` it is the verdict on [s_t, oo) with usage exactly n: the least
    multiple of g_t from s_t on is at most s_t + g_t - 1 <= s_t + pmax -
    1, so the same windows hold a load, from the same lower ends, and
    the sum test only ``=`` makes, sum m_t * P_t >= P, holds once no
    demanded job type is unrunnable, which is checked just before.

    An ``"auto"`` probe of an unrestricted instance compresses the
    normalized instance (``reduction.compress``), converted for ``>=``,
    and guesses only if that leaves a machine above the large-machine
    cutoff, lifting back a schedule the guess loop finds.  A probe that
    does not guess, or that no guess answers, asks the one model that
    ``"confilp"`` asks: ``build_model`` of the normalized instance on the
    same windows, which never reads speeds, so the model is the
    converted instance's for ``>=``.  It cuts the windows into the lcm
    blocks that compression would make, so both methods share every
    refutation.  Restricted instances never compress (a merged speed
    type has no sound restriction row); each type's window is reduced
    over the sizes it may run, and leftover jobs go only to machines
    that may run them.  A ``>=`` schedule is completed to n on ``inst``.
    """
    if state_limit is None:
        state_limit = state_limit_default()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if trace is None:
        trace = {}
    if inst.d < 1:
        raise MalformedInputError("need at least one job type")

    norm = normalize(inst, rel, threshold)
    threshold = Fraction(threshold)
    if _unrunnable_job_type(inst) is not None:
        return None
    usage = JOB_EQ if rel == LE else JOB_LE
    windows = ([(0, s) for s in norm.s] if rel == LE
               else [(s, s + inst.pmax - 1) for s in norm.s])
    loads = type_loads(inst)
    if narrow_windows(loads, inst.total_load, windows, usage) is None:
        trace["path"] = "capacity"
        return None

    sched = None
    if inst.restrict is None and method == "auto":
        comp, cmap = compress(norm)
        if rel == GE:
            comp = replace(comp, s=idle_cmax_speeds(comp.s, inst.pmax))
        cutoff = large_machine_cutoff(inst.d, inst.pmax)
        if any(s > cutoff and k > 0 for s, k in zip(comp.s, comp.m)):
            sched, info = balanced_feasibility(comp, rel,
                                               state_limit=state_limit)
            trace.update(info)
            if sched is not None:
                sched = lift_schedule(sched, cmap)
    if sched is None:
        sched = solve_model(build_model(norm, windows, demand_relation=usage,
                                        loads=loads), state_limit)
        trace["path"] = "direct-confilp"
        if sched is None:
            return None
    if rel == GE:
        sched = _complete_to_demand(inst, sched)
    _certify(inst, sched, FeasibilityQuery(rel, threshold))
    return sched


# ---------------------------------------------------------------------------
# Objective drivers
# ---------------------------------------------------------------------------

def _search_grid(inst: Instance, objective: str, probe,
                 trace: dict) -> SolveResult:
    """Solve ``objective``: the best feasible value on its exact grid.

    The one solve frame of every driver.  It lists ``candidate_values``,
    whose entries ``(type, den, top)`` stand for the values {k / den :
    0 <= k <= top}, and keeps one bracket.  Its best side is a schedule
    and its own value (``objective_value``), first the incumbent
    (``_incumbent``; envy reads its gap); its refuted side is first the
    grid's bound.  Each probe, ``probe(entry, value)`` at a value
    strictly inside the bracket, returns a certified schedule or None:
    like the incumbent, each schedule is verified against ``inst``, at a
    threshold its own makespan (minimum completion for cmin) meets,
    before the search moves the best side to its own value.  A refutation moves the
    refuted side for every entry of its question, the entries that ask
    the same monotone question (every value above a feasible one is
    feasible when minimizing, every value below when maximizing): all
    entries of a cmax or cmin grid, and the one entry of an envy top
    type.  An empty bracket costs no probe, and the bracket ends are
    floor divisions, not Fraction products.

    Every question is asked first at the grid value next to its best
    side, over all of its entries, and then its entries are bisected
    over k in order.  Refuting that first value empties the question,
    so an optimal best side costs one probe: the incumbent is nearly
    always optimal, and the ``mixed`` threshold solves make 312 probes.
    """
    grid = candidate_values(inst, objective)
    minimize = objective != "cmin"
    bound = grid.bound
    value, sched = _incumbent(inst, LE if minimize else GE)
    if objective == "cenvy":
        value = objective_value(inst, sched, objective)
    best = (value, sched)

    def bracket(entry: tuple[int, int, int]) -> tuple[int, int]:
        """The numerators lo..hi strictly inside the bracket."""
        _, den, top = entry
        if minimize:
            return (ceil_times(bound, den) if refuted is None
                    else floor_times(refuted, den) + 1,
                    min(top, ceil_times(best[0], den) - 1))
        return (floor_times(best[0], den) + 1,
                min(top, floor_times(bound, den) if refuted is None
                    else ceil_times(refuted, den) - 1))

    def refutes(entry: tuple[int, int, int], value: Fraction) -> bool:
        """Probe at value: True if refuted; a schedule moves the best side."""
        nonlocal best
        trace["probes"] += 1
        sched = probe(entry, value)
        if sched is None:
            return True
        best = (objective_value(inst, sched, objective), sched)
        return False

    questions = ([(entry,) for entry in grid.entries]
                 if objective == "cenvy" else [grid.entries])
    for entries in questions:
        refuted = None
        near = [(Fraction(hi if minimize else lo, entry[1]), entry)
                for entry in entries for lo, hi in [bracket(entry)] if lo <= hi]
        if near:
            value, entry = (max if minimize else min)(near)
            if refutes(entry, value):
                refuted = value
        for entry in entries:
            while True:
                lo, hi = bracket(entry)
                if lo > hi:
                    break
                value = Fraction((lo + hi) // 2, entry[1])
                if refutes(entry, value):
                    refuted = value
    return SolveResult(objective, *best, trace)


def _deal(inst: Instance, rel: str) -> list[list]:
    """The proportional assignment rounded by run, as runs of identical
    machines ``[type, counts, load, machines]`` (``_incumbent``)."""
    d, p, s = inst.d, inst.p, inst.s
    runs = [[t, [0] * d, 0, m] for t, m in enumerate(inst.m) if m > 0]
    order = sorted(range(d), key=lambda j: -p[j])
    for j in order:
        mine = [run for run in runs if inst.allowed(j, run[0])]
        capacity = sum(s[t] * k for t, _, _, k in mine)
        left = inst.n[j]
        for run in mine:
            share = inst.n[j] * s[run[0]] // capacity
            run[1][j] += share
            run[2] += share * p[j]
            left -= share * run[3]
        # completion (load + after) / s_t, scaled by L: after one more
        # job, or before it for the last type of a >= incumbent
        after = 0 if rel == GE and j == order[-1] else p[j]
        L = math.lcm(*(s[run[0]] for run in mine))
        mine.sort(key=lambda run: (run[2] + after) * (L // s[run[0]]))
        for run in mine:
            if left == 0:
                break
            take = min(left, run[3])
            if take < run[3]:
                runs.append([run[0], list(run[1]), run[2], run[3] - take])
                run[3] = take
            run[1][j] += 1
            run[2] += p[j]
            left -= take
    return runs


def _critical(runs: list[list], s: tuple[int, ...], sign: int) -> list:
    """The first run that completes last (sign 1) or first (sign -1)."""
    crit = runs[0]
    for run in runs:
        if sign * (run[2] * s[crit[0]] - crit[2] * s[run[0]]) > 0:
            crit = run
    return crit


def _bundles(p: tuple[int, ...], counts: list[int], jobs: list[int],
             most: int) -> list[tuple[tuple[int, ...], int]]:
    """Each bundle of at most ``most`` (1 or 2) of ``jobs``, a machine's
    job types, with its load: none, one job, then two jobs, two of one
    type only if the machine holds two."""
    out = [((), 0)] + [((j,), p[j]) for j in jobs]
    if most == 2:
        out += [((j, k), p[j] + p[k]) for i, j in enumerate(jobs)
                for k in jobs[i:] if k != j or counts[j] > 1]
    return out


def _improve(inst: Instance, rel: str, runs: list[list]) -> int:
    """Improve ``_deal``'s runs in place; return the steps made.

    Each step takes the critical run (``_critical``) and ends the loop
    if it holds several machines: moving jobs on one of them leaves the
    value where it is.  Otherwise it tries, against every other run o,
    each move of the critical machine that gives o a bundle of at most
    one job and takes one from o (jump and swap), each job allowed on
    the machine that receives it.  Only if none of them qualifies does
    it try the moves that give or take a pair of jobs, so up to two
    jobs go each way.  Of the moves after which both touched machines
    complete strictly better than the critical one did, it makes the
    one whose worse touched completion is best, the first in run, given
    bundle, taken bundle order on a tie, splitting one machine off o if
    o holds several.  With B = 1 + d + d(d + 1) / 2 bundles per machine,
    a step costs O(runs * B^2) integer operations.  The loop ends when
    no move qualifies, or after d times the dealt runs steps.
    """
    d, p, s = inst.d, inst.p, inst.s
    sign = 1 if rel == LE else -1
    limit = d * len(runs)
    for step in range(limit):
        crit = _critical(runs, s, sign)
        if crit[3] > 1:
            return step
        c, load = crit[0], crit[2]
        held = [j for j in range(d) if crit[1][j]]
        best = None
        for most in (1, 2):
            for o in runs:
                # A move shifts load sign * shift from crit to o: crit
                # gets strictly better iff shift > 0, and o stays
                # strictly better than crit was iff shift * s_c < slack,
                # so a run with slack <= s_c, crit's own included, admits
                # no move.
                u = o[0]
                slack = sign * (load * s[u] - o[2] * s[c])
                if slack <= s[c]:
                    continue
                gives = _bundles(p, crit[1], [
                    j for j in held if inst.allowed(j, u)], most)
                takes = _bundles(p, o[1], [
                    j for j in range(d) if o[1][j] and inst.allowed(j, c)], most)
                # the takes that, with a smaller give, make a move this
                # pass has not tried: the pair pass skips the others
                new = takes[sum(len(t) < most for t, _ in takes):]
                for g, pg in gives:
                    for t, pt in takes if len(g) == most else new:
                        shift = sign * (pg - pt)
                        if shift <= 0 or shift * s[c] >= slack:
                            continue
                        mine, theirs = load + pt - pg, o[2] + pg - pt
                        worse = sign * (mine * s[u] - theirs * s[c]) > 0
                        a, b = (mine, s[c]) if worse else (theirs, s[u])
                        if (best is None
                                or sign * (a * best[1] - best[0] * b) < 0):
                            best = (a, b, o, g, t)
            if best is not None:
                break
        if best is None:
            return step
        _, _, o, g, t = best
        if o[3] > 1:
            runs.append([o[0], list(o[1]), o[2], o[3] - 1])
            o[3] = 1
        for jobs, k in ((g, 1), (t, -1)):
            for j in jobs:
                o[1][j] += k
                o[2] += k * p[j]
                crit[1][j] -= k
                crit[2] -= k * p[j]
    return limit


def _incumbent(inst: Instance, rel: str) -> tuple[Fraction, HMSchedule]:
    """A certified schedule dealt in proportion to speed, and its value.

    Job types go in decreasing size.  Every machine of type t that may
    run job type j takes floor(n_j * s_t / S_j) of its jobs, S_j the
    summed speed of all machines that may run j.  Fewer jobs than those
    machines are left over; they go one per machine to the machines
    that complete earliest after taking one, which splits at most one
    run of identical machines per job type.  For ``>=`` the last job
    type's leftovers go instead to the machines that complete earliest
    before taking one, the max-min greedy rule of Deuermeyer, Friesen
    and Langston: on p=(3,), n=(12,), s=(2, 7, 9, 10, 12) the makespan
    rule passes over the speed-2 machine, whose share floors to 0, and
    the deal is 0 instead of the optimum 3/4.  The max-min rule on
    every type lowered some incumbents of the benchmark's ``mixed``
    corpus.  Either way a machine takes at most one leftover per job
    type, which is all the distance bound (module docstring) needs
    (``_deal``).

    The deal is then improved by moves on its critical machine, the one
    that completes last for ``<=`` and first for ``>=`` (``_improve``):
    the jump and swap moves of Schuurman and Vredeveld, which move at
    most one job each way, and, only once none of them qualifies, pair
    moves, which give and take up to two jobs each.  Some optima need
    one: on p=(2,3), n=(3k+1, 2k), s=(5,7), m=(k,k) jump and swap stop
    at 6/5, and two size-2 jobs out and one size-3 job in reach the
    optimum 8/7.  As a fallback the pair moves leave every step that a
    jump or swap makes as it was, and they cost little: tried at every
    step they made the incumbent about five times slower at d = 10.  A
    move changes two machines, and both then complete strictly better
    than the critical one did; every other machine is untouched and was
    no worse, so the value never gets worse than the deal's: it lies
    between P / S and the deal's value, so within the distance bound.
    The moves make at most d times the number of runs steps of O(runs *
    B^2) integer operations each, B = 1 + d + d(d + 1) / 2 the bundles
    of at most two jobs, so the work grows with d and the number of
    runs, never with n or m.  The value is the critical run's
    completion, the largest for ``<=`` and the smallest for ``>=``, and
    the schedule is certified at it.
    """
    runs = _deal(inst, rel)
    _improve(inst, rel, runs)
    crit = _critical(runs, inst.s, 1 if rel == LE else -1)
    value = Fraction(crit[2], inst.s[crit[0]])
    sched = make_schedule(inst.d, [(t, c, k) for t, c, _, k in runs])
    _certify(inst, sched, FeasibilityQuery(rel, value))
    return value, sched


def _optimize_threshold(inst: Instance, objective: str, method: str,
                        state_limit: int | None) -> SolveResult:
    if state_limit is None:
        state_limit = state_limit_default()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    admit(inst, objective)
    rel = LE if objective == "cmax" else GE
    # a solve that runs no probe is answered by the incumbent
    last: dict = {"path": "incumbent"}

    def probe(entry: tuple[int, ...], T: Fraction) -> HMSchedule | None:
        nonlocal last
        last = {}
        return feasibility(inst, rel, T, method=method,
                           state_limit=state_limit, trace=last)

    result = _search_grid(inst, objective, probe, {"probes": 0})
    # the probe count plus the last probe's keys
    result.trace.update(last)
    return result


def minimize_makespan(inst: Instance, method: str = "auto",
                      state_limit: int | None = None) -> SolveResult:
    """Smallest T with a <=T-feasible schedule using exactly n."""
    return _optimize_threshold(inst, "cmax", method, state_limit)


def maximize_min_completion(inst: Instance, method: str = "auto",
                            state_limit: int | None = None) -> SolveResult:
    """Largest T with a >=T-feasible schedule using exactly n."""
    return _optimize_threshold(inst, "cmin", method, state_limit)


def minimize_envy(inst: Instance, state_limit: int | None = None) -> SolveResult:
    """Smallest achievable gap between the largest and smallest completion.

    The optimum is C1 - C2 for the completions of some two machines, so
    it lies on the grid {k / L} of ``candidate_values``, L the lcm of the
    speeds with machines.  Per top type t1, binary search the smallest
    E = k / L such that for some candidate top completion C1 = a / s_t1
    the load windows [ceil((C1 - E) * s_t), floor(C1 * s_t)] admit a
    schedule; such a schedule has envy at most E, and at the type of a
    machine that completes last in an optimal schedule E = OPT is
    witnessed by that schedule itself, so the minimum over top types is
    exact.

    OPT <= pmax, because every speed is at least 1: while C_max - C_min
    > pmax, move any job from a machine completing at C_max (it has
    one, since C_max > pmax) to one completing at C_min.  The first
    drops below C_max, the second ends at most C_min + pmax < C_max,
    and no other completion changes, so the completions sorted in
    decreasing order drop lexicographically; there are finitely many
    schedules, so the moves stop at one with envy at most pmax.  Hence
    the grid stops at pmax * L.

    The scan over a runs in integers: C1 = a * (L / s_t1) / L, so hi_t =
    a*s_t // s_t1 and lo_t = max(0, ceil((a * (L / s_t1) - k) * s_t /
    L)).  The area bound fixes its range: since sum_i s_i * C_i = P on
    every schedule, C_max >= P / S >= C_min, so an envy of at most E
    needs P / S <= C1 <= P / S + E, and a runs from ceil(P * s_t1 / S)
    to floor((P / S + E) * s_t1).  No a outside that range has a
    schedule: below it every load is at most C1 * s_t < P * s_t / S, so
    the loads sum to less than P; above it every load is at least (C1 -
    E) * s_t > P * s_t / S, so they sum to more than P.  Inside it the
    load-window rule (``confilp.narrow_windows``) rejects an a before
    any model (``trace["empty_windows"]``), and only values of a whose
    model is infeasible, so the first a that admits a schedule, and its
    schedule, are those of the unrounded scan.  A model is built and
    solved once per distinct window tuple in a solve; ``trace["solves"]``
    counts those solves and ``trace["cache_hits"]`` the window tuples
    answered from that memo.  A window whose reduced core admits no
    configuration ends its model at that empty group (``build_model``),
    which ``solve_model`` rejects before its dynamic program.

    The check is monotone in E: a larger E lowers every lo_t and moves
    the end of the a range up, and a schedule inside the smaller windows
    lies inside the larger ones.  So ``_search_grid`` keeps one refuted
    side per top type: no probe asks an E that an earlier refutation of
    its t1 settled.  A schedule found at E has
    envy at most E; the scan certifies it at its own makespan, and the
    search moves to that envy.  Each t1 is asked first just below the
    best envy so far; once the best envy is optimal, that one refuted
    probe settles t1, and the incumbent's envy is often optimal already.

    A zero-load instance takes the same search: its incumbent leaves
    every machine empty, with envy 0, which the grid's bound meets, so
    no probe is asked.
    """
    if state_limit is None:
        state_limit = state_limit_default()
    admit(inst, "cenvy")
    P = inst.total_load
    trace: dict = {"probes": 0, "solves": 0, "cache_hits": 0,
                   "empty_windows": 0}
    loads = type_loads(inst)
    S = sum(s * m for s, m in zip(inst.s, inst.m))
    memo: dict[tuple[tuple[int, int], ...], HMSchedule | None] = {}

    def check(entry: tuple[int, int, int], E: Fraction) -> HMSchedule | None:
        t1, den, _ = entry
        s1 = inst.s[t1]
        k = E.numerator * (den // E.denominator)

        def lower(a: int, s: int) -> int:
            return max(0, -((k - a * (den // s1)) * s // den))

        # the area bound: P / S <= a / s1 <= P / S + k / den
        first = -(-P * s1 // S)
        last = (P * den + k * S) * s1 // (S * den)
        for a in range(first, last + 1):
            # a type without machines gets (0, 0), which build_model skips
            windows = tuple((lower(a, s), a * s // s1) if m else (0, 0)
                            for s, m in zip(inst.s, inst.m))
            if narrow_windows(loads, P, windows, JOB_EQ) is None:
                trace["empty_windows"] += 1
                continue
            if windows in memo:
                trace["cache_hits"] += 1
                sched = memo[windows]
            else:
                trace["solves"] += 1
                model = build_model(inst, windows, demand_relation=JOB_EQ,
                                    loads=loads)
                sched = memo[windows] = solve_model(model, state_limit)
            if sched is not None:
                _certify(inst, sched, FeasibilityQuery(
                    LE, objective_value(inst, sched, "cmax")))
                return sched
        return None

    return _search_grid(inst, "cenvy", check, trace)


def solve_restricted(inst: Instance, objective: str,
                     state_limit: int | None = None) -> SolveResult:
    """Makespan / minimum-completion optimization under restricted assignment.

    The same threshold driver as ``minimize_makespan`` and
    ``maximize_min_completion``: every probe goes through
    ``feasibility``, which normalizes the restricted instance, skips
    compression, converts a ``>=`` question with ``idle_cmax_speeds``
    and solves the restricted configuration model directly, its per-type
    load windows reduced over each type's allowed job sizes.  A job type
    with demand but no machine that may run it raises
    InfeasibleRestrictionError.
    """
    if objective not in ("cmax", "cmin"):
        raise ValueError(f"restricted solver handles cmax/cmin, not {objective!r}")
    return _optimize_threshold(inst, objective, "auto", state_limit)
