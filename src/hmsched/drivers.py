"""Optimization drivers: one binary search over exact value grids.

Every objective reduces to feasibility questions "is there a schedule at
least as good as T".  Any optimum is some machine's integer load divided
by that machine's speed (for envy, a difference of two such values), so
every driver runs ``_search_grid`` over the exact grids listed by
``candidate_values`` and never leaves rational arithmetic.

Each search keeps one certified bracket that every probe narrows.  One
side is the best schedule so far at its own value, first an incumbent
(``_incumbent``): the proportional assignment, rounded by run.  Its
leftover jobs go to the machines that complete earliest after taking
one, except that a ``>=`` incumbent deals its last job type's by
completion before taking one, the max-min greedy rule.  The
other side is refuted, first at the area bound P / S, because
sum_i s_i * C_i = P on every schedule.  So no solve asks a question
twice.  Without restrictions every machine takes its floored share of
each job type plus at most one leftover, whichever machines the
leftovers go to, so its load is within sum(p) of its proportional
share, the incumbent lies within d * pmax / s_min of P / S and the
number of probes does not grow with n or m; a solve whose incumbent
meets the area bound probes nothing.

Every solve route, the drivers' and the command line's oracle alike,
first asks ``admit`` whether the instance can be solved at all.

Makespan and minimum-completion solves, restricted or not, share one
threshold driver (``_optimize_threshold``) and one feasibility route
(``feasibility``): normalize speeds to threshold 1, refute the probe
without a model when no loads in multiples of each type's job size gcd
fit (``capacity_refutes``), and turn a minimum-completion question into
an idle-capped makespan question (``idle_cmax_speeds``: bounded load
windows, job usage at most n, leftover jobs added back afterwards).
Then solve one configuration model directly, unless the method is
``"auto"``, the instance is unrestricted and compressing its fast
machines (``reduction.compress_machines``) leaves one above the
large-machine cutoff.  Only such a probe guesses the integral data of
the rounded fractional schedule on the fast machines, builds its
integer configurations (``balancing.guess_configs``),
preassigns their floor minus the balancing margin
(``balancing.reduced_schedule``), solves the much smaller residual
model, and lifts the schedule back (``reduction.lift_schedule``).  A
probe that no guess answers asks the direct model of the compressed
instance, so guessing only ever finds schedules and every refutation
comes from an exact model.  Either way the answer is certified by
verify_schedule before being returned.  Each schedule the
threshold driver returns is verified once against the caller's
instance, by ``_incumbent`` or by the ``feasibility`` call that found
it, at a threshold its own value meets.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .balancing import (
    guess_configs,
    idle_cmax_speeds,
    large_machine_cutoff,
    reduced_schedule,
)
from .confilp import build_model, enumerate_uncached, solve_model
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
from .reduction import compress_machines, lift_schedule, normalized_speeds
# Probes no longer call these; the benchmark's tracer rebinds them by
# name in this module.
from .reduction import compress, normalize  # noqa: F401


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


def type_loads(inst: Instance) -> list[tuple[int, int, int]]:
    """(m_t, g_t, P_t) per machine type t, for ``capacity_refutes``: g_t
    is the gcd of the job sizes with demand that t may run (1 if there
    are none) and P_t their total load."""
    out = []
    for t, m in enumerate(inst.m):
        g = cap = 0
        for j, (pj, nj) in enumerate(zip(inst.p, inst.n)):
            if nj and inst.allowed(j, t):
                g, cap = math.gcd(g, pj), cap + pj * nj
        out.append((m, g or 1, cap))
    return out


def capacity_refutes(total: int, windows) -> bool:
    """True if no schedule of load ``total`` keeps its loads in ``windows``.

    ``windows`` holds one (m_t, g_t, P_t, lo_t, hi_t) per machine type
    with machines, as ``type_loads`` gives them plus the load window
    [lo_t, hi_t] (hi_t None: unbounded) of each of its m_t machines.
    It refutes only questions without a schedule, because a machine of
    type t runs only job sizes with demand that t may run: its load is a
    sum of such sizes, so a multiple of their gcd g_t and at most their
    total load P_t.  Inside its window it lies between
    ceil(lo_t / g_t) * g_t and min(floor(hi_t / g_t) * g_t, P_t); if the
    first exceeds the second no load fits.  The loads of all machines
    sum to ``total``, which must therefore lie between the sums of these
    ends over all machines.  It costs O(tau) integer steps and builds no
    model.
    """
    least = most = 0
    for m, g, cap, lo, hi in windows:
        lo = -(-lo // g) * g
        hi = cap if hi is None else min(hi // g * g, cap)
        if lo > hi:
            return True
        least += m * lo
        most += m * hi
    return not least <= total <= most


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
    share that machine.
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

def _solve_at_one(inst: Instance, rel: str,
                  state_limit: int | None) -> HMSchedule | None:
    """Solve inst's configuration model of a ``rel`` question at threshold 1.

    Each machine type gets the load window [0, s] for ``<=`` and
    [s - pmax + 1, s] for ``>=`` (inst's speeds already raised by
    ``idle_cmax_speeds``), and job usage is exactly inst.n for ``<=`` and at
    most inst.n for ``>=``.  Every threshold-1 model of the direct and
    the balanced path is asked through here.
    """
    windows = [(0 if rel == LE else max(0, s - inst.pmax + 1), s)
               for s in inst.s]
    model = build_model(inst, windows,
                        demand_relation=JOB_EQ if rel == LE else JOB_LE)
    return solve_model(model, state_limit)


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
    guesses the loop visits, and it attempts every one.  Each box is
    listed once, so it bypasses the model-column cache
    (``confilp.enumerate_uncached``).

    Every guess preassigns ``balancing.reduced_schedule`` of the floors
    that ``balancing.guess_configs`` gives, one row per fast type, and
    asks ``_solve_at_one`` once, with the question's relation (usage
    ``=`` for ``<=``, ``<=`` for ``>=``), on a residual instance that
    lists every machine type, the fast types first at their speed minus
    their row's load, and demands n minus the rows; the rows are then
    folded back.  The rows never place more than n: the caps bound the
    fractional usage by n, and flooring and ``reduced_schedule`` only
    lower entries.  Nor does a row overload its machine: the floored row
    of speed s has load at most dot(p, g1a + g1b) + (s - cutoff) /
    area2_max * dot(p, g2) <= s, so no residual speed is negative.  A
    guess yields either a schedule or nothing, so enumeration order
    cannot affect soundness.

    When no guess yields a schedule, the question goes to the direct
    model of ``inst`` itself (``info["path"] == "direct-confilp"``),
    which is exact, so every None this returns is a refutation of that
    model.  The schedule is not certified here: ``feasibility``
    certifies it once, lifted, against the caller's instance.
    """
    if rel not in (LE, GE):
        raise MalformedInputError(f"bad relation {rel!r}")
    d, p, n, pmax = inst.d, inst.p, inst.n, inst.pmax
    idle_cap = None if rel == LE else pmax - 1
    cutoff = large_machine_cutoff(d, pmax)
    large = [t for t in range(inst.tau) if inst.m[t] > 0 and inst.s[t] > cutoff]
    if not large:
        raise MalformedInputError("the guessing pipeline needs a fast machine")
    small = [t for t in range(inst.tau) if inst.m[t] > 0 and t not in large]
    info: dict = {"path": "balanced", "guesses": 0}

    # Every residual instance lists the fast types first, in the order of
    # ``large``.
    fast_s = tuple(inst.s[t] for t in large)
    fast_m = tuple(inst.m[t] for t in large)
    mL = sum(fast_m)
    area2_max = max(fast_s) - cutoff
    area_2 = sum(m * (s - cutoff) for s, m in zip(fast_s, fast_m))
    g2_lower = max(0, area2_max - sum(p) + 1)
    types = large + small
    slow_s = tuple(inst.s[t] for t in small)
    sub_m = tuple(inst.m[t] for t in types)

    g1a_cap = tuple(min(pmax, nj // mL) for nj in n)
    for g1a in enumerate_uncached(p, g1a_cap, (0, cutoff)):
        if sum(pj * ((nj - mL * a) * area2_max // area_2)
               for pj, a, nj in zip(p, g1a, n) if a == pmax) < g2_lower:
            continue
        g1b_cap = tuple(nj // mL - a if a == pmax else 0
                        for a, nj in zip(g1a, n))
        for g1b in enumerate_uncached(p, g1b_cap, (1, cutoff - dot(p, g1a))):
            g2_cap = tuple((nj - mL * (a + b)) * area2_max // area_2
                           if a == pmax else 0
                           for a, b, nj in zip(g1a, g1b, n))
            for g2 in enumerate_uncached(p, g2_cap, (g2_lower, area2_max)):
                info["guesses"] += 1
                rows = reduced_schedule(
                    guess_configs(fast_s, cutoff, g1a, g1b, g2),
                    idle_cap, inst.pmin, pmax)
                demand = tuple(nj - sum(m * r[j] for m, r in zip(fast_m, rows))
                               for j, nj in enumerate(n))
                spare = tuple(s - dot(p, r) for r, s in zip(rows, fast_s))
                part = _solve_at_one(Instance(p, demand, spare + slow_s, sub_m),
                                     rel, state_limit)
                if part is not None:
                    return make_schedule(d, [
                        (types[k], c if k >= len(rows)
                         else tuple(a + b for a, b in zip(c, rows[k])), count)
                        for k, c, count in part.entries]), info
    info["path"] = "direct-confilp"
    return _solve_at_one(inst, rel, state_limit), info


# ---------------------------------------------------------------------------
# Feasibility front door
# ---------------------------------------------------------------------------

def feasibility(inst: Instance, rel: str, threshold: Fraction,
                method: str = "auto", state_limit: int | None = None,
                trace: dict | None = None) -> HMSchedule | None:
    """Decide rel-threshold feasibility and return a certified schedule.

    Every query, with job usage exactly n, is normalized to threshold 1;
    a ``>=`` question becomes an idle-capped ``<=`` one that asks for
    usage at most n (``idle_cmax_speeds``), and its leftover jobs are
    added back afterwards, which only raises loads.

    Before any of that, ``capacity_refutes`` asks the normalized question
    itself, with usage exactly n: every machine's load lies in [0, s_t]
    for ``<=`` and in [s_t, oo) for ``>=``, s_t the normalized speed.
    If no multiples of each type's job size gcd fit there, the probe is
    refuted (``trace["path"] == "capacity"``) before any instance or
    model is built, whether it would guess or not, restricted or not.

    A probe guesses only when ``method`` is ``"auto"`` (not
    ``"confilp"``), the instance is unrestricted and compression leaves a
    machine above the large-machine cutoff, which the compressed speeds
    alone decide (``compress_machines``): it converts the compressed
    instance, runs ``balanced_feasibility``, which asks that instance's
    direct model when no guess answers, and lifts the schedule back.
    Every other probe asks one model on the normalized instance
    (``_solve_at_one``), whose load windows ``build_model`` cuts into the
    lcm blocks that compression would make.  Either way the probe builds
    one derived ``Instance``, its speeds normalized, compressed if it
    guesses and converted if it asks ``>=``.

    Restricted instances never compress (merged speed types have no
    sound restriction row).  Each type's load window is reduced over the
    sizes it may run, and leftover jobs go only to machines that may run
    them.
    """
    threshold = Fraction(threshold)
    if threshold < 0:
        raise MalformedInputError("threshold must be >= 0")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if trace is None:
        trace = {}

    if _unrunnable_job_type(inst) is not None:
        return None
    speeds, machines = normalized_speeds(inst, rel, threshold), inst.m
    windows = [(m, g, cap, 0, s) if rel == LE else (m, g, cap, s, None)
               for (m, g, cap), s in zip(type_loads(inst), speeds) if m > 0]
    if capacity_refutes(inst.total_load, windows):
        trace["path"] = "capacity"
        return None
    cmap = None
    if inst.restrict is None and method == "auto":
        counts, comp = compress_machines(inst.p, speeds, inst.m)
        cutoff = large_machine_cutoff(inst.d, inst.pmax)
        if any(s > cutoff and k > 0
               for s, k in zip(comp.compressed_speeds, counts)):
            speeds, machines, cmap = comp.compressed_speeds, counts, comp
    if rel == GE:
        speeds = idle_cmax_speeds(speeds, inst.pmax)
    question = Instance(inst.p, inst.n, speeds, machines, inst.restrict,
                        inst.name)

    if cmap is not None:
        sched, info = balanced_feasibility(question, rel,
                                           state_limit=state_limit)
        trace.update(info)
    else:
        sched = _solve_at_one(question, rel, state_limit)
        trace["path"] = "direct-confilp"

    if sched is None:
        return None
    if rel == GE:
        # the conversion keeps p, n and restrict, all that this reads
        sched = _complete_to_demand(question, sched)
    if cmap is not None:
        sched = lift_schedule(sched, cmap)
    _certify(inst, sched, FeasibilityQuery(rel, threshold))
    return sched


# ---------------------------------------------------------------------------
# Objective drivers
# ---------------------------------------------------------------------------

def _search_grid(inst: Instance, grid: CandidateGrid, probe, trace: dict,
                 best: tuple[Fraction, HMSchedule]
                 ) -> tuple[Fraction, HMSchedule]:
    """Best feasible value on the grid, with the schedule that attains it.

    Each entry ``(type, den, top)`` stands for the values {k / den :
    0 <= k <= top}.  The bracket's best side ``best`` is a schedule and
    its own value (``objective_value``), first a certified incumbent;
    its refuted side is first ``grid.bound``.  Entries are
    binary-searched over k in order, each only strictly inside the
    bracket, with ``probe(entry, value)``, which returns a schedule or
    None; the schedule is certified by the probe (``feasibility``) or,
    for envy, once the search returns it (``minimize_envy``).  A
    schedule moves the best side to its own value.
    A refutation moves the refuted side for every entry that asks the
    same monotone question (every value above a feasible one is
    feasible when minimizing, every value below when maximizing): all
    entries of a cmax or cmin grid, and the one entry of an envy top
    type.  An empty bracket costs no probe, and the bracket ends are
    floor divisions, not Fraction products.

    Envy asks each top type's question first at the top of its bracket:
    the largest grid value below the best side, at or above the bound.
    A refutation there empties the entry, so a top type that cannot
    beat the best side costs one probe instead of a bisection from the
    bound; a schedule moves the best side to its own envy and the entry
    is bisected as before.  The incumbent's envy is usually optimal, so
    this is the common case.  Makespan and minimum completion keep plain
    bisection: on the ``guessing`` benchmark their brackets hold 0-3
    candidates, the incumbent is optimal in fewer than half of the
    solves, and asking the top first made those solves 5-26 % slower
    when it was tried.
    """
    minimize = grid.objective != "cmin"
    envy = grid.objective == "cenvy"
    bound = grid.bound

    def refutes(entry: tuple[int, int, int], value: Fraction) -> bool:
        """Probe at value: True if refuted; a schedule moves the best side."""
        nonlocal best
        trace["probes"] += 1
        sched = probe(entry, value)
        if sched is None:
            return True
        best = (objective_value(inst, sched, grid.objective), sched)
        return False

    questions = [(entry,) for entry in grid.entries] if envy else [grid.entries]
    for entries in questions:
        refuted = None
        for entry in entries:
            _, den, top = entry
            if envy:
                value = Fraction(min(top, ceil_times(best[0], den) - 1), den)
                if value >= bound and refutes(entry, value):
                    refuted = value
            while True:
                if minimize:
                    lo = (ceil_times(bound, den) if refuted is None
                          else floor_times(refuted, den) + 1)
                    hi = min(top, ceil_times(best[0], den) - 1)
                else:
                    lo = floor_times(best[0], den) + 1
                    hi = min(top, floor_times(bound, den) if refuted is None
                             else ceil_times(refuted, den) - 1)
                if lo > hi:
                    break
                value = Fraction((lo + hi) // 2, den)
                if refutes(entry, value):
                    refuted = value
    return best


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
    the incumbent is 0 instead of the optimum 3/4.  The max-min rule on
    every type lowered some incumbents of the benchmark's ``mixed``
    corpus.  Either way a machine takes at most one leftover per job
    type, which is all the distance bound (module docstring) needs.
    The work grows with d times the number of runs, never with n or m.
    The value is the largest completion for ``<=`` and the smallest for
    ``>=``, and the schedule is certified at it.
    """
    d, p, s = inst.d, inst.p, inst.s
    # runs of identical machines: [type, counts, load, machines]
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
    sched = make_schedule(d, [(t, c, k) for t, c, _, k in runs])
    value = objective_value(inst, sched, "cmax" if rel == LE else "cmin")
    _certify(inst, sched, FeasibilityQuery(rel, value))
    return value, sched


def _optimize_threshold(inst: Instance, objective: str, method: str,
                        state_limit: int | None) -> SolveResult:
    # a solve whose incumbent meets the area bound asks ``feasibility`` nothing
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    admit(inst, objective)
    rel = LE if objective == "cmax" else GE
    trace: dict = {"probes": 0}
    # a solve that runs no probe is answered by the incumbent
    last: dict = {"path": "incumbent"}

    def probe(entry: tuple[int, ...], T: Fraction) -> HMSchedule | None:
        nonlocal last
        last = {}
        return feasibility(inst, rel, T, method=method,
                           state_limit=state_limit, trace=last)

    value, sched = _search_grid(inst, candidate_values(inst, objective), probe,
                                trace, _incumbent(inst, rel))
    # the probe count plus the last probe's keys; _incumbent or the probe
    # that found the schedule certified it at a threshold its value meets
    trace.update(last)
    return SolveResult(objective, value, sched, trace)


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
    the grid stops at pmax * L, and since C_min <= P / S <= C_max on
    every schedule, an optimal one has C1 <= P / S + pmax.

    The scan over a runs in integers: C1 = a * (L / s_t1) / L, so hi_t
    = a*s_t // s_t1 and lo_t = max(0, ceil((a * (L / s_t1) - k) * s_t
    / L)).  Every machine's load is a multiple of g, the gcd of the
    sizes with demand, and at most P (``capacity_refutes``), so the
    upper room sums each hi_t rounded down to a multiple of g and capped
    at P, and the lower need each lo_t rounded up to one.  Both are
    nondecreasing in a, so two binary searches bound the candidates to
    the interval where room >= P and need <= P; inside it only a window
    that holds no multiple of g rejects an a, counted in
    ``trace["empty_windows"]``.  The rounding drops only values of a
    whose model is infeasible, so the first a that admits a schedule,
    and its schedule, are those of the unrounded scan.  A model is
    built and solved once per distinct window tuple in a solve;
    ``trace["solves"]`` counts those solves and ``trace["cache_hits"]``
    the window tuples answered from that memo.  A window whose reduced
    core admits no configuration ends its model at that empty group
    (``build_model``), which ``solve_model`` rejects before its dynamic
    program.

    The check is monotone in E: a larger E lowers every lo_t and so can
    only move the end of the a interval up, and a schedule inside the
    smaller windows lies inside the larger ones.  So ``_search_grid``
    keeps one refuted side per top type: no probe asks an E that an
    earlier refutation of its t1 settled.  A schedule found at E has
    envy at most E, and the search moves to that envy.  Each t1 is
    asked first just below the best envy so far; once the best envy is
    optimal, that one refuted probe settles t1, and the incumbent's envy
    is often optimal already.

    A zero-load instance takes the same search: its incumbent leaves
    every machine empty, with envy 0, which the grid's bound meets, so
    no probe is asked.
    """
    admit(inst, "cenvy")
    P = inst.total_load
    trace: dict = {"probes": 0, "solves": 0, "cache_hits": 0,
                   "empty_windows": 0}
    types = [(s, m, g) for s, (m, g, _) in zip(inst.s, type_loads(inst)) if m > 0]
    total_cap = sum(s * m for s, m, _ in types)
    # C1 <= P / total_cap + pmax, i.e. a <= a_num * s1 // total_cap
    a_num = P + inst.pmax * total_cap
    memo: dict[tuple[tuple[int, int], ...], HMSchedule | None] = {}

    def check(entry: tuple[int, int, int], E: Fraction) -> HMSchedule | None:
        t1, den, _ = entry
        s1 = inst.s[t1]
        k = E.numerator * (den // E.denominator)

        def lower(a: int, s: int) -> int:
            return max(0, -((k - a * (den // s1)) * s // den))

        def fits(a: int) -> bool:
            return not capacity_refutes(P, [(m, g, P, 0, a * s // s1)
                                            for s, m, g in types])

        def overfull(a: int) -> bool:
            return capacity_refutes(P, [(m, g, P, lower(a, s), None)
                                        for s, m, g in types])

        a_hi = a_num * s1 // total_cap
        first = bisect_left(range(a_hi + 1), True, key=fits)
        stop = first + bisect_left(range(first, a_hi + 1), True, key=overfull)
        for a in range(first, stop):
            if capacity_refutes(P, [(m, g, P, lower(a, s), a * s // s1)
                                    for s, m, g in types]):
                trace["empty_windows"] += 1
                continue
            # a type without machines gets (0, 0), which build_model skips
            windows = tuple((lower(a, s), a * s // s1) if m else (0, 0)
                            for s, m in zip(inst.s, inst.m))
            if windows in memo:
                trace["cache_hits"] += 1
                sched = memo[windows]
            else:
                trace["solves"] += 1
                model = build_model(inst, windows, demand_relation=JOB_EQ)
                sched = memo[windows] = solve_model(model, state_limit)
            if sched is not None:
                return sched
        return None

    grid = candidate_values(inst, "cenvy")
    _, start = _incumbent(inst, LE)
    value, sched = _search_grid(inst, grid, check, trace,
                                (objective_value(inst, start, "cenvy"), start))
    # value is the schedule's own envy; certify a probe's schedule, whose
    # machines and jobs nothing has checked (_incumbent certified start)
    if sched is not start:
        _certify(inst, sched,
                 FeasibilityQuery(LE, objective_value(inst, sched, "cmax")))
    return SolveResult("cenvy", value, sched, trace)


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
