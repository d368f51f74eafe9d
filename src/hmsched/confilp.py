"""Enumeration of configurations, window reduction, and exact model solving.

A feasibility question "is there a schedule whose per-machine loads lie
in given per-type windows and whose job usage is exactly n (``=``) or at
most n (``<=``)" becomes a configuration ILP: per machine type, choose a
multiset of load-window-respecting configurations, one per machine, so
that demands and machine counts match.

The load-window rule (``narrow_windows``) refutes a question before
any model, or narrows the windows the model is built on.  Window
reduction rewrites each as a small core window plus a number of exact /
slack blocks (see reduction.reduce_window); the model then carries one
column group per (type, part), which keeps both the number of columns
and the coefficients small.  A solved reduced model recombines into
configurations of the original model by giving every machine its core
part plus its share of block parts; the block loads telescope so any
deterministic pairing lands inside the model's window.

The solver is an exact dynamic program over remaining demand vectors.
It is deliberately simple: each state is a demand vector packed into one
int, a digit per coordinate under a guard bit, so a transition is one
subtraction and one mask test (see ``solve_model``).  Column groups are
processed in order, each by one sweep of ``count`` rounds, a round per
machine.  A group whose window admits the empty configuration keeps the
states it has reached across rounds, so the sweep is a breadth-first
"fewest loaded machines" search and every state is expanded once; large
machine multiplicities (common after compression) then cost one sweep
over the reachable states instead of one per machine.  The walk-back
returns each group's picks as {configuration: count} and recombination
pairs them by run (``model.deal``), so neither grows with the machine
count.

The sweep creates no state that the machines still left cannot finish.
Per group it knows the largest and smallest column load, and so the
most and the least load the remaining machines can take; a state whose
remaining load lies outside that range (above it for ``=``, below it
for ``=`` and ``<=``) is dead.  Every parent of a live state is
live and a dead state stays dead at later rounds, so the bounded sweep
creates the same live states with the same first writers and returns
the same schedule as the unbounded one, with fewer states created.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .model import (
    CertificateError,
    HMSchedule,
    Instance,
    JOB_EQ,
    JOB_LE,
    MalformedInputError,
    Runs,
    deal,
    dot,
    make_schedule,
    merge_slices,
)
from .reduction import ReductionConstants, reduce_window, reduction_constants

DEFAULT_STATE_LIMIT = 2_000_000
STATE_LIMIT_ENV = "HMSCHED_STATE_LIMIT"


class ResourceLimitError(RuntimeError):
    """The solver's state budget was exhausted (distinct from infeasible)."""


def state_limit_default() -> int:
    raw = os.environ.get(STATE_LIMIT_ENV)
    if not raw:
        return DEFAULT_STATE_LIMIT
    try:
        limit = int(raw)
    except ValueError as exc:
        raise MalformedInputError(
            f"{STATE_LIMIT_ENV} must be an integer, got {raw!r}") from exc
    if limit < 0:
        raise MalformedInputError(
            f"{STATE_LIMIT_ENV} must be >= 0, got {raw!r}")
    return limit


class ModelGroup(NamedTuple):
    """One column group: ``count`` identical machines sharing a column set."""

    machine_type: int
    role: str  # "core" | "exact" | "slack"
    count: int
    window: tuple[int, int]  # load bounds [lower, upper], both inclusive
    configs: tuple[tuple[int, ...], ...]


class ConfILPModel(NamedTuple):
    p: tuple[int, ...]
    demand: tuple[int, ...]
    demand_relation: str
    groups: tuple[ModelGroup, ...]
    raw_windows: tuple[tuple[int, int], ...]


def _configs(p: tuple[int, ...], cap: tuple[int, ...], lower: int,
             upper: int) -> tuple[tuple[int, ...], ...]:
    d = len(p)
    bounds = [min(cap[j], upper // p[j]) for j in range(d)]
    # Max load contributable by types j..d-1, for lower-bound pruning.
    suffix = [0] * (d + 1)
    for j in range(d - 1, -1, -1):
        suffix[j] = suffix[j + 1] + p[j] * bounds[j]
    out: list[tuple[int, ...]] = []
    cur = [0] * d

    def rec(j: int, load: int) -> None:
        if j == d:
            if load >= lower:
                out.append(tuple(cur))
            return
        if load + suffix[j] < lower:
            return
        for c in range(min(bounds[j], (upper - load) // p[j]) + 1):
            cur[j] = c
            rec(j + 1, load + c * p[j])
        cur[j] = 0

    rec(0, 0)
    return tuple(out)


# The column cache of ``enumerate_configs``, process-wide; the benchmark
# empties it before every solve and reads its hit ratio.
_enumerate = lru_cache(maxsize=8192)(_configs)


def enumerate_configs(p: tuple[int, ...], cap: tuple[int, ...],
                      window: tuple[int, int]) -> list[tuple[int, ...]]:
    """All c with 0 <= c <= cap and load within window.

    Output is in ascending lexicographic order (first coordinate most
    significant), which every consumer relies on for determinism.  A
    window with ``lower > upper``, or a box whose heaviest column, ``cap``
    itself, loads less than ``lower``, is empty: that costs O(d) integer
    steps and leaves no entry in ``_enumerate``'s cache.  Model columns
    (``build_model``) and the guess loop's boxes
    (``drivers.balanced_feasibility``) are both listed here.
    """
    if any(x < 0 for x in cap):
        raise MalformedInputError("cap must be >= 0")
    lower, upper = window
    if lower > upper or sum(map(mul, p, cap)) < lower:
        return []
    return list(_enumerate(tuple(p), tuple(cap), lower, upper))


def _type_constants(p: tuple[int, ...], allowed: tuple[bool, ...]) -> ReductionConstants | None:
    """Reduction constants over the allowed job sizes only (None if none)."""
    sizes = tuple(pj for pj, a in zip(p, allowed) if a)
    return reduction_constants(sizes) if sizes else None


def type_loads(inst: Instance) -> list[tuple[int, int, int]]:
    """(m_t, g_t, P_t) per machine type t, for ``narrow_windows``: g_t the
    gcd of the sizes with demand that t may run (1 if none), P_t their load."""
    out = []
    for t, m in enumerate(inst.m):
        g = cap = 0
        for j, (pj, nj) in enumerate(zip(inst.p, inst.n)):
            if nj and inst.allowed(j, t):
                g, cap = math.gcd(g, pj), cap + pj * nj
        out.append((m, g or 1, cap))
    return out


def _rounded(g: int, top: int, lo: int, hi: int):
    """[lo, hi] shrunk to its multiples of g, capped at top."""
    return -(-lo // g) * g, min(hi // g * g, top)


def narrow_windows(loads, total: int, windows, demand_relation: str
                   ) -> tuple[tuple[int, int], ...] | None:
    """The load-window rule: None if no schedule keeps its loads in
    ``windows``, else one window per type, narrowed so that every
    schedule within ``windows`` stays within it: the windows every solve
    route builds its model on.

    ``loads`` is ``type_loads(inst)``, ``total`` the total load P and
    ``windows`` one (lower, upper) per type.  A type-t machine runs only
    sizes with demand that t may run, so its load is a multiple of their
    gcd g_t, at most their total P_t, and in
    [lo_t, hi_t] = [ceil(lower / g_t) * g_t, min(floor(upper / g_t) *
    g_t, P_t)].  All loads sum to P, at most P under ``demand_relation``
    ``<=``.  With least and most the sums of m_t * lo_t and m_t * hi_t
    over the types with machines, no schedule exists if some lo_t >
    hi_t, if least > P, or, under ``=`` only, if most < P.  Otherwise the
    other machines load from least - lo_t to most - hi_t, so a type-t
    machine loads at most P - (least - lo_t), and under ``=`` at least P
    - (most - hi_t): [lo_t, hi_t] narrows to these ends, and a type
    without machines gets (0, 0).  No verdict changes.  Most calls are
    refuted, so the windows are listed only once the sums pass.
    """
    least = most = 0
    for (m, g, top), (lower, upper) in zip(loads, windows):
        if m:
            lo, hi = _rounded(g, top, lower, upper)
            if lo > hi:
                return None
            least += m * lo
            most += m * hi
    if least > total or (demand_relation == JOB_EQ and most < total):
        return None
    out = []
    for (m, g, top), window in zip(loads, windows):
        if not m:
            out.append((0, 0))
            continue
        lo, hi = _rounded(g, top, *window)
        out.append((max(lo, total - (most - hi)) if demand_relation == JOB_EQ
                    else lo, min(hi, total - (least - lo))))
    return tuple(out)


def build_model(inst: Instance, windows, *,
                demand_relation: str = JOB_EQ) -> ConfILPModel:
    """Assemble the configuration model for the given load windows.

    ``windows`` holds one (lower, upper) pair per machine type, with
    ``0 <= lower <= upper`` for every type, with machines or not
    (MalformedInputError otherwise).  The model asks for job usage
    exactly ``inst.n`` (``demand_relation`` ``=``) or at most ``inst.n``
    (``<=``).  Columns live within the reduced window, capped at ``inst.n``
    and at 0 on the job types the machine type may not run: under either
    relation no machine takes more of a job type than the whole demand.
    Every solve route takes its windows from ``narrow_windows``.

    Each machine type with machines contributes its column groups in one
    loop over (role, blocks per machine, window), roles in the order
    core, exact, slack.  The type's window goes through
    ``reduce_window`` with constants over its allowed job sizes, so
    restricted instances reduce soundly type by type.  The core group
    has one machine per machine of the type, and each block role
    blocks-per-machine times as many (a role with no blocks gets no
    group).  When the type may run no job, the window is the core and
    there are no blocks.  The first group without a column ends the
    model: none of its machines can take a column, so ``solve_model``
    rejects the model before its dynamic program, and later groups would
    enumerate columns for nothing.
    """
    if demand_relation not in (JOB_EQ, JOB_LE):
        raise MalformedInputError(f"bad demand relation {demand_relation!r}")
    if len(windows) != inst.tau:
        raise MalformedInputError("one window per machine type required")

    for lower, upper in windows:
        if not 0 <= lower <= upper:
            raise MalformedInputError(f"bad window [{lower}, {upper}]")

    groups: list[ModelGroup] = []
    for t, (m, (lower, upper)) in enumerate(zip(inst.m, windows)):
        if m == 0:
            continue
        allowed = inst.allowed_row(t)
        cap = tuple(nj if a else 0 for nj, a in zip(inst.n, allowed))
        parts = [("core", 1, (lower, upper))]
        consts = _type_constants(inst.p, allowed)
        if consts is not None:
            red = reduce_window(lower, upper, consts)
            lcm = consts.lcm_load
            parts = [("core", 1, (red.core_lower, red.core_upper)),
                     ("exact", red.exact_blocks, (lcm, lcm)),
                     ("slack", red.slack_blocks, (0, lcm))]
        for role, per_machine, part in parts:
            if per_machine:
                groups.append(ModelGroup(
                    t, role, m * per_machine, part,
                    tuple(enumerate_configs(inst.p, cap, part))))
                if not groups[-1].configs:
                    return ConfILPModel(inst.p, inst.n, demand_relation,
                                        tuple(groups), tuple(windows))
    return ConfILPModel(inst.p, inst.n, demand_relation, tuple(groups),
                        tuple(windows))


def _necessarily_infeasible(model: ConfILPModel) -> bool:
    """Cheap necessary-condition checks before running the DP.

    A group with machines but no column, or (for ``=``) a job type the
    groups cannot cover even taking its most per machine.  A total load
    out of the groups' reach needs no check here: the capacity bound in
    ``solve_model`` then creates no state.
    """
    per_job_max = [0] * len(model.p)
    for g in model.groups:
        if g.count == 0:
            continue
        if not g.configs:
            return True
        for j in range(len(model.p)):
            best = max((c[j] for c in g.configs), default=0)
            per_job_max[j] = per_job_max[j] + g.count * best
    return (model.demand_relation == JOB_EQ
            and any(have < need for have, need in zip(per_job_max, model.demand)))


def _packing(model: ConfILPModel) -> tuple[int, int]:
    """Digit width and guard mask of the packed state encoding.

    Every demand entry and every column entry fits in ``width`` bits, so
    each coordinate gets a ``width``-bit digit with one guard bit above
    it; coordinate 0 takes the most significant digit.  Scanning the
    columns too keeps a hand-built model inside the invariant.
    """
    top = max([0, *model.demand,
               *(x for g in model.groups for c in g.configs for x in c)])
    width = max(1, top.bit_length())
    guard = 0
    for _ in model.p:
        guard = (guard << (width + 1)) | (1 << width)
    return width, guard


def _pack(vector: tuple[int, ...], width: int) -> int:
    out = 0
    for x in vector:
        out = (out << (width + 1)) | x
    return out


def solve_model(model: ConfILPModel,
                state_limit: int | None = None) -> HMSchedule | None:
    """Exact solve; returns a verified-shape schedule or None if infeasible.

    Dynamic programming over remaining-demand vectors, one column group
    at a time.  A group is one sweep of ``count`` rounds, one per
    machine: a round applies every live nonempty column (see the
    capacity bound below) to the previous round's new states (sorted)
    and records each state it creates in its own {state: (parent,
    column index)} dict, the first writer winning.
    The groups differ only in the ``reached`` set that decides which
    states count as new.  When the window admits the empty
    configuration, ``reached`` is kept across rounds, starting from the
    states the group began with: a machine may stay empty, so a state
    reached with fewer loaded machines is never expanded again
    (identical machines make any reachability witness reusable) and the
    sweep is a breadth-first search for the fewest loaded machines.
    Otherwise every machine must take a column, and ``reached`` is reset
    every round.  The states after the group are ``reached``.  The
    final state is 0 for ``=`` and the smallest one left for ``<=``; the
    walk-back takes one pick from every round whose dict holds the
    current state and fills the group's remaining machines with the
    empty configuration.  Tie-breaking is lexicographic everywhere, so
    the returned schedule is deterministic.  Exceeding ``state_limit``
    created states raises ResourceLimitError -- never reported as
    infeasible.

    States and columns are packed into ints (``_packing``): one digit
    per coordinate, coordinate 0 most significant, each digit holding
    its value in ``width`` bits below a guard bit.  Invariant: the guard
    bits of every state and every column are clear, because ``width``
    covers the demand (states only shrink) and every column entry.  Int
    order is then tuple order, so sorting and ``min`` break ties as on
    tuples.

    A step computes ``x = (state | H) - column`` with ``H`` the guard
    mask.  Each digit of ``state | H`` is ``2**width + s`` and exceeds
    the column's digit ``c < 2**width``, so no digit borrows from its
    neighbour and the digit's guard bit survives exactly when s >= c.
    If every guard bit survives (``x & H == H``) the next state is ``x ^
    H``; otherwise the column takes more than the state has left and is
    skipped.

    Capacity bound (the reachability bound of dynamic programs over
    configurations; Jansen & Rohwedder, ITCS 2019).  A state's remaining
    load is ``L = sum p_j * s_j``, and a step lowers it by exactly its
    column's load.  Let ``hi_g`` and ``lo_g`` be group g's largest and
    smallest column load (``lo_g = 0`` when the empty configuration is a
    column), and ``up_after[g]`` and ``low_after[g]`` the sums of
    ``count * hi`` and ``count * lo`` over groups g, g + 1, ...  After
    round r of group g, ``rest = count - r - 1`` of its machines and all
    later groups remain, so a state created there with load L' is dead,
    and is not created, if
      - the relation is ``=`` and ``L' > most = rest * hi_g +
        up_after[g + 1]``: state 0 is out of reach;
      - ``L' < least = rest * lo_g + low_after[g + 1]``: the remaining
        machines cannot all be filled.
    Each state carries L.  A group's columns are sorted by load and each
    state bisects them to the live interval ``[L - most, L - least]``;
    exactly one column leads from a state to a given next state (their
    difference), so the order in which a state tries its columns decides
    no first writer.

    The schedules are those of the unbounded sweep.  Every successor of
    a dead state is dead and every parent of a live state is live: one
    round earlier ``most`` is larger by ``hi_g``, at least what a step
    removes, and ``least`` by ``lo_g``, at most what a step removes
    (across a group boundary ``up_after[g] = count * hi_g + up_after[g +
    1]``, likewise for ``low_after``).  A state dead at one round stays
    dead at every later round that shares its ``reached`` set: ``most``
    never grows, and ``least`` shrinks only within a group without the
    empty configuration, which resets ``reached`` every round.  So the
    unbounded sweep's live states are created at the same rounds by the
    same first writer (that writer is live, so it is in the frontier, in
    the same sorted order), every dead state it made has no path to the
    final state, and the final state and walk-back chain are unchanged.
    Only the number of states created falls, and that is what
    ``state_limit`` counts.
    """
    if state_limit is None:
        state_limit = state_limit_default()
    if _necessarily_infeasible(model):
        return None

    p = model.p
    zero = tuple(0 for _ in p)
    width, H = _packing(model)
    left = state_limit

    whole = dot(p, model.demand)
    column_loads = [[sum(map(mul, p, cfg)) for cfg in g.configs]
                    for g in model.groups]
    up_after = [0] * (len(model.groups) + 1)
    low_after = [0] * (len(model.groups) + 1)
    for gi in range(len(model.groups) - 1, -1, -1):
        count = model.groups[gi].count
        up_after[gi] = up_after[gi + 1] + count * max(column_loads[gi])
        low_after[gi] = low_after[gi + 1] + count * min(column_loads[gi])

    states: dict[int, int] = {_pack(model.demand, width): whole}
    trail: list[list[dict[int, tuple[int, int]]]] = []
    for gi, group in enumerate(model.groups):
        hi, lo = max(column_loads[gi]), min(column_loads[gi])
        columns = [(ci, _pack(cfg, width), cl)
                   for ci, (cfg, cl) in enumerate(zip(group.configs,
                                                      column_loads[gi]))
                   if cfg != zero]
        optional = len(columns) < len(group.configs)
        columns.sort(key=lambda column: column[2])
        by_load = [cl for _, _, cl in columns]
        lightest, heaviest = (by_load[0], by_load[-1]) if columns else (0, 0)
        rounds: list[dict[int, tuple[int, int]]] = []
        reached = dict(states)
        frontier = states
        for r in range(group.count):
            rest = group.count - r - 1
            # ``<=`` imposes no upper bound: move it past every state
            most = (whole if model.demand_relation == JOB_LE
                    else rest * hi + up_after[gi + 1])
            least = rest * lo + low_after[gi + 1]
            known = reached
            if not optional:
                reached = {}
            step: dict[int, tuple[int, int]] = {}
            for st in sorted(frontier):
                have = known[st]
                base = st | H
                # a column lighter than floor leaves more than the later
                # machines can take, one heavier than ceil less than they need
                floor, ceil = have - most, have - least
                if floor <= lightest and ceil >= heaviest:
                    live = columns
                else:
                    live = columns[bisect_left(by_load, floor):
                                   bisect_right(by_load, ceil)]
                for ci, col, cl in live:
                    x = base - col
                    if x & H != H:
                        continue
                    ns = x ^ H
                    if ns in reached:
                        continue
                    reached[ns] = have - cl
                    step[ns] = (st, ci)
                    left -= 1
                    if left < 0:
                        raise ResourceLimitError("state limit exceeded")
            rounds.append(step)
            if not step:
                break
            frontier = step
        trail.append(rounds)
        states = reached
        if not states:
            return None

    if model.demand_relation == JOB_LE:
        final = min(states)
    elif 0 in states:
        final = 0
    else:
        return None

    # Walk the trail backwards: a round that reached the current state
    # picked one column for it; the group's other machines stay empty.
    chosen: list[dict[tuple[int, ...], int]] = []
    state = final
    for group, rounds in zip(reversed(model.groups), reversed(trail)):
        picks: dict[tuple[int, ...], int] = {}
        for step in reversed(rounds):
            if state in step:
                state, ci = step[state]
                picks[group.configs[ci]] = picks.get(group.configs[ci], 0) + 1
        loaded = sum(picks.values())
        if group.count > loaded:
            picks[zero] = group.count - loaded
        chosen.append(picks)
    chosen.reverse()
    return _recombine(model, chosen)


def _recombine(model: ConfILPModel,
               chosen: list[dict[tuple[int, ...], int]]) -> HMSchedule:
    """Merge core/exact/slack picks into configurations of whole machines.

    ``chosen`` holds one {config: count} multiset per model group.  Per
    machine type, each role's picks are sorted and machine i gets core i
    plus exact blocks [i*epm, (i+1)*epm) and slack blocks [i*spm,
    (i+1)*spm), epm and spm being the blocks owed per machine.  ``deal``
    does this by run: consecutive machines with the same three slices
    form one segment, whose load is checked against the raw window once.
    """
    d = len(model.p)
    per_type: dict[int, dict[str, list[tuple[tuple[int, ...], int]]]] = {}
    for gi, group in enumerate(model.groups):
        per_type.setdefault(group.machine_type, {}).setdefault(
            group.role, []).extend(sorted(chosen[gi].items()))

    raw: list[tuple[int, tuple[int, ...], int]] = []
    for t, roles in sorted(per_type.items()):
        cores, exacts, slacks = (
            Runs(roles.get(role, ()), f"type {t} {role} picks")
            for role in ("core", "exact", "slack"))
        m = cores.left
        epm = exacts.left // m if m else 0
        spm = slacks.left // m if m else 0
        lower, upper = model.raw_windows[t]
        for k, slices in deal(m, (cores, 1), (exacts, epm), (slacks, spm)):
            config = tuple(merge_slices(d, slices))
            load = dot(model.p, config)
            if not lower <= load <= upper:
                raise CertificateError(
                    f"type {t}: recombined load {load} escaped its window "
                    f"[{lower}, {upper}]")
            raw.append((t, config, k))
    return make_schedule(d, raw)
