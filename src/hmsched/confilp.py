"""Configuration enumeration, window reduction, and exact model solving.

A feasibility question "is there a schedule whose per-machine loads lie
in given per-type windows and whose job usage stands in a given relation
to the demand vector" becomes a configuration ILP: per machine type,
choose a multiset of load-window-respecting configurations, one per
machine, so that demands and machine counts match.

Window reduction rewrites each type's window as a small core window plus
a number of exact / slack blocks (see reduction.reduce_window); the
model then carries one column group per (type, part), which keeps both
the number of columns and the coefficients small.  A solved reduced
model recombines into configurations of the original model by giving
every machine its core part plus its share of block parts; the block
loads telescope so any deterministic pairing lands inside the raw
window.

The solver is an exact dynamic program over remaining demand vectors.
It is deliberately simple: each state is a demand vector packed into one
int, a digit per coordinate under a guard bit, so a transition is one
subtraction and one mask test (see ``solve_model``); machine types are
processed in order, and column groups whose window admits the empty
configuration are handled with a breadth-first "fewest loaded machines"
search so that large machine multiplicities (common after compression)
cost one sweep instead of one sweep per machine.  The walk-back returns
each group's picks as {configuration: count} and recombination pairs
them by run (``model.deal``), so neither grows with the machine count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .model import (
    CertificateError,
    HMSchedule,
    Instance,
    JOB_EQ,
    JOB_GE,
    JOB_LE,
    MalformedInputError,
    Runs,
    deal,
    dot,
    make_schedule,
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
        return int(raw)
    except ValueError as exc:
        raise MalformedInputError(
            f"{STATE_LIMIT_ENV} must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class LoadWindow:
    """Per-machine-type load bounds [lower, upper], both inclusive."""

    lower: int
    upper: int

    def __post_init__(self):
        if self.lower < 0 or self.upper < self.lower:
            raise MalformedInputError(f"bad window [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class BlockCounts:
    """Bookkeeping from window reduction for one machine type.

    Every machine of the type owes ``exact`` block sub-configurations of
    load exactly ``lcm_load`` and ``slack`` sub-configurations of load <=
    ``lcm_load`` on top of its core configuration.
    """

    exact: int
    slack: int
    lcm_load: int


@dataclass(frozen=True)
class ModelGroup:
    """One column group: ``count`` identical machines sharing a column set."""

    machine_type: int
    role: str  # "core" | "exact" | "slack"
    count: int
    window: LoadWindow
    configs: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ConfILPModel:
    p: tuple[int, ...]
    tau: int
    demand: tuple[int, ...]
    demand_relation: str
    groups: tuple[ModelGroup, ...]
    raw_windows: tuple[LoadWindow, ...]


@lru_cache(maxsize=8192)
def _enumerate(p: tuple[int, ...], cap: tuple[int, ...], lower: int,
               upper: int | None, allowed: tuple[bool, ...]) -> tuple[tuple[int, ...], ...]:
    d = len(p)
    bounds = []
    for j in range(d):
        b = cap[j] if allowed[j] else 0
        if upper is not None:
            b = min(b, upper // p[j])
        bounds.append(b)
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
        hi = bounds[j]
        if upper is not None:
            hi = min(hi, (upper - load) // p[j])
        for c in range(hi + 1):
            cur[j] = c
            rec(j + 1, load + c * p[j])
        cur[j] = 0

    rec(0, 0)
    return tuple(out)


def enumerate_configs(p: tuple[int, ...], cap: tuple[int, ...],
                      window: tuple[int, int | None],
                      allowed: tuple[bool, ...] | None = None) -> list[tuple[int, ...]]:
    """All c with 0 <= c <= cap, load within window, zero on disallowed types.

    Output is in ascending lexicographic order (first coordinate most
    significant), which every consumer relies on for determinism.
    """
    if any(x < 0 for x in cap):
        raise MalformedInputError("cap must be >= 0")
    if allowed is None:
        allowed = tuple(True for _ in p)
    lower, upper = window
    return list(_enumerate(tuple(p), tuple(cap), lower, upper, tuple(allowed)))


def _type_constants(p: tuple[int, ...], allowed: tuple[bool, ...]) -> ReductionConstants | None:
    """Reduction constants over the allowed job sizes only (None if none)."""
    sizes = tuple(pj for pj, a in zip(p, allowed) if a)
    return reduction_constants(sizes) if sizes else None


def reduced_windows_for(inst: Instance, windows: list[LoadWindow]
                        ) -> tuple[list[LoadWindow], list[BlockCounts]]:
    """Apply window reduction per machine type.

    Returns the core windows plus per-type block counts.  Types are
    reduced with constants computed over their allowed job sizes, so
    restricted instances reduce soundly group by group.  A solution of
    the core-plus-blocks model expands to a solution of the raw model by
    summing, per machine, the core configuration with its share of exact
    and slack block configurations.
    """
    if len(windows) != inst.tau:
        raise MalformedInputError("one window per machine type required")
    cores: list[LoadWindow] = []
    blocks: list[BlockCounts] = []
    for t, win in enumerate(windows):
        consts = _type_constants(inst.p, inst.allowed_row(t))
        if consts is None:
            cores.append(win)
            blocks.append(BlockCounts(0, 0, 1))
            continue
        red = reduce_window(win.lower, win.upper, consts)
        cores.append(LoadWindow(red.core_lower, red.core_upper))
        blocks.append(BlockCounts(red.exact_blocks, red.slack_blocks,
                                  consts.lcm_load))
    return cores, blocks


def build_model(inst: Instance, windows: list[LoadWindow], *,
                demand: tuple[int, ...] | None = None,
                demand_relation: str = JOB_EQ,
                reduce: bool = True) -> ConfILPModel:
    """Assemble the configuration model for the given load windows.

    Columns live within the (possibly reduced) window, restricted to the
    type's allowed job set, and are capped at the demand vector whenever
    that cap is sound: always for usage relations = and <=, and for >=
    only on windows without a lower bound (surplus is then removable).
    On lower-bounded windows with relation >= a machine may legitimately
    over-cover, so there the cap is raised to what the window's upper
    bound admits.
    """
    if demand is None:
        demand = inst.n
    if demand_relation not in (JOB_EQ, JOB_LE, JOB_GE):
        raise MalformedInputError(f"bad demand relation {demand_relation!r}")
    if reduce:
        cores, blocks = reduced_windows_for(inst, windows)
    else:
        cores = list(windows)
        blocks = [BlockCounts(0, 0, 1) for _ in windows]

    def column_cap(win: LoadWindow) -> tuple[int, ...]:
        if demand_relation != JOB_GE or win.lower == 0:
            return demand
        return tuple(max(d_j, win.upper // pj)
                     for d_j, pj in zip(demand, inst.p))

    groups: list[ModelGroup] = []
    for t in range(inst.tau):
        if inst.m[t] == 0:
            continue
        allowed = inst.allowed_row(t)
        core_win = cores[t]
        groups.append(ModelGroup(
            t, "core", inst.m[t], core_win,
            tuple(enumerate_configs(inst.p, column_cap(core_win),
                                    (core_win.lower, core_win.upper), allowed))))
        blk = blocks[t]
        if blk.exact > 0:
            win = LoadWindow(blk.lcm_load, blk.lcm_load)
            groups.append(ModelGroup(
                t, "exact", inst.m[t] * blk.exact, win,
                tuple(enumerate_configs(inst.p, column_cap(win),
                                        (win.lower, win.upper), allowed))))
        if blk.slack > 0:
            win = LoadWindow(0, blk.lcm_load)
            groups.append(ModelGroup(
                t, "slack", inst.m[t] * blk.slack, win,
                tuple(enumerate_configs(inst.p, column_cap(win),
                                        (win.lower, win.upper), allowed))))
    return ConfILPModel(inst.p, inst.tau, tuple(demand), demand_relation,
                        tuple(groups), tuple(windows))


def _necessarily_infeasible(model: ConfILPModel) -> bool:
    """Cheap necessary-condition checks before running the DP."""
    total_load = dot(model.p, model.demand)
    min_load = 0
    max_load = 0
    per_job_max = [0] * len(model.p)
    for g in model.groups:
        if g.count == 0:
            continue
        if not g.configs:
            return True
        min_load += g.count * g.window.lower
        max_load += g.count * g.window.upper
        for j in range(len(model.p)):
            best = max((c[j] for c in g.configs), default=0)
            per_job_max[j] = per_job_max[j] + g.count * best
    rel = model.demand_relation
    if rel in (JOB_EQ, JOB_LE) and min_load > total_load:
        return True
    if rel in (JOB_EQ, JOB_GE):
        if max_load < total_load:
            return True
        if any(have < need for have, need in zip(per_job_max, model.demand)):
            return True
    return False


def _packing(model: ConfILPModel) -> tuple[int, int]:
    """Digit width and guard mask of the packed state encoding.

    Every demand entry and every column entry fits in ``width`` bits, so
    each coordinate gets a ``width``-bit digit with one guard bit above
    it; coordinate 0 takes the most significant digit.
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
    at a time.  Groups whose window admits the empty configuration are
    searched breadth-first for the fewest loaded machines (identical
    machines make any reachability witness reusable), other groups step
    machine by machine.  Tie-breaking is lexicographic everywhere, so the
    returned schedule is deterministic.  Exceeding ``state_limit``
    created states raises ResourceLimitError -- never reported as
    infeasible.

    States and columns are packed into ints (``_packing``): one digit
    per coordinate, coordinate 0 most significant, each digit holding
    its value in ``width`` bits below a guard bit.  Invariant: the guard
    bits of every state and every column are clear, because ``width``
    covers the demand (states only shrink) and every column entry, the
    over-covering ``>=`` columns included.  Int order is then tuple
    order, so sorting and ``min`` break ties as on tuples.

    A step computes ``x = (state | H) - column`` with ``H`` the guard
    mask.  Each digit of ``state | H`` is ``2**width + s`` and exceeds
    the column's digit ``c < 2**width``, so no digit borrows from its
    neighbour and the digit's guard bit survives exactly when s >= c.
    If every guard bit survives (``x & H == H``) the next state is ``x ^
    H``.  Otherwise ``=``/``<=`` skip the column, and ``>=`` saturates
    at zero: with ``g = x & H``, ``g - (g >> width)`` holds the value
    bits of exactly the digits whose guard survived, and ``x`` masked by
    it keeps s - c there and 0 elsewhere.
    """
    if state_limit is None:
        state_limit = state_limit_default()
    if _necessarily_infeasible(model):
        return None

    saturate = model.demand_relation == JOB_GE
    zero = tuple(0 for _ in model.p)
    width, H = _packing(model)
    left = state_limit

    states: set[int] = {_pack(model.demand, width)}
    trail: list[tuple] = []
    for group in model.groups:
        if group.count == 0:
            trail.append(("skip",))
            continue
        columns = [(ci, _pack(cfg, width)) for ci, cfg in enumerate(group.configs)]
        if columns and group.configs[0] == zero:
            columns = columns[1:]
            parent: dict[int, tuple[int, int]] = {}
            seen = set(states)
            frontier = sorted(states)
            for _ in range(group.count):
                fresh = []
                for st in frontier:
                    base = st | H
                    for ci, col in columns:
                        x = base - col
                        g = x & H
                        if g == H:
                            ns = x ^ H
                        elif saturate:
                            ns = x & (g - (g >> width))
                        else:
                            continue
                        if ns in seen:
                            continue
                        seen.add(ns)
                        parent[ns] = (st, ci)
                        fresh.append(ns)
                        left -= 1
                        if left < 0:
                            raise ResourceLimitError("state limit exceeded")
                if not fresh:
                    break
                frontier = sorted(fresh)
            states = seen
            trail.append(("bfs", parent))
        else:
            steps: list[dict[int, tuple[int, int]]] = []
            cur = dict.fromkeys(states)
            for _ in range(group.count):
                nxt: dict[int, tuple[int, int]] = {}
                for st in sorted(cur):
                    base = st | H
                    for ci, col in columns:
                        x = base - col
                        g = x & H
                        if g == H:
                            ns = x ^ H
                        elif saturate:
                            ns = x & (g - (g >> width))
                        else:
                            continue
                        if ns in nxt:
                            continue
                        nxt[ns] = (st, ci)
                        left -= 1
                        if left < 0:
                            raise ResourceLimitError("state limit exceeded")
                steps.append(nxt)
                cur = nxt
                if not cur:
                    break
            states = set(cur)
            trail.append(("steps", steps))
        if not states:
            return None

    if model.demand_relation == JOB_LE:
        final = min(states)
    elif 0 in states:
        final = 0
    else:
        return None

    # Walk the trail backwards, counting the configs each group used.
    chosen: list[dict[tuple[int, ...], int]] = [{} for _ in model.groups]
    state = final
    for gi in range(len(model.groups) - 1, -1, -1):
        kind = trail[gi][0]
        group = model.groups[gi]
        if kind == "skip":
            continue
        configs = group.configs
        picks = chosen[gi]
        if kind == "bfs":
            parent = trail[gi][1]
            loaded = 0
            while state in parent:
                prev, ci = parent[state]
                picks[configs[ci]] = picks.get(configs[ci], 0) + 1
                loaded += 1
                state = prev
            if group.count > loaded:
                picks[zero] = group.count - loaded
        else:
            steps = trail[gi][1]
            for si in range(len(steps) - 1, -1, -1):
                prev, ci = steps[si][state]
                picks[configs[ci]] = picks.get(configs[ci], 0) + 1
                state = prev

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
        window = model.raw_windows[t]
        for k, slices in deal(m, (cores, 1), (exacts, epm), (slacks, spm)):
            merged = [0] * d
            for piece_slice in slices:
                for piece, mult in piece_slice:
                    for j in range(d):
                        merged[j] += mult * piece[j]
            config = tuple(merged)
            load = dot(model.p, config)
            if not window.lower <= load <= window.upper:
                raise CertificateError(
                    f"type {t}: recombined load {load} escaped its window "
                    f"[{window.lower}, {window.upper}]")
            raw.append((t, config, k))
    return make_schedule(d, model.p, raw)
