"""Brute-force exact solvers and seeded instance generation.

Everything here is ground truth for the property and acceptance suites,
so it deliberately shares no machinery with the production pipeline: no
normalization, no compression, no window reduction, no configuration
model.  Machines are expanded to a plain list and per-machine job
vectors are enumerated directly.

The oracle is a memoized dynamic program over (machine index,
remaining jobs); a plain exhaustive recursion cross-checks it on tiny
inputs (``tests/helpers.brute_force_reference``).  Instances above the
hard caps are refused, never approximated.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .balancing import large_machine_cutoff
from .model import (
    HMSchedule,
    Instance,
    LE,
    GE,
    JOB_EQ,
    JOB_GE,
    JOB_LE,
    MalformedInputError,
    make_schedule,
)

MACHINE_CAP = 6
STATE_CAP = 500_000


class OracleCapError(RuntimeError):
    """Instance exceeds the brute-force caps; the caller should skip it."""


def _expand_machines(inst: Instance, cap: int = MACHINE_CAP) -> list[int]:
    """Machine type index per individual machine, in type order."""
    if inst.machine_count > cap:
        raise OracleCapError(f"{inst.machine_count} machines > cap {cap}")
    out: list[int] = []
    for t, m in enumerate(inst.m):
        out.extend([t] * m)
    return out


def _machine_configs(inst: Instance, t: int, lo: int, hi: int,
                     floor_counts: tuple[int, ...] | None,
                     cap_at_n: bool = True) -> list[tuple[int, ...]]:
    """All job vectors for one machine of type t with load in [lo, hi].

    Plain nested-range product plus filter; intentionally independent of
    confilp.enumerate_configs.  ``cap_at_n`` bounds counts by the demand
    vector; callers must only set it when surplus jobs are removable
    (usage relations = and <=, or windows without a lower bound).
    """
    lows = floor_counts if floor_counts is not None else tuple(0 for _ in inst.p)
    ranges = []
    for j in range(inst.d):
        if not inst.allowed(j, t):
            top = 0
        else:
            top = hi // inst.p[j]
            if cap_at_n:
                top = min(top, inst.n[j])
        if lows[j] > top:
            return []
        ranges.append(range(lows[j], top + 1))
    out = []
    for c in product(*ranges):
        load = sum(pj * cj for pj, cj in zip(inst.p, c))
        if lo <= load <= hi:
            out.append(c)
    out.sort()
    return out


def _load_bounds(inst: Instance, t: int, rel: str, threshold: Fraction,
                 idle_cap: int | None, job_relation: str) -> tuple[int, int]:
    """Integer load window for one machine implied by the query.

    Usage relation >= permits assignments beyond n ("over-covering"), so
    the load ceiling must not be clamped to the total demanded load;
    minimal solutions still keep each machine below its lower bound plus
    pmax unless its job types are all at tight usage, which bounds the
    search.
    """
    cap_ts = threshold * inst.s[t]
    if rel == LE:
        hi = math.floor(cap_ts)
        lo = max(0, math.ceil(cap_ts - idle_cap)) if idle_cap is not None else 0
    else:
        lo = math.ceil(cap_ts)
        hi = inst.total_load
        if job_relation == JOB_GE:
            hi = max(hi, lo + inst.pmax - 1)
    if job_relation != JOB_GE:
        hi = min(hi, inst.total_load)
    return lo, hi


def brute_force_feasibility(inst: Instance, rel: str, threshold: Fraction,
                            idle_cap: int | None = None,
                            job_relation: str = JOB_EQ,
                            config_floor: tuple[tuple[int, ...], ...] | None = None,
                            machine_cap: int = MACHINE_CAP,
                            state_cap: int = STATE_CAP) -> bool:
    """Exhaustive verdict for a feasibility query.

    ``config_floor``, when given, is a per-machine-type lower bound: every
    machine's job vector must dominate its type's floor.  This is the
    search used to decide whether a preassignment can be extended.
    """
    return _feasible_schedule(inst, rel, Fraction(threshold), idle_cap,
                              job_relation, config_floor,
                              machine_cap, state_cap) is not None


def feasible_schedule(inst: Instance, rel: str, threshold: Fraction,
                      idle_cap: int | None = None,
                      job_relation: str = JOB_EQ,
                      machine_cap: int = MACHINE_CAP,
                      state_cap: int = STATE_CAP) -> HMSchedule | None:
    """Like brute_force_feasibility but returns a witness schedule."""
    return _feasible_schedule(inst, rel, Fraction(threshold), idle_cap,
                              job_relation, None, machine_cap, state_cap)


def _feasible_schedule(inst, rel, threshold, idle_cap, job_relation,
                       config_floor, machine_cap, state_cap):
    machines = _expand_machines(inst, machine_cap)
    if not machines:
        ok = {JOB_EQ: all(x == 0 for x in inst.n),
              JOB_LE: True,
              JOB_GE: all(x == 0 for x in inst.n)}[job_relation]
        return HMSchedule(inst.d, ()) if ok else None

    cfg_cache: dict[int, list[tuple[int, ...]]] = {}

    def configs_for(t: int) -> list[tuple[int, ...]]:
        if t not in cfg_cache:
            lo, hi = _load_bounds(inst, t, rel, threshold, idle_cap,
                                  job_relation)
            floor = config_floor[t] if config_floor is not None else None
            # Surplus above n is only removable when nothing pins the
            # load from below.
            cap_at_n = job_relation != JOB_GE or lo == 0
            cfg_cache[t] = _machine_configs(inst, t, lo, hi, floor, cap_at_n)
        return cfg_cache[t]

    saturating = job_relation == JOB_GE
    states: dict[tuple[int, ...], None] = {inst.n: None}
    trail: list[dict] = []
    created = 0
    for t in machines:
        nxt: dict[tuple[int, ...], tuple] = {}
        for st in sorted(states):
            for cfg in configs_for(t):
                if saturating:
                    ns = tuple(s - c if s > c else 0 for s, c in zip(st, cfg))
                else:
                    if any(c > s for s, c in zip(st, cfg)):
                        continue
                    ns = tuple(s - c for s, c in zip(st, cfg))
                if ns not in nxt:
                    nxt[ns] = (st, cfg)
                    created += 1
                    if created > state_cap:
                        raise OracleCapError("state cap exceeded")
        trail.append(nxt)
        states = nxt
        if not states:
            return None

    zero = tuple(0 for _ in range(inst.d))
    if job_relation in (JOB_EQ, JOB_GE):
        if zero not in states:
            return None
        final = zero
    else:
        final = min(states)

    raw = []
    state = final
    for i in range(len(machines) - 1, -1, -1):
        prev, cfg = trail[i][state]
        raw.append((machines[i], cfg, 1))
        state = prev
    return make_schedule(inst.d, raw)


# ---------------------------------------------------------------------------
# Optima
# ---------------------------------------------------------------------------

def _check_speeds(inst: Instance) -> None:
    if any(s == 0 and m > 0 for s, m in zip(inst.s, inst.m)):
        raise ValueError("objective oracles need strictly positive speeds")


def assignable(inst: Instance) -> bool:
    """True iff every demanded job type has at least one usable machine."""
    for j in range(inst.d):
        if inst.n[j] == 0:
            continue
        if not any(inst.m[t] > 0 and inst.allowed(j, t) for t in range(inst.tau)):
            return False
    return True


def _value_grid_search(inst: Instance, rel: str,
                       machine_cap: int, state_cap: int) -> Fraction:
    """Optimal threshold via per-type binary search on the exact value grid.

    Any optimum is some machine's load divided by its speed, hence lies
    on a grid {k / s_t}.  Feasibility is monotone in the threshold, so a
    binary search per type is exact; probes use the machine-expansion
    search above, nothing from the production pipeline.
    """
    P = inst.total_load
    best: Fraction | None = None
    for t in range(inst.tau):
        if inst.m[t] == 0:
            continue
        s = inst.s[t]
        lo, hi = 0, s * P  # thresholds k / s, k in [0, s*P]
        if rel == LE:
            # smallest feasible k; k = s*P (threshold P) is always feasible
            while lo < hi:
                mid = (lo + hi) // 2
                if brute_force_feasibility(inst, LE, Fraction(mid, s),
                                           machine_cap=machine_cap,
                                           state_cap=state_cap):
                    hi = mid
                else:
                    lo = mid + 1
            cand = Fraction(lo, s)
            best = cand if best is None else min(best, cand)
        else:
            # largest feasible k; k = 0 is always feasible
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if brute_force_feasibility(inst, GE, Fraction(mid, s),
                                           machine_cap=machine_cap,
                                           state_cap=state_cap):
                    lo = mid
                else:
                    hi = mid - 1
            cand = Fraction(lo, s)
            best = cand if best is None else max(best, cand)
    assert best is not None, "no machines"
    return best


def _pareto_insert(front: list[tuple[Fraction, Fraction]],
                   lo: Fraction, hi: Fraction) -> None:
    """Keep only undominated (min, max) completion pairs."""
    for flo, fhi in front:
        if flo >= lo and fhi <= hi:
            return
    front[:] = [(flo, fhi) for flo, fhi in front if not (lo >= flo and hi <= fhi)]
    front.append((lo, hi))


def _envy_value(inst: Instance, machine_cap: int, state_cap: int
                ) -> tuple[Fraction, HMSchedule]:
    machines = _expand_machines(inst, machine_cap)
    BIG = Fraction(inst.total_load + 1)
    memo: dict[tuple[int, tuple[int, ...]], list] = {}
    created = 0

    def frontier(i: int, rem: tuple[int, ...]) -> list[tuple[Fraction, Fraction]]:
        nonlocal created
        key = (i, rem)
        if key in memo:
            return memo[key]
        if i == len(machines):
            out = [(BIG, -BIG)] if all(x == 0 for x in rem) else []
            memo[key] = out
            return out
        t = machines[i]
        out: list[tuple[Fraction, Fraction]] = []
        for cfg in _machine_configs(inst, t, 0, inst.total_load, None):
            if any(c > r for c, r in zip(cfg, rem)):
                continue
            load = sum(pj * cj for pj, cj in zip(inst.p, cfg))
            comp = Fraction(load, inst.s[t])
            rest = tuple(r - c for r, c in zip(rem, cfg))
            for lo, hi in frontier(i + 1, rest):
                _pareto_insert(out, min(lo, comp), max(hi, comp))
                created += 1
                if created > state_cap:
                    raise OracleCapError("state cap exceeded")
        memo[key] = out
        return out

    front = frontier(0, inst.n)
    assert front, "a full assignment always exists"
    value = min(hi - lo for lo, hi in front)

    # Deterministic witness walk for the achieved envy.
    raw = []
    rem = inst.n
    run_lo, run_hi = BIG, -BIG

    def achievable(i, rem, run_lo, run_hi) -> bool:
        return any(max(hi, run_hi) - min(lo, run_lo) == value
                   for lo, hi in frontier(i, rem))

    for i, t in enumerate(machines):
        placed = False
        for cfg in _machine_configs(inst, t, 0, inst.total_load, None):
            if any(c > r for c, r in zip(cfg, rem)):
                continue
            load = sum(pj * cj for pj, cj in zip(inst.p, cfg))
            comp = Fraction(load, inst.s[t])
            nlo, nhi = min(run_lo, comp), max(run_hi, comp)
            rest = tuple(r - c for r, c in zip(rem, cfg))
            if achievable(i + 1, rest, nlo, nhi):
                raw.append((t, cfg, 1))
                rem, run_lo, run_hi = rest, nlo, nhi
                placed = True
                break
        assert placed, "witness walk lost the optimum"
    return value, make_schedule(inst.d, raw)


def brute_force(inst: Instance, objective: str,
                machine_cap: int = MACHINE_CAP,
                state_cap: int = STATE_CAP) -> tuple[Fraction, HMSchedule]:
    """Exact optimum and witness schedule for cmax, cmin, or cenvy."""
    _check_speeds(inst)
    if inst.machine_count == 0:
        raise ValueError("need at least one machine")
    if not assignable(inst):
        raise ValueError("a demanded job type has no usable machine type")
    if objective == "cmax":
        value = _value_grid_search(inst, LE, machine_cap, state_cap)
        sched = feasible_schedule(inst, LE, value,
                                  machine_cap=machine_cap, state_cap=state_cap)
    elif objective == "cmin":
        value = _value_grid_search(inst, GE, machine_cap, state_cap)
        sched = feasible_schedule(inst, GE, value,
                                  machine_cap=machine_cap, state_cap=state_cap)
    elif objective == "cenvy":
        return _envy_value(inst, machine_cap, state_cap)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    assert sched is not None
    return value, sched


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenParams:
    """Knobs for the seeded instance generator; identical seed, identical
    instance."""

    d_range: tuple[int, int] = (1, 3)
    pmax_range: tuple[int, int] = (1, 6)
    machine_count_range: tuple[int, int] = (1, 5)
    speed_range: tuple[int, int] = (1, 12)
    job_total_range: tuple[int, int] = (0, 14)
    restricted: bool = False
    large_machines: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("d_range", "pmax_range", "machine_count_range",
                     "speed_range", "job_total_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise MalformedInputError(f"{name} is empty")
        if self.d_range[0] < 1 or self.pmax_range[0] < 1:
            raise MalformedInputError("need d >= 1 and pmax >= 1")
        if (self.machine_count_range[0] < 0 or self.speed_range[0] < 1
                or self.job_total_range[0] < 0):
            raise MalformedInputError("need machines >= 0, speeds >= 1, jobs >= 0")


def generate(params: GenParams) -> Instance:
    """Reproducible pseudo-random instance.

    Sizes always realize the sampled pmax; with ``large_machines`` every
    speed is offset by the large-machine cutoff for the sampled (d,
    pmax).  Restriction matrices allow every job type on at least one
    machine type.
    """
    rnd = random.Random(params.seed)
    d = rnd.randint(*params.d_range)
    pmax = rnd.randint(*params.pmax_range)
    sizes = sorted(rnd.randint(1, pmax) for _ in range(d - 1)) + [pmax]
    p = tuple(sorted(sizes))

    count = rnd.randint(*params.machine_count_range)
    offset = large_machine_cutoff(d, pmax) if params.large_machines else 0
    speeds = [rnd.randint(*params.speed_range) + offset for _ in range(count)]
    by_speed: dict[int, int] = {}
    for s in speeds:
        by_speed[s] = by_speed.get(s, 0) + 1
    s = tuple(sorted(by_speed))
    m = tuple(by_speed[x] for x in s)

    total = rnd.randint(*params.job_total_range)
    n = [0] * d
    for _ in range(total):
        n[rnd.randrange(d)] += 1

    restrict = None
    if params.restricted:
        rows = []
        for _ in range(d):
            row = [rnd.random() < 0.6 for _ in range(len(s))]
            if not any(row):
                row[rnd.randrange(len(s))] = True
            rows.append(tuple(row))
        restrict = tuple(rows)

    return Instance(p, tuple(n), s, m, restrict, name=f"gen-{params.seed}")
