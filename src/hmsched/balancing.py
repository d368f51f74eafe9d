"""Fractional schedules for fast machines and the balancing reductions.

The central object is a three-phase fractional schedule defined on
instances whose machines all have speed at least ``large_machine_cutoff``.
Splitting each machine's capacity at that cutoff creates a common bottom
area (area 1, the cutoff) and a speed-proportional top area (area 2):

* phase 1a puts the same integral multiplicity of every job type on
  every machine, at most pmax each;
* phase 2 distributes the remaining jobs of saturated types over area 2
  proportionally to each machine's share of it;
* phase 1b spreads whatever is left equally over all machines.

Every machine ends up with the same spare capacity relative to its
speed, which is what makes balancing work: flooring
the schedule and subtracting a small per-entry margin yields a
preassignment that is extendable to an optimal integral schedule
whenever one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import HMSchedule, Instance, MalformedInputError


def large_machine_cutoff(d: int, pmax: int) -> int:
    """Speed bound d * pmax * (4 + pmax) above which machines count as fast."""
    return d * pmax * (4 + pmax)


@dataclass(frozen=True)
class FractionalSchedule:
    """Per-machine-type fractional job multiplicities with phase breakdown.

    phase_1a and phase_1b are machine-independent d-vectors (ints in a
    rounded schedule); phase_2 has one d-vector per machine type.
    ``weights[t]`` is the fraction of area 2 contributed by one machine
    of type t, (s_t - cutoff) / area_2, zero when area 2 is empty.
    """

    p: tuple[int, ...]
    speeds: tuple[int, ...]
    counts: tuple[int, ...]
    cutoff: int
    area_2: int
    phase_1a: tuple[Fraction | int, ...]
    phase_1b: tuple[Fraction | int, ...]
    phase_2: tuple[tuple[Fraction, ...], ...]
    weights: tuple[Fraction, ...]

    @property
    def d(self) -> int:
        return len(self.p)

    @property
    def tau(self) -> int:
        return len(self.speeds)

    def total(self, t: int) -> tuple[Fraction, ...]:
        """Multiplicity vector assigned to one machine of type t."""
        return tuple(a + b + c for a, b, c in
                     zip(self.phase_1a, self.phase_1b, self.phase_2[t]))

    def machine_load(self, t: int) -> Fraction:
        return sum((pj * x for pj, x in zip(self.p, self.total(t))),
                   start=Fraction(0))

    def job_totals(self) -> tuple[Fraction, ...]:
        """Summed multiplicities over all machines, one entry per job type."""
        out = [Fraction(0)] * self.d
        for t, m in enumerate(self.counts):
            for j, x in enumerate(self.total(t)):
                out[j] += m * x
        return tuple(out)


def build_fractional_schedule(inst: Instance,
                              jobs: tuple[int, ...]) -> FractionalSchedule:
    """Construct the three-phase fractional schedule for ``jobs``.

    ``inst`` supplies the machines (every type with machines present must
    have speed >= the cutoff) and the size vector; ``jobs`` is the job
    vector to distribute, which may differ from inst.n when the caller
    is splitting jobs between fast and slow machines.

    When the jobs fit fractionally (p.jobs <= total speed), the result
    is regular, fits every machine's speed, and uses exactly ``jobs``.
    """
    d, pmax = inst.d, inst.pmax
    cutoff = large_machine_cutoff(d, pmax)
    if len(jobs) != d:
        raise MalformedInputError("jobs vector has wrong dimension")
    if any(x < 0 for x in jobs):
        raise MalformedInputError("jobs must be >= 0")
    m = inst.machine_count
    if m == 0:
        raise ValueError("fractional schedule needs at least one machine")
    for t in range(inst.tau):
        if inst.m[t] > 0 and inst.s[t] < cutoff:
            raise ValueError(
                f"machine type {t} has speed {inst.s[t]} < cutoff {cutoff}")

    n1a = tuple(min(m * pmax, m * (jobs[j] // m)) for j in range(d))
    ph1a = tuple(Fraction(n1a[j], m) for j in range(d))

    area_2 = sum(mt * (st - cutoff) for st, mt in zip(inst.s, inst.m))
    n2_pre = tuple(jobs[j] - n1a[j] if ph1a[j] >= pmax else 0 for j in range(d))
    pre_load = sum(pj * x for pj, x in zip(inst.p, n2_pre))
    factor = Fraction(1) if pre_load == 0 else min(Fraction(1),
                                                   Fraction(area_2, pre_load))
    n2 = tuple(factor * x for x in n2_pre)

    if area_2 > 0:
        weights = tuple(Fraction(st - cutoff, area_2) if mt > 0 else Fraction(0)
                        for st, mt in zip(inst.s, inst.m))
    else:
        weights = tuple(Fraction(0) for _ in inst.s)
    ph2 = tuple(tuple(weights[t] * n2[j] for j in range(d))
                for t in range(inst.tau))

    n1b = tuple(jobs[j] - n1a[j] - n2[j] for j in range(d))
    ph1b = tuple(Fraction(x, m) for x in n1b)

    return FractionalSchedule(inst.p, inst.s, inst.m, cutoff, area_2,
                              ph1a, ph1b, ph2, weights)


def fastest_type(fs: FractionalSchedule) -> int:
    """Lowest-index machine type of maximal speed among those with machines."""
    best = None
    for t in range(fs.tau):
        if fs.counts[t] > 0 and (best is None or fs.speeds[t] > fs.speeds[best]):
            best = t
    if best is None:
        raise ValueError("no machines")
    return best


def relative_weights(fs: FractionalSchedule,
                     imax_type: int) -> tuple[Fraction, ...]:
    """Area-2 weights over type imax_type's (all zero if area 2 is empty)."""
    w_max = fs.weights[imax_type]
    return tuple(w / w_max if w_max else Fraction(0) for w in fs.weights)


def rounded_schedule(shape: FractionalSchedule, ratios: tuple[Fraction, ...],
                     g1a: tuple[int, ...], g1b: tuple[int, ...],
                     g2: tuple[int, ...]) -> FractionalSchedule:
    """Rounded schedule determined by the integral data (g1a, g1b, g2).

    g1a and g1b are the floored phases 1a and 1b, kept as ints; type t's
    phase 2 is ratios[t] * g2 (see ``relative_weights``).  Only the
    machines of ``shape`` are read, so one zero-job shape serves every
    guess.
    """
    ph2 = tuple(tuple(r * x for x in g2) for r in ratios)
    return FractionalSchedule(shape.p, shape.speeds, shape.counts, shape.cutoff,
                              shape.area_2, g1a, g1b, ph2, shape.weights)


def round_schedule(fs: FractionalSchedule, imax_type: int) -> FractionalSchedule:
    """Integrally-determined approximation of a fractional schedule.

    Floors the two machine-independent phases and the phase-2 vector of
    the fastest type, and rebuilds the schedule from them with
    ``rounded_schedule``.  The result is pointwise below the input by at
    most 2 per (machine, job type) pair and stays regular.
    """
    return rounded_schedule(fs, relative_weights(fs, imax_type),
                            tuple(map(math.floor, fs.phase_1a)),
                            tuple(map(math.floor, fs.phase_1b)),
                            tuple(map(math.floor, fs.phase_2[imax_type])))


def is_regular(sched: FractionalSchedule | HMSchedule, pmax: int) -> bool:
    """True iff, per job type, all machines or none carry >= pmax of it.

    Accepts either a fractional schedule (per-type totals, types with
    machines only) or a high-multiplicity schedule (entries with count
    > 0).  Empty schedules are vacuously regular.
    """
    if isinstance(sched, HMSchedule):
        rows = [cfg.counts for _, cfg, count in sched.entries if count > 0]
        d = sched.d
    else:
        rows = [sched.total(t) for t in range(sched.tau) if sched.counts[t] > 0]
        d = sched.d
    for j in range(d):
        flags = [row[j] >= pmax for row in rows]
        if any(flags) and not all(flags):
            return False
    return True


def reduced_schedule(fs: FractionalSchedule, idle_cap: int | None,
                     pmin: int, pmax: int) -> tuple[tuple[int, ...], ...]:
    """Floor the schedule and subtract the balancing margin, per type.

    The margin, the package's only one, is pmax without an idle cap and
    pmax + idle_cap // pmin with one; entries saturate at zero.  Some
    schedule of the required kind dominates the result on every machine
    whenever any schedule exists.  Sketch: while a machine A holds more
    than pmax type-j jobs below the floor, equal relative spare capacity
    makes A carry that load in other jobs and some machine B carry
    surplus type-j jobs; ``load_multiple_subvector`` picks at most p_j
    of A's other jobs with load alpha * p_j, alpha <= pmax, to trade for
    alpha type-j jobs of B, which leaves every load and load window as
    it was.  An idle cap lets a machine also leave up to idle_cap load
    empty, at most idle_cap // pmin jobs of one type.  Acceptance
    criterion 6 checks the makespan form (no cap, usage >= n), the idle
    form (rotating caps, usage = n) and the production minimum-completion
    form (cap pmax - 1, usage <= n) against the oracle.
    """
    margin = pmax if idle_cap is None else pmax + idle_cap // pmin
    return tuple(tuple(max(math.floor(x) - margin, 0) for x in fs.total(t))
                 for t in range(fs.tau))


def cmin_to_idle_cmax(inst: Instance) -> tuple[Instance, int]:
    """Convert a >=1 feasibility question into an idle-capped <=1 one.

    Raising every speed by pmax - 1 makes the instance >=1-feasible iff
    the converted instance admits a schedule using at most n jobs whose
    idle load is at most pmax - 1 on every machine at threshold 1.
    """
    shift = inst.pmax - 1
    speeds = tuple(s + shift for s in inst.s)
    out = Instance(inst.p, inst.n, speeds, inst.m, inst.restrict, inst.name)
    return out, shift


def load_multiple_subvector(v: tuple[int, ...], j: int,
                            p: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Nonzero w <= v whose load is a multiple alpha * p_j, alpha <= pmax.

    Lay out up to p_j jobs taken from v in type order and look at the
    prefix sums of their sizes modulo p_j: a collision yields a segment
    whose total size is divisible by p_j.  The segment is nonempty and
    has at most p_j jobs of size at most pmax, so 1 <= alpha <= pmax.
    With sum(v) >= p_j there are p_j + 1 prefixes over p_j residues and
    a collision is guaranteed; with fewer jobs one may still exist, and
    ValueError is raised only when it does not.
    """
    if not 0 <= j < len(p):
        raise MalformedInputError(f"job type {j} out of range")
    pj = p[j]
    items: list[int] = []  # job types, one entry per job
    for t, count in enumerate(v):
        take = min(count, pj - len(items))
        items.extend([t] * take)
        if len(items) == pj:
            break
    seen = {0: 0}  # residue -> prefix length
    prefix = 0
    lo = hi = 0
    for i, t in enumerate(items, start=1):
        prefix += p[t]
        r = prefix % pj
        if r in seen:
            lo, hi = seen[r], i
            break
        seen[r] = i
    else:
        raise ValueError(
            f"no subvector of {v} has load a multiple of {pj}"
            + (f" (need {pj} jobs, have {sum(v)})" if sum(v) < pj else ""))
    w = [0] * len(p)
    for t in items[lo:hi]:
        w[t] += 1
    load = sum(p[t] for t in items[lo:hi])
    alpha = load // pj
    assert load == alpha * pj and 1 <= alpha <= max(p)
    return tuple(w), alpha
