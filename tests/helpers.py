"""Shared test utilities: instance streams, property checkers, references.

The acceptance suite and the per-module tests drive the same checkers at
different instance counts, so the checkers live here and raise plain
AssertionError with context on failure.  The reference constructions
and lemma witnesses that the package itself does not run live here too.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import hmsched
from hmsched.balancing import large_machine_cutoff
from hmsched.model import HMSchedule, Instance, MalformedInputError, dot
from hmsched.oracle import GenParams, generate
from hmsched.reduction import reduction_constants

# ---------------------------------------------------------------------------
# Reference constructions and lemma witnesses
# ---------------------------------------------------------------------------
# The paper's fractional schedule and the witnesses of its lemmas.  The
# package builds each balanced guess in integers
# (``hmsched.balancing.guess_configs``) and never runs these; the tests
# use them to check that construction and the lemmas it rests on.

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
        rows = [counts for _, counts, count in sched.entries if count > 0]
        d = sched.d
    else:
        rows = [sched.total(t) for t in range(sched.tau) if sched.counts[t] > 0]
        d = sched.d
    for j in range(d):
        flags = [row[j] >= pmax for row in rows]
        if any(flags) and not all(flags):
            return False
    return True


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


def cut_block(w: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    """Split a sub-vector of load exactly lcm(p) out of w.

    Requires p.w >= d * pmax * lcm(p).  Then some single job type j
    already carries load p_j * w_j >= lcm(p), and since p_j divides
    lcm(p), taking lcm(p)/p_j copies of type j is a valid witness.
    Any witness satisfying 0 <= out <= w and p.out = lcm(p) is acceptable
    downstream; this one is deterministic (largest per-type load wins,
    lowest index breaks ties).
    """
    k = reduction_constants(p)
    load = dot(p, w)
    if load < k.cut_threshold:
        raise ValueError(
            f"cut_block requires load >= {k.cut_threshold}, got {load}")
    j = max(range(len(p)), key=lambda i: (p[i] * w[i], -i))
    need = k.lcm_load // p[j]
    assert w[j] >= need, "pigeonhole guarantee violated"
    out = tuple(need if i == j else 0 for i in range(len(p)))
    assert dot(p, out) == k.lcm_load
    return out


def is_identity(cmap) -> bool:
    """True iff ``reduction.compress`` left every machine type as it was."""
    return (all(x == 0 for x in cmap.pieces_per_machine)
            and cmap.compressed_speeds == cmap.residual_speed)


# Mixed regimes: the interesting case splits live at all-small,
# all-large, single-size, and unit-size boundaries, so the streams cycle
# through parameter sets biased to each.
REGIMES = (
    dict(),                                                # default mix
    dict(d_range=(1, 1)),                                  # one job size
    dict(pmax_range=(1, 1)),                               # unit jobs
    dict(large_machines=True, d_range=(1, 2),
         pmax_range=(2, 4), job_total_range=(0, 10)),      # all fast
    dict(speed_range=(1, 4)),                              # all slow
    dict(d_range=(2, 3), pmax_range=(2, 6),
         job_total_range=(4, 14)),                         # wider mix
    dict(d_range=(1, 2), pmax_range=(1, 4),
         job_total_range=(14, 30), machine_count_range=(2, 5)),  # many jobs
)


def instance_stream(count: int, base_seed: int = 0, **overrides):
    """Deterministic stream of generated instances cycling the regimes."""
    out = []
    for i in range(count):
        regime = dict(REGIMES[i % len(REGIMES)])
        regime.update(overrides)
        out.append(generate(GenParams(seed=base_seed + i, **regime)))
    return out


def perfbench_module(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded from its file
    (``perfbench`` is not a package) and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus_solves(workload: str, name: str = "default"
                  ) -> list[tuple[str, Instance, Fraction]]:
    """A benchmark corpus's solves and their committed optima.

    Each entry is (kind, instance, optimum), read from
    ``perfbench/corpus.py``; kind is cmax, cmin or cenvy, or rcmax or
    rcmin for a restricted solve.  Every ``mixed`` optimum comes from the
    brute-force oracle.
    """
    corpus = perfbench_module("corpus")
    solves = corpus.build(hmsched, workload, name)
    expected = corpus.load_expected(workload, name, solves)
    return [(kind, inst, want) for (kind, inst), want in zip(solves, expected)]


def large_instance_stream(count: int, base_seed: int = 0,
                          fractionally_feasible: bool = True):
    """All-fast-machine instances, optionally trimmed to fit fractionally."""
    out = []
    i = 0
    while len(out) < count:
        inst = generate(GenParams(
            seed=base_seed + i, large_machines=True, d_range=(1, 2),
            pmax_range=(1, 4), machine_count_range=(1, 4),
            speed_range=(1, 25), job_total_range=(0, 30)))
        i += 1
        if inst.machine_count == 0:
            continue
        if fractionally_feasible:
            capacity = sum(s * m for s, m in zip(inst.s, inst.m))
            n = list(inst.n)
            j = 0
            while sum(pj * nj for pj, nj in zip(inst.p, n)) > capacity:
                j = (j + 1) % inst.d
                if n[j] > 0:
                    n[j] -= 1
            inst = Instance(inst.p, tuple(n), inst.s, inst.m)
        out.append(inst)
    return out


def fractionally_feasible(inst: Instance, jobs: tuple[int, ...]) -> bool:
    total = sum(pj * nj for pj, nj in zip(inst.p, jobs))
    return total <= sum(s * m for s, m in zip(inst.s, inst.m))


def check_unconditional_properties(inst: Instance) -> None:
    """Properties of the construction that hold even when jobs overflow.

    The proportional phase never exceeds area 2 and fills it completely
    whenever the spread phase is nonempty; the per-entry rounding error
    bounds and the idle-space dichotomy hold regardless of feasibility.
    """
    d, pmax = inst.d, inst.pmax
    cutoff = large_machine_cutoff(d, pmax)
    fs = build_fractional_schedule(inst, inst.n)
    active = [t for t in range(inst.tau) if inst.m[t] > 0]
    imax = fastest_type(fs)
    for t in active:
        ph2_load = sum(pj * x for pj, x in zip(inst.p, fs.phase_2[t]))
        assert ph2_load <= inst.s[t] - cutoff, (inst, t)
    if any(x >= 1 for x in fs.phase_1b):
        filled = sum(inst.m[t] * sum(pj * x for pj, x in zip(inst.p, fs.phase_2[t]))
                     for t in active)
        assert filled == fs.area_2, inst
    w_imax = fs.weights[imax]
    rs = round_schedule(fs, imax)
    for t in active:
        for j in range(d):
            base = math.floor(fs.phase_2[imax][j])
            scaled = (fs.weights[t] / w_imax * base if w_imax else Fraction(0))
            assert 0 <= fs.phase_2[t][j] - scaled <= 1, (inst, t, j)
            assert 0 <= fs.total(t)[j] - rs.total(t)[j] <= 2, (inst, t, j)
    if all(math.floor(x) == 0 for x in fs.phase_1b):
        for t in active:
            assert inst.s[t] - fs.machine_load(t) >= 3 * d * pmax, (inst, t)
    else:
        for t in active:
            assert inst.s[t] - rs.machine_load(t) <= cutoff + 2 * d * pmax, (inst, t)


def check_fractional_schedule_properties(inst: Instance) -> None:
    """Assert the structural properties of the three-phase schedule.

    Expects an all-fast-machine instance whose jobs fit fractionally.
    Checks, in exact arithmetic: the proportional phase fits area 2 and
    fills it completely whenever the spread phase is nonempty; phase 1
    fits area 1; the per-entry rounding error against the fastest
    machine's floored proportional phase is in [0, 1]; the schedule is
    regular, fits every speed, and uses the jobs exactly.  Then the same
    for the rounded schedule: pointwise error in [0, 2], regularity,
    feasibility, usage at most the jobs, and the two idle-space
    implications driven by the floored spread phase.
    """
    d, pmax = inst.d, inst.pmax
    cutoff = large_machine_cutoff(d, pmax)
    fs = build_fractional_schedule(inst, inst.n)
    active = [t for t in range(inst.tau) if inst.m[t] > 0]
    imax = fastest_type(fs)

    # (i) proportional phase within area 2 per machine
    for t in active:
        ph2_load = sum(pj * x for pj, x in zip(inst.p, fs.phase_2[t]))
        assert ph2_load <= inst.s[t] - cutoff, (inst, t)

    # (ii) nonzero spread phase forces area 2 completely filled
    if any(x >= 1 for x in fs.phase_1b):
        filled = sum(inst.m[t] * sum(pj * x for pj, x in zip(inst.p, fs.phase_2[t]))
                     for t in active)
        assert filled == fs.area_2, inst

    # (iii) phase 1 within area 1 (needs fractional feasibility)
    for t in active:
        ph1_load = sum(pj * (a + b) for pj, a, b in
                       zip(inst.p, fs.phase_1a, fs.phase_1b))
        assert ph1_load <= cutoff, (inst, t)

    # (iv) rounding error of the proportional phase in [0, 1]
    w_imax = fs.weights[imax]
    for t in active:
        for j in range(d):
            base = math.floor(fs.phase_2[imax][j])
            scaled = (fs.weights[t] / w_imax * base if w_imax else Fraction(0))
            diff = fs.phase_2[t][j] - scaled
            assert 0 <= diff <= 1, (inst, t, j)

    # (v) regular, feasible, exact usage
    assert is_regular(fs, pmax), inst
    for t in active:
        assert fs.machine_load(t) <= inst.s[t], (inst, t)
    assert fs.job_totals() == tuple(Fraction(x) for x in inst.n), inst

    rs = round_schedule(fs, imax)
    # rounded (i): pointwise error in [0, 2]
    for t in active:
        for j in range(d):
            diff = fs.total(t)[j] - rs.total(t)[j]
            assert 0 <= diff <= 2, (inst, t, j)
    # rounded (ii): regular, feasible, usage at most n
    assert is_regular(rs, pmax), inst
    for t in active:
        assert rs.machine_load(t) <= inst.s[t], (inst, t)
    for j, total in enumerate(rs.job_totals()):
        assert total <= inst.n[j], (inst, j)
    # rounded (iii)/(iv): idle-space dichotomy from the floored spread phase
    if all(math.floor(x) == 0 for x in fs.phase_1b):
        for t in active:
            assert inst.s[t] - fs.machine_load(t) >= 3 * d * pmax, (inst, t)
    else:
        for t in active:
            assert inst.s[t] - rs.machine_load(t) <= cutoff + 2 * d * pmax, (inst, t)

from itertools import product

from hmsched.model import dot


def window_decomposes(c, p, red, k):
    """Exhaustively: can c be split into exact + slack + core parts?

    For unbounded windows an exact part (load >= lcm) can shed jobs into
    the unbounded core until its load drops below lcm + pmax, so pieces
    are enumerated within [lcm, lcm + pmax - 1] without losing any
    decomposition.
    """
    if red.core_upper is None:
        exact_hi = k.lcm_load + max(p) - 1
    else:
        exact_hi = k.lcm_load
    parts = ([(k.lcm_load, exact_hi)] * red.exact_blocks
             + [(0, k.lcm_load)] * red.slack_blocks)
    states = {c}
    for lo, hi in parts:
        nxt = set()
        for rem in states:
            tops = [min(x, hi // pj) for x, pj in zip(rem, p)]
            for piece in product(*(range(x + 1) for x in tops)):
                load = dot(p, piece)
                if lo <= load <= hi:
                    nxt.add(tuple(r - x for r, x in zip(rem, piece)))
        states = nxt
    for rem in states:
        load = dot(p, rem)
        if load >= red.core_lower and (red.core_upper is None
                                       or load <= red.core_upper):
            return True
    return False


# ---------------------------------------------------------------------------
# Per-machine reference expansions
# ---------------------------------------------------------------------------
# The solver pairs configuration multisets by (configuration, count) run.
# These references expand every machine on its own, as the solver once
# did, so tests can check that the run-length code builds the same
# schedules.  They are only usable on small machine counts.

from hmsched.model import (
    CertificateError,
    HMSchedule,
    MalformedInputError,
)


def expand_runs(runs):
    """A multiset given as (item, count) pairs, as a list in that order."""
    return [item for item, count in runs for _ in range(count)]


def reference_recombine(model, chosen) -> HMSchedule:
    """``confilp._recombine`` with one list element per machine and block."""
    d = len(model.p)
    per_type = {}
    for gi, group in enumerate(model.groups):
        per_type.setdefault(group.machine_type, {}).setdefault(
            group.role, []).extend(expand_runs(sorted(chosen[gi].items())))
    merged_entries = {}
    for t, roles in sorted(per_type.items()):
        cores = roles.get("core", [])
        exacts = roles.get("exact", [])
        slacks = roles.get("slack", [])
        m = len(cores)
        epm = len(exacts) // m if m else 0
        spm = len(slacks) // m if m else 0
        for i, core in enumerate(cores):
            merged = list(core)
            for piece in (exacts[i * epm:(i + 1) * epm]
                          + slacks[i * spm:(i + 1) * spm]):
                for j in range(d):
                    merged[j] += piece[j]
            load = dot(model.p, tuple(merged))
            lower, upper = model.raw_windows[t]
            if not lower <= load <= upper:
                raise CertificateError(
                    f"type {t}: recombined load {load} escaped its window "
                    f"[{lower}, {upper}]")
            key = (t, tuple(merged))
            merged_entries[key] = merged_entries.get(key, 0) + 1
    return HMSchedule(d, tuple(
        (t, c, k) for (t, c), k in sorted(merged_entries.items())))


def reference_lift(sched: HMSchedule, cmap) -> HMSchedule:
    """``reduction.lift_schedule`` with one pool element per machine."""
    pools = {}
    for t, counts, count in sched.entries:
        pools.setdefault(cmap.compressed_speeds[t], []).extend([counts] * count)
    for pool in pools.values():
        pool.sort()
    cursor = {}

    def draw(speed, how_many):
        pool = pools.get(speed, [])
        at = cursor.get(speed, 0)
        if at + how_many > len(pool):
            raise MalformedInputError(f"too few machines of speed {speed}")
        cursor[speed] = at + how_many
        return pool[at:at + how_many]

    merged_entries = {}
    for t, m in enumerate(cmap.original_m):
        residuals = draw(cmap.residual_speed[t], m)
        piece_lists = [draw(cmap.lcm_load, cmap.pieces_per_machine[t])
                       for _ in range(m)]
        for counts, pieces in zip(residuals, piece_lists):
            merged = list(counts)
            for piece in pieces:
                for j in range(sched.d):
                    merged[j] += piece[j]
            key = (t, tuple(merged))
            merged_entries[key] = merged_entries.get(key, 0) + 1
    if any(cursor.get(speed, 0) != len(pool) for speed, pool in pools.items()):
        raise MalformedInputError("schedule has machines the map cannot place")
    return HMSchedule(sched.d, tuple(
        (t, c, k) for (t, c), k in sorted(merged_entries.items())))


def random_runs(rnd, total: int, d: int, top: int):
    """A seeded {config: count} multiset of ``total`` d-vectors in [0, top]."""
    runs = {}
    while total:
        k = rnd.randint(1, total)
        cfg = tuple(rnd.randint(0, top) for _ in range(d))
        runs[cfg] = runs.get(cfg, 0) + k
        total -= k
    return runs


# ---------------------------------------------------------------------------
# Tuple-state reference DP
# ---------------------------------------------------------------------------
# The solver packs demand vectors into ints.  This is the dynamic program
# it replaced, kept verbatim with tuple states, so tests can check that
# the packed steps create the same states, hit the same state limit and
# return the same schedules.

from hmsched.confilp import (
    ConfILPModel,
    ResourceLimitError,
    _necessarily_infeasible,
    _recombine,
    state_limit_default,
)
from hmsched.model import JOB_EQ


def reference_solve_model(model: ConfILPModel,
                          state_limit: int | None = None) -> HMSchedule | None:
    """``confilp.solve_model`` on demand tuples, one call per transition.

    Dynamic programming over remaining-demand vectors, one column group
    at a time.  Groups whose window admits the empty configuration are
    searched breadth-first for the fewest loaded machines (identical
    machines make any reachability witness reusable), other groups step
    machine by machine.  Tie-breaking is lexicographic everywhere, so the
    returned schedule is deterministic.  Exceeding ``state_limit``
    created states raises ResourceLimitError -- never reported as
    infeasible.
    """
    if state_limit is None:
        state_limit = state_limit_default()
    if _necessarily_infeasible(model):
        return None

    rel = model.demand_relation
    d = len(model.p)
    zero = tuple(0 for _ in range(d))
    budget = [state_limit]

    def transition(state: tuple[int, ...], cfg: tuple[int, ...]) -> tuple[int, ...] | None:
        for s, c in zip(state, cfg):
            if c > s:
                return None
        return tuple(s - c for s, c in zip(state, cfg))

    states: set[tuple[int, ...]] = {model.demand}
    trail: list[tuple] = []
    for group in model.groups:
        if group.count == 0:
            trail.append(("skip",))
            continue
        configs = group.configs
        optional = configs and configs[0] == zero
        if optional:
            parent: dict[tuple[int, ...], tuple] = {}
            dist = dict.fromkeys(states, 0)
            frontier = sorted(states)
            for depth in range(1, group.count + 1):
                fresh = []
                for st in frontier:
                    for ci in range(1, len(configs)):
                        ns = transition(st, configs[ci])
                        if ns is None or ns in dist:
                            continue
                        dist[ns] = depth
                        parent[ns] = (st, ci)
                        fresh.append(ns)
                        budget[0] -= 1
                        if budget[0] < 0:
                            raise ResourceLimitError("state limit exceeded")
                if not fresh:
                    break
                frontier = sorted(fresh)
            states = set(dist)
            trail.append(("bfs", parent))
        else:
            steps: list[dict] = []
            cur: dict[tuple[int, ...], tuple | None] = dict.fromkeys(states)
            for _ in range(group.count):
                nxt: dict[tuple[int, ...], tuple] = {}
                for st in sorted(cur):
                    for ci, cfg in enumerate(configs):
                        ns = transition(st, cfg)
                        if ns is None or ns in nxt:
                            continue
                        nxt[ns] = (st, ci)
                        budget[0] -= 1
                        if budget[0] < 0:
                            raise ResourceLimitError("state limit exceeded")
                steps.append(nxt)
                cur = nxt
                if not cur:
                    break
            states = set(cur)
            trail.append(("steps", steps))
        if not states:
            return None

    if rel == JOB_EQ:
        if zero not in states:
            return None
        final = zero
    else:
        final = min(states)

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


# ---------------------------------------------------------------------------
# The unreduced configuration model
# ---------------------------------------------------------------------------
# ``confilp.build_model`` always cuts each load window into a core and
# lcm blocks.  This is the model without that cut, one core group per
# machine type over its raw window, so tests can check that the cut
# changes no verdict.

from hmsched.confilp import ModelGroup, enumerate_configs


def unreduced_model(inst: Instance, windows, *,
                    demand_relation: str = JOB_EQ) -> ConfILPModel:
    """``build_model`` with every type's raw window as its only group."""
    groups = tuple(
        ModelGroup(t, "core", inst.m[t], window, tuple(enumerate_configs(
            inst.p, tuple(nj if a else 0 for nj, a in
                          zip(inst.n, inst.allowed_row(t))), window)))
        for t, window in enumerate(windows) if inst.m[t] > 0)
    return ConfILPModel(inst.p, inst.n, demand_relation, groups, tuple(windows))


# ---------------------------------------------------------------------------
# The capacity check the load-window rule replaced
# ---------------------------------------------------------------------------
# ``confilp.narrow_windows`` asks a ``>=`` probe on the converted windows
# [s, s + pmax - 1] with usage at most n.  This is the check it replaced,
# kept verbatim, which asked the normalized question itself: windows
# [s, oo) with usage exactly n.

def capacity_refutes(total: int, windows) -> bool:
    """True if no schedule of load ``total`` keeps its loads in ``windows``.

    ``windows`` holds one (m_t, g_t, P_t, lo_t, hi_t) per machine type
    with machines, as ``confilp.type_loads`` gives them plus the load
    window [lo_t, hi_t] (hi_t None: unbounded) of each of its m_t
    machines.  A machine's load lies between ceil(lo_t / g_t) * g_t and
    min(floor(hi_t / g_t) * g_t, P_t), and the loads of all machines sum
    to ``total``.
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


# ---------------------------------------------------------------------------
# The guess loop as a filtered box
# ---------------------------------------------------------------------------
# ``drivers.balanced_feasibility`` enumerates its guesses within caps.
# This is the loop it replaced: a box of (g1a, g1b, g2) with g1b and g2
# masked to the types g1a saturates, g1b never empty, and a "uses at
# most n" filter on each triple.  Its own box enumeration shares no code
# with ``confilp.enumerate_configs``.

def _box(p, cap, lower, upper):
    """Vectors 0 <= c <= cap with load in [lower, upper], lexicographic."""
    def rec(j, load):
        if j == len(p):
            if load >= lower:
                yield ()
            return
        for c in range(cap[j] + 1):
            if load + c * p[j] > upper:
                break
            for rest in rec(j + 1, load + c * p[j]):
                yield (c, *rest)
    return rec(0, 0)


def reference_guesses(inst: Instance):
    """The guesses the filtered-box loop attempts, in order, for both
    relations."""
    p, n, pmax = inst.p, inst.n, inst.pmax
    cutoff = large_machine_cutoff(inst.d, pmax)
    fast = [(s, m) for s, m in zip(inst.s, inst.m) if m > 0 and s > cutoff]
    mL = sum(m for _, m in fast)
    smax = max(s for s, _ in fast)
    area2_max = smax - cutoff
    area_2 = sum(m * (s - cutoff) for s, m in fast)
    guess_cap = [min(-(-smax // pj), nj) for pj, nj in zip(p, n)]
    g2_lo = max(0, area2_max - sum(p) + 1)
    for g1a in _box(p, [min(pmax, nj) for nj in n], 0, cutoff):
        masked = [c if a == pmax else 0 for c, a in zip(guess_cap, g1a)]
        for g1b in _box(p, masked, 1, cutoff - dot(p, g1a)):
            for g2 in _box(p, masked, g2_lo, area2_max):
                if any(mL * (a + b) * area2_max + area_2 * x > nj * area2_max
                       for a, b, x, nj in zip(g1a, g1b, g2, n)):
                    continue
                yield g1a, g1b, g2


# ---------------------------------------------------------------------------
# Envy search over type pairs, without the shared bracket
# ---------------------------------------------------------------------------
# ``drivers.minimize_envy`` searches one grid {k / L} per top type and
# skips every probe its bracket already settles.  This is the search it
# replaced: one grid {k / (s_t1 * s_t2)} per ordered pair of types, the
# grid search that restarts each entry from the bound and moves to the
# probed value, kept verbatim, and the envy check that scans every probe
# and builds every window tuple, so tests can check that both return the
# same value and schedule.

from bisect import bisect_left

from hmsched.confilp import build_model, solve_model
from hmsched.drivers import (
    CandidateGrid,
    SolveResult,
    _certify,
    _incumbent,
    admit,
)
from hmsched.model import (
    LE,
    CertificateError,
    FeasibilityQuery,
    make_schedule,
    schedule_completions,
)


def _search_grid(grid: CandidateGrid, probe, minimize: bool, trace: dict,
                 best: tuple[Fraction, HMSchedule]
                 ) -> tuple[Fraction, HMSchedule]:
    """Best feasible value on the grid, with the schedule that attains it.

    Each entry ``(..., den, top)`` stands for the values {k / den :
    0 <= k <= top}, on which feasibility is monotone (every value above
    a feasible one is feasible when minimizing, every value below when
    maximizing).  The search starts from a certified incumbent ``best``
    = (value, schedule) and searches only the bracket between it and
    ``grid.bound``: on each entry the values strictly better than the
    best so far and no better than the bound.  Entries are
    binary-searched over k in order with ``probe(entry, value)``, which
    returns a certified schedule or None.  An entry whose bracket is
    empty costs no probe, so a solve whose incumbent meets the bound
    probes nothing.
    """
    for entry in grid.entries:
        den, top = entry[-2:]
        if minimize:
            lo = math.ceil(grid.bound * den)
            hi = min(top, math.ceil(best[0] * den) - 1)
        else:
            lo = math.floor(best[0] * den) + 1
            hi = min(top, math.floor(grid.bound * den))
        while lo <= hi:
            mid = (lo + hi) // 2
            trace["probes"] += 1
            sched = probe(entry, Fraction(mid, den))
            if sched is not None:
                best = (Fraction(mid, den), sched)
            # step toward better values after a success, away after a failure
            if (sched is not None) == minimize:
                hi = mid - 1
            else:
                lo = mid + 1
    return best


def reference_minimize_envy(inst: Instance,
                            state_limit: int | None = None) -> SolveResult:
    """``drivers.minimize_envy`` scanning every probe and window tuple."""
    admit(inst, "cenvy")
    d, p = inst.d, inst.p
    P = inst.total_load
    trace: dict = {"pairs": 0, "probes": 0, "solves": 0, "cache_hits": 0}
    if P == 0:
        sched = make_schedule(d, [(t, (0,) * d, m) for t, m in enumerate(inst.m)])
        _certify(inst, sched, FeasibilityQuery(LE, Fraction(0)))
        return SolveResult("cenvy", Fraction(0), sched, trace)

    types = [(s, m) for s, m in zip(inst.s, inst.m) if m > 0]
    total_cap = sum(s * m for s, m in types)
    # C1 <= P / total_cap + pmax, i.e. a <= a_num * s1 // total_cap
    a_num = P + inst.pmax * total_cap
    memo: dict[tuple[tuple[int, int], ...], HMSchedule | None] = {}

    def check(entry: tuple[int, ...], E: Fraction) -> HMSchedule | None:
        t1, t2, den, _ = entry
        s1, s2 = inst.s[t1], inst.s[t2]
        k = E.numerator * (den // E.denominator)

        def lower(a: int, s: int) -> int:
            return max(0, -((k - a * s2) * s // den))

        def fits(a: int) -> bool:
            return sum(m * (a * s // s1) for s, m in types) >= P

        def overfull(a: int) -> bool:
            return sum(m * lower(a, s) for s, m in types) > P

        a_hi = a_num * s1 // total_cap
        first = bisect_left(range(a_hi + 1), True, key=fits)
        stop = first + bisect_left(range(first, a_hi + 1), True, key=overfull)
        for a in range(first, stop):
            windows = tuple((lower(a, s), a * s // s1) if m else (0, 0)
                            for s, m in zip(inst.s, inst.m))
            if any(lo > hi for lo, hi in windows):
                continue
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

    present = [t for t in range(inst.tau) if inst.m[t] > 0]
    grid = CandidateGrid("cenvy", tuple(
        (t1, t2, inst.s[t1] * inst.s[t2], inst.pmax * inst.s[t1] * inst.s[t2])
        for t1 in present for t2 in present), Fraction(0))
    trace["pairs"] = len(grid.entries)
    _, start = _incumbent(inst, LE)
    completions = schedule_completions(inst, start)
    value, sched = _search_grid(grid, check, True, trace,
                                (max(completions) - min(completions), start))
    completions = schedule_completions(inst, sched)
    achieved = max(completions) - min(completions)
    if achieved != value:
        raise CertificateError(
            f"schedule envy {achieved} != claimed {value}")
    _certify(inst, sched, FeasibilityQuery(LE, max(completions)))
    return SolveResult("cenvy", value, sched, trace)


# ---------------------------------------------------------------------------
# Fraction certificate reference
# ---------------------------------------------------------------------------
# ``model.verify_schedule`` compares loads with thresholds in integers.
# This is the check it replaced, kept with its Fraction products, so
# tests can compare whole reports.  Like the query, it checks usage
# exactly n and no idle cap.

from hmsched.model import (
    VerificationReport,
    aggregate_jobs,
    format_rational,
)


def _dotminus(a, b):
    """Positive difference max(a - b, 0), exact for ints and Fractions."""
    return a - b if a > b else a - a


def reference_verify_schedule(inst: Instance, sched: HMSchedule,
                              q: FeasibilityQuery) -> VerificationReport:
    """Check a schedule certificate against an instance and query.

    Pure function.  Checks, per machine type: the completion bound under
    ``q.relation`` (in load form, so zero-speed machines are handled
    exactly), machine-count consistency with m, restriction compliance,
    and job usage exactly n.  Structural dimension mismatches raise
    MalformedInputError; semantic failures are reported as violations
    with ok=False.
    """
    if sched.d != inst.d:
        raise MalformedInputError(f"schedule has d={sched.d}, instance d={inst.d}")
    for t, _, _ in sched.entries:
        if not 0 <= t < inst.tau:
            raise MalformedInputError(f"machine type {t} out of range")

    violations: list[str] = []
    T = q.threshold
    completions: list[Fraction] = []
    idles: list[Fraction] = []

    for t in range(inst.tau):
        have = sched.machines_of_type(t)
        if have != inst.m[t]:
            violations.append(
                f"type {t}: schedule covers {have} machines, instance has {inst.m[t]}")

    for t, counts, count in sched.entries:
        if count == 0:
            continue
        load = dot(inst.p, counts)
        speed = inst.s[t]
        if inst.restrict is not None:
            for j, c in enumerate(counts):
                if c > 0 and not inst.restrict[j][t]:
                    violations.append(f"type {t}: job type {j} not allowed")
        # Load-form completion bound: exact even for speed-0 machines.
        if q.relation == LE:
            if load > T * speed:
                violations.append(
                    f"type {t}: load {load} exceeds {format_rational(T)} * {speed}")
            idles.append(_dotminus(T * speed, Fraction(load)))
        else:
            if load < T * speed:
                violations.append(
                    f"type {t}: load {load} below {format_rational(T)} * {speed}")
        # Zero-speed machines are constrained through the load form above;
        # they have no finite completion time to report.
        if speed > 0:
            completions.append(Fraction(load, speed))

    usage = aggregate_jobs(sched)
    if usage != inst.n:
        violations.append(f"job usage {usage} != n={inst.n}")

    return VerificationReport(
        ok=not violations,
        max_completion=max(completions, default=Fraction(0)),
        min_completion=min(completions, default=Fraction(0)),
        max_idle_load=max(idles, default=Fraction(0)),
        job_usage=usage,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Plain recursion cross-check of the oracle (no memoization, tiny inputs)
# ---------------------------------------------------------------------------

from hmsched.oracle import _check_speeds, _expand_machines


def brute_force_reference(inst: Instance, objective: str,
                          machine_cap: int = 4) -> Fraction:
    """Second, independent implementation: exhaustive recursion."""
    _check_speeds(inst)
    machines = _expand_machines(inst, machine_cap)
    if not machines:
        raise ValueError("need at least one machine")
    best: list[Fraction | None] = [None]
    value_of = {"cmax": max, "cmin": min,
                "cenvy": lambda comps: max(comps) - min(comps)}[objective]
    # cmin is maximized, the other objectives minimized
    sign = -1 if objective == "cmin" else 1

    def rec(i: int, rem: tuple[int, ...], comps: list[Fraction]) -> None:
        if i == len(machines):
            if any(rem):
                return
            value = value_of(comps)
            if best[0] is None or sign * value < sign * best[0]:
                best[0] = value
            return
        t = machines[i]
        for cfg in product(*(range(r + 1) for r in rem)):
            if inst.restrict is not None and any(
                    c > 0 and not inst.restrict[j][t] for j, c in enumerate(cfg)):
                continue
            load = sum(pj * cj for pj, cj in zip(inst.p, cfg))
            comps.append(Fraction(load, inst.s[t]))
            rec(i + 1, tuple(r - c for r, c in zip(rem, cfg)), comps)
            comps.pop()

    rec(0, inst.n, [])
    assert best[0] is not None
    return best[0]
