"""Instance-level reductions.

Three independent tools that shrink feasibility problems before any ILP
is set up:

* ``reduce_window``: rewrite a load window [l, u] as (exact blocks of lcm
  load) + (slack blocks of load <= lcm) + a small core window.  It rests
  on the cutting lemma: any job vector with load >= cut_threshold has a
  sub-vector whose load is exactly the lcm of the job sizes (the tests'
  witness is ``tests/helpers.cut_block``).
* ``normalize``: rescale speeds so a rel-T feasibility question becomes
  a rel-1 question with integer speeds bounded by 1 + total load.
* ``compress``: replace each very fast machine by several slow ones plus
  a residual, preserving both <=1- and >=1-feasibility; ``lift_schedule``
  undoes the replacement on certificates.

Every feasibility probe (``drivers.feasibility``) builds its threshold-1
instance with ``normalize``; an ``"auto"`` probe of an unrestricted
instance that the load-window rule (``confilp.narrow_windows``) leaves
open compresses that instance with ``compress``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .model import (
    GE,
    HMSchedule,
    Instance,
    LE,
    MalformedInputError,
    Record,
    Runs,
    ceil_times,
    deal,
    exact_threshold,
    floor_times,
    make_schedule,
    merge_slices,
)


class ReductionConstants(NamedTuple):
    """lcm_load = lcm of all job sizes; cut_threshold = d * pmax * lcm_load."""

    lcm_load: int
    cut_threshold: int


def reduction_constants(p: tuple[int, ...]) -> ReductionConstants:
    """Exact lcm of the sizes and the load threshold of the cutting step."""
    if any(x < 1 for x in p):
        raise MalformedInputError("job sizes must be >= 1")
    lcm_load = math.lcm(*p)
    return ReductionConstants(lcm_load, len(p) * max(p) * lcm_load)


class ReducedWindow(Record):
    """Decomposition of a load window into blocks plus a small core.

    A load-window constraint [lower, upper] on one machine is equivalent
    to: ``exact_blocks`` sub-configurations of load exactly lcm_load
    (load >= lcm_load each when the window is unbounded above), plus
    ``slack_blocks`` sub-configurations of load <= lcm_load, plus one
    core sub-configuration with load in [core_lower, core_upper].
    """

    __slots__ = ("exact_blocks", "slack_blocks", "core_lower", "core_upper")

    def __init__(self, exact_blocks: int, slack_blocks: int, core_lower: int,
                 core_upper: int | None):  # None = unbounded
        if core_lower < 0:
            raise MalformedInputError("core_lower must be >= 0")
        self._set(exact_blocks, slack_blocks, core_lower, core_upper)


def reduce_window(lower: int, upper: int | None,
                  k: ReductionConstants) -> ReducedWindow:
    """Shrink a load window until its span is below the cut threshold.

    Applies, in a fixed deterministic order: while lower >= cut_threshold,
    peel an exact block (lower and upper both drop by lcm_load; for
    unbounded windows the peeled block has load >= lcm_load and only the
    lower bound drops); then, for bounded windows, while the span
    upper - lower >= cut_threshold + lcm_load, peel a slack block (upper
    drops by lcm_load).  Termination leaves core_lower < cut_threshold
    and, when bounded, span < cut_threshold + lcm_load.  Both counts are
    computed in closed form, so the cost does not grow with the window.
    """
    if lower < 0 or (upper is not None and upper < lower):
        raise MalformedInputError(f"bad window [{lower}, {upper}]")
    delta, gamma = k.lcm_load, k.cut_threshold
    exact = max(0, (lower - gamma) // delta + 1)
    lower -= exact * delta
    if upper is None:
        return ReducedWindow(exact, 0, lower, None)
    upper -= exact * delta
    slack = max(0, (upper - lower - gamma) // delta)
    return ReducedWindow(exact, slack, lower, upper - slack * delta)


def normalize(inst: Instance, rel: str, threshold: Fraction) -> Instance:
    """``inst`` with the integer speeds that make a rel-T question rel-1.

    For ``<=``: a load L fits iff L <= T*s iff L <= floor(T*s), and no
    machine can ever receive more than the total load, so the new speed
    is min(floor(T*s), 1 + p.n).  For ``>=``: L >= T*s iff L >= ceil(T*s),
    and a lower bound above the total load is unsatisfiable no matter its
    exact value, so it is clamped to the equally-unsatisfiable 1 + p.n.
    Either way every new speed is an integer at most 1 + p.n.
    """
    T = exact_threshold(threshold)
    if T < 0:
        raise MalformedInputError("threshold must be >= 0")
    if rel not in (LE, GE):
        raise MalformedInputError(f"bad relation {rel!r}")
    cap = 1 + inst.total_load
    rounded = floor_times if rel == LE else ceil_times
    speeds = tuple(min(rounded(T, s), cap) for s in inst.s)
    return Instance(inst.p, inst.n, speeds, inst.m, inst.restrict, inst.name)


class CompressionMap(NamedTuple):
    """How compress() rewrote machine types, enough to lift schedules back.

    Original type t keeps one residual machine of ``residual_speed[t]``
    per original machine, plus ``pieces_per_machine[t]`` machines of
    speed ``lcm_load``.  The compressed instance is keyed by distinct
    speeds (``compressed_speeds``); machines of equal speed are
    interchangeable under threshold-1 load windows, so lifting may
    allocate a speed's configurations to the original types in any fixed
    order.
    """

    original_m: tuple[int, ...]
    residual_speed: tuple[int, ...]
    pieces_per_machine: tuple[int, ...]
    compressed_speeds: tuple[int, ...]
    lcm_load: int


def compress(inst: Instance) -> tuple[Instance, CompressionMap]:
    """Replace every machine of speed >= cut_threshold + lcm_load.

    Each such machine becomes ceil((s - (cut_threshold + lcm_load)) /
    lcm_load) machines of speed lcm_load plus one residual machine; both
    <=1- and >=1-feasibility are preserved.  The output instance has one
    type per distinct speed (equal speeds are merged, which is what
    keeps the type count below 1 + cut_threshold + lcm_load even when
    normalization has clamped several types to the same speed).  Expects
    an instance already normalized to threshold 1 (integer speeds);
    restricted instances are rejected because merged types have no sound
    restriction row.
    """
    if inst.restrict is not None:
        raise MalformedInputError("compress does not support restricted instances")
    k = reduction_constants(inst.p)
    delta = k.lcm_load
    limit = k.cut_threshold + delta
    residual_speed: list[int] = []
    pieces: list[int] = []
    by_speed: dict[int, int] = {}  # insertion order = first occurrence
    for speed, count in zip(inst.s, inst.m):
        if speed >= limit:
            num = -((speed - limit) // -delta)  # ceil((speed - limit) / delta)
            residual = speed - num * delta
        else:
            num = 0
            residual = speed
        residual_speed.append(residual)
        pieces.append(num)
        by_speed[residual] = by_speed.get(residual, 0) + count
        if num:
            by_speed[delta] = by_speed.get(delta, 0) + num * count
    speeds = tuple(by_speed)
    cmap = CompressionMap(inst.m, tuple(residual_speed), tuple(pieces),
                          speeds, delta)
    out = Instance(inst.p, inst.n, speeds, tuple(by_speed.values()), None,
                   inst.name)
    return out, cmap


def lift_schedule(sched: HMSchedule, cmap: CompressionMap) -> HMSchedule:
    """Merge a compressed-instance schedule back onto the original machines.

    Each original machine absorbs one configuration drawn from its
    residual speed's pool plus pieces_per_machine configurations from
    the lcm_load speed's pool.  Loads add up and equal-speed machines
    share identical load windows, so this fixed deterministic allocation
    (pools sorted, consumed in original-type order: a type's residuals,
    then its pieces machine by machine) preserves both <=1- and
    >=1-feasibility verdicts.  Pools stay (count vector, count) runs and
    are dealt out by run (``model.deal``), each segment's slices summed by
    ``model.merge_slices``, so the work follows the schedule's entries,
    not the number of machines.
    """
    entries: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for t, counts, count in sched.entries:
        if not 0 <= t < len(cmap.compressed_speeds):
            raise MalformedInputError(f"schedule type {t} unknown to the map")
        entries.setdefault(cmap.compressed_speeds[t], []).append((counts, count))
    pools: dict[int, Runs] = {}

    def pool(speed: int) -> Runs:
        if speed not in pools:
            pools[speed] = Runs(
                sorted(entries.get(speed, ()), key=lambda run: run[0]),
                f"machines of speed {speed} in the schedule")
        return pools[speed]

    d = sched.d
    raw: list[tuple[int, list[int], int]] = []
    for t, m in enumerate(cmap.original_m):
        segments = deal(m, (pool(cmap.residual_speed[t]), 1),
                        (pool(cmap.lcm_load), cmap.pieces_per_machine[t]))
        raw += [(t, merge_slices(d, slices), k) for k, slices in segments]
    if any(pool(speed).left for speed in entries):
        raise MalformedInputError("schedule has machines the map cannot place")
    return make_schedule(d, raw)
