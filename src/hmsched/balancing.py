"""Balancing reductions for fast machines.

On machines whose speeds all exceed ``large_machine_cutoff``, the paper
builds a three-phase fractional schedule.  Splitting each machine's
capacity at the cutoff creates a common bottom area (area 1, the
cutoff) and a speed-proportional top area (area 2, s - cutoff):

* phase 1a puts the same integral multiplicity of every job type on
  every machine, at most pmax each;
* phase 2 distributes the remaining jobs of saturated types over area 2
  proportionally to each machine's share of it;
* phase 1b spreads whatever is left equally over all machines.

Every machine ends up with the same spare capacity relative to its
speed, which is what makes balancing work: flooring the schedule and
subtracting a small per-entry margin yields a preassignment that is
extendable to an optimal integral schedule whenever one exists.

Rounding keeps three integral vectors: the floored phases 1a and 1b
(g1a, g1b) and the floored phase 2 of the fastest machine (g2).  A
machine's phase 2 is its share of area 2 relative to the fastest
machine's, (s - cutoff) / (smax - cutoff), times g2.  The balanced
pipeline guesses (g1a, g1b, g2) and needs only each rounded entry's
floor, which ``guess_configs`` computes in integers.  The
fractional construction itself is the tests' reference
(``tests/helpers.build_fractional_schedule``).
"""

from __future__ import annotations


def large_machine_cutoff(d: int, pmax: int) -> int:
    """Speed bound d * pmax * (4 + pmax) above which machines count as fast."""
    return d * pmax * (4 + pmax)


def guess_configs(speeds: tuple[int, ...], cutoff: int, g1a: tuple[int, ...],
                  g1b: tuple[int, ...], g2: tuple[int, ...]
                  ) -> tuple[tuple[int, ...], ...]:
    """The floored rounded schedule of one guess, per speed.

    Entry j for speed s is the floor of g1a_j + g1b_j + (s - cutoff) *
    g2_j / (max(speeds) - cutoff); every speed exceeds the cutoff.
    """
    top = max(speeds) - cutoff
    base = [a + b for a, b in zip(g1a, g1b)]
    return tuple(tuple(b + (s - cutoff) * x // top for b, x in zip(base, g2))
                 for s in speeds)


def reduced_schedule(floors: tuple[tuple[int, ...], ...], idle_cap: int | None,
                     pmin: int, pmax: int) -> tuple[tuple[int, ...], ...]:
    """Subtract the balancing margin from a floored schedule, per type.

    ``floors`` holds one floored rounded-schedule row per machine type.
    The margin, the package's only one, is pmax without an idle cap and
    pmax + idle_cap // pmin with one; entries saturate at zero.  Some
    schedule of the required kind dominates the result on every machine
    whenever any schedule exists.  Sketch: while a machine A holds more
    than pmax type-j jobs below the floor, equal relative spare capacity
    makes A carry that load in other jobs and some machine B carry
    surplus type-j jobs; the lemma witness
    ``tests/helpers.load_multiple_subvector`` picks at most p_j of A's
    other jobs with load alpha * p_j, alpha <= pmax, to trade for alpha
    type-j jobs of B, which leaves every load and load window as it was.
    An idle cap lets a machine also leave up to idle_cap load empty, at
    most idle_cap // pmin jobs of one type.  Acceptance criterion 6
    checks the makespan form (no cap, usage >= n, and the production
    form with usage = n), the idle form (rotating caps, usage = n) and
    the production minimum-completion form (cap pmax - 1, usage <= n)
    against the oracle.
    """
    margin = pmax if idle_cap is None else pmax + idle_cap // pmin
    return tuple(tuple(max(x - margin, 0) for x in row) for row in floors)


def idle_cmax_speeds(speeds: tuple[int, ...], pmax: int) -> tuple[int, ...]:
    """Speeds that turn a >=1 feasibility question into an idle-capped <=1 one.

    Raising every speed by pmax - 1 makes an instance >=1-feasible iff
    the instance with these speeds admits a schedule using at most n
    jobs whose idle load is at most pmax - 1 on every machine at
    threshold 1.
    """
    return tuple(s + pmax - 1 for s in speeds)
