"""Seeded corpora of the hmsched benchmark.

A corpus is a list of solves: (kind, instance) pairs, where kind is one
of "cmax", "cmin", "cenvy" (unrestricted drivers) or "rcmax", "rcmin"
(``solve_restricted``).  Each workload has a default corpus, which is the
one every run measures, and a held-out corpus built the same way from
other generator seeds, for checking that a claimed gain also holds on
inputs nobody tuned against.  Expected optima for the generated corpora
are committed under ``expected/`` (see make_expected.py); the
multiplicity families have the closed-form optimum 1.

Everything here imports hmsched lazily through ``hmsched`` arguments so
that the benchmark's set-up timing can re-import the package.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

CORPORA = ("default", "heldout")

# Generator base seeds.  "default" for mixed is the first half of the
# acceptance suite's criterion-2 stream (10000..10254) and of its
# criterion-3 restricted stream (seeds from 20001); "heldout" draws the
# same shapes from unused seeds.
SEEDS = {
    "default": {"mixed": 10_000, "restricted": 20_000, "guessing": 50_000},
    "heldout": {"mixed": 60_000, "restricted": 70_000, "guessing": 80_000},
}

MIXED_COUNT = 255
RESTRICTED_COUNT = 100
GUESSING_COUNT = 12

# Fresh processes per untraced run; each solve's time is the median over
# them.  On a shared host one process can run a given DP solve 30 %
# slower than the next for its whole life, and neither repeating the
# solve nor the reference kernel corrects that.  mixed averages it over
# 865 solves; multiplicity and guessing have a few solves that dominate.
PROCESSES = {"mixed": 1, "multiplicity": 3, "guessing": 3}

# The acceptance stream's regimes, frozen here so that the benchmark
# corpus does not move when the tests change theirs.
REGIMES = (
    dict(),
    dict(d_range=(1, 1)),
    dict(pmax_range=(1, 1)),
    dict(large_machines=True, d_range=(1, 2),
         pmax_range=(2, 4), job_total_range=(0, 10)),
    dict(speed_range=(1, 4)),
    dict(d_range=(2, 3), pmax_range=(2, 6),
         job_total_range=(4, 14)),
    dict(d_range=(1, 2), pmax_range=(1, 4),
         job_total_range=(14, 30), machine_count_range=(2, 5)),
)

# Doubling ladders of k for the two scaling families.  Each top rung is
# the largest that finishes in a few seconds; unit k >= 10^4 times out or
# runs out of memory, so the ladders stop well below it.
LADDERS = {
    "default": {
        ("unit", "cmax"): (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        ("unit", "cmin"): (1, 2, 4, 8, 16, 32, 64, 128),
        ("p23", "cmax"): (1, 2, 4, 8, 16),
        ("p23", "cmin"): (1, 2, 4, 8),
    },
    "heldout": {
        ("unit", "cmax"): (3, 6, 12, 24, 48, 96, 192, 384, 768),
        ("unit", "cmin"): (3, 6, 12, 24, 48, 96),
        ("p23", "cmax"): (3, 6, 12),
        ("p23", "cmin"): (3, 6),
    },
}

# Job-size pairs with lcm(p) > pmax: compression then keeps normalized
# speeds above the large-machine cutoff, so auto takes the guessing path.
GUESSING_SIZES = ((3, 4), (3, 5), (4, 5), (2, 5))


def family_instance(hmsched, family: str, k: int):
    Instance = hmsched.model.Instance
    if family == "unit":
        return Instance((1,), (k,), (1,), (k,), name=f"unit-{k}")
    return Instance((2, 3), (3 * k, 2 * k), (5, 7), (k, k), name=f"p23-{k}")


def mixed(hmsched, corpus: str) -> list[tuple[str, object]]:
    gen, GenParams = hmsched.oracle.generate, hmsched.oracle.GenParams
    base = SEEDS[corpus]["mixed"]
    solves = []
    for i in range(MIXED_COUNT):
        inst = gen(GenParams(seed=base + i, **REGIMES[i % len(REGIMES)]))
        solves += [("cmax", inst), ("cmin", inst), ("cenvy", inst)]
    seed, taken = SEEDS[corpus]["restricted"], 0
    while taken < RESTRICTED_COUNT:
        seed += 1
        inst = gen(GenParams(seed=seed, restricted=True,
                             job_total_range=(0, 10),
                             machine_count_range=(1, 4), speed_range=(1, 9)))
        if inst.machine_count == 0 or not hmsched.oracle.assignable(inst):
            continue
        solves.append(("rcmax" if taken % 2 == 0 else "rcmin", inst))
        taken += 1
    return solves


def multiplicity(hmsched, corpus: str) -> list[tuple[str, object]]:
    return [(kind, family_instance(hmsched, family, k))
            for (family, kind), ladder in LADDERS[corpus].items()
            for k in ladder]


def guessing(hmsched, corpus: str) -> list[tuple[str, object]]:
    Instance = hmsched.model.Instance
    base = SEEDS[corpus]["guessing"]
    solves = []
    for i in range(GUESSING_COUNT):
        rnd = random.Random(base + i)
        p = GUESSING_SIZES[i % len(GUESSING_SIZES)]
        tau = rnd.randint(1, 3)
        s = tuple(sorted(rnd.sample(range(1, 7), tau)))
        n = tuple(rnd.randint(20, 50) for _ in p)
        inst = Instance(p, n, s, (1,) * tau, name=f"guess-{base + i}")
        solves += [("cmax", inst), ("cmin", inst)]
    return solves


BUILDERS = {"mixed": mixed, "multiplicity": multiplicity, "guessing": guessing}


def build(hmsched, workload: str, corpus: str) -> list[tuple[str, object]]:
    return BUILDERS[workload](hmsched, corpus)


def fingerprint(solves) -> str:
    """Hash of the solve list, so runs over different corpora never mix."""
    h = hashlib.sha256()
    for kind, inst in solves:
        h.update(repr((kind, inst.p, inst.n, inst.s, inst.m,
                       inst.restrict)).encode())
    return h.hexdigest()[:16]


def expected_path(workload: str, corpus: str) -> Path:
    return EXPECTED_DIR / f"{workload}-{corpus}.json"


def load_expected(workload: str, corpus: str, solves) -> list[Fraction]:
    """Expected optima in solve order; checks the corpus fingerprint."""
    if workload == "multiplicity":
        return [Fraction(1)] * len(solves)
    doc = json.loads(expected_path(workload, corpus).read_text())
    if doc["fingerprint"] != fingerprint(solves):
        raise ValueError(f"{workload}/{corpus}: expected optima were made for "
                         f"another corpus")
    return [Fraction(v) for v in doc["values"]]
