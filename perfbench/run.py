#!/usr/bin/env python3
"""The hmsched benchmark: one workload, fresh processes, one timed pass each.

Solves a fixed, seeded corpus (see corpus.py) through the package's
public drivers as a closed loop with one caller: each solve starts when
the previous one has returned.  The timed pass is the corpus's first pass
in a fresh child process, and every solve starts with an empty column
cache, as an ``hmsched solve`` call does.  Workloads dominated by a few
solves run the pass in several children (``corpus.PROCESSES``) and take
each solve's median time over them.  After the pass, and outside the timed
region, every returned optimum is compared with its expected value by
exact Fraction equality and its schedule is re-checked with
``verify_schedule``.  A wrong value, a certificate error, a resource
limit, any other exception or a solve over ``DEADLINE_S`` counts as a
failed solve; the run always finishes the pass.  Times are scaled by a
reference kernel timed between solves (``reference_chunk``).

``--seed`` rotates where the pass starts in the corpus (seed 0 is the
corpus order); ``--corpus heldout`` swaps in the held-out corpus.
``--seconds`` is the pass's time budget: no solve starts after it.

With ``--trace 1`` the pass runs once, in this process, under the
outside-in tracer (tracer.py), and the run prints per-layer metrics
instead of end-to-end ones.  The
pass is then repeated untraced: the two passes must return identical
values and schedules, and the difference in time is the tracing
overhead.

Every metric is printed as "name value unit" on its own line; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A report with provenance (Python
version, CPU count, corpus fingerprint) and, for traced runs, the spans
are written under perfbench/out/.

Usage, from the repository root:
    python3 perfbench/run.py --workload mixed --seed 0 --seconds 45 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 15
DEADLINE_S = 15
SOLVERS = {
    "cmax": ("minimize_makespan", ()),
    "cmin": ("maximize_min_completion", ()),
    "cenvy": ("minimize_envy", ()),
    "rcmax": ("solve_restricted", ("cmax",)),
    "rcmin": ("solve_restricted", ("cmin",)),
}
# Host-speed reference.  On a shared host the same pass takes up to 30 %
# longer from one run to the next, and the drift changes within seconds.
# A fixed kernel timed every REF_EVERY_S seconds of solving tracks it:
# each solve's wall time is scaled by REF_NOMINAL_S over the mean of the
# two kernel times around it.  The kernel lives here, not in the package,
# so changing hmsched cannot change it.
REF_EVERY_S = 0.1
REF_NOMINAL_S = 0.02
# End-to-end metrics every workload reports, in BENCHMARK.json.
GATED = ("solves_per_s", "solve_ms_p50", "cmax_s", "cmin_s", "peak_rss_mb",
         "setup_s")


class DeadlineExceeded(BaseException):
    """A solve ran past DEADLINE_S (BaseException: no handler swallows it)."""


def _deadline(signum, frame):
    raise DeadlineExceeded


def reference_chunk() -> float:
    """Wall time of a fixed kernel shaped like the solver's hot loops.

    A breadth-first sweep over 3-tuples with set membership and sorting,
    then a run of Fraction additions.  The collector is off so that the
    heap a solve leaves behind cannot change the kernel's cost.
    """
    gc.disable()
    try:
        start = perf_counter()
        seen, frontier = set(), [(18, 18, 18)]
        while frontier:
            fresh = []
            for state in frontier:
                for step in ((1, 0, 2), (0, 1, 1), (2, 1, 0), (1, 1, 1)):
                    nxt = tuple(a - b for a, b in zip(state, step))
                    if min(nxt) >= 0 and nxt not in seen:
                        seen.add(nxt)
                        fresh.append(nxt)
            frontier = sorted(fresh)
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(i % 7, i % 11 + 1)
        return perf_counter() - start
    finally:
        gc.enable()


def normalized(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_NOMINAL_S / ((ref_before + ref_after) / 2)


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("mixed", "multiplicity", "guessing"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus", choices=("default", "heldout"),
                    default="default")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def fresh_import():
    """Import hmsched and the corpus module anew from this checkout."""
    for name in list(sys.modules):
        if name == "hmsched" or name.startswith("hmsched.") or name == "corpus":
            del sys.modules[name]
    import hmsched.confilp
    import hmsched.drivers
    import hmsched.model
    import hmsched.oracle

    import corpus
    return hmsched, corpus


def setup(workload: str, corpus_name: str):
    """Import, build the corpus and load expected optima SETUP_REPEATS times.

    Returns the median normalized set-up time and the last repetition's
    objects, so the timed pass uses a package imported moments ago (cold
    caches).
    """
    times = []
    ref = reference_chunk()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        hmsched, corpus = fresh_import()
        solves = corpus.build(hmsched, workload, corpus_name)
        expected = corpus.load_expected(workload, corpus_name, solves)
        fingerprint = corpus.fingerprint(solves)
        seconds = perf_counter() - start
        ref_after = reference_chunk()
        times.append(normalized(seconds, ref, ref_after))
        ref = ref_after
    return statistics.median(times), hmsched, solves, expected, fingerprint


def rotation(solves, seed: int) -> list[int]:
    """Solve order: the corpus rotated by whole instances."""
    starts = [i for i in range(len(solves))
              if i == 0 or solves[i][1] is not solves[i - 1][1]]
    shift = starts[(seed * 7919) % len(starts)]
    return list(range(shift, len(solves))) + list(range(shift))


# ---------------------------------------------------------------------------
# the timed pass
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """One timed pass.  A record is (index, wall seconds, normalized
    seconds, result or None, failure kind or None)."""

    records: list
    wall_s: float
    skipped: int
    refs: list

    @property
    def solve_s(self) -> float:
        return sum(r[2] for r in self.records)


def run_pass(hmsched, solves, order, budget_s: float) -> Pass:
    """Solve in order, with a reference chunk every REF_EVERY_S of solving.

    Each solve starts with an empty column cache, as an ``hmsched solve``
    call does, and with the previous solves' garbage collected, so its
    cost does not depend on which solves ran before it.
    """
    drivers = hmsched.drivers
    clear_cache = hmsched.confilp._enumerate.cache_clear
    failures = (
        (hmsched.model.CertificateError, "certificate"),
        (hmsched.confilp.ResourceLimitError, "resource_limit"),
    )
    raw = []  # (index, seconds, result, failure, reference chunk before it)
    refs = [reference_chunk()]
    since_ref = 0.0
    skipped = 0
    signal.signal(signal.SIGALRM, _deadline)
    pass_start = perf_counter()
    for pos, index in enumerate(order):
        if perf_counter() - pass_start > budget_s:
            skipped = len(order) - pos
            break
        if since_ref >= REF_EVERY_S:
            refs.append(reference_chunk())
            since_ref = 0.0
        kind, inst = solves[index]
        name, extra = SOLVERS[kind]
        solver = getattr(drivers, name)  # looked up per call: the tracer rebinds it
        clear_cache()
        gc.collect()
        result, failure = None, None
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            result = solver(inst, *extra)
        except DeadlineExceeded:
            failure = "deadline"
        except Exception as exc:  # every failure is tallied, none aborts the run
            failure = next((k for cls, k in failures if isinstance(exc, cls)),
                           "error")
            print(f"solve {index} ({kind}, {inst.name}): "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start
        since_ref += seconds
        raw.append((index, seconds, result, failure, len(refs) - 1))
    wall_s = perf_counter() - pass_start
    refs.append(reference_chunk())
    records = [(index, seconds, normalized(seconds, refs[k], refs[k + 1]),
                result, failure)
               for index, seconds, result, failure, k in raw]
    return Pass(records, wall_s, skipped, refs)


def check(hmsched, solves, expected, records):
    """Exact checks outside the timed region; returns records with failures."""
    model = hmsched.model
    checked = []
    for index, wall, seconds, result, failure in records:
        if failure is None:
            failure = _check_one(model, solves[index], expected[index], result)
        checked.append((index, wall, seconds, result, failure))
    return checked


def _check_one(model, solve, want, result) -> str | None:
    kind, inst = solve
    if result.value != want:
        return "wrong_value"
    sched = result.schedule
    if kind == "cenvy":
        completions = model.schedule_completions(inst, sched)
        if max(completions) - min(completions) != want:
            return "wrong_value"
        query = model.FeasibilityQuery(model.LE, max(completions))
    else:
        rel = model.LE if kind in ("cmax", "rcmax") else model.GE
        query = model.FeasibilityQuery(rel, want)
    if not model.verify_schedule(inst, sched, query).ok:
        return "certificate"
    return None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(rows, solve_s: float, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics from rows (index, kind, name, wall s, s, failure)."""
    times = [row[4] for row in rows]
    ok = sum(1 for row in rows if row[5] is None)
    by_kind: Counter = Counter()
    for _, kind, _, _, seconds, _ in rows:
        by_kind["restricted" if kind.startswith("r") else kind] += seconds
    metrics = {
        "solves_per_s": (ok / solve_s if solve_s > 0 else 0.0, "1/s"),
        "solve_ms_p50": (statistics.median(times) * 1000 if times else 0.0,
                         "ms"),
    }
    if len(times) >= 2:
        p90 = statistics.quantiles(times, n=10)[8]
        if sum(1 for t in times if t > p90) >= 10:
            metrics["solve_ms_p90"] = (p90 * 1000, "ms")
    for kind in ("cmax", "cmin", "cenvy", "restricted"):
        metrics[f"{kind}_s"] = (by_kind[kind], "s")
    metrics["fail_ratio"] = ((len(rows) - ok) / len(rows) if rows else 0.0, "1")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["setup_s"] = (setup_s, "s")
    return metrics


def same_results(first, second) -> bool:
    """Traced and untraced passes agree on every value and schedule entry."""
    a = {index: result for index, _, _, result, _ in first}
    b = {index: result for index, _, _, result, _ in second}
    for index in a.keys() & b.keys():
        x, y = a[index], b[index]
        if (x is None) != (y is None):
            return False
        if x is not None and (x.value != y.value
                              or x.schedule.entries != y.schedule.entries):
            return False
    return True


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(args):
    """Set up and run one pass in this process; None if the sources are foreign."""
    setup_s, hmsched, solves, expected, fingerprint = setup(args.workload,
                                                            args.corpus)
    if not Path(hmsched.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hmsched imported from {hmsched.__file__}, not this checkout",
              file=sys.stderr)
        return None
    order = rotation(solves, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(hmsched)
        tracer.install()
    try:
        timed = run_pass(hmsched, solves, order, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    timed.records = check(hmsched, solves, expected, timed.records)
    rows = [[index, solves[index][0], solves[index][1].name, wall, seconds,
             failure] for index, wall, seconds, _, failure in timed.records]
    doc = {
        "fingerprint": fingerprint,
        "corpus_solves": len(solves),
        "setup_s": setup_s,
        "wall_s": timed.wall_s,
        "solve_s": timed.solve_s,
        "skipped": timed.skipped,
        "refs": timed.refs,
        "rows": rows,
    }
    if tracer is not None:
        doc["layer"] = tracer.metrics()
        plain = run_pass(hmsched, solves, order[:len(rows)], args.seconds)
        doc["consistent"] = same_results(timed.records, plain.records)
        doc["layer"]["trace.overhead_s"] = (timed.solve_s - plain.solve_s, "s")
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.corpus}.jsonl")
    doc["peak_rss_mb"] = max_rss_mb()
    return doc


def run_children(args, processes: int) -> dict | None:
    """Run the pass in fresh child processes; per-solve medians across them.

    A further child starts only if one more child as long as the longest
    so far still ends within the ``--seconds`` budget.
    """
    docs = []
    start = perf_counter()
    longest = 0.0
    for _ in range(processes):
        elapsed = perf_counter() - start
        if docs and elapsed + longest > args.seconds:
            break
        child_start = perf_counter()
        child = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--corpus", args.corpus, "--trace", "0", "--child"],
            capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return None
        docs.append(json.loads(child.stdout.strip().splitlines()[-1]))
        longest = max(longest, perf_counter() - child_start)
    first = docs[0]
    by_index = {}
    for doc in docs:
        for row in doc["rows"]:
            by_index.setdefault(row[0], []).append(row)
    rows = []
    for index, _, _, _, _, _ in first["rows"]:
        runs = by_index[index]
        failure = next((r[5] for r in runs if r[5]), None)
        rows.append([index, runs[0][1], runs[0][2],
                     statistics.median(r[3] for r in runs),
                     statistics.median(r[4] for r in runs), failure])
    return {
        "fingerprint": first["fingerprint"],
        "corpus_solves": first["corpus_solves"],
        "processes": len(docs),
        "setup_s": statistics.median(d["setup_s"] for d in docs),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
        "wall_s": sum(d["wall_s"] for d in docs),
        "solve_s": sum(row[4] for row in rows),
        "skipped": max(d["skipped"] for d in docs),
        "refs": [ref for d in docs for ref in d["refs"]],
        "rows": rows,
    }


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "hmsched" / "__init__.py").is_file():
        print(f"no hmsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.child:
        doc = measure(args)
        if doc is None:
            return 2
        print(json.dumps(doc))
        return 0
    if args.trace:
        doc = measure(args)
    else:
        import corpus
        doc = run_children(args, corpus.PROCESSES[args.workload])
    if doc is None:
        return 2

    rows = doc["rows"]
    if args.trace:
        metrics = {k: tuple(v) for k, v in doc["layer"].items()}
    else:
        metrics = end_to_end(rows, doc["solve_s"], doc["setup_s"],
                             doc["peak_rss_mb"])
    failures = Counter(row[5] for row in rows if row[5])
    attempted = len(rows)
    consistent = doc.get("consistent", True)
    correct = consistent and not (failures["wrong_value"]
                                  or failures["certificate"])
    refs_median = statistics.median(doc["refs"])

    report = {
        "workload": args.workload,
        "corpus": args.corpus,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": doc["fingerprint"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "processes": doc.get("processes", 1),
        "solves_in_corpus": doc["corpus_solves"],
        "attempted": attempted,
        "skipped_over_budget": doc["skipped"],
        "failures": dict(failures),
        "traced_equals_untraced": consistent,
        "pass_wall_s": doc["wall_s"],
        "pass_raw_solve_s": sum(row[3] for row in rows),
        "reference_chunk_median_s": refs_median,
        "reference_chunks": len(doc["refs"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        # index in corpus order, kind, instance, wall s, normalized s, failure
        "solves": rows,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.corpus}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload} corpus {args.corpus} "
          f"fingerprint {doc['fingerprint']} python {report['python']} "
          f"nproc {report['nproc']} processes {report['processes']}")
    print(f"attempted {attempted} of {doc['corpus_solves']} solves, "
          f"{sum(failures.values())} failed {dict(failures)}, "
          f"{doc['skipped']} skipped over the {args.seconds:g} s budget")
    print(f"pass wall {doc['wall_s']:.3f} s; reference chunk median "
          f"{refs_median * 1000:.3f} ms over {len(doc['refs'])} chunks "
          f"(nominal {REF_NOMINAL_S * 1000:g} ms)")
    for name, (value, unit) in metrics.items():
        samples = f" over {attempted} solves" if name.startswith("solve_ms") else ""
        print(f"{name} {value:.6g} {unit}{samples}")
    shown = metrics if args.trace else {k: metrics[k] for k in GATED}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
