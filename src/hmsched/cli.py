"""Command line interface: solve / check / gen / bench.

Instances and schedules travel as JSON with explicit integer arrays;
rational values are serialized as exact "num/den" strings.  Result
documents are deterministic for a fixed seed and method -- anything
timing-related goes to stderr, never into the document.

Exit codes:

- 0: success (``check``: the certificate holds);
- 1: malformed input: a usage error (an unknown command, option or
  choice, or a missing argument), a ``gen``/``bench`` range the
  generator rejects, a negative ``bench --count``, an unreadable or
  ill-typed instance, schedule or ``--value``, an unwritable
  ``--output``, a non-integer or negative HMSCHED_STATE_LIMIT, or an
  instance that ``solve`` and ``check`` cannot take (``drivers.admit``): no job types,
  no machines, or a restricted instance with ``--objective cenvy``,
  under every ``--method``;
- 2: no feasible schedule exists (a restricted job type with no machine
  allowed to run it), for ``solve`` and ``check`` alike;
- 3: resource limit exceeded: the solver's state budget, the size caps
  of ``--method oracle``, or memory;
- 4: ``check`` found the certificate violated.

The solver's state budget is read from the environment variable
HMSCHED_STATE_LIMIT (default 2,000,000 states), once per solve before
any probe runs; ``--method oracle`` does not read it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import drivers, oracle
from .confilp import ResourceLimitError, STATE_LIMIT_ENV, state_limit_default
from .model import (
    FeasibilityQuery,
    GE,
    HMSchedule,
    Instance,
    LE,
    MalformedInputError,
    format_rational,
    objective_value,
    parse_rational,
    verify_schedule,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_NO_SCHEDULE = 2
EXIT_RESOURCE = 3
EXIT_CHECK_FAILED = 4


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def instance_to_doc(inst: Instance) -> dict:
    doc = {
        "d": inst.d,
        "tau": inst.tau,
        "p": list(inst.p),
        "n": list(inst.n),
        "s": list(inst.s),
        "m": list(inst.m),
    }
    if inst.restrict is not None:
        doc["restrict"] = [list(row) for row in inst.restrict]
    if inst.name is not None:
        doc["name"] = inst.name
    return doc


def _is_int(value) -> bool:
    # bool is a subclass of int, so true/false need their own rejection
    return isinstance(value, int) and not isinstance(value, bool)


def _array(doc: dict, key: str) -> tuple:
    """``doc[key]`` as a tuple, if it is a JSON array (``Instance`` checks
    that its entries are integers)."""
    try:
        values = doc[key]
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"missing field: {exc}") from exc
    if not isinstance(values, list):
        raise MalformedInputError(f"{key} must be an array of integers")
    return tuple(values)


def instance_from_doc(doc: dict) -> Instance:
    p, n, s, m = (_array(doc, key) for key in ("p", "n", "s", "m"))
    restrict = doc.get("restrict")
    if restrict is not None:
        if not isinstance(restrict, list) or any(
                not isinstance(row, list)
                or any(not isinstance(v, bool) for v in row)
                for row in restrict):
            raise MalformedInputError("restrict must be an array of boolean arrays")
        restrict = tuple(tuple(row) for row in restrict)
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise MalformedInputError("name must be a string")
    inst = Instance(p, n, s, m, restrict, name)
    if "d" in doc and not (_is_int(doc["d"]) and doc["d"] == inst.d):
        raise MalformedInputError("d must be the integer len(p)")
    if "tau" in doc and not (_is_int(doc["tau"]) and doc["tau"] == inst.tau):
        raise MalformedInputError("tau must be the integer len(s)")
    if any(x < 1 for x in inst.s):
        raise MalformedInputError("instance files need speeds >= 1")
    return inst


def schedule_to_doc(sched: HMSchedule) -> dict:
    return {
        "d": sched.d,
        "entries": [[t, list(counts), count]
                    for t, counts, count in sched.entries],
    }


def schedule_from_doc(doc: dict, d: int) -> HMSchedule:
    """The schedule of ``doc``; ``d`` is its dimension if it gives none
    (``HMSchedule`` checks the entries)."""
    try:
        entries = [(t, tuple(counts), count) for t, counts, count in doc["entries"]]
        d = doc.get("d", d)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad schedule document: {exc}") from exc
    if not _is_int(d):
        raise MalformedInputError("schedule d must be an integer")
    return HMSchedule(d, entries)


def dump_doc(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise MalformedInputError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def load_json(path: str) -> dict:
    # ValueError: not JSON or not UTF-8; RecursionError: nested too deep
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _solve(inst: Instance, objective: str, method: str) -> drivers.SolveResult:
    """The one objective dispatch of ``solve`` and ``bench``; it reads the
    state budget once, so a solve that builds no model checks it too.
    The oracle admits the instance as the drivers do (``drivers.admit``),
    so every method ends an inadmissible instance in the same exit code."""
    if method == "oracle":
        drivers.admit(inst, objective)
        value, sched = oracle.brute_force(inst, objective)
        return drivers.SolveResult(objective, value, sched, {"path": "oracle"})
    state_limit = state_limit_default()
    if objective == "cenvy":
        return drivers.minimize_envy(inst, state_limit=state_limit)
    solver = (drivers.minimize_makespan if objective == "cmax"
              else drivers.maximize_min_completion)
    return solver(inst, method=method, state_limit=state_limit)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = instance_from_doc(load_json(args.input))
    objective = args.objective
    method = args.method
    start = time.monotonic()
    result = _solve(inst, objective, method)
    elapsed = time.monotonic() - start

    doc = {
        "objective": result.objective,
        "value": format_rational(result.value),
        "schedule": schedule_to_doc(result.schedule),
        "method": {"requested": method, **result.trace},
    }
    if inst.name:
        doc["instance"] = inst.name
    dump_doc(doc, args.output)
    print(f"solved {objective} in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    """Verify a certificate: machines per type, restrictions, the
    completion bound and usage exactly n, plus the envy bound for
    ``cenvy``; an instance ``solve`` would reject exits as ``solve``."""
    inst = instance_from_doc(load_json(args.instance))
    objective = args.objective
    drivers.admit(inst, objective)
    sched = schedule_from_doc(load_json(args.schedule), inst.d)
    value = parse_rational(args.value)
    if objective == "cenvy":
        # any makespan: the query checks machines and job usage only
        query = FeasibilityQuery(LE, Fraction(inst.total_load + 1))
    else:
        query = FeasibilityQuery(LE if objective == "cmax" else GE, value)
    violations = list(verify_schedule(inst, sched, query).violations)
    if objective == "cenvy" and (
            envy := objective_value(inst, sched, "cenvy")) > value:
        violations.append(
            f"envy {format_rational(envy)} exceeds {format_rational(value)}")
    ok = not violations
    for v in violations:
        print(v, file=sys.stderr)
    print("ok" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# gen / bench
# ---------------------------------------------------------------------------

def _params_from_args(args: argparse.Namespace, seed: int) -> oracle.GenParams:
    return oracle.GenParams(
        d_range=(args.d_min, args.d_max),
        pmax_range=(args.pmax_min, args.pmax_max),
        machine_count_range=(args.machines_min, args.machines_max),
        speed_range=(args.speed_min, args.speed_max),
        job_total_range=(args.jobs_min, args.jobs_max),
        restricted=args.restricted,
        large_machines=args.large,
        seed=seed,
    )


def _add_gen_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--d-min", type=int, default=1)
    sub.add_argument("--d-max", type=int, default=3)
    sub.add_argument("--pmax-min", type=int, default=1)
    sub.add_argument("--pmax-max", type=int, default=6)
    sub.add_argument("--machines-min", type=int, default=1)
    sub.add_argument("--machines-max", type=int, default=5)
    sub.add_argument("--speed-min", type=int, default=1)
    sub.add_argument("--speed-max", type=int, default=12)
    sub.add_argument("--jobs-min", type=int, default=0)
    sub.add_argument("--jobs-max", type=int, default=14)
    sub.add_argument("--restricted", action="store_true",
                     help="emit a restriction matrix")
    sub.add_argument("--large", action="store_true",
                     help="offset speeds by the large-machine cutoff")


def cmd_gen(args: argparse.Namespace) -> int:
    inst = oracle.generate(_params_from_args(args, args.seed))
    dump_doc(instance_to_doc(inst), args.output)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    """Solve a batch of generated instances; values on stdout, times on stderr.

    An instance ``drivers.admit`` rejects is listed as skipped."""
    if args.count < 0:
        raise MalformedInputError(f"--count must be >= 0, got {args.count}")
    rows = []
    total = 0.0
    for seed in range(args.seed, args.seed + args.count):
        inst = oracle.generate(_params_from_args(args, seed))
        try:
            drivers.admit(inst, args.objective)
        except (MalformedInputError, drivers.InfeasibleRestrictionError):
            rows.append((seed, "skipped"))
            continue
        start = time.monotonic()
        try:
            result = _solve(inst, args.objective, args.method)
        except ResourceLimitError:
            print(f"seed {seed}: resource limit", file=sys.stderr)
            return EXIT_RESOURCE
        elapsed = time.monotonic() - start
        total += elapsed
        print(f"seed {seed}: {elapsed:.3f}s", file=sys.stderr)
        rows.append((seed, format_rational(result.value)))
    for seed, value in rows:
        print(f"{seed}\t{value}")
    print(f"total {total:.3f}s over {args.count} seeds", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, as malformed input; exit 2 means no schedule."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise MalformedInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hmsched",
        description="Exact solver for high-multiplicity scheduling "
                    "on uniform machines",
        epilog=f"State budget: set {STATE_LIMIT_ENV} (states, default 2000000).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="optimize an objective exactly")
    p_solve.add_argument("input", help="instance JSON file")
    p_solve.add_argument("--objective", required=True,
                         choices=["cmax", "cmin", "cenvy"])
    p_solve.add_argument("--method", default="auto",
                         choices=[*drivers.METHODS, "oracle"])
    p_solve.add_argument("--output", help="write the result document here")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="verify a schedule certificate")
    p_check.add_argument("instance")
    p_check.add_argument("schedule")
    p_check.add_argument("--objective", required=True,
                         choices=["cmax", "cmin", "cenvy"])
    p_check.add_argument("--value", required=True,
                         help='claimed objective value, "num/den"')
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--output", help="write the instance here")
    _add_gen_flags(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="solve a batch of seeded instances")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--count", type=int, default=10)
    p_bench.add_argument("--objective", default="cmax",
                         choices=["cmax", "cmin", "cenvy"])
    p_bench.add_argument("--method", default="auto",
                         choices=drivers.METHODS)
    _add_gen_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MalformedInputError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except drivers.InfeasibleRestrictionError as exc:
        print(f"no feasible schedule: {exc}", file=sys.stderr)
        return EXIT_NO_SCHEDULE
    except (ResourceLimitError, oracle.OracleCapError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
