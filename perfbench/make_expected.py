#!/usr/bin/env python3
"""Write the expected optima of a generated benchmark corpus.

Values come from the brute-force oracle (``hmsched.oracle.brute_force``),
the same ground truth as the acceptance suite.  A guessing instance the
oracle refuses (above its caps) or cannot finish within
``ORACLE_DEADLINE_S`` falls back to a solve forced through the direct
configuration model (``method="confilp"``), which is a differential
check of the guessing path rather than an independent one; the file
records which source gave each value.  The multiplicity families need no
file: their optimum is 1 in closed form.

Usage, from the repository root:
    python3 perfbench/make_expected.py --workload mixed --corpus default
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hmsched.drivers  # noqa: E402
import hmsched.model  # noqa: E402
import hmsched.oracle  # noqa: E402

import corpus  # noqa: E402

ORACLE_DEADLINE_S = 120
ORACLE_OBJECTIVE = {"cmax": "cmax", "cmin": "cmin", "cenvy": "cenvy",
                    "rcmax": "cmax", "rcmin": "cmin"}


class OracleTimeout(BaseException):
    pass


def _alarm(signum, frame):
    raise OracleTimeout


def expected_value(kind: str, inst) -> tuple[str, str]:
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, ORACLE_DEADLINE_S)
    try:
        value, _ = hmsched.oracle.brute_force(inst, ORACLE_OBJECTIVE[kind])
        source = "oracle"
    except (hmsched.oracle.OracleCapError, OracleTimeout):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if kind not in ("cmax", "cmin"):
            raise
        solver = (hmsched.drivers.minimize_makespan if kind == "cmax"
                  else hmsched.drivers.maximize_min_completion)
        value = solver(inst, method="confilp").value
        source = "confilp"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return hmsched.model.format_rational(value), source


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=("mixed", "guessing"))
    ap.add_argument("--corpus", default="default", choices=corpus.CORPORA)
    args = ap.parse_args()

    solves = corpus.build(hmsched, args.workload, args.corpus)
    values, sources = [], []
    for i, (kind, inst) in enumerate(solves):
        value, source = expected_value(kind, inst)
        values.append(value)
        sources.append(source)
        print(f"{i} {kind} {inst.name}: {value} ({source})", file=sys.stderr)
    doc = {
        "workload": args.workload,
        "corpus": args.corpus,
        "fingerprint": corpus.fingerprint(solves),
        "values": values,
        "sources": sources,
    }
    path = corpus.expected_path(args.workload, args.corpus)
    path.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {len(values)} values to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
