"""Core domain types and schedule certificate verification.

High-multiplicity scheduling on uniform machines: jobs come as (size,
count) pairs and machines as (speed, count) pairs.  A schedule assigns a
configuration (a per-job-type multiplicity vector) to every machine; we
encode schedules compactly as counts of (machine type, configuration)
pairs, and ``Runs``/``deal`` hand multisets of configurations out to
machines by run, so building a schedule never lists its machines one
by one.  All thresholds, completion times and objective values are
exact rationals -- nothing in this package ever rounds through floats.
Records that check their fields when built are immutable slotted
``Record``s; the others are named tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class MalformedInputError(ValueError):
    """Structurally invalid input (dimension mismatch, bad counts, ...)."""


class CertificateError(AssertionError):
    """A solver produced a schedule that failed its own verification."""


# ---------------------------------------------------------------------------
# Exact rationals
# ---------------------------------------------------------------------------

def format_rational(value: Fraction | int) -> str:
    """Render an exact rational as ``"num/den"`` (always with denominator)."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` or a plain integer string into a Fraction."""
    num, slash, den = text.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"not a rational number: {text!r}") from exc


def floor_times(x: Fraction, k: int) -> int:
    """floor(x * k) for an integer k, in integers."""
    return x.numerator * k // x.denominator


def ceil_times(x: Fraction, k: int) -> int:
    """ceil(x * k) for an integer k, in integers."""
    return -(-x.numerator * k // x.denominator)


def _require_int(x, what: str) -> None:
    """Raise MalformedInputError unless x is an int (bools excluded)."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise MalformedInputError(f"{what} must be integers, got {x!r}")


def exact_threshold(x) -> Fraction:
    """x as a Fraction, if it is an int (not a bool) or a Fraction."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise MalformedInputError(f"thresholds must be exact, got {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def dot(p: tuple[int, ...], c: tuple[int, ...]) -> int:
    """Integer dot product of two same-length vectors."""
    if len(p) != len(c):
        raise MalformedInputError(f"vector lengths differ: {len(p)} vs {len(c)}")
    return sum(a * b for a, b in zip(p, c))


# ---------------------------------------------------------------------------
# Records and instances
# ---------------------------------------------------------------------------

class Record:
    """An immutable record whose fields are its ``__slots__``, in order;
    ``__init__`` checks them and stores them with ``_set``, and pickling
    and copying rebuild the record through ``__init__``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: records are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class Instance(Record):
    """A high-multiplicity scheduling instance.

    ``p``/``n`` give the job sizes and their multiplicities, ``s``/``m``
    the machine speeds and their multiplicities.  ``restrict`` (optional)
    is a d x tau boolean matrix; ``restrict[j][t]`` is True when job type
    ``j`` may run on machine type ``t``.  Absent restrict means every
    pair is allowed.

    Every entry of ``p``, ``n``, ``s`` and ``m`` must be an ``int`` and
    not a ``bool``, and every ``restrict`` cell a ``bool``; anything else
    (a float, a string, a Fraction) raises MalformedInputError rather
    than being converted.  User-facing
    instances have strictly positive speeds; speed 0 is permitted
    internally because threshold normalization can produce machines that
    only fit empty loads.
    """

    __slots__ = ("p", "n", "s", "m", "restrict", "name")

    def __init__(self, p: tuple[int, ...], n: tuple[int, ...], s: tuple[int, ...],
                 m: tuple[int, ...], restrict=None, name: str | None = None):
        self._set(p, n, s, m, restrict, name)
        for field in ("p", "n", "s", "m"):
            values = tuple(getattr(self, field))
            for x in values:
                if type(x) is not int:  # the common case skips the call
                    _require_int(x, f"{field} entries")
            object.__setattr__(self, field, values)
        if len(self.p) != len(self.n):
            raise MalformedInputError("p and n must have the same length")
        if len(self.s) != len(self.m):
            raise MalformedInputError("s and m must have the same length")
        if any(x < 1 for x in self.p):
            raise MalformedInputError("job sizes must be >= 1")
        if any(x < 0 for x in self.n):
            raise MalformedInputError("job multiplicities must be >= 0")
        if any(x < 0 for x in self.s):
            raise MalformedInputError("speeds must be >= 0")
        if any(x < 0 for x in self.m):
            raise MalformedInputError("machine multiplicities must be >= 0")
        if self.restrict is not None:
            rows = tuple(tuple(row) for row in self.restrict)
            for row in rows:
                for v in row:
                    if type(v) is not bool:
                        raise MalformedInputError(
                            f"restrict cells must be booleans, got {v!r}")
            if len(rows) != self.d or any(len(row) != self.tau for row in rows):
                raise MalformedInputError("restrict must be a d x tau matrix")
            object.__setattr__(self, "restrict", rows)

    @property
    def d(self) -> int:
        return len(self.p)

    @property
    def tau(self) -> int:
        return len(self.s)

    @property
    def pmax(self) -> int:
        return max(self.p)

    @property
    def pmin(self) -> int:
        return min(self.p)

    @property
    def total_load(self) -> int:
        """Summed processing time of all jobs, p . n."""
        return dot(self.p, self.n)

    @property
    def machine_count(self) -> int:
        return sum(self.m)

    def allowed(self, j: int, t: int) -> bool:
        return self.restrict is None or self.restrict[j][t]

    def allowed_row(self, t: int) -> tuple[bool, ...]:
        """Per-job-type allow mask for machine type t."""
        if self.restrict is None:
            return tuple(True for _ in range(self.d))
        return tuple(self.restrict[j][t] for j in range(self.d))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

class HMSchedule(Record):
    """High-multiplicity schedule: counts of (machine type, configuration).

    Each entry is ``(t, counts, count)``: ``count`` machines of type
    ``t`` each run the job-count vector ``counts`` (a configuration).
    Two machines of the same type with different configurations appear
    as two entries.  ``d`` is carried explicitly so empty schedules
    still know their job dimensionality.  Machine types, counts and
    configuration entries must be ``int`` and not ``bool``, counts and
    configuration entries ``>= 0`` and every configuration of length
    ``d`` (MalformedInputError otherwise).
    """

    __slots__ = ("d", "entries")

    def __init__(self, d: int, entries):
        entries = tuple((t, tuple(counts), count)
                        for t, counts, count in entries)
        for t, counts, count in entries:
            if type(t) is not int or type(count) is not int:
                _require_int(t, "entry machine types")
                _require_int(count, "entry counts")
            for x in counts:
                if type(x) is not int:
                    _require_int(x, "configuration counts")
                if x < 0:
                    raise MalformedInputError("configuration counts must be >= 0")
            if len(counts) != d:
                raise MalformedInputError("configuration dimension != d")
            if count < 0:
                raise MalformedInputError("entry count must be >= 0")
        self._set(d, entries)

    def machines_of_type(self, t: int) -> int:
        return sum(count for tt, _, count in self.entries if tt == t)


def aggregate_jobs(sched: HMSchedule) -> tuple[int, ...]:
    """Total job usage of a schedule: sum of count * config over entries."""
    usage = [0] * sched.d
    for _, counts, count in sched.entries:
        for j, c in enumerate(counts):
            usage[j] += count * c
    return tuple(usage)


def make_schedule(d: int,
                  raw: list[tuple[int, tuple[int, ...], int]]) -> HMSchedule:
    """Build an HMSchedule from (type, counts, count) triples.

    Entries with count 0 are dropped; identical (type, counts) pairs are
    merged; output order is (type, counts) ascending, which keeps every
    schedule this package emits deterministic.
    """
    merged: dict[tuple[int, tuple[int, ...]], int] = {}
    for t, counts, count in raw:
        if count == 0:
            continue
        key = (t, tuple(counts))
        merged[key] = merged.get(key, 0) + count
    return HMSchedule(d, tuple((t, counts, count)
                               for (t, counts), count in sorted(merged.items())))


# ---------------------------------------------------------------------------
# Feasibility queries and verification
# ---------------------------------------------------------------------------

LE = "<="
GE = ">="
JOB_EQ = "="
JOB_LE = "<="
JOB_GE = ">="


class FeasibilityQuery(Record):
    """What to check a schedule against.

    ``relation`` bounds every machine's completion time by ``threshold``
    (from above for ``<=``, from below for ``>=``); the schedule must
    also use exactly the instance's n jobs.
    """

    __slots__ = ("relation", "threshold")

    def __init__(self, relation: str, threshold: Fraction):
        if relation not in (LE, GE):
            raise MalformedInputError(f"bad relation {relation!r}")
        self._set(relation, exact_threshold(threshold))


class VerificationReport(NamedTuple):
    """Outcome of verify_schedule; fields are filled even when ok=False."""

    ok: bool
    max_completion: Fraction
    min_completion: Fraction
    max_idle_load: Fraction
    job_usage: tuple[int, ...]
    violations: tuple[str, ...] = ()


def _completion_range(pairs) -> tuple[Fraction, Fraction]:
    """The largest and smallest completion among (load, speed) pairs.

    Speeds are positive; completions are compared by cross-multiplying,
    and only the two results become Fractions (both 0 without pairs).
    """
    high = low = None
    for load, speed in pairs:
        if high is None:
            high = low = (load, speed)
        elif load * high[1] > high[0] * speed:
            high = (load, speed)
        elif load * low[1] < low[0] * speed:
            low = (load, speed)
    if high is None:
        return Fraction(0), Fraction(0)
    return Fraction(*high), Fraction(*low)


def verify_schedule(inst: Instance, sched: HMSchedule,
                    q: FeasibilityQuery) -> VerificationReport:
    """Check a schedule certificate against an instance and query.

    Pure function.  Checks, per machine type: the completion bound under
    ``q.relation`` (in load form, so zero-speed machines are handled
    exactly), machine-count consistency with m, restriction compliance,
    and job usage exactly n.  The largest idle load threshold * speed -
    load under ``<=`` is reported, not checked.  Structural dimension
    mismatches raise MalformedInputError; semantic failures are reported
    as violations with ok=False.  The bounds are compared in integers,
    scaled by the threshold's denominator.
    """
    if sched.d != inst.d:
        raise MalformedInputError(f"schedule has d={sched.d}, instance d={inst.d}")
    have = [0] * inst.tau  # machines the schedule covers, per type
    for t, _, count in sched.entries:
        if not 0 <= t < inst.tau:
            raise MalformedInputError(f"machine type {t} out of range")
        have[t] += count

    violations: list[str] = []
    T = q.threshold
    num, den = T.numerator, T.denominator
    completions: list[tuple[int, int]] = []
    idle = 0  # the largest idle load T * speed - load, times den

    for t in range(inst.tau):
        if have[t] != inst.m[t]:
            violations.append(
                f"type {t}: schedule covers {have[t]} machines, instance has {inst.m[t]}")

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
            if load * den > num * speed:
                violations.append(
                    f"type {t}: load {load} exceeds {format_rational(T)} * {speed}")
            idle = max(idle, num * speed - load * den)
        else:
            if load * den < num * speed:
                violations.append(
                    f"type {t}: load {load} below {format_rational(T)} * {speed}")
        # Zero-speed machines are constrained through the load form above;
        # they have no finite completion time to report.
        if speed > 0:
            completions.append((load, speed))

    usage = aggregate_jobs(sched)
    if usage != inst.n:
        violations.append(f"job usage {usage} != n={inst.n}")

    high, low = _completion_range(completions)
    return VerificationReport(
        ok=not violations,
        max_completion=high,
        min_completion=low,
        max_idle_load=Fraction(idle, den),
        job_usage=usage,
        violations=tuple(violations),
    )


def _entry_loads(inst: Instance, sched: HMSchedule):
    """(load, speed) of each entry with machines; a zero-speed machine
    gives (0, 1), completion 0, and may carry no load."""
    for t, counts, count in sched.entries:
        if count == 0:
            continue
        load = dot(inst.p, counts)
        if inst.s[t] == 0:
            if load > 0:
                raise MalformedInputError("positive load on zero-speed machine")
            yield 0, 1
        else:
            yield load, inst.s[t]


def schedule_completions(inst: Instance, sched: HMSchedule) -> list[Fraction]:
    """Completion time of each entry with machines, one value per entry.

    Every machine of an entry completes at the same time, so the list
    holds each distinct machine's completion time at least once; its max
    and min are those over all machines, whatever the entry counts.
    """
    return [Fraction(load, speed) for load, speed in _entry_loads(inst, sched)]


def objective_value(inst: Instance, sched: HMSchedule, objective: str) -> Fraction:
    """The largest completion ("cmax"), the smallest ("cmin") or their
    difference ("cenvy"); each is 0 without machines."""
    high, low = _completion_range(_entry_loads(inst, sched))
    if objective == "cenvy":
        return high - low
    return {"cmax": high, "cmin": low}[objective]


# ---------------------------------------------------------------------------
# Run-length multisets
# ---------------------------------------------------------------------------

class Runs:
    """A multiset as ordered (item, count) runs, handed out from the front.

    Schedules keep machines as counts, so multisets of configurations are
    dealt out to machines by run rather than one machine at a time.
    ``label`` names the multiset in the error raised when it runs short.
    """

    def __init__(self, runs, label: str = "items"):
        self._runs = [(item, count) for item, count in runs if count]
        self._i = 0      # index of the current run
        self._used = 0   # items of the current run already handed out
        self.left = sum(count for _, count in self._runs)
        self.label = label

    def take(self, machines: int, width: int) -> list[tuple[int, tuple]]:
        """Give each of the next ``machines`` machines the next ``width`` items.

        Machine i receives items [i*width, (i+1)*width) of what is left,
        in run order.  The result is run-length encoded as ``(k, slice)``
        segments of k consecutive machines with the same ``slice``, a
        tuple of (item, multiplicity) pairs: machines whose slices fall
        inside one run share a segment, and a machine whose slice
        straddles runs gets a segment of its own.  Work grows with the
        runs touched, not with ``machines``.
        """
        if machines * width > self.left:
            raise MalformedInputError(
                f"too few {self.label}: {machines * width} wanted, "
                f"{self.left} left")
        self.left -= machines * width
        if width == 0:
            return [(machines, ())] if machines else []
        out: list[tuple[int, tuple]] = []
        while machines:
            item, count = self._runs[self._i]
            whole = min((count - self._used) // width, machines)
            if whole:
                out.append((whole, ((item, width),)))
                machines -= whole
                self._advance(whole * width)
                continue
            piece = []
            need = width
            while need:
                item, count = self._runs[self._i]
                got = min(need, count - self._used)
                piece.append((item, got))
                need -= got
                self._advance(got)
            out.append((1, tuple(piece)))
            machines -= 1
        return out

    def _advance(self, k: int) -> None:
        self._used += k
        if self._used == self._runs[self._i][1]:
            self._i, self._used = self._i + 1, 0


def merge_slices(d: int, slices: tuple) -> list[int]:
    """Sum one ``deal`` segment's slices of count vectors into one vector."""
    merged = [0] * d
    for piece_slice in slices:
        for piece, mult in piece_slice:
            for j in range(d):
                merged[j] += mult * piece[j]
    return merged


def deal(machines: int, *draws: tuple[Runs, int]) -> list[tuple[int, tuple]]:
    """Give each of ``machines`` machines one slice from every draw.

    Each draw is ``(runs, width)``; draws are taken in order, so two draws
    from one ``Runs`` hand out consecutive items.  Returns ``(k,
    slices)`` segments, ``slices`` holding one slice per draw, whose
    boundaries are those of every draw's segments.
    """
    streams = [runs.take(machines, width) for runs, width in draws]
    pos = [0] * len(streams)
    rest = [stream[0][0] if stream else 0 for stream in streams]
    out: list[tuple[int, tuple]] = []
    while machines:
        k = min(rest)
        out.append((k, tuple(stream[i][1] for stream, i in zip(streams, pos))))
        machines -= k
        for j, stream in enumerate(streams):
            rest[j] -= k
            if rest[j] == 0 and machines:
                pos[j] += 1
                rest[j] = stream[pos[j]][0]
    return out
