"""Outside-in tracer for the hmsched benchmark's traced run.

The package is not instrumented.  Instead, the tracer rebinds the public
functions of each layer where ``hmsched.drivers`` looks them up: its own
drivers (``minimize_makespan`` ... ``balanced_feasibility``) and the
names it imported from ``confilp`` (``build_model``, ``solve_model``),
``reduction`` (``normalize``, ``compress``, ``lift_schedule``) and
``model`` (``verify_schedule``).  Each wrapped call records a span (name,
start, end, parent span, solve id) in memory plus a few counts derived
from its arguments and result; ``uninstall`` restores the originals.
Wrappers pass arguments and results through untouched, so a traced pass
returns exactly what an untraced one does.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

# (label, name in hmsched.drivers)
WRAPPED = (
    ("drivers.minimize_makespan", "minimize_makespan"),
    ("drivers.maximize_min_completion", "maximize_min_completion"),
    ("drivers.minimize_envy", "minimize_envy"),
    ("drivers.solve_restricted", "solve_restricted"),
    ("drivers.feasibility", "feasibility"),
    ("drivers.balanced_feasibility", "balanced_feasibility"),
    ("confilp.build_model", "build_model"),
    ("confilp.solve_model", "solve_model"),
    ("reduction.normalize", "normalize"),
    ("reduction.compress", "compress"),
    ("reduction.lift_schedule", "lift_schedule"),
    ("model.verify_schedule", "verify_schedule"),
)
SOLVE_LABELS = frozenset(label for label, _ in WRAPPED[:4])

# Per-layer metrics of the traced run: (name, unit).  Ratios whose base
# is zero on a workload read 0.
METRICS = (
    ("drivers.feasibility.calls", "count"),
    ("drivers.feasibility.self_s", "s"),
    ("drivers.probe_repeat_ratio", "1"),
    ("drivers.minimize_envy.self_s", "s"),
    ("drivers.envy_model_repeat_ratio", "1"),
    ("drivers.solve_restricted.calls", "count"),
    ("drivers.solve_restricted.self_s", "s"),
    ("drivers.balanced_feasibility.calls", "count"),
    ("drivers.balanced_feasibility.self_s", "s"),
    ("drivers.balanced_feasibility.guesses", "count"),
    ("drivers.balanced_feasibility.guess_success_ratio", "1"),
    ("drivers.path.direct", "count"),
    ("drivers.path.balanced", "count"),
    ("confilp.build_model.calls", "count"),
    ("confilp.build_model.self_s", "s"),
    ("confilp.build_model.columns", "count"),
    ("confilp.solve_model.calls", "count"),
    ("confilp.solve_model.self_s", "s"),
    ("confilp.solve_model.feasible", "count"),
    ("confilp.solve_model.infeasible", "count"),
    ("confilp.solve_model.resource_limit", "count"),
    ("confilp.solve_model.machines", "count"),
    ("confilp.column_cache.hit_ratio", "1"),
    ("reduction.normalize.calls", "count"),
    ("reduction.normalize.self_s", "s"),
    ("reduction.compress.calls", "count"),
    ("reduction.compress.self_s", "s"),
    ("reduction.compress.machines_out", "count"),
    ("reduction.lift_schedule.calls", "count"),
    ("reduction.lift_schedule.self_s", "s"),
    ("reduction.lift_schedule.machines", "count"),
    ("model.verify_schedule.calls", "count"),
    ("model.verify_schedule.self_s", "s"),
    ("model.verify_schedule.machines", "count"),
)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and counts for one pass; install before, uninstall after."""

    def __init__(self, hmsched):
        self._drivers = hmsched.drivers
        self._column_cache = hmsched.confilp._enumerate
        self._resource_limit = hmsched.confilp.ResourceLimitError
        self._originals: dict[str, object] = {}
        # span id -> (label, start, end, parent id, solve id); a slot is
        # None while its call is running, so labels are kept apart.
        self.spans: list[tuple | None] = []
        self._labels: list[str] = []
        self._stack: list[int] = []
        self._solve = -1
        self._solve_label = ""
        self._seen: set = set()
        self.counts: Counter = Counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for label, name in WRAPPED:
            original = getattr(self._drivers, name)
            self._originals[name] = original
            setattr(self._drivers, name, self._wrap(label, original))

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            setattr(self._drivers, name, original)
        self._originals.clear()

    def _wrap(self, label: str, fn):
        observe = getattr(self, "_observe_" + label.rsplit(".", 1)[1], None)
        spans, labels, stack = self.spans, self._labels, self._stack
        starts_solve = label in SOLVE_LABELS

        def traced(*args, **kwargs):
            if starts_solve:
                self._solve += 1
                self._solve_label = label
                self._seen = set()
            parent = stack[-1] if stack else None
            span = len(spans)
            spans.append(None)
            labels.append(label)
            stack.append(span)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except self._resource_limit:
                if label == "confilp.solve_model":
                    self.counts["confilp.solve_model.resource_limit"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[span] = (label, start, end, parent, self._solve)
                if starts_solve:
                    # The pass empties the cache, and so its counters,
                    # before each solve.
                    info = self._column_cache.cache_info()
                    self.counts["cache_hits"] += info.hits
                    self.counts["cache_misses"] += info.misses
            if observe is not None:
                observe(args, kwargs, out, parent)
            return out

        return traced

    # -- per-layer observations (arguments and results only) ---------------

    def _observe_normalize(self, args, kwargs, out, parent) -> None:
        if parent is None or self._labels[parent] != "drivers.feasibility":
            return
        # The normalized question plus its relation identifies a probe;
        # a repeat within one solve is work a memo would skip.
        key = ("probe", args[1], out)
        if key in self._seen:
            self.counts["probe_repeats"] += 1
        self._seen.add(key)

    def _observe_build_model(self, args, kwargs, out, parent) -> None:
        self.counts["confilp.build_model.columns"] += sum(
            len(g.configs) for g in out.groups)
        if self._solve_label == "drivers.minimize_envy":
            self.counts["envy_models"] += 1
            key = ("model", args[0], tuple(args[1]))
            if key in self._seen:
                self.counts["envy_model_repeats"] += 1
            self._seen.add(key)

    def _observe_solve_model(self, args, kwargs, out, parent) -> None:
        self.counts["confilp.solve_model.machines"] += sum(
            g.count for g in args[0].groups)
        verdict = "feasible" if out is not None else "infeasible"
        self.counts["confilp.solve_model." + verdict] += 1

    def _observe_balanced_feasibility(self, args, kwargs, out, parent) -> None:
        sched, info = out
        self.counts["drivers.balanced_feasibility.guesses"] += info["guesses"]
        if sched is not None:
            self.counts["balanced_successes"] += 1

    def _observe_compress(self, args, kwargs, out, parent) -> None:
        self.counts["reduction.compress.machines_out"] += out[0].machine_count

    def _observe_lift_schedule(self, args, kwargs, out, parent) -> None:
        self.counts["reduction.lift_schedule.machines"] += sum(
            count for _, _, count in out.entries)

    def _observe_verify_schedule(self, args, kwargs, out, parent) -> None:
        self.counts["model.verify_schedule.machines"] += sum(
            count for _, _, count in args[1].entries)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the finished pass."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        child_s: defaultdict = defaultdict(float)
        balanced_parents = set()
        for label, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
                if label == "drivers.balanced_feasibility":
                    balanced_parents.add(parent)
        for span_id, (label, start, end, _, _) in enumerate(self.spans):
            calls[label] += 1
            self_s[label] += end - start - child_s[span_id]
        probes = calls["drivers.feasibility"]
        balanced = sum(1 for p in balanced_parents
                       if self._labels[p] == "drivers.feasibility")
        c = self.counts
        values = {
            "drivers.probe_repeat_ratio": _ratio(c["probe_repeats"], probes),
            "drivers.envy_model_repeat_ratio":
                _ratio(c["envy_model_repeats"], c["envy_models"]),
            "drivers.balanced_feasibility.guess_success_ratio":
                _ratio(c["balanced_successes"],
                       c["drivers.balanced_feasibility.guesses"]),
            "drivers.path.direct": probes - balanced,
            "drivers.path.balanced": balanced,
            "confilp.column_cache.hit_ratio":
                _ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        }
        out = {}
        for name, unit in METRICS:
            if name in values:
                value = values[name]
            elif name.endswith(".calls"):
                value = calls[name[:-len(".calls")]]
            elif name.endswith(".self_s"):
                value = self_s[name[:-len(".self_s")]]
            else:
                value = c[name]
            out[name] = (value, unit)
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: id, name, start, end, parent, solve."""
        with open(path, "w") as fh:
            for span_id, span in enumerate(self.spans):
                label, start, end, parent, solve = span
                fh.write(json.dumps([span_id, label, start, end, parent,
                                     solve]) + "\n")
