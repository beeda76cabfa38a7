"""Span tracing of sftlift's layer boundaries, installed from outside the package.

The tracer replaces selected entry points of the package modules with
wrappers that record a span (name, start, end, parent, operation id) and
optional work counts.  Only entry points called at most about 10^4 times
per round are wrapped, so the wrappers cost little next to the work they
bracket; ``PeriodicOrbit.from_word`` (tens of thousands of calls per
periodic sweep) is deliberately left out.  An entry point missing from the
package is recorded as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "graphs", "codes", "joinings", "measures", "fibers", "ca")

# (span name, module, attribute path, counts); counts maps a count metric
# to f(args, result), taken only when the span is not nested in a span of
# the same name, so recursive or delegating calls count their work once.
ENTRY_POINTS = (
    ("cli.main", "cli", "main", {}),
    ("graphs.load", "graphs", "load_graph_or_code", {}),
    ("graphs.recode", "graphs", "recode_to_one_block", {}),
    ("graphs.analyze", "graphs", "analyze_graph", {}),
    ("graphs.determinize", "graphs", "determinize",
     {"graphs.determinize.states": lambda a, r: len(r.states)}),
    ("graphs.entropy", "graphs", "entropy", {}),
    ("graphs.entropy", "graphs", "RightResolvingPresentation.entropy", {}),
    ("graphs.periodic_orbits", "graphs", "RightResolvingPresentation.periodic_orbits",
     {"graphs.periodic_orbits.orbits": lambda a, r: len(r)}),
    ("graphs.language_subset", "graphs", "RightResolvingPresentation.language_subset_of", {}),
    ("codes.is_finite_to_one", "codes", "is_finite_to_one", {}),
    ("codes.compute_degree", "codes", "compute_degree", {}),
    ("codes.periodic_fiber", "codes", "periodic_fiber",
     {"codes.periodic_fiber.calls": lambda a, r: 1}),
    ("codes.preimage_words", "codes", "preimage_words",
     {"codes.preimage_words.words": lambda a, r: len(r)}),
    ("joinings.fiber_product", "joinings", "fiber_product", {}),
    ("joinings.degree_joining_graph", "joinings", "degree_joining_graph",
     {"joinings.symbols": lambda a, r: len(r.graph.x_symbols),
      "joinings.transitions": lambda a, r: len(r.graph.transitions)}),
    ("joinings.walker_init", "joinings", "_ViabilityWalk.__init__", {}),
    ("joinings.viability_scan", "joinings", "_ViabilityWalk.viability_ids", {}),
    ("joinings.forward_walk", "joinings", "_ViabilityWalk.walk",
     {"joinings.walk.steps": lambda a, r: len(r)}),
    ("measures.parse", "measures", "measure_from_json_dict", {}),
    ("measures.sample", "measures", "BernoulliMeasure.sample_indices",
     {"measures.sample.symbols": lambda a, r: len(r)}),
    ("measures.sample", "measures", "MarkovMeasure.sample_indices",
     {"measures.sample.symbols": lambda a, r: len(r)}),
    ("measures.sample", "measures", "PushforwardMeasure.sample_indices",
     {"measures.sample.symbols": lambda a, r: len(r)}),
    ("measures.empirical", "measures", "EmpiricalDistribution.from_indices", {}),
    ("measures.empirical", "measures", "EmpiricalDistribution.distance", {}),
    ("measures.cylinder", "measures", "PushforwardMeasure.cylinder", {}),
    ("fibers.support_check", "fibers", "is_fully_supported_on_image", {}),
    ("fibers.classify", "fibers", "classify_lifts_monte_carlo", {}),
    ("fibers.periodic_lifts", "fibers", "analyze_periodic_lifts", {}),
    ("ca.exact", "ca", "exact_lift_analysis", {}),
    ("ca.cross_validate", "ca", "cross_validate", {}),
)

OP_SPAN = "harness.op"      # one per operation; its self time is benchmark glue

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in ENTRY_POINTS))
COUNT_NAMES = tuple(dict.fromkeys(c for *_, counts in ENTRY_POINTS for c in counts))


class Tracer:
    """In-memory span recorder; spans are plain lists for low overhead."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index, op id]
        self.counts = defaultdict(int)
        self.op_id = None
        self.op_names = {}      # op id -> operation name
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self.op_id])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def nested_in_same(self, idx):
        parent = self.spans[idx][3]
        return parent >= 0 and self.spans[parent][0] == self.spans[idx][0]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "ops": self.op_names, "spans": self.spans}, fh)


def _wrap(tracer, name, fn, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counts and not tracer.nested_in_same(idx):
            for metric, count in counts.items():
                tracer.counts[metric] += count(args, result)
        return result
    return traced


class Patches:
    """Installs the span wrappers into the loaded ``sftlift`` modules and
    removes them again, so untraced rounds run the unmodified code."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.absent = []
        self._undo = []

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sftlift" or n.startswith("sftlift.")]
        for name, module_name, attr_path, counts in ENTRY_POINTS:
            owner = sys.modules.get(f"sftlift.{module_name}")
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(self.tracer, name, raw.__func__, counts))
            else:
                new = _wrap(self.tracer, name, raw, counts)
            self._set(owner, attr, new)
            if isinstance(owner, type):
                continue
            # functions imported by name into other modules are looked up there
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw and module is not owner:
                        self._set(module, key, new)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_metrics(tracer, round_walls):
    """Per-layer metrics as per-round means over the traced rounds.

    Self time of a span is its duration minus that of its direct children,
    so the self times inside one operation span sum to its duration; this
    is checked here.  Coverage is the share of traced round wall time that
    lies inside operation spans.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_name = defaultdict(float)
    op_self_sum = defaultdict(float)
    op_duration = {}
    for idx, (name, start, end, parent, op) in enumerate(spans):
        own = (end - start) - child_time[idx]
        self_by_name[name] += own
        op_self_sum[op] += own
        if name == OP_SPAN:
            op_duration[op] = end - start
    for op, duration in op_duration.items():
        if abs(op_self_sum[op] - duration) > 1e-9 * max(1.0, duration) + 1e-12 * len(spans):
            raise RuntimeError(f"self times of operation {op} sum to {op_self_sum[op]!r}, "
                               f"span lasts {duration!r}")

    n = len(round_walls)
    metrics = {}
    for layer in LAYERS + ("harness",):
        metrics[f"{layer}.self_s"] = sum(
            v for k, v in self_by_name.items() if k.split(".")[0] == layer) / n
    for name in SPAN_NAMES:
        if name != "cli.main":
            metrics[f"{name}.self_s"] = self_by_name[name] / n
    for name in COUNT_NAMES:
        metrics[name] = tracer.counts[name] / n
    metrics["trace.spans"] = len(spans) / n
    metrics["trace.coverage"] = sum(op_duration.values()) / sum(round_walls)
    return metrics
