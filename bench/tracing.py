"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each traced library function with a wrapper
that records a span (name, parent span, start, end) in memory, then calls
the original and returns its value or lets its exception through
untouched; `IndeterminateAtTruncation` is control flow inside `curve`.  A
function imported by name into several modules (`curve` holds its own
`kernel_basis`, `multiplicity` its own `rank_sparse`, `cli` its own
`parse_series`, ...) is replaced in every module that binds it.
`uninstall()` restores the originals.

Self time of a span is its duration minus the durations of its direct
children; one thread runs everything, so children never overlap.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (module, attribute, span name); a dotted attribute names a method.
SPANS = (
    ("series", "PowerSeries.__mul__", "series.mul"),
    ("series", "PowerSeries.invert_unit", "series.invert_unit"),
    ("series", "PowerSeries.substitute", "series.substitute"),
    ("parsing", "parse_series", "parsing.parse_series"),
    ("localmodel", "branch_orders", "localmodel.branch_orders"),
    ("multiplicity", "hilbert_samuel", "multiplicity.hilbert_samuel"),
    ("multiplicity", "mult_divisor_branchsum", "multiplicity.mult_divisor_branchsum"),
    ("linalg", "rank_sparse", "linalg.rank_sparse"),
    ("linalg", "rank_dense", "linalg.rank_dense"),
    ("smith", "matrix_det", "smith.matrix_det"),
    ("smith", "kernel_basis", "smith.kernel_basis"),
    ("smith", "smith_exponents", "smith.smith_exponents"),
    ("arcs", "sample_arcs_check", "arcs.sample"),
    ("arcs", "sample_parametrized_arcs_check", "arcs.sample"),
    ("curve", "cohomology", "curve.cohomology"),
    ("curve", "family_cohomology", "curve.family_cohomology"),
    ("cli", "dispatch", "cli.dispatch"),
)

Span = Tuple[str, int, float, float]  # name, parent index (-1: root), start, end


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, float] = {}
    for index, (name, _, start, end) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
    return totals


def call_counts(spans: List[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for name, *_ in spans:
        counts[name] = counts.get(name, 0) + 1
    return counts


def max_entry_bits(matrix) -> int:
    """Largest numerator or denominator bit length in a matrix of series."""
    best = 0
    for row in matrix:
        for entry in row:
            for c in entry.coefficients.values():
                best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def timed(self, name: str, work: Callable) -> None:
        """Run bookkeeping as a span of its own, so no layer's self time holds it."""
        self.span(name, work)()

    # -- installation ----------------------------------------------------------

    def _hooks(self, name: str):
        if name == "linalg.rank_sparse":
            def before(args):
                rows = args[0]
                if not hasattr(rows, "__len__"):
                    rows = list(rows)
                    args = (rows,) + args[1:]
                self.count("linalg.rank_sparse.rows", len(rows))
                return args
            return before, None
        if name.startswith("smith."):
            def before(args):
                def measure():
                    bits = max_entry_bits(args[0])
                    if bits > self.counters.get("smith.entry_bits.max", 0):
                        self.counters["smith.entry_bits.max"] = bits
                self.timed("trace.entry_bits", measure)
                return args
            return before, None
        if name == "arcs.sample":
            def after(report):
                self.count("arcs.sample.used", report.used)
                self.count("arcs.sample.requested", report.requested)
            return None, after
        return None, None

    def _replace(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self, package: str = "nodaltheta") -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for module_name, attribute, name in SPANS:
            home = sys.modules[f"{package}.{module_name}"]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(home, cls_name)
                self._replace(cls, method, self.span(name, cls.__dict__[method],
                                                     *self._hooks(name)))
                continue
            original = getattr(home, attribute)
            traced = self.span(name, original, *self._hooks(name))
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, binding, traced)
        series_cls = sys.modules[f"{package}.series"].PowerSeries
        original_init = series_cls.__dict__["__init__"]

        def counted_init(obj, *args, **kwargs):
            self.counters["series.init.calls"] = self.counters.get("series.init.calls", 0) + 1
            original_init(obj, *args, **kwargs)

        self._replace(series_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


# Span names whose call counts, and whose self times, are reported.
COUNTED = (
    "series.mul", "series.invert_unit", "series.substitute",
    "linalg.rank_sparse", "linalg.rank_dense", "multiplicity.hilbert_samuel",
    "parsing.parse_series", "curve.family_cohomology", "curve.cohomology",
)
TIMED = (
    "series.mul", "series.invert_unit", "series.substitute",
    "smith.matrix_det", "smith.kernel_basis", "smith.smith_exponents",
    "linalg.rank_sparse", "linalg.rank_dense", "multiplicity.hilbert_samuel",
    "multiplicity.mult_divisor_branchsum", "localmodel.branch_orders",
    "parsing.parse_series", "arcs.sample", "curve.family_cohomology", "cli.dispatch",
)


def layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Per-pass layer figures from the spans and counters of `passes` passes.

    A layer the workload never calls reports 0.
    """
    selfs = self_times(tracer.spans)
    calls = call_counts(tracer.spans)
    counters = tracer.counters
    out = {f"{name}.calls": calls.get(name, 0) / passes for name in COUNTED}
    out.update({f"{name}.self_s": selfs.get(name, 0.0) / passes for name in TIMED})
    out["series.init.calls"] = counters.get("series.init.calls", 0) / passes
    out["linalg.rank_sparse.rows"] = counters.get("linalg.rank_sparse.rows", 0) / passes
    out["smith.entry_bits.max"] = counters.get("smith.entry_bits.max", 0)
    requested = counters.get("arcs.sample.requested", 0)
    out["arcs.sample.useful_ratio"] = (
        counters["arcs.sample.used"] / requested if requested else 0.0)
    return out
