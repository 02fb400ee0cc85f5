"""Outside-in layer trace for the qmap benchmark.

``Tracer.install`` rebinds the public functions of each layer in every
``qmap`` module namespace that holds them (so ``qmap.cubic_cases.build_case``
and ``qmap.cli.build_case`` both record), and wraps the ``QParam``, ``Poly``
and ``CycScalar`` methods on their classes.  ``uninstall`` puts the originals
back.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent]``, with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory for one pass; ``metrics`` turns
them into inclusive seconds (``<span>.s``), self seconds (``<span>.self_s``,
the span minus its direct child spans) and call counts (``<span>.calls``).
The scalar operations are only counted: a span per ``CycScalar`` operation
would cost more than the arithmetic it measures.

The trace is single-threaded by construction (the parent is the top of one
stack); the benchmark pins ``QMAP_THREADS=1``.
"""

from __future__ import annotations

import sys
from time import perf_counter

from qmap.polyalg import Poly
from qmap.scalars import CycScalar, QParam

# span name -> (module, function names)
FUNCTION_SPANS = {
    "polyalg.divrem": ("qmap.polyalg", ("divrem",)),
    "polyalg.gcd": ("qmap.polyalg", ("poly_gcd",)),
    "polyalg.compose": ("qmap.polyalg", ("compose", "compose_xk")),
    "functionals.act": ("qmap.functionals", ("act",)),
    "functionals.pearson_moments": ("qmap.functionals", ("pearson_moments",)),
    "functionals.pearson_residual": ("qmap.functionals", ("pearson_residual",)),
    "opseq.recurrence": ("qmap.opseq", ("recurrence_from_moments",)),
    "opseq.ops_from_recurrence": ("qmap.opseq", ("ops_from_recurrence",)),
    "opseq.orthogonality": ("qmap.opseq", ("orthogonality_check",)),
    "mapping.build": ("qmap.mapping", ("build_mapping",)),
    "mapping.lift": ("qmap.mapping", ("lift_functional",)),
    "stieltjes.series": ("qmap.stieltjes", ("series_from_functional",)),
    "stieltjes.residual": ("qmap.stieltjes", ("stieltjes_residual",)),
    "stieltjes.susvq": ("qmap.stieltjes", ("verify_susvq",)),
    "stieltjes.acd": ("qmap.stieltjes", ("acd_from_pearson", "acd_mapped")),
    "classifier.classify": ("qmap.classifier", ("classify",)),
    "classifier.reduce": ("qmap.classifier", ("reduce_acd",)),
    "classifier.bounds": ("qmap.classifier", ("class_bounds_check",)),
    "families.pair": ("qmap.families", ("little_q_laguerre_pair", "little_q_jacobi_pair")),
    "cubic_cases.fixture": ("qmap.cubic_cases", ("case_fixture", "expected_phi_psi")),
    "cubic_cases.validate": ("qmap.cubic_cases", ("validate_case",)),
    "cubic_cases.build": ("qmap.cubic_cases", ("build_case",)),
    "cli": ("qmap.cli", ("main",)),
}

# span name -> (class, method names)
METHOD_SPANS = {
    "scalars.qparam": (QParam, ("__init__",)),
    "polyalg.mul": (Poly, ("__mul__", "__rmul__")),
}

# counter name -> CycScalar method names
SCALAR_COUNTS = {
    "scalars.mul": ("__mul__", "__rmul__"),
    "scalars.add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "scalars.inv": ("inv",),
}

SPAN_NAMES = tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS)
COUNTER_NAMES = tuple(SCALAR_COUNTS) + ("scalars.max_bits", "opseq.orthogonality.pairs", "classifier.reduce.steps")


def _max_bits(scalars) -> int:
    return max(
        (max(r.numerator.bit_length(), r.denominator.bit_length()) for x in scalars for r in (x.re, x.om)),
        default=0,
    )


class Tracer:
    """Spans and counters for one pass at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._counts = {name: [0] for name in COUNTER_NAMES}
        self._saved: list[tuple[object, str, object]] = []
        self._on_return = {
            "functionals.pearson_moments": self._moment_bits,
            "mapping.lift": self._moment_bits,
            "opseq.recurrence": self._recurrence_bits,
            "opseq.orthogonality": self._orthogonality_pairs,
            "classifier.reduce": self._reduce_steps,
        }

    # -- observers of returned values ----------------------------------------

    def _bits(self, scalars) -> None:
        cell = self._counts["scalars.max_bits"]
        cell[0] = max(cell[0], _max_bits(scalars))

    def _moment_bits(self, u) -> None:
        self._bits(u.moments)

    def _recurrence_bits(self, result) -> None:
        rec, _ops = result
        self._bits(rec.b + rec.a)

    def _orthogonality_pairs(self, report) -> None:
        self._counts["opseq.orthogonality.pairs"][0] += report.pairs_checked

    def _reduce_steps(self, result) -> None:
        self._counts["classifier.reduce.steps"][0] += len(result[1])

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, on_return = self.spans, self._stack, self._on_return.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[idx]
                span[1] = start
                span[2] = end
            if on_return is not None:
                on_return(result)
            return result

        return traced

    @staticmethod
    def _counted(cell: list, fn):
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    # -- install / uninstall -------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, (module, attrs) in FUNCTION_SPANS.items():
            for attr in attrs:
                fn = getattr(sys.modules[module], attr)
                wrappers[id(fn)] = (fn, self._span(name, fn))
        qmap_modules = [m for n, m in sys.modules.items() if m is not None and (n == "qmap" or n.startswith("qmap."))]
        for mod in qmap_modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, attr, hit[1])
        for name, (cls, methods) in METHOD_SPANS.items():
            for method in methods:
                self._rebind(cls, method, self._span(name, vars(cls)[method]))
        for name, methods in SCALAR_COUNTS.items():
            for method in methods:
                self._rebind(CycScalar, method, self._counted(self._counts[name], vars(CycScalar)[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        for cell in self._counts.values():
            cell[0] = 0

    # -- summary -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-pass totals: ``<span>.s``, ``<span>.self_s``, ``<span>.calls`` and the counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration - child[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.s"] += duration
        for name, cell in self._counts.items():
            out[name] = cell[0]
        return out
