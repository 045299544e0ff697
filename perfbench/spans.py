"""Span recording around the public functions of each nqkit module.

The tracer wraps functions from outside the program: for every target it
replaces each binding of the function object, in every loaded ``nqkit``
module and class, so a call through ``from .linalg import rank`` in
another module is seen as well.  Spans are kept in memory as
``(parent, name, start, end)`` tuples, indexed by span id, and the
caller writes them out when the job ends.  Hot constructors are counted,
never spanned, to keep the overhead bounded.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

ROOT = -1

# span name -> (module, attribute path); a dotted path names a method
SPANNED = {
    "rref": ("nqkit.linalg", "rref"),
    "anchor_defect": ("nqkit.algebroid", "anchor_defect"),
    "jacobi_defect": ("nqkit.algebroid", "jacobi_defect"),
    "check_axioms": ("nqkit.algebroid", "check_axioms"),
    "cohomology_h1": ("nqkit.algebroid", "cohomology_h1"),
    "is_exact_one_form": ("nqkit.algebroid", "is_exact_one_form"),
    "poisson": ("nqkit.graded", "GradedContext.poisson"),
    "left_derivation": ("nqkit.graded", "left_derivation"),
    "build_S": ("nqkit.bfv", "build_S"),
    "check_master": ("nqkit.bfv", "check_master"),
    "assemble_bfv": ("nqkit.bfv", "assemble_bfv"),
    "bfv_h0": ("nqkit.bfv", "bfv_h0"),
    "check_first_class": ("nqkit.constraints", "check_first_class"),
    "irreducibility_probe": ("nqkit.constraints", "irreducibility_probe"),
    "generic_rank": ("nqkit.constraints", "generic_rank"),
    "check_metric_compat": ("nqkit.dynamics", "check_metric_compat"),
    "check_structural": ("nqkit.dynamics", "check_structural"),
    "check_evolution_invariance": ("nqkit.dynamics", "check_evolution_invariance"),
    "solve_connection": ("nqkit.dynamics", "solve_connection"),
    "check_supercharge": ("nqkit.aksz", "check_supercharge"),
    "expand_bv": ("nqkit.aksz", "expand_bv"),
    "term_rows": ("nqkit.aksz", "term_rows"),
    "load_problem": ("nqkit.problem", "load_problem"),
    "parse_poly": ("nqkit.parser", "parse_poly"),
    "render_text": ("nqkit.report", "CheckReport.render_text"),
    "to_json_dict": ("nqkit.report", "CheckReport.to_json_dict"),
    "write_json": ("nqkit.cli", "_write_json"),
}

# the click command objects whose callbacks are the verb handlers
VERBS = {
    "verb_check": "cmd_check",
    "verb_cohomology": "cmd_cohomology",
    "verb_emit": "cmd_emit",
    "verb_solve_connection": "cmd_solve_connection",
}

# the module each span belongs to, for the self-time table
MODULE_OF = {name: module for name, (module, _) in SPANNED.items()}
MODULE_OF.update({name: "nqkit.cli" for name in VERBS})
MODULE_OF["job"] = "(cli glue)"


class Tracer:
    """Spans and counters of one job."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float] | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, measure=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else ROOT
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (parent, name, start, end)
            if measure is not None:
                measure(counts, args, result)
            return result

        return traced

    def run(self, name: str, fn, *args):
        """Call fn(*args) under a span of its own, as the job's root."""
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        """Wrap every target in every nqkit module and class that binds it."""
        import nqkit.cli
        from nqkit.poly import EvenPoly

        counts = self.counts
        modules = [m for n, m in sys.modules.items() if n.startswith("nqkit")]
        for name, (module_name, path) in SPANNED.items():
            owner = sys.modules[module_name]
            namespaces = modules
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                namespaces = [owner]
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, MEASURES.get(name))
            for namespace in namespaces:
                _rebind_in(namespace, original, wrapped)
        for name, command in VERBS.items():
            cmd = getattr(nqkit.cli, command)
            cmd.callback = self.wrap(name, cmd.callback)

        post_init, mul = EvenPoly.__post_init__, EvenPoly.__mul__

        def counted_post_init(poly):
            counts["evenpoly_constructed"] += 1
            post_init(poly)

        def counted_mul(poly, other):
            counts["mul_calls"] += 1
            other_terms = len(other.terms) if isinstance(other, EvenPoly) else 1
            counts["mul_term_pairs"] += len(poly.terms) * other_terms
            return mul(poly, other)

        _rebind_in(EvenPoly, post_init, counted_post_init)
        _rebind_in(EvenPoly, mul, counted_mul)

    def records(self) -> list[list]:
        """The closed spans; every wrapper closes its span, even on error."""
        return [list(span) for span in self.spans]


def _rebind_in(namespace, original, replacement) -> None:
    for attr, value in list(vars(namespace).items()):
        if value is original:
            setattr(namespace, attr, replacement)


def _measure_rref(counts: Counter, args, result) -> None:
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    counts["rref_rows"] += rows
    counts["rref_cells"] += rows * cols
    counts["rref_nonzeros"] += sum(1 for row in matrix for entry in row if entry)
    counts["rref_pivots"] += len(result[1])


def _measure_terms(key: str):
    def measure(counts: Counter, args, result) -> None:
        counts[key] += sum(1 for _ in result.terms())

    return measure


MEASURES = {
    "rref": _measure_rref,
    "build_S": _measure_terms("S_terms"),
    "poisson": _measure_terms("poisson_terms_out"),
}


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name, the summed duration not covered by direct children."""
    child_time = [0.0] * len(spans)
    for parent, _, start, end in spans:
        if parent != ROOT:
            child_time[parent] += end - start
    totals: Counter = Counter()
    for (_, name, start, end), covered in zip(spans, child_time):
        totals[name] += end - start - covered
    return dict(totals)
