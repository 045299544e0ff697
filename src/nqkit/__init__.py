"""nqkit: exact graded symbolic engine for anchored frame systems.

The package verifies, in exact rational arithmetic, the structural
identities of frame data over a polynomial base: bracket axioms, the
first-class constraint algebra they generate, the odd charge and its
master equation, covariant dynamics, truncated cohomology windows, and the
one-dimensional superfield expansion into a component action.  The
constraints, both Hamiltonians and the charge of a problem share one
(possibly twisted) phase space, T*E[1].
"""

from __future__ import annotations

from .aksz import (
    ComponentAction,
    build_supercharge,
    check_bookkeeping,
    check_supercharge,
    expand_bv,
    extended_action_reference,
    ghost_zero_truncation,
)
from .algebroid import (
    Algebroid,
    check_axioms,
    cohomology_h1,
    is_exact_one_form,
)
from .bfv import BFVPackage, assemble_bfv, bfv_h0, build_H
from .constraints import (
    ConstraintSet,
    build_constraints,
    build_S,
    check_first_class,
    check_master,
    extract_structure,
    irreducibility_probe,
    phase_space,
)
from .dynamics import (
    GeometryPack,
    build_hamiltonian,
    check_evolution_invariance,
    check_metric_compat,
    check_structural,
    solve_connection,
)
from .graded import GradedContext, GradedPoly, extended_context
from .parser import ParseError, parse_poly, rational_from_string
from .poly import EvenPoly, Rat
from .problem import Problem, ProblemError, load_problem
from .report import FAIL, PASS, SKIPPED, WARN, CheckReport, worst_status

__all__ = [
    "Algebroid",
    "BFVPackage",
    "CheckReport",
    "ComponentAction",
    "ConstraintSet",
    "EvenPoly",
    "FAIL",
    "GeometryPack",
    "GradedContext",
    "GradedPoly",
    "PASS",
    "ParseError",
    "Problem",
    "ProblemError",
    "Rat",
    "SKIPPED",
    "WARN",
    "assemble_bfv",
    "bfv_h0",
    "build_H",
    "build_S",
    "build_constraints",
    "build_hamiltonian",
    "build_supercharge",
    "check_axioms",
    "check_bookkeeping",
    "check_evolution_invariance",
    "check_first_class",
    "check_master",
    "check_metric_compat",
    "check_structural",
    "check_supercharge",
    "cohomology_h1",
    "expand_bv",
    "extended_action_reference",
    "extended_context",
    "extract_structure",
    "ghost_zero_truncation",
    "irreducibility_probe",
    "is_exact_one_form",
    "load_problem",
    "parse_poly",
    "phase_space",
    "rational_from_string",
    "solve_connection",
    "worst_status",
]
