"""Synthesis and exact verification of affine loops with polynomial
equality invariants.

Given a conjunction of polynomial equations over the program variables,
the toolkit builds a polynomial constraint problem whose solutions are
exactly the linear (simultaneous-update) loops maintaining the equations
at every iteration, solves it over nonlinear real arithmetic (through an
external SMT-LIB 2 solver, or the exact in-process search when none is
installed), and re-verifies every returned loop exactly by unrolling to a
complete order bound.
"""

from .constraints import Atom, Clause, Pcp
from .parser import ParseError, parse_expression, parse_invariant, parse_loop, parse_spec
from .pcpgen import DegenerateInvariantError, PcpBundle, build_pcp
from .poly import Monomial, Polynomial, SymbolTable, Var
from .smt import (
    AlgebraicTag,
    SolverConfig,
    SolverError,
    SolverTimeout,
    emit_smtlib,
    solve,
    solve_structured,
)
from .synth import Loop, RequestError, SynthRequest, SynthResult, synthesize
from .template import (
    ParamSpec,
    RecurrenceTemplate,
    ShapeTier,
    build_template,
    int_partitions,
)
from .verify import ConcreteSystem, Verdict, check_equiv_modulo, check_invariant, order_bound

__version__ = "0.1.0"

__all__ = [
    "AlgebraicTag", "Atom", "Clause", "ConcreteSystem",
    "DegenerateInvariantError", "Loop", "Monomial", "ParamSpec", "ParseError",
    "Pcp", "PcpBundle", "Polynomial", "RecurrenceTemplate", "RequestError", "ShapeTier",
    "SolverConfig", "SolverError", "SolverTimeout", "SymbolTable",
    "SynthRequest", "SynthResult", "Var", "Verdict", "build_pcp",
    "build_template", "check_equiv_modulo", "check_invariant", "emit_smtlib",
    "int_partitions", "order_bound", "parse_expression", "parse_invariant",
    "parse_loop", "parse_spec", "solve", "solve_structured", "synthesize",
]
