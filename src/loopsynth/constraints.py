"""Polynomial constraint problems: atoms, clauses, clause sets.

A constraint problem is a set of clauses, each a disjunction of polynomial
equations p = 0 and disequations p != 0.  A single variable assignment must
satisfy all clauses at once.  A clause renders itself as an SMT-LIB 2 term
once (`Clause.smtlib`), however many solver scripts assert it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .poly import Polynomial, Rat, Var, sign_normalize

RELATIONS = ("=", "!=")


@dataclass(frozen=True)
class Atom:
    """A single constraint `lhs rel 0` with canonical lhs.

    Both relations are invariant under negating lhs, so lhs is stored with
    a positive leading coefficient.
    """

    lhs: Polynomial
    rel: str

    @staticmethod
    def make(lhs: Polynomial, rel: str) -> "Atom":
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        return Atom(sign_normalize(lhs), rel)

    def holds(self, assignment: Mapping[Var, Fraction]) -> bool:
        zero = self.lhs.evaluate(assignment) == 0
        return zero if self.rel == "=" else not zero

    def __str__(self):
        return f"{self.lhs} {self.rel} 0"


@dataclass(frozen=True)
class Clause:
    """A nonempty disjunction of atoms; a model satisfies it by satisfying
    at least one atom."""

    atoms: tuple[Atom, ...]

    @staticmethod
    def unit(lhs: Polynomial, rel: str = "=") -> "Clause":
        return Clause((Atom.make(lhs, rel),))

    @staticmethod
    def any(parts: Iterable[tuple[Polynomial, str]]) -> "Clause":
        atoms = tuple(Atom.make(p, r) for p, r in parts)
        if not atoms:
            raise ValueError("clause needs at least one disjunct")
        return Clause(atoms)

    @property
    def is_unit_equality(self) -> bool:
        return len(self.atoms) == 1 and self.atoms[0].rel == "="

    def holds(self, assignment: Mapping[Var, Fraction]) -> bool:
        return any(a.holds(assignment) for a in self.atoms)

    def variables(self) -> frozenset[Var]:
        return self._variables

    @functools.cached_property
    def _variables(self) -> frozenset[Var]:  # computed once: a clause is immutable
        return frozenset().union(*(a.lhs.variables() for a in self.atoms))

    @functools.cached_property
    def smtlib(self) -> str:  # rendered once: a clause is immutable
        """The clause as an SMT-LIB 2 term over real constants."""
        rendered = [_smt_atom(a) for a in self.atoms]
        return rendered[0] if len(rendered) == 1 else "(or " + " ".join(rendered) + ")"

    def __str__(self):
        return " or ".join(str(a) for a in self.atoms)


def _smt_rational(c: Rat) -> str:
    if c < 0:
        return f"(- {_smt_rational(-c)})"
    if c.denominator == 1:
        return str(c.numerator)
    return f"(/ {c.numerator} {c.denominator})"


#: The text `v v ... v` of each (symbol, exponent) factor, made once.
_FACTORS: dict[tuple[Var, int], str] = {}


def _smt_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for mono, coeff in p.sorted_terms():
        if not mono:
            parts.append(_smt_rational(coeff))
            continue
        text = " ".join([_FACTORS.get(f) or _FACTORS.setdefault(f, " ".join([f[0].name] * f[1]))
                         for f in mono])
        if coeff != 1:
            parts.append(f"(* {_smt_rational(coeff)} {text})")
        elif len(mono) == 1 and mono[0][1] == 1:
            parts.append(text)
        else:
            parts.append(f"(* {text})")
    return parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"


def _smt_atom(a: Atom) -> str:
    body = f"(= {_smt_poly(a.lhs)} 0)"
    return body if a.rel == "=" else f"(not {body})"


class Pcp:
    """An ordered, deduplicated clause set.

    Clause order is insertion order, which makes downstream solver scripts
    deterministic.
    """

    def __init__(self, clauses: Iterable[Clause] = ()):
        self.clauses: list[Clause] = []
        self._seen: set[Clause] = set()
        for c in clauses:
            self.add(c)

    def add(self, clause: Clause) -> None:
        if clause not in self._seen:
            self._seen.add(clause)
            self.clauses.append(clause)

    def copy(self) -> "Pcp":
        """The same clauses as a set of its own, with none hashed again."""
        out = Pcp()
        out.clauses = list(self.clauses)
        out._seen = self._seen.copy()
        return out

    def variables(self) -> list[Var]:
        return variables_of(self.clauses)

    def __len__(self):
        return len(self.clauses)

    def __iter__(self):
        return iter(self.clauses)

    def __str__(self):
        return "\n".join(str(c) for c in self.clauses)


def variables_of(clauses: Iterable[Clause]) -> list[Var]:
    """The clauses' variables, sorted by `sort_key`."""
    return sorted(set().union(*(c.variables() for c in clauses)), key=lambda v: v.sort_key)


def first_violated(clauses: Iterable[Clause], model: Mapping[Var, Fraction]) -> Clause | None:
    """The first clause the model does not satisfy, or None if it satisfies all."""
    for c in clauses:
        if not c.holds(model):
            return c
    return None


def decompose_poly(p: Polynomial, vars: Sequence[Var]) -> list[Polynomial]:
    """All coefficients of p with respect to the monomials in `vars`.

    p = 0 holds for every valuation of `vars` exactly when all returned
    polynomials are zero (a nonzero polynomial has finitely many roots).
    """
    if not vars:
        return [p]
    *rest, last = vars
    out: list[Polynomial] = []
    for _, coeff in p.coeffs_in(last):
        out.extend(decompose_poly(coeff, rest))
    if not out:
        out.append(Polynomial.zero())
    return out


def decompose(clauses: Iterable[Clause], vars: Sequence[Var]) -> list[Clause]:
    """Eliminate `vars` from every unit equality by coefficient collection.

    Unit equalities p = 0 are replaced by one equality per coefficient of
    the monomials in `vars`; any other clause, and a unit equality free of
    `vars` (its own only coefficient), passes through unchanged.
    """
    out: list[Clause] = []
    for c in clauses:
        if c.is_unit_equality and not c.variables().isdisjoint(vars):
            for q in decompose_poly(c.atoms[0].lhs, vars):
                out.append(Clause.unit(q))
        else:
            out.append(c)
    return out
