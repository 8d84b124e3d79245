"""Polynomial constraint problems: atoms, clauses, clause sets.

A constraint problem is a set of clauses, each a disjunction of polynomial
equations p = 0 and disequations p != 0.  A single variable assignment must
satisfy all clauses at once.  A clause renders itself as an SMT-LIB 2 term
once (`Clause.smtlib`), however many solver scripts assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

from .poly import Monomial, Polynomial, Rat, Var, sign_normalize

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


class _once:
    """`functools.cached_property` without its lock, which Python 3.11 and
    older take at each first access: the value is stored in the
    instance's dict, where every later read finds it first."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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

    @_once
    def _variables(self) -> frozenset[Var]:  # computed once: a clause is immutable
        return frozenset().union(*(a.lhs.variables() for a in self.atoms))

    @_once
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


_MEMO_LIMIT = 1 << 16


class _Memo(dict):
    """A dict that makes a missing value with `make`, and keeps it while
    it holds fewer than `_MEMO_LIMIT` values, so no run of a long-lived
    process can grow it without bound."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self.make(key)
        if len(self) < _MEMO_LIMIT:
            self[key] = value
        return value


#: The text `v v ... v` of each (symbol, exponent) factor, made once.
_FACTORS = _Memo(lambda f: " ".join([f[0].name] * f[1]))
#: The text `(* c ` that opens a term with each coefficient c != 1, made
#: once.  A cell's terms share a handful of coefficients.
_PREFIXES = _Memo(lambda c: f"(* {_smt_rational(c)} ")


def _smt_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    terms, factors, prefixes = p.terms, _FACTORS, _PREFIXES
    parts = []
    for mono in p.sorted_monomials():
        coeff = terms[mono]
        if not mono:
            parts.append(_smt_rational(coeff))
        elif coeff != 1:
            parts.append(prefixes[coeff] + " ".join(map(factors.__getitem__, mono)) + ")")
        elif len(mono) == 1 and mono[0][1] == 1:
            parts.append(mono[0][0].name)
        else:
            parts.append("(* " + " ".join(map(factors.__getitem__, mono)) + ")")
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
    """All coefficients of p with respect to the monomials in `vars`, in
    the order of `parameter_pieces`.

    p = 0 holds for every valuation of `vars` exactly when all returned
    polynomials are zero (a nonzero polynomial has finitely many roots).
    """
    symbols = set(vars)
    pieces: dict[Monomial, dict[Monomial, Rat]] = {}
    for m, c in p.terms.items():
        par, rest = [], []
        for f in m:
            (par if f[0] in symbols else rest).append(f)
        pieces.setdefault(Monomial(par), {})[Monomial(rest)] = c
    return parameter_pieces(pieces, vars)


def piece_key(vars: Sequence[Var], exponent: Callable[[Any, Var], int]) -> Callable[[Any], list[int]]:
    """The sort key of the pieces of a polynomial split by monomial in
    `vars`: the reversed exponent vector of a piece's monomial q (the last
    of `vars` is the most significant), where `exponent(q, v)` is the
    exponent of v in q.  The pieces come in its ascending order."""
    order = list(reversed(vars))
    return lambda q: [exponent(q, v) for v in order]


def parameter_pieces(pieces: Mapping[Monomial, Mapping[Monomial, Rat]],
                     vars: Sequence[Var]) -> list[Polynomial]:
    """The pieces of a polynomial split by monomial in `vars`, each given
    as its terms, in `piece_key`'s order, with pieces that cancel dropped,
    and a single 0 when every piece cancels."""
    if len(pieces) > 1:
        order = sorted(pieces, key=piece_key(vars, Monomial.degree_of))
        pieces = {q: pieces[q] for q in order}
    return [r for r in map(Polynomial, pieces.values()) if r.terms] or [Polynomial.zero()]


def decompose(equalities: Iterable[Polynomial], vars: Sequence[Var]) -> list[Clause]:
    """Eliminate `vars` from equalities p = 0 by coefficient collection:
    one unit equality per coefficient of each p over the monomials in
    `vars` (`decompose_poly`), each p in turn."""
    return [Clause.unit(q) for p in equalities for q in decompose_poly(p, vars)]
