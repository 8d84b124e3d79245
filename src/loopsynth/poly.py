"""Exact multivariate polynomial arithmetic over the rationals.

Everything in the synthesis pipeline is built on the :class:`Polynomial`
type defined here: a sparse term map from monomials to exact coefficients,
each an ``int`` when integral and a ``Fraction`` otherwise; a float is a
``TypeError``.  Scalars leave the core as ``Fraction`` (`constant_value`,
`evaluate`).  All arithmetic is exact; no floating point enters the core.

Terms are kept canonical under a graded lexicographic order.  The global
variable order puts user-declared program variables first (in declaration
order) and generated symbols after them, alphabetically.  A generated
name comes from `fresh_name`, which prefixes `_` until the name is free
of the user's names and of every name generated before it.

The order is realized by a plain sort key, `MONO_KEY(m)`: a flat tuple of
the degree followed, for each variable of `m` in the global order, by that
variable's inverted sort key and its exponent.  The inverted key
(`Var.order_key`, computed once per variable) is one string that is larger
for an earlier variable: the character U+0001 for a positioned program
variable and U+0000 for any other, then U+10FFFF minus the position (0 for
an unpositioned one), U+10FFFE minus each code point of the name, and the
sentinel U+10FFFF, which no inverted character reaches.  The sentinel
gives a name a larger key than every name it is a proper prefix of (b1
before b11), so `order_key` inverts `sort_key` on its own.  A name may not
hold U+10FFFF, and a position must be below it.  Degrees are compared
first, so two flat keys of equal degree are decided within the first
(variable, exponent) pair the monomials do not share.

Identity costs no Python call.  `Var` is interned: one object per (name,
kind, pos), kept in a class-level table that holds only the names the
parser and the constraint generator produce, so equality is identity and
the hash is `object`'s.  A `Monomial` is the tuple of its (Var, exponent)
pairs, so it hashes and compares as that tuple does.  Symbol hashes
now vary with the order in which symbols are made, so neither the search
nor the emitted text may depend on the iteration order of a set of them.

A polynomial sorts its monomials on first use (`sorted_monomials`) and
keeps the list; `leading`, `sign_normalize` and SMT-LIB emission all read
it, and negation shares it, so each term order is computed once and a sign
flip copies no list.  A caller that makes the terms in descending order
hands them to `ordered_polynomial`, which keeps that order as the list.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping

#: Recognized symbol kinds.
KINDS = ("program", "initial", "root", "matrix", "coeff", "param")

_TOP = 0x10FFFF  # the largest code point: `order_key`'s sentinel


class Var:
    """A named indeterminate with a kind and optional declaration position.

    Interned: there is one object per (name, kind, pos), so equality is
    identity and the hash is `object`'s.  Instances are immutable.
    """

    __slots__ = ("name", "kind", "pos", "sort_key", "order_key")
    _interned: dict[tuple[str, str, int], "Var"] = {}

    name: str
    kind: str
    pos: int
    sort_key: tuple[int, int, str]
    order_key: str

    def __new__(cls, name: str, kind: str = "program", pos: int = -1) -> "Var":
        v = cls._interned.get((name, kind, pos))
        if v is not None:
            return v
        if kind not in KINDS:
            raise ValueError(f"unknown variable kind {kind!r}")
        if chr(_TOP) in name:
            raise ValueError(f"a symbol name may not hold U+10FFFF: {name!r}")
        # Program variables first, in declaration order; generated symbols
        # after them, alphabetically.
        if kind == "program" and pos >= 0:
            sort_key = (0, pos, name)
        else:
            sort_key = (1, 0, name)
        rank, p, _ = sort_key
        v = object.__new__(cls)
        for attr, value in (
            ("name", name), ("kind", kind), ("pos", pos), ("sort_key", sort_key),
            # larger for an earlier variable; see the module docstring
            ("order_key", chr(1 - rank) + chr(_TOP - p)
             + "".join([chr(_TOP - 1 - ord(ch)) for ch in name]) + chr(_TOP)),
        ):
            object.__setattr__(v, attr, value)
        return cls._interned.setdefault((name, kind, pos), v)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to {attr!r}: Var is immutable")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete {attr!r}: Var is immutable")

    def __reduce__(self):
        return Var, (self.name, self.kind, self.pos)

    def __repr__(self):
        return f"Var({self.name!r})"


class Monomial(tuple):
    """A power product of variables: the tuple of its (Var, exponent) pairs,
    sorted by `Var.sort_key`, with strictly positive exponents.  Hashing
    and equality are the tuple's own."""

    __slots__ = ()

    def __repr__(self):
        return f"Monomial({tuple.__repr__(self)})"

    @staticmethod
    def make(powers: Mapping[Var, int]) -> "Monomial":
        items = [(v, e) for v, e in powers.items() if e != 0]
        for v, e in items:
            if e < 0:
                raise ValueError(f"negative exponent for {v.name}")
        items.sort(key=lambda p: p[0].sort_key)
        return Monomial(items)

    @staticmethod
    def of(v: Var, exp: int = 1) -> "Monomial":
        return Monomial.make({v: exp})

    @property
    def degree(self) -> int:
        return sum(e for _, e in self)

    def degree_of(self, v: Var) -> int:
        for u, e in self:
            if u is v:
                return e
        return 0

    def mul(self, other: "Monomial") -> "Monomial":
        """The product, by merging the two power tuples, which are both
        sorted by `Var.sort_key`."""
        a, b = self, other
        if not a or not b:
            return a if not b else b
        # disjoint when one's symbols all come first: a larger order key is earlier
        if a[-1][0].order_key > b[0][0].order_key:
            return Monomial(a + b)
        if b[-1][0].order_key > a[0][0].order_key:
            return Monomial(b + a)
        out, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            (u, e), (v, f) = a[i], b[j]
            if u is v:
                out.append((u, e + f))
                i += 1
                j += 1
            elif u.sort_key < v.sort_key:
                out.append(a[i])
                i += 1
            elif v.sort_key < u.sort_key:
                out.append(b[j])
                j += 1
            else:  # distinct symbols sharing a sort key: order them as make does
                acc = dict(a)
                for w, g in b:
                    acc[w] = acc.get(w, 0) + g
                return Monomial.make(acc)
        return Monomial((*out, *a[i:], *b[j:]))

    def without(self, v: Var) -> "Monomial":
        for i, (u, _) in enumerate(self):
            if u is v:
                return Monomial(self[:i] + self[i + 1:])
        return self


def MONO_KEY(m: Monomial) -> tuple:
    """Sort key of the graded lexicographic order, in which earlier
    variables are more significant (see the module docstring)."""
    degree, key = 0, ()
    for v, e in m:
        degree += e
        key += (v.order_key, e)
    return (degree,) + key


_MONOMIAL_ONE = Monomial(())

Rat = Fraction | int


def _exact(c) -> Rat:
    """`c` as a stored coefficient: an ``int`` when integral, else a ``Fraction``."""
    if isinstance(c, int):
        return int(c)
    if type(c) is not Fraction:
        if not isinstance(c, Rational):
            raise TypeError(f"polynomial coefficients must be rational, not {type(c).__name__}")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    """A sparse multivariate polynomial with exact rational coefficients.

    Instances are treated as immutable; all operations return new objects.
    The zero polynomial is the empty term map.  A coefficient in `terms` is
    nonzero, an ``int`` when integral and a ``Fraction`` otherwise; `__init__`
    normalizes to that and refuses non-rational values with ``TypeError``.
    `constant_value` and `evaluate` return a ``Fraction``.
    """

    __slots__ = ("terms", "_hash", "_sorted")

    def __init__(self, terms: Mapping[Monomial, Rat] | None = None):
        t: dict[Monomial, Rat] = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not int:
                    c = _exact(c)
                if c:
                    t[m] = c
        self.terms = t
        self._hash = None
        self._sorted = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def const(c: Rat) -> "Polynomial":
        return Polynomial({_MONOMIAL_ONE: c})

    @staticmethod
    def var(v: Var) -> "Polynomial":
        return _polynomial({Monomial(((v, 1),)): 1})

    @staticmethod
    def coerce(x: "Polynomial | Rat") -> "Polynomial":
        if isinstance(x, Polynomial):
            return x
        return Polynomial.const(x)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)  # the empty monomial is the only false one

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get(_MONOMIAL_ONE, 0))

    def variables(self) -> set[Var]:
        return {v for m in self.terms for v, _ in m}

    def sorted_monomials(self) -> list[Monomial]:
        """Monomials in descending graded lexicographic order.

        Sorted on first use and kept; the list is shared, also with the
        negation, so callers must not modify it.
        """
        s = self._sorted
        if s is None:
            s = self._sorted = sorted(self.terms, key=MONO_KEY, reverse=True)
        return s

    def sorted_terms(self) -> list[tuple[Monomial, Rat]]:
        """Terms in descending graded lexicographic order."""
        terms = self.terms
        return [(m, terms[m]) for m in self.sorted_monomials()]

    def leading(self) -> tuple[Monomial, Rat]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        m = self.sorted_monomials()[0]
        return m, self.terms[m]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = Polynomial.coerce(other)
        acc = self.terms.copy()
        for m, c in other.terms.items():
            c += acc.get(m, 0)
            if not c:
                del acc[m]
            elif type(c) is Fraction and c.denominator == 1:
                acc[m] = c.numerator
            else:
                acc[m] = c
        return _polynomial(acc)

    __radd__ = __add__

    def __neg__(self):
        neg = _polynomial({m: -c for m, c in self.terms.items()})
        neg._sorted = self._sorted  # negation keeps the order
        return neg

    def __sub__(self, other):
        return self + (-Polynomial.coerce(other))

    def __rsub__(self, other):
        return Polynomial.coerce(other) - self

    def __mul__(self, other):
        other = Polynomial.coerce(other)
        acc: dict[Monomial, Rat] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            base = base * base if k > 1 else base
            k >>= 1
        return Polynomial.const(1) if out is None else out

    def scale(self, c: Rat) -> "Polynomial":
        c = _exact(c)
        return Polynomial({m: c * k for m, k in self.terms.items()})

    # -- structural operations ----------------------------------------

    def substitute(self, bindings: Mapping[Var, "Polynomial | Rat"]) -> "Polynomial":
        """Simultaneous substitution; unbound variables pass through.

        One pass over the terms: each term's bound factors are multiplied
        out from powers cached per (variable, exponent), then times its
        unbound factors, into a single term map.
        """
        powers: dict[tuple[Var, int], Polynomial] = {}
        acc: dict[Monomial, Rat] = {}
        hit = False
        for m, c in self.terms.items():
            product: dict[Monomial, Rat] = {_MONOMIAL_ONE: c}
            free = []
            for v, e in m:
                if v not in bindings:
                    free.append((v, e))
                    continue
                q = powers.get((v, e))
                if q is None:
                    q = Polynomial.coerce(bindings[v])
                    q = powers[(v, e)] = q if e == 1 else q ** e
                step: dict[Monomial, Rat] = {}
                for m1, c1 in product.items():
                    for m2, c2 in q.terms.items():
                        mm = m1.mul(m2)
                        step[mm] = step.get(mm, 0) + c1 * c2
                product = step
            if len(free) == len(m):
                acc[m] = acc.get(m, 0) + c
                continue
            hit = True
            rest = Monomial(free)
            for pm, pc in product.items():
                mm = rest.mul(pm)
                acc[mm] = acc.get(mm, 0) + pc
        return Polynomial(acc) if hit else self

    def evaluate(self, assignment: Mapping[Var, Rat]) -> Fraction:
        """Evaluate fully; raises KeyError if a variable is unassigned."""
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val *= Fraction(assignment[v]) ** e
            total += val
        return total

    def coeffs_in(self, v: Var) -> list[tuple[int, "Polynomial"]]:
        """Regroup as sum_k coeff_k * v^k; sorted by degree, zeros omitted."""
        groups: dict[int, dict[Monomial, Rat]] = {}
        for m, c in self.terms.items():
            k = m.degree_of(v)
            groups.setdefault(k, {})[m.without(v)] = c
        return [(k, _polynomial(groups[k])) for k in sorted(groups)]

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self.terms.items())))
        return self._hash

    # -- rendering ----------------------------------------------------

    def __str__(self):
        return signed_sum(
            (c, "*".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in m))
            for m, c in self.sorted_terms()
        )

    def __repr__(self):
        return f"Polynomial({self})"


def _polynomial(terms: dict[Monomial, Rat]) -> Polynomial:
    """A polynomial that takes ownership of an already normalized term map."""
    p = object.__new__(Polynomial)
    p.terms = terms
    p._hash = None
    p._sorted = None
    return p


_ZERO = Polynomial()


def packed_times(a: dict[int, Rat], b: dict[int, Rat]) -> dict[int, Rat]:
    """The product of two polynomials on packed integer exponent keys, in
    which a product of monomials is the sum of their keys."""
    out: dict[int, Rat] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return out


def ordered_polynomial(monomials: list[Monomial], coeffs: list[Rat]) -> Polynomial:
    """The polynomial of distinct `monomials`, already in descending
    graded lexicographic order, and their nonzero `coeffs`: its terms are
    in that order and `monomials` is its sorted list."""
    p = _polynomial(dict(zip(monomials, [c if type(c) is int else _exact(c) for c in coeffs])))
    p._sorted = monomials
    return p


def sign_normalize(p: Polynomial) -> Polynomial:
    """Flip the sign so the leading coefficient is positive.

    Used to canonicalize polynomials inside (in)equations against zero,
    where p = 0 and -p = 0 mean the same thing.
    """
    if p.is_zero():
        return p
    _, c = p.leading()
    return -p if c < 0 else p


def signed_sum(terms: Iterable[tuple[Rat, str]]) -> str:
    """A sum of (coefficient, factor text) terms as `x - 2*y + 1/2`, in order:
    zero terms are skipped, an empty factor is a constant, and no term is `0`."""
    parts: list[str] = []
    for c, factor in terms:
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if not factor else factor if mag == 1 else f"{mag}*{factor}"
        if parts:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts) or "0"


def fresh_name(base: str, taken: set[str]) -> str:
    """`base`, prefixed with `_` until it is not in `taken`; the name is
    added to `taken`.  How a generated name keeps clear of the user's names
    and of the names generated before it."""
    while base in taken:
        base = "_" + base
    taken.add(base)
    return base
