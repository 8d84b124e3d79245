"""Exact invariant checking for concrete affine systems.

The check is a decision procedure, not a bounded heuristic: substituting a
linear system into a polynomial yields a C-finite sequence whose order is
at most the symmetric-power bound of `order_bound` (the sum, over the
distinct degrees k of the invariant's monomials, of C(s+k-1, k) for a
system of size s), and such a sequence is identically zero exactly when
its first `order` values are zero.  Unrolling up to the bound therefore
proves or refutes the invariant.

Entries of the system may be linear forms over parameter symbols; in that
case the unrolled values are polynomials and the invariant must reduce to
the identically-zero polynomial at every step, which proves it for all
parameter instantiations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import Monomial, Polynomial, Var, _exact

Value = Polynomial | Fraction


@dataclass(frozen=True)
class ConcreteSystem:
    """A concrete simultaneous-update system X_{n+1} = U X_n, X_0 = V."""

    vars: tuple[Var, ...]
    update: tuple[tuple[Value, ...], ...]
    init: tuple[Value, ...]
    rows: tuple = field(init=False, compare=False, repr=False)  # each row's nonzero (column, entry) pairs

    def __post_init__(self):
        s = len(self.vars)
        if len(self.update) != s or any(len(row) != s for row in self.update):
            raise ValueError("update matrix shape does not match the variable count")
        if len(self.init) != s:
            raise ValueError("initial vector length does not match the variable count")
        object.__setattr__(self, "rows", tuple(  # entries as ints where integral, so steps stay in ints
            tuple((j, _int_first(c)) for j, c in enumerate(row) if c != 0) for row in self.update))

    @property
    def size(self) -> int:
        return len(self.vars)

    def step(self, state: Sequence[Value]) -> tuple[Value | int, ...]:
        out = []
        for row in self.rows:
            acc = 0
            for j, c in row:
                acc = acc + c * state[j]
            out.append(acc)
        return tuple(out)


def _int_first(v: Value) -> Value | int:
    return v if isinstance(v, Polynomial) else _exact(v)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    bound_used: int
    witness: tuple[int, Value] | None = None  # (iteration, nonzero value)

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict needs a witness")


def order_bound(p: Polynomial, s: int, sequence_vars: Sequence[Var] | None = None) -> int:
    """Upper bound on the order of the sequence p(X_n) for X_{n+1} = U X_n
    with U of size s: the sum of C(s+k-1, k) over the distinct degrees k of
    p's monomials in the sequence variables.

    Symbols that are not sequence variables (parameters, initial values)
    are constants and add nothing to the degree.  Proof of the bound:

    - The degree-k monomials of X_n span a space of dimension C(s+k-1, k),
      and X -> UX acts on that space linearly, as Sym^k(U): m(U X_n) is a
      form of degree k in X_n, a combination of the degree-k monomials.
    - Stacking the vectors of those monomials for the distinct degrees of
      p gives W_{n+1} = M W_n with dim W = r, the returned sum, and
      p(X_n) = L W_n for a fixed row L.
    - Cayley-Hamilton gives chi_M(M) = 0 with chi_M(z) = z^r + c_{r-1} z^{r-1}
      + ... + c_0, and L M^n chi_M(M) W_0 = 0 reads p(X_{n+r}) = -(c_{r-1}
      p(X_{n+r-1}) + ... + c_0 p(X_n)), a monic recurrence of order r.  It
      holds for every n >= 0, also when M is singular and also over
      Q[params].
    - So if the first r values are zero, all values are zero.

    C(s+k-1, k) <= s^k, so the bound never exceeds the per-term sum of
    s^deg that the closure rules for C-finite sequences give.
    """
    seq = set(sequence_vars) if sequence_vars is not None else p.variables()
    return _bound({sum(e for v, e in mono if v in seq) for mono in p.terms}, s)


def _bound(degrees: set[int], s: int) -> int:
    return max(sum(math.comb(s + k - 1, k) if k else 1 for k in degrees), 1)


def check_invariant(sys: ConcreteSystem, p: Polynomial) -> Verdict:
    """Decide whether p = 0 holds at every iteration of the system.

    Variables of p that are program variables take the unrolled values;
    any other symbol (a parameter) passes through symbolically.  p is read
    once, into terms of (coefficient times parameter factor, [(slot, exponent)]),
    and one kernel steps rational and parameterized systems alike.
    """
    slot = {v: i for i, v in enumerate(sys.vars)}
    terms = []
    for mono, c in p.terms.items():
        rest = {v: e for v, e in mono if v not in slot}
        powers = [(slot[v], e) for v, e in mono if v in slot]
        terms.append((Polynomial({Monomial.make(rest): c}) if rest else c, powers))
    bound = _bound({sum(e for _, e in powers) for _, powers in terms}, sys.size)
    state = tuple(_int_first(v) for v in sys.init)
    for n in range(bound):
        value = 0
        for c, powers in terms:
            for i, e in powers:
                c = c * (state[i] if e == 1 else state[i] ** e)
            value = value + c
        if value != 0:  # a constant witness is a Fraction, a parameterized one a Polynomial
            value = Polynomial.coerce(value)
            return Verdict(False, bound, (n, value.constant_value() if value.is_constant() else value))
        state = sys.step(state)
    return Verdict(holds=True, bound_used=bound)


def check_equiv_modulo(
    sys1: ConcreteSystem,
    sys2: ConcreteSystem,
    p: Polynomial,
    bijection: Mapping[Var, Var],
) -> bool:
    """True iff p = 0 is an invariant of sys1 and of sys2 after renaming
    p's variables through the bijection (sys1 vars -> sys2 vars)."""
    if len(set(bijection.values())) != len(bijection):
        raise ValueError("variable map is not injective")
    missing = (p.variables() & set(sys1.vars)) - set(bijection)
    if missing:
        names = ", ".join(sorted(v.name for v in missing))
        raise ValueError(f"variable map does not cover: {names}")
    renamed = p.substitute({v: Polynomial.var(w) for v, w in bijection.items()})
    return check_invariant(sys1, p).holds and check_invariant(sys2, renamed).holds
