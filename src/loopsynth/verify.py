"""Exact invariant checking for concrete affine systems.

The check is a decision procedure, not a bounded heuristic: substituting a
linear system into a polynomial yields a C-finite sequence whose order is
at most the symmetric-power bound of `order_bound` (the sum, over the
distinct degrees k of the invariant's monomials, of C(s+k-1, k) for a
system of size s), and such a sequence is identically zero exactly when
its first `order` values are zero.  Unrolling up to the bound therefore
proves or refutes the invariant.

Entries of the system may be polynomials in parameter symbols; in that
case the unrolled values are polynomials and the invariant must reduce to
the identically-zero polynomial at every step, which proves it for all
parameter instantiations.

The unrolling runs on ints, with denominators cleared once per system
(the fraction-free idea of Bareiss).  Let d be the lcm of the update's
denominators, e that of the initial values' and L that of the
invariant's coefficients.  Then Y_n = d^n e X_n has Y_0 = e X_0 and
Y_{n+1} = (dU) Y_n, so it is integral at every step.  Write
p = sum_t c_t r_t m_t, with m_t a monomial of degree k_t in the loop
variables, r_t one in the parameters, and K the largest k_t.  Since
m_t(X_n) = m_t(Y_n) / (d^n e)^k_t,

    L (d^n e)^K p(X_n) = sum_t L c_t (d^n e)^(K - k_t) r_t m_t(Y_n),

in which every L c_t is an int, and p(X_n) = 0 exactly when the right
side is 0.  A nonzero right side is divided back by L (d^n e)^K into
the witness.

Where a parameter occurs, a value is a polynomial in the parameters with
int coefficients, `_Packed` on integer keys: parameter i's exponent sits
in field i, `width` bits wide, so a product's key is the sum of its
factors' keys while no field carries.  No field carries.  Let a and b be
the largest parameter degree of an initial value and of an update entry,
B the order bound and A = a + (B - 1) b.  The check steps only to n =
B - 1, and Y_n has degree at most a + n b <= A, since each product
(dU)_ij Y_(n-1),j has degree at most b + a + (n - 1) b.  A product formed
for term t has degree at most deg r_t + k_t A.  Every key thus has total
degree, and so every field, at most D = max(b, A, max_t deg r_t + k_t A),
and `width` is the bit length of D.  A rational update (b = 0) keeps X_n of X_0's degree
in the parameters, affine for every loop that `parse_loop` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import Monomial, Polynomial, Var, _exact, packed_times

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


def _den(v: Value) -> int:
    """The lcm of v's denominators."""
    if isinstance(v, Polynomial):
        return math.lcm(*[c.denominator for c in v.terms.values()])
    return v.denominator


class _Packed(dict):
    """A polynomial in the parameters with int coefficients, none zero, as
    {packed key: coefficient}; an int operand is a constant."""

    __slots__ = ()

    def __add__(self, other):
        out = _Packed(self)
        for k, c in other.items() if type(other) is _Packed else ((0, other),):
            c += out.get(k, 0)
            if c:
                out[k] = c
            else:
                out.pop(k, None)
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not _Packed:
            return _Packed({k: c * other for k, c in self.items()}) if other else 0
        return _Packed({k: c for k, c in packed_times(self, other).items() if c})

    __rmul__ = __mul__

    def __pow__(self, e: int):
        out = self
        for _ in range(e - 1):
            out = out * self
        return out


def check_invariant(sys: ConcreteSystem, p: Polynomial) -> Verdict:
    """Decide whether p = 0 holds at every iteration of the system.

    Variables of p that are program variables take the unrolled values;
    any other symbol (a parameter) passes through symbolically.  The
    system is stepped on ints, with denominators cleared once (see the
    module docstring): Y_n = d^n e X_n as ints, or as `_Packed`
    polynomials where a parameter occurs, and one more slot for
    h_n = d^n e, which homogenizes p's terms to its top degree.
    """
    slot = {v: i for i, v in enumerate(sys.vars)}
    h = len(slot)
    split = [(c, [(v, x) for v, x in mono if v not in slot], [(slot[v], x) for v, x in mono if v in slot])
             for mono, c in p.terms.items()]
    degrees = [sum(x for _, x in powers) for _, _, powers in split]
    bound, top = _bound(set(degrees), sys.size), max(degrees, default=0)
    entries = [c for row in sys.rows for _, c in row]
    d, e = math.lcm(*map(_den, entries)), math.lcm(*map(_den, sys.init))
    lcm = _den(p)
    polys = [v for v in (*sys.init, *entries) if isinstance(v, Polynomial)]
    params = {v for q in polys for m in q.terms for v, _ in m} | {v for _, rest, _ in split for v, _ in rest}
    shift, mask = {}, 0
    if params:  # the degree bound D of the module docstring
        a, b = (max([m.degree for v in vals if isinstance(v, Polynomial) for m in v.terms], default=0)
                for vals in (sys.init, entries))
        most = a + (bound - 1) * b
        width = max(b, most, *[sum(x for _, x in rest) + k * most
                               for (_, rest, _), k in zip(split, degrees)]).bit_length()
        shift, mask = {v: width * i for i, v in enumerate(params)}, (1 << width) - 1

    def key(mono) -> int:
        return sum([x << shift[v] for v, x in mono])

    def cleared(v: Value, m: int) -> int | _Packed:  # m v, where m clears v's denominators
        if isinstance(v, Polynomial):
            return _Packed({key(mono): c.numerator * (m // c.denominator) for mono, c in v.terms.items()})
        return v.numerator * (m // v.denominator)

    groups: dict[tuple, int | _Packed] = {}  # L c_t r_t by the powers of Y_n and h_n it multiplies
    for (c, rest, powers), k in zip(split, degrees):
        c = c.numerator * (lcm // c.denominator)
        powers = tuple(powers + [(h, top - k)] if k < top else powers)
        groups[powers] = groups.get(powers, 0) + (_Packed({key(rest): c}) if rest else c)
    rows = [[(j, cleared(c, d)) for j, c in row] for row in sys.rows] + [[(h, d)]]
    state = [cleared(v, e) for v in sys.init] + [e]
    for n in range(bound):
        if n:
            state = [sum([c * state[j] for j, c in row]) for row in rows]
        value = 0
        for powers, c in groups.items():
            for i, k in powers:
                c = c * (state[i] if k == 1 else state[i] ** k)
            value = value + c
        if value:  # divided back out: a constant witness is a Fraction, a parameterized one a Polynomial
            den = lcm * state[h] ** top
            if type(value) is _Packed and value.keys() != {0}:
                return Verdict(False, bound, (n, Polynomial({
                    Monomial.make({v: (k >> s) & mask for v, s in shift.items()}): Fraction(c, den)
                    for k, c in value.items()})))
            return Verdict(False, bound, (n, Fraction(value if type(value) is int else value[0], den)))
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
