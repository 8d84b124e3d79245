"""Constraint generation: from a recurrence template and invariants to the
polynomial constraint problem whose solutions are exactly the loops
satisfying those invariants.

Four clause families are produced:

- root clauses: the symbolic eigenvalues (with chosen multiplicities) are
  exactly the roots of the characteristic polynomial, all nonzero and
  pairwise distinct;
- coefficient clauses: the closed-form coefficient columns are consistent
  with one application of the update matrix;
- initial-value clauses: the closed form agrees with X_0 at n = 0, which
  with the coefficient clauses implies B^n X_0 at every n (see `gen_init`);
- relation clauses: the closed forms are ordinary polynomials in the
  coefficient symbols, the parameters, each w^n and n, so substituting
  them into an invariant gives p(X(n)); the coefficient of each power of
  n in it is an exponential sum that must vanish for all n, and its
  values at n = 0, ..., l-1 (l = its number of distinct bases) are
  finitely many polynomial equalities equivalent to that (the proof is in
  `gen_alg`).  `gen_alg` computes them in one kernel on integer exponent
  keys, which `ClosedForms` lays out once per search key: a product of
  monomials is a sum of keys, and integer order on keys is term order, so
  each clause is built once, already sorted.

For parameterized templates a clause must hold for every value of the
parameters, so it is split into its coefficients over the parameter
monomials, and the problem is parameter-free: `gen_alg` splits each
relation term by a mask on its key, and `base_clauses` splits each
coefficient and initial-value equality as it makes it a clause, so every
piece is sorted once; the root clauses have no parameters.  The templates
of one `TemplateShape` share det(zI - B) and each product B C_(w,j)
through a `ShapeProducts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Iterable, Sequence

from .constraints import Clause, Pcp, decompose, piece_key
from .matrix import SymMatrix, char_poly, mat_apply
from .poly import Monomial, Polynomial, Rat, Var, ordered_polynomial
from .template import RecurrenceTemplate


class DegenerateInvariantError(ValueError):
    """The invariant forces a constant contradiction; no loop can satisfy it."""


class ClosedForms:
    """A template's closed forms X(n) = sum_ij C_ij w_i^n n^(j-1), one per
    position, packed for `gen_alg`'s kernel, with each power of a packed
    form computed once.

    A monomial in the coefficient symbols, the parameters, the roots, the
    w^n and n is packed into one integer key of fields `width` bits wide:
    n has the lowest field, and each symbol one field above it, the
    earliest symbol by `sort_key` most significant, where w^n counts in
    w's field; the degree in the coefficient symbols sits above every
    field, at `top`.  A product's key is the sum of its factors' keys
    while no exponent outgrows its field, which the width guarantees (see
    `gen_alg`).  Forms and powers are by position, so templates that
    differ only in `vars` can share them.
    """

    def __init__(self, tpl: RecurrenceTemplate):
        self.columns, self.params, self.rootspec = tpl.coeff_columns, tpl.params, tpl.rootspec
        self.coeffs = {v for col in self.columns.values() for entry in col for v in entry.variables()}
        self.coeffs -= set(self.params)
        roots = [w for w, _ in tpl.rootspec]
        self.symbols = sorted({*self.coeffs, *self.params, *roots}, key=lambda v: v.sort_key)
        self.degree = -1  # the largest invariant degree the keys hold; none yet

    def pack(self, degree: int) -> None:
        """Lay the keys out for invariants of degree at most `degree`,
        unless they already are."""
        if degree <= self.degree:
            return
        self.width = width = max(1, _exponent_bound(degree, self.rootspec).bit_length())
        self.top = width * (len(self.symbols) + 1)
        self.by_field = [None, *reversed(self.symbols)]  # field i's symbol; field 0 is n's
        self.shift = shift = {v: width * i for i, v in enumerate(self.by_field) if i}
        self.unit = unit = {v: (1 << shift[v]) + ((1 << self.top) if v in self.coeffs else 0) for v in self.symbols}
        field = (1 << width) - 1
        self.root_mask = sum(field << shift[w] for w, _ in self.rootspec)
        self.par_mask = sum(field << shift[p] for p in self.params)
        self.packed: dict[tuple[int, int], dict[int, Rat]] = {}
        for (w, j), col in self.columns.items():
            factor = unit[w] + j - 1  # w^n n^(j-1)
            for i, entry in enumerate(col):
                form = self.packed.setdefault((i, 1), {})
                for m, c in entry.terms.items():
                    form[sum(e * unit[v] for v, e in m) + factor] = c
        self.degree = degree

    def packed_power(self, i: int, e: int) -> dict[int, Rat]:
        """The packed form of position i to the power e >= 1."""
        q = self.packed.get((i, e))
        if q is None:
            q = self.packed[(i, e)] = _times(self.packed_power(i, e - 1), self.packed[(i, 1)])
        return q

    def unpack(self, key: int) -> Monomial:
        """The monomial of a key with no degree part and no power of n."""
        out, width = [], self.width
        while key:
            i = (key.bit_length() - 1) // width
            e = key >> (i * width)
            key -= e << (i * width)
            out.append((self.by_field[i], e))
        return Monomial(out)


def _exponent_bound(degree: int, rootspec: Sequence[tuple[Var, int]]) -> int:
    """The largest exponent in a key of `gen_alg` for invariants of degree
    at most `degree` (the proof is in `gen_alg`)."""
    r, m = len(rootspec), max(m for _, m in rootspec)
    return degree * max(m - 1, math.comb(r + degree, degree) - 1)


def _times(a: dict[int, Rat], b: dict[int, Rat]) -> dict[int, Rat]:
    """The product of two packed polynomials."""
    out: dict[int, Rat] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return out


class ShapeProducts:
    """The parts of the root and coefficient families that every
    partition of one `TemplateShape` shares: det(zI - B) and the product
    B C_(w,j) of each coefficient column, each computed at its first use.

    Roots and columns are named by position and slot, so one slot's
    column, and its product, is the same in every partition that has it.
    """

    def __init__(self, b: SymMatrix):
        self.b = b
        self._chi: Polynomial | None = None
        self._applied: dict[tuple[Var, int], tuple[Polynomial, ...]] = {}

    def chi(self) -> Polynomial:
        """det(zI - B) in the indeterminate `_Z`."""
        if self._chi is None:
            self._chi = char_poly(self.b, _Z)
        return self._chi

    def applied(self, tpl: RecurrenceTemplate, slot: tuple[Var, int]) -> tuple[Polynomial, ...]:
        """B times the template's coefficient column of `slot`."""
        out = self._applied.get(slot)
        if out is None:
            out = self._applied[slot] = mat_apply(self.b, tpl.coeff_columns[slot])
        return out


_Z = Var("z^", "root")  # no parsed or generated name holds a ``^``


def gen_roots(tpl: RecurrenceTemplate, products: ShapeProducts | None = None) -> list[Clause]:
    chi = (products or ShapeProducts(tpl.b)).chi()
    product = Polynomial.const(1)
    for w, m in tpl.rootspec:
        product = product * (Polynomial.var(_Z) - Polynomial.var(w)) ** m
    difference = chi - product
    out = [Clause.unit(coeff) for _, coeff in difference.coeffs_in(_Z)]
    roots = [w for w, _ in tpl.rootspec]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            out.append(Clause.unit(Polynomial.var(roots[i]) - Polynomial.var(roots[j]), "!="))
    for w in roots:
        out.append(Clause.unit(Polynomial.var(w), "!="))
    return out


def gen_coeff(tpl: RecurrenceTemplate, products: ShapeProducts | None = None) -> list[Polynomial]:
    """The coefficient equalities, as their left-hand sides."""
    products = products or ShapeProducts(tpl.b)
    out: list[Polynomial] = []
    for w, m in tpl.rootspec:
        wpoly = Polynomial.var(w)
        for j in range(1, m + 1):
            shifted = [Polynomial.zero()] * tpl.size
            for k in range(j, m + 1):
                coef = math.comb(k - 1, j - 1)
                col = tpl.coeff_columns[(w, k)]
                shifted = [acc + col[i] * wpoly * coef for i, acc in enumerate(shifted)]
            applied = products.applied(tpl, (w, j))
            out.extend(lhs - rhs for lhs, rhs in zip(shifted, applied))
    return out


def gen_init(tpl: RecurrenceTemplate) -> list[Polynomial]:
    """The initial-value equalities sum_w C_(w,1) - X_0 = 0, as their
    left-hand sides: the closed form at n = 0.  With the coefficient
    equalities they imply X(n) = B^n X_0 for every n.  Let E_(w,j) =
    sum_(k>=j) C(k-1, j-1) w C_(w,k) - B C_(w,j), the coefficient
    equalities of (w, j), and G(k) = sum_(w,j) w^k k^(j-1) E_(w,j) with
    0^0 = 1.  Expanding (k+1)^(j-1) gives X(k+1) - B X(k) = G(k), so by
    induction on n

        X(n) - B^n X_0 = B^n (X(0) - X_0) + sum_(k<n) B^(n-1-k) G(k).
    """
    firsts = [col for (_, j), col in tpl.coeff_columns.items() if j == 1]
    return [
        sum((col[i] for col in firsts), Polynomial.zero()) - x0
        for i, x0 in enumerate(tpl.init_exprs)
    ]


def gen_alg(
    tpl: RecurrenceTemplate,
    invariants: Sequence[Polynomial],
    forms: ClosedForms | None = None,
) -> list[Clause]:
    """The relation clauses, read off p(X(n)) for each invariant p, free of
    the template's parameter symbols.

    Substituting the closed forms gives p(X(n)) = sum_k n^k a_k(n), where
    each a_k(n) = sum_(i<l) w_i^n u_i is an exponential sum over l distinct
    bases w_i, power products of the roots.  The family asks every a_k to
    vanish for all n, and that holds exactly when a_k(0), ..., a_k(l-1)
    vanish: a_k is annihilated by the monic order-l recurrence
    prod_i (E - w_i), where E is the shift n -> n+1, whether or not some
    w_i coincide or are 0.  So the clauses are a_k(j) = sum_i w_i^j u_i = 0
    for j < l, in ascending k, and every model of a cell's problem is a
    loop that keeps p.

    Each a_k(j) must vanish for every value of the parameters, so it is
    stated as its pieces by parameter monomial, in `piece_key`'s order:
    pieces that cancel dropped, and one 0 if all do.

    The kernel works on `ClosedForms`' packed keys.  p(X(n)) is summed
    from products of packed form powers, and masks split each of its keys
    into the power of n, the base (the w^n, in their roots' fields), the
    parameter monomial and the rest.  The key of a term of a_k(j) is
    then rest + j * base, with the base's degree added above the fields:
    distinct terms of one sample have distinct keys except at j = 0,
    where w^0 = 1 and equal rests merge.  With the earliest symbol most
    significant and the degree above every field, integer order on keys
    is the order of `MONO_KEY` (degree, then the exponent vector in
    `sort_key` order), so each sample is sorted once, by its keys.

    The fields never carry.  Let d be the invariants' largest degree, r
    the number of roots and m the largest multiplicity.  In a term of
    p(X(n)) each of at most d factors X_i contributes one coefficient
    symbol (one parameter at most, in a parameterized template), one w^n
    and n^(j-1) with j <= m, so a coefficient symbol, parameter or w^n
    has exponent at most d, and n at most d (m - 1).  The bases of one
    a_k are distinct monomials of degree at most d in r roots, so
    l <= C(r+d, d), and a root's exponent in w^j is at most d (l - 1).
    Every exponent is thus at most d max(m - 1, C(r+d, d) - 1)
    (`_exponent_bound`), which `ClosedForms.pack` gives its fields room
    for; a sample's roots are checked against their fields all the same,
    so a key that would carry raises `OverflowError`.

    `forms`, when given, must be the template's `ClosedForms`; templates
    that differ only in `vars` can share them.
    """
    forms = ClosedForms(tpl) if forms is None else forms
    known = set(tpl.vars) | set(tpl.params)
    for p in invariants:
        unknown = p.variables() - known
        if unknown:
            names = ", ".join(sorted(v.name for v in unknown))
            raise ValueError(f"invariant mentions unknown variable(s): {names}")
    forms.pack(max((m.degree for p in invariants for m in p.terms), default=0))
    slot = {v: i for i, v in enumerate(tpl.vars)}
    unit, field, fields = forms.unit, (1 << forms.width) - 1, (1 << forms.top) - 1
    piece_mask, root_mask = field | forms.par_mask, forms.root_mask  # n's field and the parameters
    rest_mask = ~(piece_mask | root_mask)
    shift = forms.shift
    by_parameters = piece_key(tpl.params, lambda k, v: (k >> shift[v]) & field)
    clauses: list[Clause] = []
    for p in invariants:
        acc: dict[int, Rat] = {}  # p(X(n)), packed
        for m, c in p.terms.items():
            product = {sum(e * unit[v] for v, e in m if v not in slot): c}
            for v, e in m:
                if v in slot:
                    product = _times(product, forms.packed_power(slot[v], e))
            for k, c in product.items():
                acc[k] = acc.get(k, 0) + c
        # {power of n and parameter key: [(rest key, rest, base key, coefficient)]}
        pieces: dict[int, list[tuple[int, Monomial, int, Rat]]] = {}
        rests: dict[int, Monomial] = {}
        for key, c in acc.items():
            if not c:
                continue
            rest = key & rest_mask
            mono = rests.get(rest)
            if mono is None:
                mono = rests[rest] = forms.unpack(rest & fields)
            piece = pieces.get(key & piece_mask)
            if piece is None:
                piece = pieces[key & piece_mask] = []
            piece.append((rest, mono, key & root_mask, c))
        by_power: dict[int, list[tuple]] = {}
        for k in sorted(pieces, key=by_parameters):
            by_power.setdefault(k & field, []).append(tuple(zip(*pieces[k])))
        for npow in sorted(by_power):
            group = by_power[npow]
            bases = {base: forms.unpack(base) for piece in group for base in piece[2]}
            if (len(bases) - 1) * max((e for w in bases.values() for _, e in w), default=0) > field:
                raise OverflowError("a root's exponent outgrows its packed field")
            lifted = {base: base + (w.degree << forms.top) for base, w in bases.items()}  # with its degree
            for j in range(len(bases)):
                if j:
                    shifts = {base: j * key for base, key in lifted.items()}
                    powers = {base: Monomial([(v, e * j) for v, e in w]) for base, w in bases.items()}
                    samples = [_sample(piece, shifts, powers) for piece in group]
                else:
                    samples = [_merged(piece, rests) for piece in group]
                row = [Clause.unit(q) for q in samples if q.terms]
                clauses.extend(row or [Clause.unit(Polynomial.zero())])
    return clauses


def _sample(piece: tuple[tuple, tuple, tuple, tuple], shifts: dict[int, int],
            powers: dict[int, Monomial]) -> Polynomial:
    """A piece of a_k(j), j > 0, from its terms (rest key, rest, base key,
    coefficient) and the key and monomial of each base to the power j.
    Its keys are distinct."""
    rests, monos, bases, coeffs = piece
    keys = list(map(add, rests, map(shifts.__getitem__, bases)))
    order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    return ordered_polynomial([monos[i].mul(powers[bases[i]]) for i in order], [coeffs[i] for i in order])


def _merged(piece: tuple[tuple, tuple, tuple, tuple], rests: dict[int, Monomial]) -> Polynomial:
    """A piece of a_k(0): with w^0 = 1 the terms of equal rest merge, and
    those that cancel drop."""
    merged: dict[int, Rat] = {}
    for rest, c in zip(piece[0], piece[3]):
        merged[rest] = merged.get(rest, 0) + c
    keys = [k for k in sorted(merged, reverse=True) if merged[k]]
    return ordered_polynomial([rests[k] for k in keys], [merged[k] for k in keys])


@dataclass
class PcpBundle:
    """Everything the solver layer needs for one search cell."""

    template: RecurrenceTemplate
    pcp: Pcp  # the cell's clauses; synth adds the nontriviality and blocking ones


def base_clauses(tpl: RecurrenceTemplate, products: ShapeProducts | None = None) -> list[Clause]:
    """The root, coefficient and initial-value (n = 0 only, see `gen_init`)
    families, in that order, free of the parameter symbols of a
    parameterized template: the coefficient and initial-value equalities
    are split over the parameter monomials as they are made into clauses,
    and every root clause is parameter-free.

    They never read the invariants.  Template symbols are named by
    position, so in the triangular tiers these clauses depend only on the
    tier, the partition, and which positions are pinned (to which value)
    or parameterized -- not on the variable order itself.  `products`,
    when given, must be the `ShapeProducts` of the template's B; the
    templates of one shape can share it.
    """
    products = products or ShapeProducts(tpl.b)
    roots = gen_roots(tpl, products)
    equalities = gen_coeff(tpl, products) + gen_init(tpl)
    if not tpl.params:
        return roots + [Clause.unit(p) for p in equalities]
    out = roots + decompose(equalities, tpl.params)
    for c in out:
        leftover = c.variables() & set(tpl.params)
        if leftover:
            raise AssertionError(f"parameter symbols survived decomposition: {leftover}")
    return out


def build_pcp(
    tpl: RecurrenceTemplate,
    invariants: Sequence[Polynomial],
    base: Pcp | None = None,
    forms: ClosedForms | None = None,
) -> PcpBundle:
    """Union of the four clause families, in a fixed deterministic order:
    `base_clauses`, then `gen_alg`'s relation clauses, both parameter-free.

    `base`, when given, must be the clause set of `base_clauses(tpl)`, and
    `forms` the template's `ClosedForms`; a caller that builds many
    templates sharing them computes them once, and `base` is copied, not
    changed.
    """
    pcp = Pcp(base_clauses(tpl)) if base is None else base.copy()
    alg = gen_alg(tpl, invariants, forms)
    _reject_degenerate(alg)
    for c in alg:
        pcp.add(c)
    return PcpBundle(template=tpl, pcp=pcp)


def _reject_degenerate(clauses: Iterable[Clause]) -> None:
    for c in clauses:
        if c.is_unit_equality:
            lhs = c.atoms[0].lhs
            if lhs.is_constant() and not lhs.is_zero():
                raise DegenerateInvariantError(
                    f"invariant reduces to the contradiction {lhs} = 0; no loop can satisfy it"
                )
