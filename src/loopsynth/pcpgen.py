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

All four families are written as SMT-LIB text.  Each equality's terms
are sorted once, on integer keys whose order is `MONO_KEY`'s: the
relation clauses' packed keys, and for the other three families keys
with one field per symbol of the search key (`base_units`), whose list
is read off the template (`base_variables`).  Its sign is fixed by the
leading term, as `Clause.unit` fixes it, and its polynomial is made only
when its atoms are first read (by the built-in backend, the exact
re-check of a `sat` model, or `str`), so a cell sent to an external
solver that does not answer `sat` never makes one.  Only the root
family's disequations are made from their polynomials.

For parameterized templates a clause must hold for every value of the
parameters, so it is stated as its coefficients over the parameter
monomials, and the problem is parameter-free.  Nothing is split after it
is built: `gen_alg` splits each relation term by a mask on its key, and
`gen_coeff` and `gen_init` build each of their pieces from the symbols
of the coefficient columns, whose entries are linear forms over the
parameters and one; the root clauses have no parameters.  The templates
of one `TemplateShape` share det(zI - B), split by power of z
(`chi_by_power`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import add
from typing import Sequence

from .constraints import (  # decompose: only for the benchmark's trace hook
    Clause, Pcp, decompose, piece_key, smt_equation, smt_head, smt_tail, smt_term,
)
from .matrix import SymMatrix, char_poly
from .poly import Monomial, Polynomial, Rat, Var, ordered_polynomial, packed_times
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
        # whether `gen_alg` may write a term as its rest's text and then its
        # base's: every coefficient symbol comes before every root, and
        # every term of a form has a coefficient symbol
        self.rest_first = (all(v.sort_key < w.sort_key for v in self.coeffs for w in roots)
                      and all(any(v in self.coeffs for v, _ in m)
                              for col in self.columns.values() for entry in col for m in entry.terms))
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
            q = self.packed[(i, e)] = packed_times(self.packed_power(i, e - 1), self.packed[(i, 1)])
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


def chi_by_power(b: SymMatrix) -> list[Polynomial]:
    """The coefficient of each power of z in det(zI - B), lowest first:
    the part of the root family that every partition of one
    `TemplateShape` shares."""
    split = dict(char_poly(b, _Z).coeffs_in(_Z))
    return [split.get(k, Polynomial.zero()) for k in range(b.rows + 1)]


_Z = Var("z^", "root")  # no parsed or generated name holds a ``^``
_ONE = Monomial(())


def gen_roots(tpl: RecurrenceTemplate, chi: list[Polynomial] | None = None,
              unit: dict[Var, int] | None = None) -> list[Clause]:
    """det(zI - B) = prod_w (z - w)^m by power of z, ascending; then the
    roots pairwise distinct and nonzero.  The product's coefficients e_k
    are built one factor at a time: times z - w, e'_k = e_(k-1) - w e_k.
    Both sides are monic, so z^s, s the size, is left out, and each lower
    power k gives a clause with every term of both sides: chi_k is over
    the symbols of B and e_k over the roots, with degree s - k > 0.
    `chi`, when given, must be `chi_by_power(tpl.b)`, and `unit`
    `base_units(tpl)`."""
    chi = chi_by_power(tpl.b) if chi is None else chi
    unit = base_units(tpl) if unit is None else unit
    product: list[dict[Monomial, Rat]] = [{_ONE: 1}]
    for w, m in tpl.rootspec:
        wm = Monomial.of(w)
        for _ in range(m):
            step = [{}, *map(dict, product)]  # times z
            for acc, e in zip(step, product):
                for mono, c in e.items():
                    t = mono.mul(wm)
                    acc[t] = acc.get(t, 0) - c
            product = step
    out = []
    for p, e in zip(chi, product[:-1]):
        terms = [(_key(m, unit), c, m) for m, c in p.terms.items()]
        terms += [(_key(m, unit), -c, m) for m, c in e.items()]
        out.append(_written(terms))
    roots = [w for w, _ in tpl.rootspec]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            out.append(Clause.unit(Polynomial.var(roots[i]) - Polynomial.var(roots[j]), "!="))
    for w in roots:
        out.append(Clause.unit(Polynomial.var(w), "!="))
    return out


def _basis(tpl: RecurrenceTemplate) -> list[Var | None]:
    """The monomials q of the template's linear forms, each parameter and
    None for 1, in `piece_key`'s order."""
    return sorted((*tpl.params, None), key=piece_key(tpl.params, lambda q, v: int(q is v)))


def _by_basis(entry: Polynomial, params: Sequence[Var],
              unit: dict[Var, int]) -> dict[Var | None, tuple[Monomial, int]]:
    """A coefficient column's entry, sum_q c_q q (`TemplateShape.column`),
    as the monomial c_q of each q in `_basis`, with its key."""
    out = {}
    for m in entry.terms:
        q = next((v for v, _ in m if v in params), None)
        c = m if q is None else m.without(q)
        out[q] = (c, _key(c, unit))
    return out


def gen_coeff(tpl: RecurrenceTemplate, unit: dict[Var, int] | None = None) -> list[Clause]:
    """The coefficient equalities sum_(k>=j) C(k-1, j-1) w C_(w,k) -
    B C_(w,j) = 0, for each slot (w, j) and row i, as one clause per
    piece: their coefficients over the parameter monomials q (`_basis`),

        sum_(k>=j) C(k-1, j-1) w c_(w,k,i,q) - sum_l B_il c_(w,j,l,q),

    where c_(w,k,i,q) is the symbol of q in row i of C_(w,k).  Each B_il
    is a symbol, 1 or 0, so no two terms share a monomial and none
    cancels.  `unit`, when given, must be `base_units(tpl)`."""
    unit = base_units(tpl) if unit is None else unit
    basis = _basis(tpl)
    cols = {slot: [_by_basis(e, tpl.params, unit) for e in col] for slot, col in tpl.coeff_columns.items()}
    rows = [[(l, bm, -bc, _key(bm, unit)) for l, entry in enumerate(row) for bm, bc in entry.terms.items()]
            for row in tpl.b.entries]
    out: list[Clause] = []
    for w, m in tpl.rootspec:
        wm, wk = Monomial.of(w), unit[w]
        for j in range(1, m + 1):
            for i, row in enumerate(rows):
                for q in basis:
                    terms = []
                    for k in range(j, m + 1):
                        c, ck = cols[(w, k)][i][q]
                        terms.append((wk + ck, math.comb(k - 1, j - 1), wm.mul(c)))
                    for l, bm, bc, bk in row:
                        c, ck = cols[(w, j)][l][q]
                        terms.append((bk + ck, bc, bm.mul(c)))
                    out.append(_written(terms))
    return out


def gen_init(tpl: RecurrenceTemplate, unit: dict[Var, int] | None = None) -> list[Clause]:
    """The initial-value equalities sum_w C_(w,1) - X_0 = 0: the closed
    form at n = 0.  With the coefficient equalities they imply X(n) = B^n
    X_0 for every n.  Let E_(w,j) = sum_(k>=j) C(k-1, j-1) w C_(w,k) -
    B C_(w,j), the coefficient equalities of (w, j), and G(k) =
    sum_(w,j) w^k k^(j-1) E_(w,j) with 0^0 = 1.  Expanding (k+1)^(j-1)
    gives X(k+1) - B X(k) = G(k), so by induction on n

        X(n) - B^n X_0 = B^n (X(0) - X_0) + sum_(k<n) B^(n-1-k) G(k).

    One clause per piece: the pieces are the equalities' coefficients
    over the parameter monomials q (`_basis`), sum_w c_(w,1,i,q) - A_iq
    for each row i.  Each A_iq is a symbol or a constant, so no term
    cancels.  `unit`, when given, must be `base_units(tpl)`."""
    unit = base_units(tpl) if unit is None else unit
    basis, column = _basis(tpl), {q: k for k, q in enumerate((*tpl.params, None))}  # a_matrix column of q
    firsts = [[_by_basis(e, tpl.params, unit) for e in col] for (_, j), col in tpl.coeff_columns.items() if j == 1]
    out: list[Clause] = []
    for i, row in enumerate(tpl.a_matrix.entries):
        for q in basis:
            terms = [(ck, 1, c) for c, ck in (col[i][q] for col in firsts)]
            terms += [(_key(am, unit), -ac, am) for am, ac in row[column[q]].terms.items()]
            out.append(_written(terms))
    return out


def _key(m: Monomial, unit: dict[Var, int]) -> int:
    """The packed key of a monomial of a base clause (`base_units`)."""
    return sum([e * unit[v] for v, e in m])


def _written(terms: list[tuple[int, Rat, Monomial]]) -> Clause:
    """The unit equality of `terms`, (key, coefficient, monomial) triples
    with distinct keys and nonzero coefficients, in any order: one sort on
    the keys puts them in `MONO_KEY` order (`base_units`)."""
    terms.sort(reverse=True)
    return _ordered([m for _, _, m in terms], [c for _, c, _ in terms])


def _ordered(monos: list[Monomial], coeffs: list[Rat]) -> Clause:
    """The unit equality sum_i coeffs[i] monos[i] = 0, for distinct
    `monos` in descending `MONO_KEY` order and nonzero `coeffs`, made as
    its text (`Clause.written`), with the sign fixed as `Clause.unit`
    fixes it, by the leading term; its polynomial is made on the first
    read of its atoms."""
    if coeffs and coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    return Clause.written(smt_equation(list(map(smt_term, coeffs, monos))),
                          partial(ordered_polynomial, monos, coeffs))


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

    Each sample is made as its SMT-LIB text (`Clause.written`), and its
    polynomial only when its atoms are first read.  The text of a term of
    a_k(j), j > 0, is its head, the text of its coefficient and rest
    (`smt_head`), written once per term and sign, joined to its tail, that
    of its base to the power j (`smt_tail`), written once per base and j;
    the sign is fixed as `Clause.unit` fixes it, by the leading term.
    Head then tail is the term's factor order when every coefficient
    symbol comes before every root and every term of a form has a
    coefficient symbol (`ClosedForms.rest_first`); where not, as when
    `vars w1 ...` names the first root `_w1`, a sample is written from
    its monomials.  A piece of some a_k(0) that is a lone nonzero constant is
    a contradiction, and raises `DegenerateInvariantError`; it comes
    before any later sample of the same piece that is one.

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
                    product = packed_times(product, forms.packed_power(slot[v], e))
            for k, c in product.items():
                acc[k] = acc.get(k, 0) + c
        # {power of n and parameter key: [(rest key, base key, coefficient)]}
        pieces: dict[int, list[tuple[int, int, Rat]]] = {}
        rests: dict[int, Monomial] = {}
        for key, c in acc.items():
            if not c:
                continue
            rest = key & rest_mask
            if rest not in rests:
                rests[rest] = forms.unpack(rest & fields)
            piece = pieces.get(key & piece_mask)
            if piece is None:
                piece = pieces[key & piece_mask] = []
            piece.append((rest, key & root_mask, c))
        by_power: dict[int, list[_Piece]] = {}
        for k in sorted(pieces, key=by_parameters):
            by_power.setdefault(k & field, []).append(_Piece(pieces[k], rests))
        for npow in sorted(by_power):
            group = by_power[npow]
            bases = {base: forms.unpack(base) for base in dict.fromkeys(b for piece in group for b in piece.bases)}
            if (len(bases) - 1) * max((e for w in bases.values() for _, e in w), default=0) > field:
                raise OverflowError("a root's exponent outgrows its packed field")
            lifted = {base: base + (w.degree << forms.top) for base, w in bases.items()}  # with its degree
            row = [piece.merged() for piece in group]
            clauses.extend([c for c in row if c is not None] or [Clause.unit(Polynomial.zero())])
            for j in range(1, len(bases)):
                tails = {base: smt_tail(w, j) if w else "" for base, w in bases.items()}
                clauses.extend([piece.sample(j, lifted, bases, tails if forms.rest_first else None)
                                for piece in group])
    return clauses


class _Piece:
    """The terms of one piece of some a_k, as columns: rest key, base key
    and coefficient, with each rest's monomial in `monos`.  It writes the
    text of a_k(j)'s piece, j > 0, as a head per term and a tail per base:
    a term's head is the text of its coefficient and rest (`smt_head`), or
    its whole text when its base is 1, and its tail that of its base to
    the power j (`smt_tail`), or nothing for the base 1."""

    __slots__ = ("rests", "bases", "coeffs", "monos", "heads")

    def __init__(self, terms: list[tuple[int, int, Rat]], rests: dict[int, Monomial]):
        self.rests, self.bases, self.coeffs = map(list, zip(*terms))
        self.monos = rests
        self.heads: dict[bool, list[str]] = {}  # by whether the sample is negated

    def merged(self) -> Clause | None:
        """The piece of a_k(0), where w^0 = 1, so terms of equal rest
        merge and those that cancel drop; None when all cancel.  A lone
        nonzero constant is a contradiction."""
        merged: dict[int, Rat] = {}
        for rest, c in zip(self.rests, self.coeffs):
            merged[rest] = merged.get(rest, 0) + c
        keys = [k for k in sorted(merged, reverse=True) if merged[k]]
        if not keys:
            return None
        monos = [self.monos[k] for k in keys]
        if not monos[0]:  # 1 comes last, so here it is alone
            raise DegenerateInvariantError(
                f"invariant reduces to the contradiction {abs(merged[keys[0]])} = 0; no loop can satisfy it")
        return _ordered(monos, [merged[k] for k in keys])

    def sample(self, j: int, lifted: dict[int, int], bases: dict[int, Monomial],
               tails: dict[int, str] | None) -> Clause:
        """The piece of a_k(j), j > 0, from each base's key with its degree
        (`lifted`), monomial and tail.  Its keys are distinct, so it has
        every term.  Written from its monomials when there are no tails,
        as for forms that are not `rest_first`."""
        if tails is None:
            return _ordered(*self.terms(j, lifted, bases))
        order = self._order(j, lifted)
        negate = self.coeffs[order[0]] < 0
        heads = self.heads.get(negate)
        if heads is None:
            sign = -1 if negate else 1
            heads = self.heads[negate] = [
                smt_head(sign * c, self.monos[r]) if b else smt_term(sign * c, self.monos[r])
                for r, b, c in zip(self.rests, self.bases, self.coeffs)
            ]
        ends = map(tails.__getitem__, map(self.bases.__getitem__, order))
        texts = list(map(add, map(heads.__getitem__, order), ends))
        return Clause.written(smt_equation(texts), partial(self.lhs, j, lifted, bases, negate))

    def _order(self, j: int, lifted: dict[int, int]) -> list[int]:
        """The terms of a_k(j)'s piece in descending order: by key, rest +
        j times the lifted base."""
        keys = list(map(add, self.rests, map(j.__mul__, map(lifted.__getitem__, self.bases))))
        return sorted(range(len(keys)), key=keys.__getitem__, reverse=True)

    def terms(self, j: int, lifted: dict[int, int], bases: dict[int, Monomial]) -> tuple[list[Monomial], list[Rat]]:
        """The monomials and coefficients of a_k(j)'s piece, j > 0, in
        descending order."""
        order, powers = self._order(j, lifted), {}
        for b in self.bases:
            if b not in powers:
                powers[b] = Monomial([(v, e * j) for v, e in bases[b]])
        return ([self.monos[self.rests[i]].mul(powers[self.bases[i]]) for i in order],
                [self.coeffs[i] for i in order])

    def lhs(self, j: int, lifted: dict[int, int], bases: dict[int, Monomial], negate: bool) -> Polynomial:
        """The polynomial of a_k(j)'s piece, j > 0, negated or not."""
        monos, coeffs = self.terms(j, lifted, bases)
        return ordered_polynomial(monos, [-c for c in coeffs] if negate else coeffs)


@dataclass
class PcpBundle:
    """Everything the solver layer needs for one search cell."""

    template: RecurrenceTemplate
    pcp: Pcp  # the cell's clauses; synth adds the nontriviality and blocking ones
    variables: list[Var]  # `base_variables(template)`, and so `pcp`'s (see `synth._SharedBases`)


def base_clauses(tpl: RecurrenceTemplate, chi: list[Polynomial] | None = None,
                 variables: list[Var] | None = None) -> list[Clause]:
    """The root, coefficient and initial-value (n = 0 only, see `gen_init`)
    families, in that order, each clause free of the parameter symbols of
    a parameterized template: a coefficient or initial-value clause is
    one piece of an equality (`gen_coeff`, `gen_init`), and the root
    clauses have no parameters.  Each equality is made as its text, its
    terms sorted on keys laid out over the clauses' symbols, which are
    read off the template (`base_variables`, `base_units`).

    They never read the invariants.  Template symbols are named by
    position, so in the triangular tiers these clauses depend only on the
    tier, the partition, and which positions are pinned (to which value)
    or parameterized -- not on the variable order itself.  `chi`, when
    given, must be `chi_by_power(tpl.b)`, and `variables`
    `base_variables(tpl)`; the templates of one shape can share `chi`.
    """
    unit = base_units(tpl, variables)
    return gen_roots(tpl, chi, unit) + gen_coeff(tpl, unit) + gen_init(tpl, unit)


def base_variables(tpl: RecurrenceTemplate) -> list[Var]:
    """The symbols of `base_clauses(tpl)`, sorted by `sort_key`, read off
    the template: those of B, of the initial values and of the coefficient
    columns, parameters left out, and the roots.

    That is `variables_of(base_clauses(tpl))`, and no atom is read to
    find it.  Each of these symbols has a term in some base clause, and
    no term of a base clause cancels (`gen_coeff`, `gen_init`): b_il has
    b_il c_(w,1,l,q) in the coefficient clause of (w, 1, i, q), for any
    root w and parameter monomial q; w and c_(w,k,i,q) have w c_(w,k,i,q)
    in that of (w, k, i, q); a_iq has a_iq in the initial-value clause of
    (i, q).  And no base clause has another symbol: the root clauses are
    over B and the roots, the coefficient clauses over B, the roots and
    the coefficient symbols, and the initial-value clauses over the
    coefficient symbols and A, with the parameters split out."""
    symbols = tpl.b.variables() | tpl.a_matrix.variables() | {w for w, _ in tpl.rootspec}
    symbols.update(v for col in tpl.coeff_columns.values() for entry in col for v in entry.variables())
    return sorted(symbols - set(tpl.params), key=lambda v: v.sort_key)


def base_units(tpl: RecurrenceTemplate, variables: list[Var] | None = None) -> dict[Var, int]:
    """The packed key of each symbol of `base_clauses(tpl)`, on which the
    families sort their terms: one field per symbol of `variables`, which
    when given must be `base_variables(tpl)`, the earliest most
    significant, each wide enough for the size s, and the degree above
    every field.  A monomial's key is the sum of its symbols' keys times
    their exponents.  No exponent in a base clause passes s: a root's is
    at most its multiplicity, det(zI - B) is a sum of products of
    distinct entries of B, and every other term has each symbol once.  So
    no field carries, and, as in `gen_alg`, integer order on keys is the
    order of `MONO_KEY`."""
    variables = base_variables(tpl) if variables is None else variables
    width = tpl.size.bit_length()
    top = width * len(variables)
    return {v: (1 << top) + (1 << (top - width * (i + 1))) for i, v in enumerate(variables)}


def build_pcp(
    tpl: RecurrenceTemplate,
    invariants: Sequence[Polynomial],
    base: Pcp | None = None,
    forms: ClosedForms | None = None,
    variables: list[Var] | None = None,
) -> PcpBundle:
    """Union of the four clause families, in a fixed deterministic order:
    `base_clauses`, then `gen_alg`'s relation clauses, both parameter-free.
    The bundle's symbols are read off the template (`base_variables`).

    `base`, when given, must be the clause set of `base_clauses(tpl)`, and
    `forms` the template's `ClosedForms` and `variables`
    `base_variables(tpl)`; a caller that builds many templates sharing
    them computes them once, and `base` is copied, not changed.
    """
    variables = base_variables(tpl) if variables is None else variables
    base = Pcp(base_clauses(tpl, None, variables)) if base is None else base
    pcp = base.copy()
    for c in gen_alg(tpl, invariants, forms):
        pcp.add(c)
    return PcpBundle(tpl, pcp, variables)
