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
- relation clauses: the closed forms are ordinary polynomials in stand-in
  symbols for each w^n and for n, so substituting them into each invariant
  is one `Polynomial.substitute`; the coefficient of each power of n in
  the result is an exponential sum that must vanish for all n, and its
  values at n = 0, ..., l-1 (l = its number of distinct bases) are
  finitely many polynomial equalities equivalent to that (the proof is in
  `gen_alg`).

For parameterized templates a clause must hold for every value of the
parameters, so it is split into its coefficients over the parameter
monomials, and the problem is parameter-free: `gen_alg` splits each
relation term as it reads it, and `base_clauses` splits each coefficient
and initial-value equality as it makes it a clause, so every piece is
sorted once; the root clauses have no parameters.  The templates of one
`TemplateShape` share det(zI - B) and each product B C_(w,j) through a
`ShapeProducts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .constraints import Clause, Pcp, decompose, parameter_pieces
from .matrix import SymMatrix, char_poly, mat_apply
from .poly import Monomial, Polynomial, Rat, Var
from .template import RecurrenceTemplate


class DegenerateInvariantError(ValueError):
    """The invariant forces a constant contradiction; no loop can satisfy it."""


def closed_forms(tpl: RecurrenceTemplate) -> tuple[list[Polynomial], Var, dict[Var, Var]]:
    """Per-variable closed form X(n) = sum_ij C_ij w_i^n n^(j-1) as an
    ordinary polynomial, with stand-in symbols for each w_i^n and for n.

    Returns the forms, the stand-in for n, and a map from each w^n
    stand-in to its root w.  A stand-in's name holds a ``^``, which no
    parsed or generated name can, so it collides with no other symbol.
    """
    n = Var("n^", "root")
    standin = {w: Var(f"{w.name}^n", "root") for w, _ in tpl.rootspec}
    forms: list[dict[Monomial, Rat]] = [{} for _ in tpl.vars]
    for (w, j), col in tpl.coeff_columns.items():
        factor = Monomial.make({standin[w]: 1, n: j - 1})
        for form, entry in zip(forms, col):
            for m, c in entry.terms.items():
                form[m.mul(factor)] = c
    return [Polynomial(f) for f in forms], n, {s: w for w, s in standin.items()}


class ClosedForms:
    """A template's `closed_forms`, with each power of a form computed once.

    Forms and powers are by position, so templates that differ only in
    `vars` can share them."""

    def __init__(self, tpl: RecurrenceTemplate):
        self.forms, self.n, self.roots = closed_forms(tpl)
        self._powers: dict[tuple[int, int], Polynomial] = {}

    def power(self, i: int, e: int) -> Polynomial:
        """The closed form of position i, to the power e."""
        q = self._powers.get((i, e))
        if q is None:
            q = self._powers[(i, e)] = self.forms[i] ** e
        return q


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


_Z = Var("z^", "root")  # like the stand-ins, a name no other symbol has


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

    Each a_k(j) must vanish for every value of the parameters, so each
    term is classified once, by root base and parameter monomial, as it
    is read, and each a_k(j) is handed to `parameter_pieces` as its
    pieces by parameter monomial: the coefficients `decompose_poly`
    gives, in its order.

    `forms`, when given, must be the template's `ClosedForms`; templates
    that differ only in `vars` can share them.
    """
    forms = ClosedForms(tpl) if forms is None else forms
    n, roots = forms.n, forms.roots
    bindings = dict(zip(tpl.vars, forms.forms))
    slot = {v: i for i, v in enumerate(tpl.vars)}
    param_set = set(tpl.params)
    known = set(tpl.vars) | param_set
    clauses: list[Clause] = []
    for p in invariants:
        unknown = p.variables() - known
        if unknown:
            names = ", ".join(sorted(v.name for v in unknown))
            raise ValueError(f"invariant mentions unknown variable(s): {names}")
        powers = {(v, e): forms.power(slot[v], e) for m in p.terms for v, e in m if v in slot}
        for _, coeff in p.substitute(bindings, powers).coeffs_in(n):
            # {w_i: u_i}, with u_i as {parameter monomial: its (monomial, coefficient) terms}
            split: dict[Monomial, dict[Monomial, list[tuple[Monomial, Rat]]]] = {}
            for m, c in coeff.terms.items():
                base, par, rest = {}, [], []
                for v, e in m:
                    if v in roots:
                        base[roots[v]] = e
                    elif v in param_set:
                        par.append((v, e))
                    else:
                        rest.append((v, e))
                u = split.setdefault(Monomial.make(base), {})
                u.setdefault(Monomial(par), []).append((Monomial(rest), c))
            for j in range(len(split)):
                pieces: dict[Monomial, dict[Monomial, Rat]] = {}
                for w, u in split.items():
                    wj = w.pow(j)
                    for q, terms in u.items():
                        acc = pieces.setdefault(q, {})
                        for m, c in terms:
                            m = m.mul(wj)
                            acc[m] = acc.get(m, 0) + c
                clauses.extend(Clause.unit(r) for r in parameter_pieces(pieces, tpl.params))
    return clauses


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
