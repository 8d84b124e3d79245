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
relation term as it reads it, and `base_clauses` decomposes the other
families, passing a clause without parameters (every root clause) as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .constraints import Clause, Pcp, decompose
from .matrix import char_poly, mat_apply
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


def gen_roots(tpl: RecurrenceTemplate) -> list[Clause]:
    z = Var("z^", "root")  # like the stand-ins, a name no other symbol has
    chi = char_poly(tpl.b, z)
    product = Polynomial.const(1)
    for w, m in tpl.rootspec:
        product = product * (Polynomial.var(z) - Polynomial.var(w)) ** m
    difference = chi - product
    out = [Clause.unit(coeff) for _, coeff in difference.coeffs_in(z)]
    roots = [w for w, _ in tpl.rootspec]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            out.append(Clause.unit(Polynomial.var(roots[i]) - Polynomial.var(roots[j]), "!="))
    for w in roots:
        out.append(Clause.unit(Polynomial.var(w), "!="))
    return out


def gen_coeff(tpl: RecurrenceTemplate) -> list[Clause]:
    out: list[Clause] = []
    for w, m in tpl.rootspec:
        wpoly = Polynomial.var(w)
        for j in range(1, m + 1):
            shifted = [Polynomial.zero()] * tpl.size
            for k in range(j, m + 1):
                coef = math.comb(k - 1, j - 1)
                col = tpl.coeff_columns[(w, k)]
                shifted = [acc + col[i] * wpoly * coef for i, acc in enumerate(shifted)]
            applied = mat_apply(tpl.b, tpl.coeff_columns[(w, j)])
            for lhs, rhs in zip(shifted, applied):
                out.append(Clause.unit(lhs - rhs))
    return out


def gen_init(tpl: RecurrenceTemplate) -> list[Clause]:
    """The initial-value clauses sum_w C_(w,1) - X_0 = 0: the closed form
    at n = 0.  With the coefficient clauses they imply X(n) = B^n X_0 for
    every n.  Let E_(w,j) = sum_(k>=j) C(k-1, j-1) w C_(w,k) - B C_(w,j),
    the coefficient clauses of (w, j), and G(k) = sum_(w,j) w^k k^(j-1)
    E_(w,j) with 0^0 = 1.  Expanding (k+1)^(j-1) gives X(k+1) - B X(k) =
    G(k), so by induction on n

        X(n) - B^n X_0 = B^n (X(0) - X_0) + sum_(k<n) B^(n-1-k) G(k).
    """
    firsts = [col for (_, j), col in tpl.coeff_columns.items() if j == 1]
    return [
        Clause.unit(sum((col[i] for col in firsts), Polynomial.zero()) - x0)
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
    split by parameter monomial as its terms are read, into the pieces
    `decompose_poly` gives and in its order: ascending on the reversed
    exponent vector, with pieces that cancel dropped, and a single 0
    when every piece cancels.

    `forms`, when given, must be the template's `ClosedForms`; templates
    that differ only in `vars` can share them.
    """
    forms = ClosedForms(tpl) if forms is None else forms
    n, roots = forms.n, forms.roots
    bindings = dict(zip(tpl.vars, forms.forms))
    slot = {v: i for i, v in enumerate(tpl.vars)}
    param_set = set(tpl.params)
    known = set(tpl.vars) | param_set
    last_first = list(reversed(tpl.params))  # decompose_poly's order of significance

    def by_parameter(q: Monomial) -> list[int]:
        return [q.degree_of(v) for v in last_first]

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
                if len(pieces) > 1:
                    pieces = {q: pieces[q] for q in sorted(pieces, key=by_parameter)}
                rows = [r for r in map(Polynomial, pieces.values()) if r.terms]
                clauses.extend(Clause.unit(r) for r in rows or [Polynomial.zero()])
    return clauses


@dataclass
class PcpBundle:
    """Everything the solver layer needs for one search cell."""

    template: RecurrenceTemplate
    pcp: Pcp  # the cell's clauses; synth adds the nontriviality and blocking ones


def base_clauses(tpl: RecurrenceTemplate) -> list[Clause]:
    """The root, coefficient and initial-value (n = 0 only, see `gen_init`)
    families, in that order, decomposed over the parameter symbols of a
    parameterized template.

    They never read the invariants.  Template symbols are named by
    position, so in the triangular tiers these clauses depend only on the
    tier, the partition, and which positions are pinned (to which value)
    or parameterized -- not on the variable order itself.
    """
    base = gen_roots(tpl) + gen_coeff(tpl) + gen_init(tpl)
    if not tpl.params:
        return base
    out = decompose(base, list(tpl.params))
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
