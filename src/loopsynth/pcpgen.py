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

For parameterized templates all clauses are decomposed over the parameter
symbols so the resulting problem is parameter-free.
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


def gen_alg(tpl: RecurrenceTemplate, invariants: Sequence[Polynomial]) -> list[Clause]:
    """The relation clauses, read off p(X(n)) for each invariant p.

    Substituting the closed forms gives p(X(n)) = sum_k n^k a_k(n), where
    each a_k(n) = sum_(i<l) w_i^n u_i is an exponential sum over l distinct
    bases w_i, power products of the roots.  The family asks every a_k to
    vanish for all n, and that holds exactly when a_k(0), ..., a_k(l-1)
    vanish: a_k is annihilated by the monic order-l recurrence
    prod_i (E - w_i), where E is the shift n -> n+1, whether or not some
    w_i coincide or are 0.  So the clauses are a_k(j) = sum_i w_i^j u_i = 0
    for j < l, in ascending k, and every model of a cell's problem is a
    loop that keeps p.
    """
    forms, n, roots = closed_forms(tpl)
    known = set(tpl.vars) | set(tpl.params)
    clauses: list[Clause] = []
    for p in invariants:
        unknown = p.variables() - known
        if unknown:
            names = ", ".join(sorted(v.name for v in unknown))
            raise ValueError(f"invariant mentions unknown variable(s): {names}")
        for _, coeff in p.substitute(dict(zip(tpl.vars, forms))).coeffs_in(n):
            # {w_i: u_i}, with u_i as its (monomial, coefficient) terms
            split: dict[Monomial, list[tuple[Monomial, Rat]]] = {}
            for m, c in coeff.terms.items():
                base, rest = {}, []
                for v, e in m:
                    if v in roots:
                        base[roots[v]] = e
                    else:
                        rest.append((v, e))
                split.setdefault(Monomial.make(base), []).append((Monomial(tuple(rest)), c))
            for j in range(len(split)):
                acc: dict[Monomial, Rat] = {}
                for w, u in split.items():
                    wj = w.pow(j)
                    for m, c in u:
                        m = m.mul(wj)
                        acc[m] = acc.get(m, 0) + c
                clauses.append(Clause.unit(Polynomial(acc)))
    return clauses


@dataclass
class PcpBundle:
    """Everything the solver layer needs for one search cell."""

    template: RecurrenceTemplate
    pcp: Pcp  # the cell's whole constraint problem


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
    return _parameter_free(tpl, base)


def build_pcp(
    tpl: RecurrenceTemplate,
    invariants: Sequence[Polynomial],
    base: Sequence[Clause] | None = None,
) -> PcpBundle:
    """Union of the four clause families, in a fixed deterministic order.

    For parameterized templates every clause is decomposed over the
    parameter symbols; the result is guaranteed parameter-free.  `base`,
    when given, must equal `base_clauses(tpl)`; it lets a caller that
    builds many templates sharing those families compute them once.
    """
    base = base_clauses(tpl) if base is None else list(base)
    alg = _parameter_free(tpl, gen_alg(tpl, invariants))
    _reject_degenerate(alg)
    return PcpBundle(template=tpl, pcp=Pcp(base + alg))


def _parameter_free(tpl: RecurrenceTemplate, clauses: list[Clause]) -> list[Clause]:
    if not tpl.params:
        return clauses
    params = list(tpl.params)
    out = decompose(clauses, params)
    for c in out:
        leftover = c.variables() & set(params)
        if leftover:
            raise AssertionError(f"parameter symbols survived decomposition: {leftover}")
    return out


def _reject_degenerate(clauses: Iterable[Clause]) -> None:
    for c in clauses:
        if c.is_unit_equality:
            lhs = c.atoms[0].lhs
            if lhs.is_constant() and not lhs.is_zero():
                raise DegenerateInvariantError(
                    f"invariant reduces to the contradiction {lhs} = 0; no loop can satisfy it"
                )
