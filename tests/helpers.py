"""Helpers that only the tests use: a matrix-vector product and a monomial
power, which the program never builds; the polynomial builders of the
root, coefficient and initial-value families, the reference that the
program's written clauses are checked against; and specs whose names
push generated symbols out of their usual order."""

import math
from typing import Sequence

from loopsynth.constraints import Clause
from loopsynth.matrix import SymMatrix
from loopsynth.pcpgen import _basis, chi_by_power
from loopsynth.poly import Monomial, Polynomial, Rat
from loopsynth.template import RecurrenceTemplate


def mat_apply(m: SymMatrix, vec: Sequence[Polynomial | Rat]) -> tuple[Polynomial, ...]:
    """Multiply an s x k matrix by a length-k vector of polynomials."""
    if m.cols != len(vec):
        raise ValueError("dimension mismatch")
    vs = [Polynomial.coerce(v) for v in vec]
    return tuple(sum((a * v for a, v in zip(row, vs)), Polynomial.zero()) for row in m.entries)


def monomial_pow(m: Monomial, k: int) -> Monomial:
    """The monomial m to the power k >= 0."""
    if k < 0:
        raise ValueError("negative monomial power")
    return Monomial([(v, e * k) for v, e in m]) if k else Monomial(())


def reference_roots(tpl: RecurrenceTemplate) -> list[Clause]:
    """`gen_roots` from polynomial arithmetic: chi_k - e_k for each power
    k of z where the two differ, with prod_w (z - w)^m multiplied out one
    factor at a time, then the roots pairwise distinct and nonzero."""
    zero, product = Polynomial.zero(), [Polynomial.const(1)]
    for w, m in tpl.rootspec:
        wp = Polynomial.var(w)
        for _ in range(m):
            product = [a - wp * e for a, e in zip([zero, *product], [*product, zero])]
    out = [Clause.unit(d) for d in map(Polynomial.__sub__, chi_by_power(tpl.b), product) if d.terms]
    roots = [w for w, _ in tpl.rootspec]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            out.append(Clause.unit(Polynomial.var(roots[i]) - Polynomial.var(roots[j]), "!="))
    for w in roots:
        out.append(Clause.unit(Polynomial.var(w), "!="))
    return out


def _by_basis(entry: Polynomial, params) -> dict:
    """A coefficient column's entry as the monomial c_q of each q in `_basis`."""
    out = {}
    for m in entry.terms:
        q = next((v for v, _ in m if v in params), None)
        out[q] = m if q is None else m.without(q)
    return out


def reference_coeff(tpl: RecurrenceTemplate) -> list[Clause]:
    """`gen_coeff` as polynomials: each piece of each coefficient equality
    summed into a term map, then made a unit clause."""
    basis = _basis(tpl)
    cols = {slot: [_by_basis(e, tpl.params) for e in col] for slot, col in tpl.coeff_columns.items()}
    out = []
    for w, m in tpl.rootspec:
        wm = Monomial.of(w)
        for j in range(1, m + 1):
            for i, row in enumerate(tpl.b.entries):
                for q in basis:
                    terms = {wm.mul(cols[(w, k)][i][q]): math.comb(k - 1, j - 1) for k in range(j, m + 1)}
                    for entry, col in zip(row, cols[(w, j)]):
                        for bm, bc in entry.terms.items():
                            mono = bm.mul(col[q])
                            terms[mono] = terms.get(mono, 0) - bc
                    out.append(Clause.unit(Polynomial(terms)))
    return out


def reference_init(tpl: RecurrenceTemplate) -> list[Clause]:
    """`gen_init` as polynomials: each piece of sum_w C_(w,1) - X_0 summed
    into a term map, then made a unit clause."""
    basis, column = _basis(tpl), {q: k for k, q in enumerate((*tpl.params, None))}
    firsts = [[_by_basis(e, tpl.params) for e in col] for (_, j), col in tpl.coeff_columns.items() if j == 1]
    out = []
    for i, row in enumerate(tpl.a_matrix.entries):
        for q in basis:
            terms = {col[i][q]: 1 for col in firsts}
            for am, ac in row[column[q]].terms.items():
                terms[am] = terms.get(am, 0) - ac
            out.append(Clause.unit(Polynomial(terms)))
    return out


#: Specs whose variables take template names: the matrix symbol b11
#: becomes `_b11` and the first root `_w1`, both of which sort before
#: a1, so the base symbols do not come as B, then C, then the roots.
COLLIDING_SPECS = {
    "colliding-b11": "vars w1 b11\ninvariant w1 == b11^2\nsize 3\n",
    "colliding-c1_1_1_1": "vars c1_1_1_1 w1 z\ninvariant c1_1_1_1 == w1^2\n",
}
