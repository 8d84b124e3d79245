"""Symbolic recurrence templates.

A template fixes the system size s, a shape tier for the update matrix B,
an integer partition of s giving symbolic eigenvalue multiplicities, and
the general closed form X_n = sum_ij C_ij w_i^n n^(j-1).  The template
holds only the coefficient columns C_ij; `pcpgen.closed_forms` writes the
exponentials w_i^n and the index n as stand-in symbols.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .matrix import SymMatrix
from .poly import Polynomial, Rat, SymbolTable, Var


def int_partitions(s: int) -> list[tuple[int, ...]]:
    """All integer partitions of s, [s] first, then descending lexicographic."""
    if s < 1:
        raise ValueError("partitions are defined for positive integers")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(s, s, ())
    return out


class ShapeTier(enum.Enum):
    """Search tiers for the update matrix, from most to least constrained."""

    UNIT_UPPER = "un"
    UPPER = "up"
    FULL = "fu"

    @staticmethod
    def parse(text: str) -> "ShapeTier":
        for tier in ShapeTier:
            if tier.value == text.lower():
                return tier
        raise ValueError(f"unknown shape tier {text!r} (expected un, up or fu)")


@dataclass(frozen=True)
class ParamSpec:
    """Symbolic-initial-value declaration.

    Each entry binds a parameter symbol to the program variable whose
    initial value it names.
    """

    bindings: tuple[tuple[Var, int], ...]  # (parameter symbol, variable index)


@dataclass(frozen=True)
class RecurrenceTemplate:
    """The full symbolic search template for one (tier, partition) cell.

    `coeff_columns` maps (root symbol, j) with 1 <= j <= multiplicity to the
    closed-form coefficient column: one polynomial per program variable.  In
    the parameterized case those polynomials are linear forms over the
    parameter symbols (with a constant-one slot); otherwise they are single
    coefficient symbols.  `init_exprs` gives X_0 per variable, built the
    same way.
    """

    vars: tuple[Var, ...]
    tier: ShapeTier
    partition: tuple[int, ...]
    b: SymMatrix
    rootspec: tuple[tuple[Var, int], ...]
    coeff_columns: dict[tuple[Var, int], tuple[Polynomial, ...]]
    init_exprs: tuple[Polynomial, ...]
    a_matrix: SymMatrix  # s x 1 plain, or s x (r+1) parameterized
    params: tuple[Var, ...]

    @property
    def size(self) -> int:
        return len(self.vars)


def build_template(
    vars: Sequence[Var],
    tier: ShapeTier,
    partition: Sequence[int],
    pinned_inits: Mapping[str, Rat] | None = None,
    params: ParamSpec | None = None,
) -> RecurrenceTemplate:
    """Construct the symbolic system for one search cell.

    `vars` fixes the variable order (and thus which entries a triangular
    tier zeroes out).  `pinned_inits` fixes initial values to rationals by
    variable name; everything else stays symbolic.
    """
    s = len(vars)
    if s < 1:
        raise ValueError("need at least one variable")
    partition = tuple(partition)
    if sorted(partition, reverse=True) != list(partition) or sum(partition) != s or min(partition) < 1:
        raise ValueError(f"{partition} is not an integer partition of {s}")
    pinned = dict(pinned_inits or {})
    names = [v.name for v in vars]
    for name in pinned:
        if name not in names:
            raise ValueError(f"pinned initial value for unknown variable {name!r}")
    bindings = params.bindings if params is not None else ()
    for p, idx in bindings:
        if not (0 <= idx < s):
            raise ValueError(f"parameter index {idx} out of range")
        if names[idx] in pinned:
            raise ValueError(f"variable {names[idx]!r} is both pinned and parameterized")

    tab = SymbolTable()
    for v in vars:
        tab.declare(v)
    for p, _ in bindings:
        tab.declare(p)

    # update matrix
    rows = []
    for i in range(s):
        row: list[Polynomial | Rat] = []
        for j in range(s):
            if tier is ShapeTier.FULL:
                row.append(Polynomial.var(tab.fresh(f"b{i + 1}{j + 1}", "matrix")))
            elif j < i:
                row.append(0)
            elif j == i and tier is ShapeTier.UNIT_UPPER:
                row.append(1)
            else:
                row.append(Polynomial.var(tab.fresh(f"b{i + 1}{j + 1}", "matrix")))
        rows.append(row)
    b = SymMatrix.make(rows)

    # symbolic eigenvalues
    rootspec = tuple((tab.fresh(f"w{i + 1}", "root"), m) for i, m in enumerate(partition))

    # initial values: s x (r+1), one column per parameter and a constant
    # one; a plain template is the r = 0 case
    r = len(bindings)
    width = r + 1
    index_of = {idx: col for col, (_, idx) in enumerate(bindings)}
    a_rows: list[list[Polynomial | Rat]] = []
    for i, v in enumerate(vars):
        if i in index_of:
            a_rows.append([1 if k == index_of[i] else 0 for k in range(width)])
        elif v.name in pinned:
            a_rows.append([0] * r + [Fraction(pinned[v.name])])
        else:
            a_rows.append([
                Polynomial.var(tab.fresh(f"a{i + 1}" + (f"{k + 1}" if width > 1 else ""), "initial"))
                for k in range(width)
            ])
    a_matrix = SymMatrix.make(a_rows)
    param_syms = tuple(p for p, _ in bindings)
    basis = tuple(Polynomial.var(p) for p in param_syms) + (Polynomial.const(1),)

    # closed-form coefficient columns C_ij, one per (root, multiplicity slot)
    coeff_columns: dict[tuple[Var, int], tuple[Polynomial, ...]] = {}
    for ridx, (w, m) in enumerate(rootspec):
        for j in range(1, m + 1):
            col = []
            for i in range(s):
                entries = [
                    Polynomial.var(tab.fresh(f"c{ridx + 1}_{j}_{i + 1}" + (f"_{k + 1}" if width > 1 else ""), "coeff"))
                    for k in range(width)
                ]
                col.append(sum((e * bk for e, bk in zip(entries, basis)), Polynomial.zero()))
            coeff_columns[(w, j)] = tuple(col)

    init_exprs = tuple(
        sum((a_matrix.at(i, k) * basis[k] for k in range(width)), Polynomial.zero())
        for i in range(s)
    )

    return RecurrenceTemplate(
        vars=tuple(vars),
        tier=tier,
        partition=partition,
        b=b,
        rootspec=rootspec,
        coeff_columns=coeff_columns,
        init_exprs=init_exprs,
        a_matrix=a_matrix,
        params=param_syms,
    )
