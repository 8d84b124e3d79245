"""Symbolic recurrence templates.

A template fixes the system size s, a shape tier for the update matrix B,
an integer partition of s giving symbolic eigenvalue multiplicities, and
the general closed form X_n = sum_ij C_ij w_i^n n^(j-1).  The template
holds only the coefficient columns C_ij; `pcpgen.closed_forms` writes the
exponentials w_i^n and the index n as stand-in symbols.

`build_template` takes plain data -- the variables in order, pins by
name, (parameter, position) pairs -- and names every symbol it makes
itself: by position (b12, w1, a2, c1_1_2) and through `poly.fresh_name`,
so no generated name takes a variable's or a parameter's.  The
initial-value matrix `a_matrix` records each position's pin or parameter,
so within one search two orders with the same tier, partition, pin of
each position and position of each parameter's variable have templates
that differ only in `vars` (`synth._SharedBases`).  The parts that do not
depend on the partition -- B, the initial values and the coefficient
column of each (root, slot) pair -- are a `TemplateShape`, built once
for all the partitions of a shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .matrix import SymMatrix
from .poly import Polynomial, Rat, Var, fresh_name


def int_partitions(s: int) -> list[tuple[int, ...]]:
    """All integer partitions of s, [s] first, then descending lexicographic."""
    if s < 1:
        raise ValueError("partitions are defined for positive integers")
    out, stack = [], [(s, ())]  # (left, prefix): a loop, as a recursive closure would be a cycle
    while stack:
        left, prefix = stack.pop()
        if not left:
            out.append(prefix)
        else:  # the largest next part is pushed last, so it is taken first
            stack.extend((left - k, prefix + (k,)) for k in range(1, min((left, *prefix[-1:])) + 1))
    return out


def binding_error(
    vars: Sequence[str | Var], params: Sequence[tuple[str, str | Var]], pins: Iterable[str]
) -> str | None:
    """The message of the first rule that a problem's names break, or None:
    the one rule for a spec (`parser.parse_spec`), a request built in code
    (`synth._effective_vars`) and a template.  `vars` are names or `Var`s,
    `params` (parameter name, variable) pairs, where a variable not among
    `vars` is unknown even under a declared name, and `pins` the names of
    the pinned variables."""
    names = [getattr(v, "name", v) for v in vars]
    if len(set(names)) != len(names):
        return "vars line needs distinct names"
    bound: dict[str, str] = {}  # parameter name: its variable's name
    for p, v in params:
        vname = getattr(v, "name", v)
        if p in names:
            return f"parameter {p!r} collides with a variable"
        if v not in vars:
            return f"parameter {p!r} refers to unknown variable {vname!r}"
        if p in bound:
            return f"parameter {p!r} is declared twice"
        if vname in bound.values():
            return f"variable {vname!r} is named by two parameters"
        bound[p] = vname
    for pin in pins:
        if pin not in names:
            return f"pinned initial value for unknown variable {pin!r}"
        if pin in bound.values():
            return f"variable {pin!r} is both pinned and parameterized"
    return None


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


class TemplateShape:
    """The parts of a template that do not depend on its partition: the
    variables, the tier, B, the initial-value matrix and X_0, and the
    coefficient column of each (root index, multiplicity slot) pair,
    made at its first use.  Every template of the shape is
    `template(partition)`; the templates of two partitions share B and
    the column of each slot they both have.

    `vars` fixes the variable order (and thus which entries a triangular
    tier zeroes out).  `pinned_inits` fixes initial values to rationals by
    variable name, and each (parameter, index) of `params` makes the
    initial value of ``vars[index]`` that parameter; everything else stays
    symbolic.  Names that break `binding_error`'s rule raise its message.
    """

    def __init__(
        self,
        vars: Sequence[Var],
        tier: ShapeTier,
        pinned_inits: Mapping[str, Rat] | None = None,
        params: Sequence[tuple[Var, int]] = (),
    ):
        s = len(vars)
        if s < 1:
            raise ValueError("need at least one variable")
        pinned = dict(pinned_inits or {})
        for _, idx in params:
            if not (0 <= idx < s):
                raise ValueError(f"parameter index {idx} out of range")
        error = binding_error(vars, [(p.name, vars[idx]) for p, idx in params], pinned)
        if error:
            raise ValueError(error)
        self._taken = {v.name for v in vars} | {p.name for p, _ in params}
        self.vars = tuple(vars)
        self.tier = tier
        self.params = tuple(p for p, _ in params)
        # the parameters and a constant one; a plain template is the r = 0 case
        self._basis = tuple(Polynomial.var(p) for p in self.params) + (Polynomial.const(1),)
        width = len(self._basis)

        # update matrix
        rows = []
        for i in range(s):
            row: list[Polynomial | Rat] = []
            for j in range(s):
                if tier is ShapeTier.FULL:
                    row.append(self._sym(f"b{i + 1}{j + 1}", "matrix"))
                elif j < i:
                    row.append(0)
                elif j == i and tier is ShapeTier.UNIT_UPPER:
                    row.append(1)
                else:
                    row.append(self._sym(f"b{i + 1}{j + 1}", "matrix"))
            rows.append(row)
        self.b = SymMatrix.make(rows)

        # initial values: s x (r+1), one column per basis entry
        index_of = {idx: col for col, (_, idx) in enumerate(params)}
        a_rows: list[list[Polynomial | Rat]] = []
        for i, v in enumerate(vars):
            if i in index_of:
                a_rows.append([1 if k == index_of[i] else 0 for k in range(width)])
            elif v.name in pinned:
                a_rows.append([0] * (width - 1) + [Fraction(pinned[v.name])])
            else:
                a_rows.append([
                    self._sym(f"a{i + 1}" + (f"{k + 1}" if width > 1 else ""), "initial")
                    for k in range(width)
                ])
        self.a_matrix = SymMatrix.make(a_rows)
        self.init_exprs = tuple(
            sum((self.a_matrix.at(i, k) * self._basis[k] for k in range(width)), Polynomial.zero())
            for i in range(s)
        )
        self._roots: dict[int, Var] = {}
        self._columns: dict[tuple[int, int], tuple[Polynomial, ...]] = {}

    def _sym(self, base: str, kind: str) -> Polynomial:
        return Polynomial.var(Var(fresh_name(base, self._taken), kind))

    def root(self, r: int) -> Var:
        """The symbolic eigenvalue of part r (from 0) of a partition."""
        w = self._roots.get(r)
        if w is None:
            w = self._roots[r] = Var(fresh_name(f"w{r + 1}", self._taken), "root")
        return w

    def column(self, r: int, j: int) -> tuple[Polynomial, ...]:
        """The closed-form coefficient column C_(r,j): per variable, a
        linear form over the parameters and one."""
        col = self._columns.get((r, j))
        if col is None:
            width = len(self._basis)
            col = self._columns[(r, j)] = tuple(
                sum((self._sym(f"c{r + 1}_{j}_{i + 1}" + (f"_{k + 1}" if width > 1 else ""), "coeff") * bk
                     for k, bk in enumerate(self._basis)), Polynomial.zero())
                for i in range(len(self.vars))
            )
        return col

    def template(self, partition: Sequence[int]) -> RecurrenceTemplate:
        """The shape's template for one partition of its size."""
        partition = tuple(partition)
        s = len(self.vars)
        if sorted(partition, reverse=True) != list(partition) or sum(partition) != s or min(partition) < 1:
            raise ValueError(f"{partition} is not an integer partition of {s}")
        rootspec = tuple((self.root(r), m) for r, m in enumerate(partition))
        return RecurrenceTemplate(
            vars=self.vars,
            tier=self.tier,
            partition=partition,
            b=self.b,
            rootspec=rootspec,
            coeff_columns={(w, j): self.column(r, j) for r, (w, m) in enumerate(rootspec) for j in range(1, m + 1)},
            init_exprs=self.init_exprs,
            a_matrix=self.a_matrix,
            params=self.params,
        )


def build_template(
    vars: Sequence[Var],
    tier: ShapeTier,
    partition: Sequence[int],
    pinned_inits: Mapping[str, Rat] | None = None,
    params: Sequence[tuple[Var, int]] = (),
    shape: TemplateShape | None = None,
) -> RecurrenceTemplate:
    """Construct the symbolic system for one search cell: the template of
    `partition` in `TemplateShape(vars, tier, pinned_inits, params)`.

    `shape`, when given, must be that shape; a caller that builds the
    templates of many partitions of one shape builds it once.
    """
    if shape is None:
        shape = TemplateShape(vars, tier, pinned_inits, params)
    return shape.template(partition)
