"""Loop synthesis: search over matrix shapes, eigenvalue multiplicity
partitions and variable orders; solve each cell's constraint problem; and
turn solver models into concrete, exactly verified loops.

Search order is cheapest-first: the unit-upper-triangular tier (diagonal
fixed to one, strictly-lower part zero) before general upper-triangular
before full matrices; within a tier the identity variable order first; and
within one order every multiplicity partition, largest part first.  Every
emitted loop is re-verified by exact unrolling before it leaves this
module, so a wrong solver answer can never surface as output.

The unit-upper-triangular tier searches only the partition (s): its
characteristic polynomial is always (z-1)^s, so a partition with two or
more parts would ask for distinct roots that cannot exist.  Within one
search, the triangular tiers build the order-independent clause families
(roots, coefficients, initial values) once per pinning pattern and reuse
them across variable orders, holding each only until the last cell that
uses it.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .constraints import Clause
from .parser import SpecFile
from .pcpgen import DegenerateInvariantError, PcpBundle, base_clauses, build_pcp
from .poly import Polynomial, Var
from .smt import (
    ModelValue,
    SolverConfig,
    SolverTimeout,
    emit_smtlib,
    solve_structured,
)
from .template import (
    ParamSpec,
    RecurrenceTemplate,
    ShapeTier,
    build_template,
    int_partitions,
)
from .verify import ConcreteSystem, check_invariant


class RequestError(ValueError):
    """A synthesis request that cannot be searched as given: an input
    error, not a negative answer."""


@dataclass
class SynthRequest:
    """One synthesis problem, ready to run."""

    invariants: list[Polynomial]
    vars: list[Var]  # declared program variables, in declaration order
    params: list[tuple[Var, Var]] = field(default_factory=list)  # (param, variable)
    pinned: dict[str, Fraction] = field(default_factory=dict)
    tiers: list[ShapeTier] | None = None  # None = all, cheapest first
    partitions: list[tuple[int, ...]] | None = None  # None = all
    size: int | None = None  # pad with auxiliary variables up to this
    aux_one: bool = False  # add an auxiliary variable pinned to 1
    timeout: float = 60.0
    count: int = 1

    @staticmethod
    def from_spec(spec: SpecFile) -> "SynthRequest":
        """The request the spec describes, with a 60 s budget unless the
        spec sets one."""
        symbols = spec.symbols()
        return SynthRequest(
            invariants=spec.invariants(),
            vars=[symbols[name] for name in spec.var_names],
            params=[(symbols[p], symbols[v]) for p, v in spec.params],
            pinned=dict(spec.init_pins),
            tiers=None if spec.tier == "auto" else [ShapeTier.parse(spec.tier)],
            size=spec.size,
            aux_one=spec.aux_one,
            timeout=60.0 if spec.timeout is None else spec.timeout,
        )


@dataclass(frozen=True)
class Loop:
    """A concrete affine loop: X <- U X starting from X = V.

    Initial values are rationals, or linear forms over the parameter
    symbols in the parameterized case.  Every Loop that `synthesize`
    returns has passed the exact invariant check.
    """

    vars: tuple[Var, ...]
    update: tuple[tuple[Fraction, ...], ...]
    init: tuple[Fraction | Polynomial, ...]
    params: tuple[Var, ...] = ()
    aux: tuple[str, ...] = ()  # auxiliary variable names not in the invariant
    tier: str = ""
    partition: tuple[int, ...] = ()
    millis: int = 0

    @property
    def permutation(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.vars)

    def system(self) -> ConcreteSystem:
        return ConcreteSystem(vars=self.vars, update=self.update, init=self.init)

    def render(self) -> str:
        """Loop text in the corpus notation, folding an auxiliary
        constant-one variable into additive constants when possible."""
        vars, update, init = list(self.vars), [list(r) for r in self.update], list(self.init)
        consts = [Fraction(0)] * len(vars)
        for name in self.aux:
            idx = next(i for i, v in enumerate(vars) if v.name == name)
            unit_row = all(
                c == (1 if j == idx else 0) for j, c in enumerate(update[idx])
            )
            if unit_row and init[idx] == Fraction(1):
                for i, row in enumerate(update):
                    consts[i] += row[idx]
                    del row[idx]
                del update[idx], vars[idx], init[idx], consts[idx]

        names = [v.name for v in vars]
        inits = ", ".join(str(v) for v in init)
        lines = [f"{', '.join(names)} = {inits}", "while true"]
        if _is_upper(update):
            for i, row in enumerate(update):
                lines.append("  " + f"{names[i]} = " + _render_affine(names, row, consts[i]))
        else:
            rhs = ", ".join(_render_affine(names, row, c) for row, c in zip(update, consts))
            lines.append("  " + f"{', '.join(names)} = {rhs}")
        lines.append("end")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "vars": [v.name for v in self.vars],
            "update": [[str(c) for c in row] for row in self.update],
            "init": [str(v) for v in self.init],
            "params": [p.name for p in self.params],
            "aux": list(self.aux),
            "tier": self.tier,
            "partition": list(self.partition),
            "permutation": list(self.permutation),
            "millis": self.millis,
            "verified": True,
            "loop": self.render(),
        }


def _is_upper(update: Sequence[Sequence[Fraction]]) -> bool:
    return all(c == 0 for i, row in enumerate(update) for c in row[:i])


def _render_affine(names: Sequence[str], row: Sequence[Fraction], const: Fraction) -> str:
    parts: list[tuple[Fraction, str | None]] = [
        (c, names[j]) for j, c in enumerate(row) if c != 0
    ]
    if const != 0:
        parts.append((const, None))
    if not parts:
        return "0"
    out = ""
    for k, (c, name) in enumerate(parts):
        mag = abs(c)
        if name is None:
            body = str(mag)
        elif mag == 1:
            body = name
        else:
            body = f"{mag}*{name}"
        if k == 0:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out


@dataclass
class SynthResult:
    status: str  # found | notfound | timeout
    loops: list[Loop] = field(default_factory=list)
    millis: int = 0
    note: str = ""
    backend: str = ""  # the solver backend that answered (SolverConfig.backend)


# ---------------------------------------------------------------------------
# search


_UNKNOWN_NOTE = "some search cells were undecided by the solver"
_REFUSED_NOTE = "some search cells were undecided: a solver model with irrational values was refused"


def synthesize(request: SynthRequest, cfg: SolverConfig | None = None) -> SynthResult:
    cfg = cfg or SolverConfig.default()
    start = time.monotonic()
    deadline = start + request.timeout

    cells, pinned, aux = _search_space(request)
    found: list[Loop] = []
    undecided: set[str] = set()  # why some cells were left undecided
    bases = _SharedBases(request, pinned, aux)
    for tier, perm, part in cells:
        if time.monotonic() >= deadline:
            return _finish(found, start, cfg, timeout=True)
        bundle = _cell_problem(request, perm, tier, part, pinned, bases)
        if bundle is None:
            continue
        while len(found) < request.count:
            try:
                res = solve_structured(bundle.pcp, cfg, deadline)
            except SolverTimeout:
                return _finish(found, start, cfg, timeout=True)
            if res.status == "unknown":
                undecided.add(_UNKNOWN_NOTE)
                break
            if res.status != "sat":
                break
            loop = _extract_loop(bundle.template, res.model, aux, start)
            if loop is None:  # irrational matrix or initial values: refuse the model
                undecided.add(_REFUSED_NOTE)
                break
            verdict = [check_invariant(loop.system(), p) for p in request.invariants]
            if not all(v.holds for v in verdict):
                if res.rational:
                    raise AssertionError(
                        "exactly-checked model produced a loop failing verification"
                    )
                undecided.add(_REFUSED_NOTE)  # an irrational model, refused
                break
            found.append(loop)
            if len(found) >= request.count:
                break
            block = _blocking_clause(bundle.template, res.model)
            if block is None:
                break
            bundle.pcp.add(block)
        if len(found) >= request.count:
            break
    result = _finish(found, start, cfg, timeout=False)
    if result.status == "notfound":
        result.note = "; ".join(sorted(undecided))
    return result


def _finish(found: list[Loop], start: float, cfg: SolverConfig, timeout: bool) -> SynthResult:
    millis = int((time.monotonic() - start) * 1000)
    status = "found" if found else "timeout" if timeout else "notfound"
    return SynthResult(status, found, millis, backend=cfg.backend)


def _effective_vars(request: SynthRequest) -> tuple[list[Var], dict[str, Fraction], tuple[str, ...]]:
    seen: dict[Var, Var] = {}
    for p, v in request.params:  # as parse_spec checks a spec's params
        if p in seen:
            raise RequestError(f"parameter {p.name!r} is declared twice")
        if v in seen.values():
            raise RequestError(f"variable {v.name!r} is named by two parameters")
        seen[p] = v
    vars = list(request.vars)
    pinned = dict(request.pinned)
    taken = {v.name for v in vars} | {p.name for p, _ in request.params}
    aux: list[str] = []

    def fresh(base: str) -> str:
        name = base
        while name in taken:
            name = "_" + name
        taken.add(name)
        return name

    if request.aux_one:
        name = fresh("one")
        vars.append(Var(name, "program", len(vars)))
        pinned[name] = Fraction(1)
        aux.append(name)
    target = request.size if request.size is not None else len(vars)
    if target < len(vars):
        raise RequestError(f"size {target} is below the variable count {len(vars)}")
    for k in range(target - len(vars)):
        name = fresh(f"t{k + 1}")
        vars.append(Var(name, "program", len(vars)))
        aux.append(name)
    return vars, pinned, tuple(aux)


_Cell = tuple[ShapeTier, tuple[Var, ...], tuple[int, ...]]  # tier, order, partition


def _search_space(request: SynthRequest) -> tuple[Iterator[_Cell], dict[str, Fraction], tuple[str, ...]]:
    """The request's search cells, lazily in search order, with the pinned
    initial values and the auxiliary variable names of its padded vars."""
    if request.count < 1:
        raise RequestError(f"count must be at least 1, found {request.count}")
    vars, pinned, aux = _effective_vars(request)
    partitions = [
        p for p in int_partitions(len(vars))
        if request.partitions is None or p in request.partitions
    ]
    if not partitions:
        raise RequestError(f"no admissible multiplicity partition of {len(vars)}")
    return _cells(vars, request.tiers or list(ShapeTier), partitions), pinned, aux


def _cells(
    vars: Sequence[Var],
    tiers: Sequence[ShapeTier],
    partitions: Sequence[tuple[int, ...]],
) -> Iterator[_Cell]:
    for tier in tiers:
        parts = partitions
        if tier is ShapeTier.FULL:
            # a full matrix template is symmetric under variable reordering
            perms: Iterable[tuple[Var, ...]] = [tuple(vars)]
        else:
            perms = itertools.permutations(vars)
        if tier is ShapeTier.UNIT_UPPER:
            # char_poly(B) = (z-1)^s, which no product of two or more
            # pairwise distinct root factors equals
            parts = [p for p in partitions if len(p) == 1]
        for perm in perms:
            for part in parts:
                yield tier, perm, part


def _base_key(
    request: SynthRequest,
    perm: tuple[Var, ...],
    tier: ShapeTier,
    partition: tuple[int, ...],
    pinned: Mapping[str, Fraction],
) -> tuple:
    """What the cell's `base_clauses` depend on (see there).  The full tier
    searches a single order, so no two of its cells share a key."""
    return (
        tier,
        partition,
        tuple(pinned.get(v.name) for v in perm),
        tuple(perm.index(v) for _, v in request.params),
    )


class _SharedBases:
    """`base_clauses` shared by the cells of one search.

    A key's clauses are held from its first cell to its last; a key that a
    single cell uses is never built or held here.  The full tier searches
    one order, so its keys are unshared.  In a triangular tier two orders
    share a key when they differ by permuting variables within a class:
    the unpinned variables without a parameter, those pinned to each value,
    and each parameter-bound variable alone.  So each key has the same
    number of cells, the product of the class sizes' factorials.
    """

    def __init__(self, request: SynthRequest, pinned: Mapping[str, Fraction], aux: tuple[str, ...]):
        bound = {v for _, v in request.params}
        names = [v.name for v in request.vars if v not in bound] + list(aux)
        classes = Counter(pinned.get(name) for name in names).values()
        self.orders = math.prod(math.factorial(k) for k in classes)
        self.held: dict[tuple, tuple[list[Clause], int]] = {}  # clauses, cells left

    def take(self, key: tuple, tpl: RecurrenceTemplate) -> list[Clause] | None:
        """The cell's base clauses, or None when no other cell shares them."""
        base, left = self.held.pop(key, (None, 1 if tpl.tier is ShapeTier.FULL else self.orders))
        if left > 1:
            base = base_clauses(tpl) if base is None else base
            self.held[key] = (base, left - 1)
        return base


def _cell_problem(
    request: SynthRequest,
    perm: tuple[Var, ...],
    tier: ShapeTier,
    partition: tuple[int, ...],
    pinned: Mapping[str, Fraction],
    bases: _SharedBases | None = None,
) -> PcpBundle | None:
    """The cell's constraint problem, or None if no loop can come from it.

    With `bases`, cells of the same base key share `base_clauses`.
    """
    paramspec = None
    if request.params:
        paramspec = ParamSpec(
            tuple((p, perm.index(v)) for p, v in request.params)
        )
    tpl = build_template(perm, tier, partition, pinned, paramspec)
    base = None
    if bases is not None:
        base = bases.take(_base_key(request, perm, tier, partition, pinned), tpl)
    try:
        bundle = build_pcp(tpl, request.invariants, base)
    except DegenerateInvariantError:
        return None
    nt = _nontriviality_clause(tpl)
    if nt is None:
        return None
    bundle.pcp.add(nt)
    return bundle


def _nontriviality_clause(tpl: RecurrenceTemplate) -> Clause | None:
    """Some entry of B*A - A must be nonzero, i.e. the synthesized loop
    changes at least one variable on some input."""
    diff = tpl.b * tpl.a_matrix - tpl.a_matrix
    parts = [
        (e, "!=")
        for row in diff.entries
        for e in row
        if not e.is_zero()
    ]
    if not parts:
        return None
    return Clause.any(parts)


def _blocking_clause(tpl: RecurrenceTemplate, model: Mapping[Var, ModelValue]) -> Clause | None:
    syms = sorted(
        tpl.b.variables() | tpl.a_matrix.variables(), key=lambda v: v.sort_key
    )
    parts = []
    for v in syms:
        value = model.get(v, Fraction(0))
        if not isinstance(value, Fraction):
            return None
        parts.append((Polynomial.var(v) - Polynomial.const(value), "!="))
    if not parts:
        return None
    return Clause.any(parts)


def _extract_loop(
    tpl: RecurrenceTemplate,
    model: Mapping[Var, ModelValue],
    aux: tuple[str, ...],
    start: float,
) -> Loop | None:
    rational = {v: c for v, c in model.items() if isinstance(c, Fraction)}

    def rat(p: Polynomial) -> Fraction | None:
        try:
            return p.evaluate(rational)
        except KeyError:
            return None

    s = tpl.size
    update_rows = []
    for i in range(s):
        row = []
        for j in range(s):
            c = rat(tpl.b.at(i, j))
            if c is None:
                return None
            row.append(c)
        update_rows.append(tuple(row))

    init_vals: list[Fraction | Polynomial] = []
    for expr in tpl.init_exprs:
        # keep parameters symbolic, substitute solved initial-value symbols
        bindings = {
            v: rational[v] for v in expr.variables() if v not in tpl.params
            if v in rational
        }
        if set(expr.variables()) - set(tpl.params) - set(bindings):
            return None
        value = expr.substitute(bindings)
        init_vals.append(value.constant_value() if value.is_constant() else value)

    update = tuple(update_rows)
    init = tuple(init_vals)
    if not _changes_something(update, init, s):
        return None
    return Loop(
        vars=tpl.vars,
        update=update,
        init=init,
        params=tpl.params,
        aux=tuple(a for a in aux if any(v.name == a for v in tpl.vars)),
        tier=tpl.tier.value,
        partition=tpl.partition,
        millis=int((time.monotonic() - start) * 1000),
    )


def _changes_something(
    update: tuple[tuple[Fraction, ...], ...],
    init: tuple[Fraction | Polynomial, ...],
    s: int,
) -> bool:
    """Exact nontriviality re-check: U V != V (as functions of parameters)."""
    for i in range(s):
        acc: Fraction | Polynomial = Fraction(0)
        for j in range(s):
            acc = acc + update[i][j] * init[j]
        delta = Polynomial.coerce(acc) - Polynomial.coerce(init[i])
        if not delta.is_zero():
            return True
    return False


def first_cell_script(request: SynthRequest) -> str:
    """SMT-LIB script of the first search cell's constraint problem: the
    script an external solver is given for that cell."""
    cells, pinned, _aux = _search_space(request)
    for tier, perm, part in cells:
        bundle = _cell_problem(request, perm, tier, part, pinned)
        if bundle is not None:
            return emit_smtlib(list(bundle.pcp))
    raise RequestError("no admissible search cell")
