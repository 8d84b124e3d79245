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
more parts would ask for distinct roots that cannot exist.  Every cell
is built from the parts of its shape -- the tier, the pin of each
position and the position of each parameter's variable -- and of its
key, the shape and the partition.  The shape's parts do not depend on
the partition and are built once per shape: B, the initial values,
each coefficient column, det(zI - B) and the nontriviality clause.
The key's are one template, whose `vars` each cell replaces, the
order-independent clause families (roots, coefficients, initial
values), their sorted symbols, which are every cell's, and the closed
forms.  Within one search, the variable orders of a triangular tier
that agree on the key share them, and the partitions of a shape share
its parts; each part is built at the first cell that needs it and held
only until the last, and each cell builds only its relation clauses.

With an external solver, the next cell's solver is started as soon as
that cell is built, while the current cell's solver runs, so Python
builds cells while the solvers work.  Results are still read strictly in
search order, so the loops, notes and errors a search reports do not
depend on which solver finishes first.  A search that runs into its
budget is the exception: the run started ahead shares the machine with
the one being read, so a CPU-bound solver may time out sooner than it
would alone.  The built-in backend runs in this process and has nothing
to overlap: it solves one cell at a time.

A search holds the cyclic garbage collector off, and turns it back on at
the end only if it was on, so a caller's setting is left as it was.  The
objects a search makes -- polynomials, monomial tuples, clauses, solver
runs -- hold no reference cycles, so reference counting alone frees each
of them as soon as it is dropped, and the collector's passes, which a
search's allocations would start dozens of times a second, would find
nothing to free.  The tests check that a search leaves no cyclic garbage,
on the built-in and external backends, when it finds a loop, ends
undecided or times out, and when the solver cannot be started.
"""

from __future__ import annotations

import gc
import itertools
import math
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .constraints import Clause, Pcp
from .parser import SpecFile
from .pcpgen import (
    ClosedForms, DegenerateInvariantError, PcpBundle, base_clauses, base_variables, build_pcp, chi_by_power,
)
from .poly import Polynomial, Var, fresh_name, signed_sum
from .smt import (
    ModelValue,
    SolverConfig,
    SolveResult,
    SolverRun,
    SolverTimeout,
    emit_smtlib,
    solve_structured,  # not called here; perfbench/spans.py hooks it in this module
)
from .template import RecurrenceTemplate, ShapeTier, TemplateShape, binding_error, build_template, int_partitions
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
    start: float | None = None  # when its clock started (`time.monotonic()`); None: with the search

    @staticmethod
    def from_spec(spec: SpecFile, timeout: float | None = None, start: float | None = None) -> "SynthRequest":
        """The request the spec describes, with a budget of `timeout`
        seconds, else the spec's, else 60, on a clock started at `start`,
        else now.  The clock runs while the invariants are parsed, and
        `ParseTimeout` is raised when the budget runs out there."""
        start = time.monotonic() if start is None else start
        timeout = timeout if timeout is not None else 60.0 if spec.timeout is None else spec.timeout
        symbols = spec.symbols()
        return SynthRequest(
            invariants=spec.invariants(start + timeout),
            vars=[symbols[name] for name in spec.var_names],
            params=[(symbols[p], symbols[v]) for p, v in spec.params],
            pinned=dict(spec.init_pins),
            tiers=None if spec.tier == "auto" else [ShapeTier.parse(spec.tier)],
            size=spec.size,
            aux_one=spec.aux_one,
            timeout=timeout,
            start=start,
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
        """Loop text in the corpus notation.  An auxiliary variable with the
        unit update row and initial value 1 stays 1, so its column folds into
        each kept row's constant.  The update is one line per variable when
        the kept matrix is upper triangular, else one simultaneous line."""
        folded = [
            i for i, v in enumerate(self.vars)
            if v.name in self.aux and self.init[i] == 1
            and all(c == (1 if j == i else 0) for j, c in enumerate(self.update[i]))
        ]
        keep = [i for i in range(len(self.vars)) if i not in folded]
        names = [self.vars[i].name for i in keep]
        rows = [
            signed_sum([(self.update[i][j], name) for j, name in zip(keep, names)]
                       + [(sum(self.update[i][j] for j in folded), "")])
            for i in keep
        ]
        lines = [f"{', '.join(names)} = {', '.join(str(self.init[i]) for i in keep)}", "while true"]
        if all(self.update[i][j] == 0 for k, i in enumerate(keep) for j in keep[:k]):
            lines += [f"  {name} = {row}" for name, row in zip(names, rows)]
        else:
            lines.append(f"  {', '.join(names)} = {', '.join(rows)}")
        return "\n".join(lines + ["end"]) + "\n"

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


#: Serializes `synthesize`'s reading and setting of the collector, so that
#: searches on several threads leave it as the first of them found it.
_COLLECTOR = threading.Lock()


def synthesize(request: SynthRequest, cfg: SolverConfig | None = None) -> SynthResult:
    """Search for loops that keep the request's invariants, with the
    cyclic collector held off (see the module docstring)."""
    with _COLLECTOR:
        collecting = gc.isenabled()
        gc.disable()
    try:
        return _search(request, cfg or SolverConfig.default())
    finally:
        if collecting:
            with _COLLECTOR:
                gc.enable()


def _search(request: SynthRequest, cfg: SolverConfig) -> SynthResult:
    start = time.monotonic() if request.start is None else request.start
    deadline = start + request.timeout

    cells, bases, aux = _search_space(request)
    found: list[Loop] = []
    undecided: set[str] = set()  # why some cells were left undecided
    runs: deque[tuple[PcpBundle, SolverRun]] = deque()  # started, not yet read

    def in_search_order() -> Iterator[tuple[PcpBundle, SolverRun]]:
        """Each built cell with its solver run, in search order, while up
        to a window of runs is started ahead of the one being read."""
        window = _window(cfg)
        for tier, perm, part in cells:
            if time.monotonic() >= deadline:
                raise SolverTimeout("no time budget left")
            bundle = _cell_problem(request, perm, tier, part, bases)
            if bundle is not None:
                runs.append((bundle, SolverRun(bundle.pcp, cfg, bundle.variables)))
            if len(runs) >= window:
                yield runs[0]
                runs.popleft()
        while runs:
            yield runs[0]
            runs.popleft()

    try:
        for bundle, run in in_search_order():
            res = run.result(deadline)
            while res.status == "sat":
                loop = _extract_loop(bundle.template, res, request.invariants, aux, start)
                if loop is None:
                    undecided.add(_REFUSED_NOTE)
                    break
                found.append(loop)
                if len(found) >= request.count:
                    break
                bundle.pcp.add(_blocking_clause(bundle.template, res.model))
                res = SolverRun(bundle.pcp, cfg, bundle.variables).result(deadline)
            if res.status == "unknown":
                undecided.add(_UNKNOWN_NOTE)
            if len(found) >= request.count:
                break
    except SolverTimeout:
        return _finish(found, start, cfg, timeout=True)
    finally:
        for _bundle, run in runs:
            run.cancel()
    result = _finish(found, start, cfg, timeout=False)
    if result.status == "notfound":
        result.note = "; ".join(sorted(undecided))
    return result


def _window(cfg: SolverConfig) -> int:
    """How many cells' solver runs may be in flight at once: one for the
    built-in backend, which runs in this process, else two, so that
    Python builds the next cell while a solver runs."""
    return 1 if cfg.builtin else 2


def _finish(found: list[Loop], start: float, cfg: SolverConfig, timeout: bool) -> SynthResult:
    millis = int((time.monotonic() - start) * 1000)
    status = "found" if found else "timeout" if timeout else "notfound"
    return SynthResult(status, found, millis, backend=cfg.backend)


def _effective_vars(request: SynthRequest) -> tuple[list[Var], dict[str, Fraction], tuple[str, ...]]:
    error = binding_error(request.vars, [(p.name, v) for p, v in request.params], request.pinned)
    if error:
        raise RequestError(error)
    if request.tiers is not None and len(set(request.tiers)) != len(request.tiers):
        raise RequestError("a tier is named twice")  # each of its cells would be searched twice
    vars = list(request.vars)
    pinned = dict(request.pinned)
    taken = {v.name for v in vars} | {p.name for p, _ in request.params}
    aux: list[str] = []
    if request.aux_one:
        name = fresh_name("one", taken)
        vars.append(Var(name, "program", len(vars)))
        pinned[name] = Fraction(1)
        aux.append(name)
    target = request.size if request.size is not None else len(vars)
    if target < len(vars):
        raise RequestError(f"size {target} is below the variable count {len(vars)}")
    for k in range(target - len(vars)):
        name = fresh_name(f"t{k + 1}", taken)
        vars.append(Var(name, "program", len(vars)))
        aux.append(name)
    return vars, pinned, tuple(aux)


_Cell = tuple[ShapeTier, tuple[Var, ...], tuple[int, ...]]  # tier, order, partition


def _search_space(request: SynthRequest) -> tuple[Iterator[_Cell], _SharedBases, tuple[str, ...]]:
    """The request's search cells, lazily in search order, with the
    `_SharedBases` that builds them and the auxiliary variable names of
    its padded vars."""
    if request.count < 1:
        raise RequestError(f"count must be at least 1, found {request.count}")
    if math.isnan(request.timeout):  # a NaN deadline is never reached; zero or less is spent
        raise RequestError("timeout must be a number of seconds, found nan")
    vars, pinned, aux = _effective_vars(request)
    partitions = [
        p for p in int_partitions(len(vars))
        if request.partitions is None or p in request.partitions
    ]
    if not partitions:
        raise RequestError(f"no admissible multiplicity partition of {len(vars)}")
    cells = _cells(vars, request.tiers or list(ShapeTier), partitions)
    return cells, _SharedBases(request, pinned, aux, partitions), aux


def _cells(
    vars: Sequence[Var],
    tiers: Sequence[ShapeTier],
    partitions: Sequence[tuple[int, ...]],
) -> Iterator[_Cell]:
    for tier in tiers:
        if tier is ShapeTier.FULL:
            # a full matrix template is symmetric under variable reordering
            perms: Iterable[tuple[Var, ...]] = [tuple(vars)]
        else:
            perms = itertools.permutations(vars)
        parts = _tier_partitions(tier, partitions)
        for perm in perms:
            for part in parts:
                yield tier, perm, part


def _tier_partitions(tier: ShapeTier, partitions: Sequence[tuple[int, ...]]) -> Sequence[tuple[int, ...]]:
    """The partitions a tier searches.  The unit-upper-triangular tier's
    char_poly(B) is (z-1)^s, which no product of two or more pairwise
    distinct root factors equals."""
    return [p for p in partitions if len(p) == 1] if tier is ShapeTier.UNIT_UPPER else partitions


class _SharedBases:
    """The cell parts that cells share, for one search, at two levels.

    A cell's shape is its tier, the pin of each position and the position
    of each parameter's variable; its key is its shape and its partition.
    Template symbols are named by position and slot, so the cells of one
    shape share the partition-free parts: the `TemplateShape`, det(zI - B)
    by power of z (`chi_by_power`) and the nontriviality clause; and the
    cells of one key differ only in `vars`, so they share the key's
    template, its base clauses as one clause set, their sorted symbols and
    its closed forms.  Each part is built at the first cell that needs it
    and held only until the last, so nothing that a single cell uses is
    held.

    The key's symbol list is read off its template (`base_variables`,
    whose docstring proves it is exactly the base clauses' symbols), so
    no base atom is built to find it.  It is every symbol of each cell of
    the key, in any order and with any blocking clauses added, so each
    cell's solver run declares that one list: a relation clause mentions
    only c and w symbols, the nontriviality and blocking clauses only b
    and a symbols, and no clause a variable or, once split, a parameter.

    The full tier searches one order, so its key is unshared and its
    shape spans the partitions.  In a triangular tier two orders share a
    shape when they differ by permuting variables within a class: the
    unpinned variables without a parameter, those pinned to each value,
    and each parameter-bound variable alone.  So each key has the same
    number of cells, the product of the class sizes' factorials, and each
    shape that many times the tier's partitions.
    """

    def __init__(
        self,
        request: SynthRequest,
        pinned: Mapping[str, Fraction],
        aux: tuple[str, ...],
        partitions: Sequence[tuple[int, ...]],
    ):
        self.pinned = pinned
        self.params = request.params
        bound = {v for _, v in request.params}
        names = [v.name for v in request.vars if v not in bound] + list(aux)
        classes = Counter(pinned.get(name) for name in names).values()
        self.orders = math.prod(math.factorial(k) for k in classes)
        self.parts = {tier: len(_tier_partitions(tier, partitions)) for tier in ShapeTier}
        self.held: dict[tuple, tuple[tuple, int]] = {}  # parts, cells left

    def take(
        self, perm: tuple[Var, ...], tier: ShapeTier, partition: tuple[int, ...]
    ) -> tuple[RecurrenceTemplate, Pcp, ClosedForms, list[Var], Clause | None]:
        """The template, base clause set, closed forms and symbols of the
        cell's key, and the nontriviality clause of its shape."""
        params = [(p, perm.index(v)) for p, v in self.params]
        shape_key = (tier, tuple(self.pinned.get(v.name) for v in perm), tuple(i for _, i in params))
        orders = 1 if tier is ShapeTier.FULL else self.orders

        def shape_parts() -> tuple[TemplateShape, list[Polynomial], Clause | None]:
            shape = TemplateShape(perm, tier, self.pinned, params)
            return shape, chi_by_power(shape.b), _nontriviality_clause(shape)

        shape, chi, nontrivial = self._hold(shape_key, orders * self.parts[tier], shape_parts)

        def key_parts() -> tuple[RecurrenceTemplate, Pcp, ClosedForms, list[Var]]:
            tpl = build_template(perm, tier, partition, self.pinned, params, shape)
            variables = base_variables(tpl)
            return tpl, Pcp(base_clauses(tpl, chi, variables)), ClosedForms(tpl), variables

        return *self._hold(shape_key + (partition,), orders, key_parts), nontrivial

    def _hold(self, key: tuple, cells: int, build: Callable[[], tuple]) -> tuple:
        """The parts of `key`, built at the first of its `cells` cells and
        held until the last."""
        parts, left = self.held.pop(key, (None, cells))
        if parts is None:
            parts = build()
        if left > 1:
            self.held[key] = (parts, left - 1)
        return parts


def _cell_problem(
    request: SynthRequest,
    perm: tuple[Var, ...],
    tier: ShapeTier,
    partition: tuple[int, ...],
    bases: _SharedBases,
) -> PcpBundle | None:
    """The cell's constraint problem, or None if no loop can come from it:
    its key's parts from `bases`, and its own relation clauses."""
    tpl, base, forms, variables, nontrivial = bases.take(perm, tier, partition)
    try:
        bundle = build_pcp(replace(tpl, vars=perm), request.invariants, base, forms, variables)
    except DegenerateInvariantError:
        return None
    if nontrivial is None:
        return None
    bundle.pcp.add(nontrivial)
    return bundle


def _nontriviality_clause(shape: TemplateShape | RecurrenceTemplate) -> Clause | None:
    """Some entry of B*A - A must be nonzero, i.e. the synthesized loop
    changes at least one variable on some input."""
    diff = shape.b * shape.a_matrix - shape.a_matrix
    parts = [
        (e, "!=")
        for row in diff.entries
        for e in row
        if not e.is_zero()
    ]
    if not parts:
        return None
    return Clause.any(parts)


def _blocking_clause(tpl: RecurrenceTemplate, model: Mapping[Var, ModelValue]) -> Clause:
    """Some matrix or initial-value symbol must differ from the model's value.

    Every such value is rational: `_extract_loop` refuses the model
    otherwise.  The clause is never empty: B has a symbol in every tier once
    s >= 2, and at s = 1 the `un` tier's B = I has no nontriviality clause,
    so its cell is never built.
    """
    syms = sorted(tpl.b.variables() | tpl.a_matrix.variables(), key=lambda v: v.sort_key)
    return Clause.any([(Polynomial.var(v) - Polynomial.const(model[v]), "!=") for v in syms])


def _extract_loop(
    tpl: RecurrenceTemplate,
    res: SolveResult,
    invariants: Sequence[Polynomial],
    aux: tuple[str, ...],
    start: float,
) -> Loop | None:
    """The loop that a `sat` answer's model gives, verified against every
    invariant, or None when the model is refused.

    A model is refused when an update or initial value is not rational,
    when its loop changes no variable (the exact re-check of the
    nontriviality clause, which an irrational model skips in `SolverRun`),
    or when it is irrational and its loop fails verification.  A rational
    model has passed the exact re-check of every clause, so a loop of one
    that fails verification is a fault, not a refusal.
    """
    rational = {v: c for v, c in res.model.items() if isinstance(c, Fraction)}
    try:
        update = tuple(tuple(e.evaluate(rational) for e in row) for row in tpl.b.entries)
    except KeyError:
        return None
    values = [e.substitute(rational) for e in tpl.init_exprs]
    if any(e.variables() - set(tpl.params) for e in values):
        return None
    init = tuple(e.constant_value() if e.is_constant() else e for e in values)
    loop = Loop(tpl.vars, update, init, tpl.params, aux, tpl.tier.value, tpl.partition,
                int((time.monotonic() - start) * 1000))
    system = loop.system()
    if system.step(system.init) == system.init:
        return None
    if all([check_invariant(system, p).holds for p in invariants]):  # a list: perfbench counts every call
        return loop
    if res.rational:
        raise AssertionError("exactly-checked model produced a loop failing verification")
    return None


def first_cell_script(request: SynthRequest) -> str:
    """SMT-LIB script of the first search cell's constraint problem: the
    script an external solver is given for that cell."""
    cells, bases, _aux = _search_space(request)
    for tier, perm, part in cells:
        bundle = _cell_problem(request, perm, tier, part, bases)
        if bundle is not None:
            return emit_smtlib(list(bundle.pcp), bundle.variables)
    raise RequestError("no admissible search cell")
