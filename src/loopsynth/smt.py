"""SMT solving over nonlinear real arithmetic, through an external solver
or an exact in-process search.

A backend is named by a command line.  An external solver is any
executable speaking SMT-LIB 2 on stdin/stdout, such as the bundled Node.js
wrapper around the z3 WebAssembly build.  The command word ``builtin``
selects the in-process backend: exact propagate-and-branch over
``Fraction`` that needs nothing outside Python.  Without an explicit
choice the backend is $LOOPSYNTH_SOLVER, else the bundled wrapper when
``node`` and the ``z3-solver`` package can be found, else ``builtin``.
Every satisfiable answer with a rational model is re-checked exactly in
Python before it is trusted; irrational model values are surfaced as
:class:`AlgebraicTag` so callers can refuse them explicitly.

`solve_structured` solves one search cell's constraint problem with one
solver call.  The problem is exact: its relation clauses state each
for-all-n exponential sum at finitely many n (see `pcpgen.gen_alg`).
"""

from __future__ import annotations

import functools
import math
import os
import shlex
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .constraints import Atom, Clause, Pcp, first_violated, variables_of
from .poly import Monomial, Polynomial, Rat, Var

SOLVER_ENV = "LOOPSYNTH_SOLVER"
BUILTIN = "builtin"  # command word selecting the in-process backend


class SolverError(RuntimeError):
    """The external solver failed, produced garbage, or lied."""


class SolverTimeout(SolverError):
    """The budget ran out before the solver answered."""


@dataclass(frozen=True)
class AlgebraicTag:
    """An irrational algebraic model value, kept as an opaque description."""

    description: str
    index: int = 0

    def __str__(self):
        return f"<algebraic #{self.index}: {self.description}>"


ModelValue = Fraction | AlgebraicTag


@dataclass(frozen=True)
class SolverConfig:
    """The solver backend, named by its command line."""

    command: tuple[str, ...]

    @staticmethod
    def default(solver: str | None = None) -> "SolverConfig":
        """The backend named by `solver` (a command line), else the default one."""
        return SolverConfig(command=tuple(default_solver_command(solver)))

    @property
    def builtin(self) -> bool:
        return self.command == (BUILTIN,)

    @property
    def backend(self) -> str:
        """Short backend name for reports: ``builtin``, ``z3-wasm`` for the
        bundled wrapper, else the base name of the solver program."""
        if self.builtin:
            return BUILTIN
        if self.command == _bundled_wrapper():
            return "z3-wasm"
        return os.path.basename(self.command[0]) if self.command else ""


def default_solver_command(solver: str | None = None) -> list[str]:
    """Solver command: `solver` if given, else $LOOPSYNTH_SOLVER if set,
    else the bundled wrapper when node and the z3-solver package can be
    found, else the built-in backend."""
    chosen = solver or os.environ.get(SOLVER_ENV)
    if chosen:
        return shlex.split(chosen)
    return list(_probed_default())


def _bundled_wrapper() -> tuple[str, ...]:
    return ("node", str(resources.files("loopsynth").joinpath("data/z3smt2.mjs")))


@functools.cache
def _probed_default() -> tuple[str, ...]:
    """Looked up once per process, on first use."""
    if shutil.which("node") and _z3_solver_found():
        return _bundled_wrapper()
    return (BUILTIN,)


def _z3_solver_found() -> bool:
    """Whether the bundled wrapper would find the z3-solver package, from
    the places it searches: $LOOPSYNTH_NODE_MODULES, the working
    directory and the npm global root, each by Node's ancestor lookup."""
    for base in _node_module_bases():
        for d in (base, *base.parents):
            if d.name != "node_modules" and (d / "node_modules/z3-solver/package.json").is_file():
                return True
    return False


def _node_module_bases() -> Iterator[Path]:
    if os.environ.get("LOOPSYNTH_NODE_MODULES"):
        yield Path(os.environ["LOOPSYNTH_NODE_MODULES"]).absolute()
    yield Path.cwd()
    npm = shutil.which("npm")
    if npm:  # asked last: `npm root -g` takes a noticeable fraction of a second
        try:
            root = subprocess.run([npm, "root", "-g"], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return
        if root:
            yield Path(root)


@dataclass
class SolveResult:
    status: str  # sat | unsat | unknown
    model: dict[Var, ModelValue] = field(default_factory=dict)

    @property
    def rational(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.model.values())


# ---------------------------------------------------------------------------
# SMT-LIB emission


def emit_smtlib(clauses: Sequence[Clause]) -> str:
    """Deterministic SMT-LIB 2 script for the clause set: the QF_NRA
    logic, one real constant per variable of the clauses, one assert per
    clause (its `Clause.smtlib` text), then check-sat and get-model."""
    lines = ["(set-logic QF_NRA)"]
    lines.extend(f"(declare-const {v.name} Real)" for v in variables_of(clauses))
    lines.extend(f"(assert {c.smtlib})" for c in clauses)
    lines.extend(["(check-sat)", "(get-model)"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output parsing


def _sexpr_tokens(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexprs(tokens: list[str]) -> list:
    out = []
    stack: list[list] = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise SolverError("unbalanced solver output")
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(tok)
    if stack:
        raise SolverError("unbalanced solver output")
    return out


def _atom_to_value(node) -> ModelValue:
    if isinstance(node, str):
        try:
            return Fraction(node)
        except ValueError:
            return AlgebraicTag(node)
    if not node:
        return AlgebraicTag("()")
    head = node[0]
    if head == "-" and len(node) == 2:
        v = _atom_to_value(node[1])
        if isinstance(v, Fraction):
            return -v
        return AlgebraicTag(f"(- {v.description})", v.index)
    if head == "/" and len(node) == 3:
        a, b = _atom_to_value(node[1]), _atom_to_value(node[2])
        if isinstance(a, Fraction) and isinstance(b, Fraction) and b != 0:
            return a / b
        return AlgebraicTag(_unparse(node))
    if head == "root-obj" and len(node) == 3:
        try:
            index = int(node[2])
        except (TypeError, ValueError):
            index = 0
        return AlgebraicTag(_unparse(node[1]), index)
    return AlgebraicTag(_unparse(node))


def _unparse(node) -> str:
    if isinstance(node, str):
        return node
    return "(" + " ".join(_unparse(x) for x in node) + ")"


def parse_solver_output(text: str, variables: Iterable[Var]) -> SolveResult:
    by_name = {v.name: v for v in variables}
    status = None
    for line in text.splitlines():
        line = line.strip()
        if line in ("sat", "unsat", "unknown"):
            status = line
            break
        if line.startswith("(error"):
            raise SolverError(f"solver error: {line}")
    if status is None:
        raise SolverError(f"no sat/unsat/unknown in solver output:\n{text[:2000]}")

    rest = text.split(status, 1)[1]
    model: dict[Var, ModelValue] = {}
    for node in _parse_sexprs(_sexpr_tokens(rest)):
        if not isinstance(node, list):
            continue
        if node and node[0] == "error":
            continue  # e.g. get-model after unsat
        items = node if any(isinstance(x, list) and x and x[0] == "define-fun" for x in node) else [node]
        for item in items:
            if isinstance(item, list) and len(item) >= 5 and item[0] == "define-fun":
                name = item[1]
                if name in by_name:
                    model[by_name[name]] = _atom_to_value(item[4])
    if status == "sat":
        for v in by_name.values():
            model.setdefault(v, Fraction(0))
    return SolveResult(status=status, model=model if status == "sat" else {})


# ---------------------------------------------------------------------------
# running the solver


def run_solver(script: str, cfg: SolverConfig, deadline: float) -> str:
    """The solver's output on `script`, killed at `deadline` (a `time.monotonic()` instant)."""
    budget = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            list(cfg.command),
            input=script,
            capture_output=True,
            text=True,
            timeout=budget,
        )
    except OSError as e:
        raise SolverError(f"cannot run solver {cfg.command[0]!r}: {e}") from None
    except subprocess.TimeoutExpired:
        raise SolverTimeout(f"solver exceeded {budget:.1f}s") from None
    if proc.returncode not in (0, 1):  # some solvers exit 1 on unsat
        raise SolverError(
            f"solver exited with status {proc.returncode}: {proc.stderr.strip()[:2000]}"
        )
    return proc.stdout


def solve(clauses: Sequence[Clause], cfg: SolverConfig, deadline: float) -> SolveResult:
    """Solve the clauses by `deadline` (a `time.monotonic()` instant)."""
    if deadline <= time.monotonic():
        raise SolverTimeout("no time budget left")
    variables = variables_of(clauses)
    if cfg.builtin:
        result = solve_builtin(clauses, variables, deadline)
    else:
        script = emit_smtlib(clauses)
        output = run_solver(script, cfg, deadline)
        result = parse_solver_output(output, variables)
    if result.status == "sat" and result.rational:
        violated = first_violated(clauses, result.model)
        if violated is not None:
            raise SolverError(f"solver model fails exact re-check on: {violated}")
    return result


# ---------------------------------------------------------------------------
# the built-in backend: exact propagate-and-branch over Fraction

_BRANCH_VALUES = tuple(Fraction(v) for v in (0, 1, -1, 2, -2, 3, -3, "1/2", "-1/2"))


def solve_builtin(clauses: Sequence[Clause], variables: Sequence[Var], deadline: float) -> SolveResult:
    """Search for an exact rational model in process.

    Propagation eliminates a variable that occurs linearly with a constant
    coefficient, sets a variable to zero when a lone power of it must
    vanish, and simplifies disjunctions as their atoms become constant.
    An elimination that would more than double the problem's term count
    waits until branching has made it cheaper.  When propagation stalls,
    the most frequent variable is branched on, depth first, over a few
    small rationals; the model is then rebuilt by back-substitution, with
    variables left free set to zero.  Propagation only rewrites the
    problem into an equivalent one, so a conflict before any branching is
    a sound ``unsat``; any other dead end is ``unknown``, since a model
    may need values that were not tried.  The budget is checked inside
    propagation and substitution, not only between branches.
    """
    root = _Problem([], [c.atoms for c in clauses], [], deadline)
    try:
        root.propagate()
    except _Conflict:
        return SolveResult("unsat")
    found = root.branch()
    if found is None:
        return SolveResult("unknown")
    return SolveResult("sat", found.model(variables))


class _Conflict(Exception):
    """Propagation derived a false constraint."""


class _Zeros(dict):
    def __missing__(self, key):
        return Fraction(0)


class _Problem:
    """Equations p = 0, disjunctions of atoms, and the bindings v := q made
    so far, each q free of the variables bound before it."""

    def __init__(self, eqs, ors, bound, deadline):
        self.eqs: list[Polynomial] = eqs
        self.ors: list[tuple[Atom, ...]] = ors
        self.bound: list[tuple[Var, Polynomial]] = bound
        self.deadline: float = deadline

    def tick(self) -> None:
        if time.monotonic() >= self.deadline:
            raise SolverTimeout("built-in search ran out of time")

    def propagate(self) -> None:
        while True:
            self.tick()
            self.simplify()
            pivot = self.pivot()
            if pivot is None:
                return
            self.assign(*pivot)

    def simplify(self) -> None:
        eqs = []
        for p in self.eqs:
            if not p.is_constant():
                eqs.append(p)
            elif not p.is_zero():
                raise _Conflict
        ors = []
        for atoms in self.ors:
            left = []
            for a in atoms:
                if not a.lhs.is_constant():
                    left.append(a)
                elif a.holds({}):
                    break
            else:
                if not left:
                    raise _Conflict
                if len(left) == 1 and left[0].rel == "=":
                    eqs.append(left[0].lhs)
                else:
                    ors.append(tuple(left))
        self.eqs, self.ors = eqs, ors

    def pivot(self) -> tuple[Var, Polynomial] | None:
        """A binding that every model obeys: v := 0 for an equation c*v^k = 0,
        else v := -rest/c from an equation c*v + rest = 0 in which v occurs
        nowhere in rest.  Of the latter, the one whose substitution adds the
        fewest terms, each term holding v^e becoming up to as many terms as
        rest^e has monomials; none if that exceeds the problem's size."""
        candidates = []
        for p in self.eqs:
            if len(p.terms) == 1:
                (m,) = p.terms
                if len(m) == 1:
                    return m[0][0], Polynomial.zero()
                continue
            candidates.extend((p, v) for v in _linear_candidates(p))
        if not candidates:
            return None
        powers: dict[Var, list[int]] = {v: [] for _, v in candidates}
        size = 0
        for p in self.eqs + [a.lhs for atoms in self.ors for a in atoms]:
            size += len(p.terms)
            for m in p.terms:
                for u, e in m:
                    if u in powers:
                        powers[u].append(e)

        def growth(pv) -> int:
            n = len(pv[0].terms) - 1
            return sum(math.comb(n + e - 1, e) - 1 for e in powers[pv[1]])

        best, v = min(candidates, key=lambda pv: (growth(pv), pv[1].sort_key))
        if growth((best, v)) > size:
            return None
        mv = Monomial.of(v)
        c = best.terms[mv]
        return v, Polynomial({m: Fraction(-k) / c for m, k in best.terms.items() if m != mv})

    def assign(self, v: Var, q: Polynomial) -> None:
        powers = {1: q}
        self.eqs = [self.substitute(p, v, powers) for p in self.eqs]
        self.ors = [tuple(Atom(self.substitute(a.lhs, v, powers), a.rel) for a in atoms)
                    for atoms in self.ors]
        self.bound.append((v, q))

    def substitute(self, p: Polynomial, v: Var, powers: dict[int, Polynomial]) -> Polynomial:
        # Not `Polynomial.substitute`: this binds one variable, reuses its
        # powers across every polynomial of an elimination and ticks the
        # deadline per term.  Routed through the shared kernel, `assign`
        # made the built-in search slower (squared_varied1 about 790 ->
        # 965 ms, cube_conj 510 -> 570 ms) and stopped checking the clock.
        acc: dict[Monomial, Rat] = {}
        hit = False
        for m, c in p.terms.items():
            e = m.degree_of(v)
            if not e:
                acc[m] = acc.get(m, 0) + c
                continue
            self.tick()
            hit = True
            rest = m.without(v)
            for qm, qc in self.power(powers, e).terms.items():
                mm = rest.mul(qm) if qm else rest
                acc[mm] = acc.get(mm, 0) + c * qc
        return Polynomial(acc) if hit else p

    def power(self, powers: dict[int, Polynomial], e: int) -> Polynomial:
        while e not in powers:
            k = max(powers)
            a, b = powers[k], powers[1]
            acc: dict[Monomial, Rat] = {}
            for m1, c1 in a.terms.items():
                self.tick()
                for m2, c2 in b.terms.items():
                    m = m1.mul(m2)
                    acc[m] = acc.get(m, 0) + c1 * c2
            powers[k + 1] = Polynomial(acc)
        return powers[e]

    def branch(self) -> "_Problem | None":
        """Depth-first search below this propagated problem."""
        if not self.eqs and not self.ors:
            return self
        counts: dict[Var, int] = {}
        for p in self.eqs + [a.lhs for atoms in self.ors for a in atoms]:
            for u in p.variables():
                counts[u] = counts.get(u, 0) + 1
        v = min(counts, key=lambda u: (-counts[u], u.sort_key))
        for value in _BRANCH_VALUES:
            self.tick()
            child = _Problem(self.eqs, self.ors, list(self.bound), self.deadline)
            try:
                child.assign(v, Polynomial.const(value))
                child.propagate()
            except _Conflict:
                continue
            found = child.branch()
            if found is not None:
                return found
        return None

    def model(self, variables: Iterable[Var]) -> dict[Var, ModelValue]:
        values = _Zeros()
        for v, q in reversed(self.bound):
            values[v] = q.evaluate(values)
        return {v: values[v] for v in variables}


def _linear_candidates(p: Polynomial) -> list[Var]:
    """Variables whose only monomial in p is the variable itself."""
    seen: dict[Var, int] = {}
    for m in p.terms:
        for u, _ in m:
            seen[u] = seen.get(u, 0) + 1
    return [m[0][0] for m in p.terms
            if len(m) == 1 and m[0][1] == 1 and seen[m[0][0]] == 1]


# ---------------------------------------------------------------------------
# one search cell


def solve_structured(pcp: Pcp, cfg: SolverConfig, deadline: float) -> SolveResult:
    """`solve` on one search cell's exact problem (see `pcpgen.gen_alg`) by `deadline`."""
    return solve(list(pcp), cfg, deadline)
