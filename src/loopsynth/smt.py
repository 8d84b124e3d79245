"""SMT solving over nonlinear real arithmetic, through an external solver
or an exact in-process search.

A backend is named by a command line: the ``--solver`` flag, else
$LOOPSYNTH_SOLVER, else ``builtin``.  The word ``builtin`` selects the
in-process backend: exact propagate-and-branch over ``Fraction`` that
needs nothing outside Python.  The word ``z3-wasm`` selects the bundled
Node.js wrapper around the z3 WebAssembly build.  Any other command line
names an external executable speaking SMT-LIB 2 on stdin/stdout.  No
process is started unless an external backend is named.
Every satisfiable answer with a rational model is re-checked exactly in
Python before it is trusted; irrational model values are surfaced as
:class:`AlgebraicTag` so callers can refuse them explicitly.

A :class:`SolverRun` is one solve: an external solver is started when the
run is made, with its output going to a file, and that file is read when
the result is asked for and the solver has exited.  So a caller can keep
several runs in flight and read them in its own order.  `solve` makes one
run and reads it at once.

`solve_structured` solves one search cell's constraint problem with one
solver call.  The problem is exact: its relation clauses state each
for-all-n exponential sum at finitely many n (see `pcpgen.gen_alg`).
"""

from __future__ import annotations

import math
import os
import select
import shlex
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import BinaryIO, Iterable, Sequence

from .constraints import Atom, Clause, Pcp, first_violated, variables_of
from .poly import Monomial, Polynomial, Rat, Var

SOLVER_ENV = "LOOPSYNTH_SOLVER"
BUILTIN = "builtin"  # command word selecting the in-process backend
Z3_WASM = "z3-wasm"  # command word selecting the bundled Node.js wrapper


class SolverError(RuntimeError):
    """The external solver failed, produced garbage, or lied."""


class SolverTimeout(SolverError):
    """The budget ran out before the solver answered."""


class SolverConfigError(ValueError):
    """A solver command line that names no program or cannot be split."""


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
        """The backend `solver` names, else the one $LOOPSYNTH_SOLVER names,
        else ``builtin``; ``z3-wasm`` names the bundled wrapper."""
        text = solver or os.environ.get(SOLVER_ENV) or BUILTIN
        try:
            command = tuple(shlex.split(text))
        except ValueError as e:
            raise SolverConfigError(f"bad solver command {text!r}: {e}") from None
        if not command:
            raise SolverConfigError(f"bad solver command {text!r}: it names no program")
        return SolverConfig(_bundled_wrapper() if command == (Z3_WASM,) else command)

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
            return Z3_WASM
        return os.path.basename(self.command[0]) if self.command else ""


def _bundled_wrapper() -> tuple[str, ...]:
    return ("node", str(resources.files("loopsynth").joinpath("data/z3smt2.mjs")))


@dataclass
class SolveResult:
    status: str  # sat | unsat | unknown
    model: dict[Var, ModelValue] = field(default_factory=dict)

    @property
    def rational(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.model.values())


# ---------------------------------------------------------------------------
# SMT-LIB emission


def emit_smtlib(clauses: Sequence[Clause], variables: Sequence[Var] | None = None) -> str:
    """Deterministic SMT-LIB 2 script for the clause set: the QF_NRA
    logic, one real constant per variable of the clauses, one assert per
    clause (its `Clause.smtlib` text), then check-sat and get-model.
    `variables`, when given, must be `variables_of(clauses)`."""
    variables = variables_of(clauses) if variables is None else variables
    lines = ["(set-logic QF_NRA)"]
    lines.extend(f"(declare-const {v.name} Real)" for v in variables)
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
    """The status line's answer, and the model read from the text after it."""
    by_name = {v.name: v for v in variables}
    lines = text.splitlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if line in ("sat", "unsat", "unknown"):
            status, rest = line, "\n".join(lines[i + 1:])
            break
        if line.startswith("(error"):
            raise SolverError(f"solver error: {line}")
    else:
        raise SolverError(f"no sat/unsat/unknown in solver output:\n{text[:2000]}")

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


def run_solver(script: str, cfg: SolverConfig, out: BinaryIO, err: BinaryIO) -> subprocess.Popen:
    """Start the external solver on `script` and return at once.

    The solver reads the script from an unnamed temporary file and writes
    its answer to the file `out` and its errors to the file `err`, so it
    never waits on this process, nothing it leaves running can hold a pipe
    open, and its answer is whole once it has exited.  It leads a session
    of its own, so `SolverRun` can kill whatever it starts along with it."""
    with tempfile.TemporaryFile() as stdin:
        stdin.write(script.encode())
        stdin.seek(0)
        try:
            return subprocess.Popen(list(cfg.command), stdin=stdin, stdout=out, stderr=err,
                                    start_new_session=True)
        except OSError as e:
            raise SolverError(f"cannot run solver {cfg.command[0]!r}: {e}") from None


class SolverRun:
    """One solve of `clauses` with the `cfg` backend, over `variables`,
    which, when given, must be `variables_of(clauses)`.

    An external solver is started when the run is made; `result` waits for
    it and `cancel` stops it.  However the run ends (read, timed out or
    cancelled), the solver's whole process group is killed and the solver
    reaped, so nothing it started outlives the run.  The built-in backend
    starts nothing and searches in `result`.
    A failure to start is raised by `result`, so runs made ahead of time
    report their errors in the order their results are read.  The run
    keeps only its message: a kept exception would hold, through its
    traceback, the frame that holds the run."""

    def __init__(self, clauses: Iterable[Clause], cfg: SolverConfig, variables: list[Var] | None = None):
        self.clauses = list(clauses)
        self.variables = variables_of(self.clauses) if variables is None else variables
        self.proc: subprocess.Popen | None = None
        self.error: str | None = None
        if not cfg.builtin:
            self.out, self.err = tempfile.TemporaryFile(), tempfile.TemporaryFile()
            try:
                script = emit_smtlib(self.clauses, self.variables)
                self.proc = run_solver(script, cfg, self.out, self.err)
            except SolverError as e:
                self.error = str(e)
                self.out.close()
                self.err.close()

    def result(self, deadline: float) -> SolveResult:
        """The answer by `deadline` (a `time.monotonic()` instant), exactly
        re-checked when it is a rational model."""
        if self.error is not None:
            raise SolverError(self.error)
        if deadline <= time.monotonic():
            self.cancel()
            raise SolverTimeout("no time budget left")
        if self.proc is None:
            result = solve_builtin(self.clauses, self.variables, deadline)
        else:
            result = parse_solver_output(self._output(deadline), self.variables)
        if result.status == "sat" and result.rational:
            violated = first_violated(self.clauses, result.model)
            if violated is not None:
                raise SolverError(f"solver model fails exact re-check on: {violated}")
        return result

    def _output(self, deadline: float) -> str:
        """The solver's answer, read from its output file once it has
        exited and whatever it left running has been killed."""
        with self.out, self.err:
            try:
                exited = _exits_by(self.proc, deadline)
            finally:  # however the wait ends, the solver's group goes
                self._stop()
            self.out.seek(0)
            self.err.seek(0)
            out, errors = self.out.read(), self.err.read(2000)
        if not exited:
            raise SolverTimeout("solver ran past the time budget")
        if self.proc.returncode not in (0, 1):  # some solvers exit 1 on unsat
            raise SolverError(f"solver exited with status {self.proc.returncode}: "
                              f"{errors.decode(errors='replace').strip()}")
        return out.decode(errors="replace")

    def _stop(self) -> None:
        """Kill the solver's process group, then reap the solver."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def cancel(self) -> None:
        """Kill the solver's process group and reap the solver, once."""
        if self.proc is None or self.out.closed:
            return
        with self.out, self.err:
            self._stop()


def _exits_by(proc: subprocess.Popen, deadline: float) -> bool:
    """Whether `proc` exits by `deadline`.  It is watched through a pidfd
    and left unreaped, so its process id still names its group when that
    is killed; where there is no pidfd, or none that `select` takes, it is
    reaped.  The wait is capped at the longest that the system supports,
    so an unbounded budget waits that long."""
    timeout = min(max(0.0, deadline - time.monotonic()), threading.TIMEOUT_MAX)
    try:
        exited = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        pass
    else:
        try:
            return bool(select.select([exited], [], [], timeout)[0])
        except ValueError:  # a descriptor number past select's limit
            pass
        finally:
            os.close(exited)
    try:
        proc.wait(timeout)
    except subprocess.TimeoutExpired:
        return False
    return True


def solve(clauses: Sequence[Clause], cfg: SolverConfig, deadline: float) -> SolveResult:
    """Solve the clauses by `deadline` (a `time.monotonic()` instant)."""
    return SolverRun(clauses, cfg).result(deadline)


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
