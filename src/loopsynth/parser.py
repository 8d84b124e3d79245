"""Text front end: polynomial invariant expressions, synthesis spec files,
and affine loop files.

The expression grammar accepts the informal notation used throughout the
benchmark corpus: `^` for powers, implicit multiplication (`2y`, `3x(x-1)`,
`1/2 a0`), rational literals via `/`, `==` for equations and `&&` for
conjunction.  Implicit multiplication binds tighter than explicit `*`/`/`
operands joined by whitespace do not, and `^` binds tighter than implicit
multiplication (`2y^2` is `2*(y^2)`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .poly import Polynomial, Var
from .verify import ConcreteSystem

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>==|&&|[-+*/^(),=])|(?P<bad>\S))"
)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


@dataclass
class _Token:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    idx = 0
    while idx < len(text):
        m = _TOKEN_RE.match(text, idx)
        if not m:
            break
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
        for kind in ("num", "ident", "op"):
            if m.group(kind):
                out.append(_Token(kind, m.group(kind), m.start(kind)))
        idx = m.end()
    out.append(_Token("end", "", len(text)))
    return out


def _split_ident(name: str, known: Mapping[str, Var]) -> list[Var] | None:
    """Split an unknown identifier into known names (e.g. `ab`, `3xz`
    after tokenizing, `2y`): the split that takes the longest known prefix
    whose rest splits, then splits that rest the same way.  A table over
    suffix positions bounds the work by the identifier's length times the
    longest known name's, with no recursion."""
    longest = max(map(len, known), default=0)
    # cut[i]: where the piece starting at i ends, if name[i:] splits
    cut: list[int | None] = [None] * len(name) + [len(name)]
    for i in range(len(name) - 1, -1, -1):
        for j in range(min(len(name), i + longest), i, -1):
            if cut[j] is not None and name[i:j] in known:
                cut[i] = j
                break
    if cut[0] is None:
        return None
    out, i = [], 0
    while i < len(name):
        out.append(known[name[i:cut[i]]])
        i = cut[i]
    return out


class ExprParser:
    """Recursive-descent parser producing exact polynomials."""

    def __init__(self, text: str, symbols: Mapping[str, Var]):
        self.text = text
        self.symbols = dict(symbols)
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.advance()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)

    # expr := term (('+'|'-') term)*
    def expr(self) -> Polynomial:
        tok = self.peek()
        negate = False
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            negate = tok.text == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                acc = acc + rhs if tok.text == "+" else acc - rhs
            else:
                return acc

    # term := chunk (('*'|'/') chunk)*    (explicit operators)
    def term(self) -> Polynomial:
        acc = self.chunk()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.chunk()
                if tok.text == "*":
                    acc = acc * rhs
                else:
                    if not rhs.is_constant() or rhs.is_zero():
                        raise ParseError("division only by nonzero numeric constants", tok.pos)
                    acc = acc.scale(1 / rhs.constant_value())
            else:
                return acc

    # chunk := factor factor*             (implicit multiplication)
    def chunk(self) -> Polynomial:
        acc = self.factor()
        while True:
            tok = self.peek()
            if tok.kind in ("num", "ident") or (tok.kind == "op" and tok.text == "("):
                acc = acc * self.factor()
            else:
                return acc

    # factor := primary ('^' num)?
    def factor(self) -> Polynomial:
        base = self.primary()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp = self.advance()
            if exp.kind != "num":
                raise ParseError("exponent must be a nonnegative integer", exp.pos)
            return base ** int(exp.text)
        return base

    def primary(self) -> Polynomial:
        tok = self.advance()
        if tok.kind == "num":
            value = Fraction(int(tok.text))
            # rational literal: integer '/' integer binds as one number
            nxt = self.peek()
            if (
                nxt.kind == "op"
                and nxt.text == "/"
                and self.tokens[self.i + 1].kind == "num"
            ):
                self.advance()
                den = int(self.advance().text)
                if den == 0:
                    raise ParseError("division by zero", nxt.pos)
                value /= den
            return Polynomial.const(value)
        if tok.kind == "ident":
            if tok.text in self.symbols:
                return Polynomial.var(self.symbols[tok.text])
            parts = _split_ident(tok.text, self.symbols)
            if parts is None:
                raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
            acc = Polynomial.const(1)
            for v in parts:
                acc = acc * Polynomial.var(v)
            return acc
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if tok.kind == "op" and tok.text == "-":
            return -self.factor()
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def at_end(self) -> bool:
        return self.peek().kind == "end"


def parse_expression(text: str, symbols: Mapping[str, Var]) -> Polynomial:
    p = ExprParser(text, symbols)
    result = _descend(p.expr)
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return result


def parse_equation(text: str, symbols: Mapping[str, Var]) -> Polynomial:
    """`lhs == rhs` (or `lhs = rhs`) as the polynomial lhs - rhs."""
    p = ExprParser(text, symbols)
    lhs = _descend(p.expr)
    tok = p.advance()
    if tok.kind != "op" or tok.text not in ("==", "="):
        raise ParseError("expected '==' between the sides of an equation", tok.pos)
    rhs = _descend(p.expr)
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return lhs - rhs


def _descend(parse: Callable[[], Polynomial]) -> Polynomial:
    """Run a recursive-descent `parse`, turning Python's recursion limit
    into a `ParseError`."""
    try:
        return parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


def parse_invariant(text: str, symbols: Mapping[str, Var]) -> list[Polynomial]:
    """A conjunction of equations separated by '&&'."""
    return [parse_equation(part, symbols) for part in text.split("&&")]


# ---------------------------------------------------------------------------
# spec files


@dataclass
class SpecFile:
    """A synthesis problem description.

    Line-oriented format; '#' starts a comment.  Recognized lines:

        vars x y z              ordered program variables
        params x0=x y0=y        parameter symbols naming initial values
        invariant <equations>   conjunction with '&&', may repeat
        init x=0 n=1/2          pinned initial values
        size 5                  system size (default: number of vars)
        tier un|up|fu|auto      shape tier filter
        aux-one                 inject a constant-one auxiliary variable
        timeout 60              solver budget in seconds
        reconstructed           marks a transcription that has no printed source
    """

    var_names: list[str] = field(default_factory=list)
    params: list[tuple[str, str]] = field(default_factory=list)  # (param, var)
    invariant_texts: list[str] = field(default_factory=list)
    init_pins: dict[str, Fraction] = field(default_factory=dict)
    size: int | None = None
    tier: str = "auto"
    aux_one: bool = False
    timeout: float | None = None
    reconstructed: bool = False

    def symbols(self) -> dict[str, Var]:
        out = {
            name: Var(name, "program", pos)
            for pos, name in enumerate(self.var_names)
        }
        for pname, _ in self.params:
            if pname in out:
                raise ParseError(f"parameter {pname!r} collides with a variable")
            out[pname] = Var(pname, "param")
        return out

    def invariants(self) -> list[Polynomial]:
        syms = self.symbols()
        out = []
        for text in self.invariant_texts:
            out.extend(parse_invariant(text, syms))
        return out


def parse_spec(text: str) -> SpecFile:
    spec = SpecFile()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            _parse_spec_line(spec, key, rest)
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from None
    if not spec.var_names:
        raise ParseError("spec declares no variables")
    if not spec.invariant_texts:
        raise ParseError("spec declares no invariant")
    seen: dict[str, str] = {}
    for pname, vname in spec.params:
        if vname not in spec.var_names:
            raise ParseError(f"parameter {pname!r} refers to unknown variable {vname!r}")
        if pname in seen:
            raise ParseError(f"parameter {pname!r} is declared twice")
        if vname in seen.values():
            raise ParseError(f"variable {vname!r} is named by two parameters")
        seen[pname] = vname
    for name in spec.init_pins:
        if name not in spec.var_names:
            raise ParseError(f"pinned initial value for unknown variable {name!r}")
        if any(vname == name for _, vname in spec.params):
            raise ParseError(f"variable {name!r} is both pinned and parameterized")
    return spec


def _parse_spec_line(spec: SpecFile, key: str, rest: str) -> None:
    if key == "vars":
        names = rest.split()
        if not names or len(set(names)) != len(names):
            raise ParseError("vars line needs distinct names")
        spec.var_names = names
    elif key == "params":
        for item in rest.split():
            pname, sep, vname = item.partition("=")
            if not sep:
                raise ParseError(f"expected param=var, found {item!r}")
            spec.params.append((pname, vname))
    elif key == "invariant":
        if not rest:
            raise ParseError("empty invariant line")
        spec.invariant_texts.append(rest)
    elif key == "init":
        for item in rest.split():
            name, sep, value = item.partition("=")
            if not sep:
                raise ParseError(f"expected var=value, found {item!r}")
            spec.init_pins[name] = _number(Fraction, value)
    elif key == "size":
        spec.size = _number(int, rest)
    elif key == "tier":
        if rest not in ("un", "up", "fu", "auto"):
            raise ParseError(f"unknown tier {rest!r}")
        spec.tier = rest
    elif key == "aux-one":
        spec.aux_one = True
    elif key == "timeout":
        spec.timeout = _number(float, rest)
        if not spec.timeout > 0:
            raise ParseError(f"timeout must be positive, found {rest!r}")
    elif key == "reconstructed":
        spec.reconstructed = True
    else:
        raise ParseError(f"unknown directive {key!r}")


def _number(kind: type, text: str):
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {text!r}") from None


# ---------------------------------------------------------------------------
# loop files


@dataclass
class LoopFile:
    """A parsed affine loop plus the linear system it denotes."""

    var_names: list[str]
    param_names: list[str]
    system: ConcreteSystem

    def symbols(self) -> dict[str, Var]:
        out = {v.name: v for v in self.system.vars}
        for p in self.param_names:
            out[p] = Var(p, "param")
        return out


def parse_loop(text: str) -> LoopFile:
    """Parse a loop in the corpus notation:

        r, q, y = x0, 0, y0
        while true
          r = r - q - y
          q = q + 1
        end

    Update lines execute sequentially (each sees the values written above
    it); a multi-target line assigns simultaneously.  Identifiers in the
    init line that are not loop variables become parameters.  Affine
    constants are absorbed into a hidden constant-one variable so the
    resulting system is strictly linear.
    """
    lines = [
        ln.split("#", 1)[0].strip()
        for ln in text.splitlines()
    ]
    lines = [ln for ln in lines if ln]
    if len(lines) < 3:
        raise ParseError("loop file needs an init line, 'while true', and 'end'")
    init_line = lines[0]
    if lines[1].replace(" ", "") not in ("whiletrue", "while(true)"):
        raise ParseError(f"expected 'while true', found {lines[1]!r}")
    if lines[-1] != "end":
        raise ParseError("loop file must end with 'end'")
    body = lines[2:-1]

    targets, init_texts = _parse_assign_line(init_line)
    if len(set(targets)) != len(targets):
        raise ParseError("duplicate variable in the init line")
    prog_vars = [Var(name, "program", pos) for pos, name in enumerate(targets)]
    by_name = {v.name: v for v in prog_vars}

    # parameters: unknown identifiers in the init expressions
    param_names: list[str] = []
    for t in init_texts:
        for tok in _tokenize(t):
            if tok.kind == "ident" and tok.text not in by_name and tok.text not in param_names:
                if _split_ident(tok.text, by_name) is None:
                    param_names.append(tok.text)
    symbols: dict[str, Var] = dict(by_name)
    for p in param_names:
        symbols[p] = Var(p, "param")

    init_polys = [parse_expression(t, symbols) for t in init_texts]

    # fold the body into a single simultaneous update by forward substitution
    state: dict[Var, Polynomial] = {v: Polynomial.var(v) for v in prog_vars}
    body_symbols = dict(by_name)  # parameters may not appear in updates
    for line in body:
        tgts, exprs = _parse_assign_line(line)
        for name in tgts:
            if name not in by_name:
                raise ParseError(f"assignment to undeclared variable {name!r}")
        parsed = [parse_expression(t, body_symbols) for t in exprs]
        substituted = [p.substitute(state) for p in parsed]
        for name, value in zip(tgts, substituted):
            state[by_name[name]] = value

    return LoopFile(
        var_names=list(targets),
        param_names=param_names,
        system=_linearize(prog_vars, state, init_polys),
    )


def _parse_assign_line(line: str) -> tuple[list[str], list[str]]:
    lhs, sep, rhs = line.partition("=")
    if not sep or rhs.startswith("="):
        raise ParseError(f"expected an assignment, found {line!r}")
    targets = [t.strip() for t in lhs.split(",")]
    exprs = _split_top_level(rhs)
    if len(targets) != len(exprs):
        raise ParseError(f"assignment arity mismatch in {line!r}")
    for t in targets:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", t):
            raise ParseError(f"bad assignment target {t!r}")
    return targets, exprs


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _linearize(
    prog_vars: list[Var],
    update: Mapping[Var, Polynomial],
    init: Sequence[Polynomial],
) -> ConcreteSystem:
    """Turn affine updates into a linear system, adding a constant-one
    variable when any update carries an additive constant."""
    s = len(prog_vars)
    rows: list[list[Fraction]] = []
    consts: list[Fraction] = []
    for v in prog_vars:
        p = update[v]
        row = [Fraction(0)] * s
        const = Fraction(0)
        for mono, coeff in p.terms.items():
            if mono.degree == 0:
                const = Fraction(coeff)
            elif mono.degree == 1:
                (uvar, _), = mono
                if uvar not in prog_vars:
                    raise ParseError(f"update for {v.name!r} uses unknown symbol {uvar.name!r}")
                row[prog_vars.index(uvar)] = Fraction(coeff)
            else:
                raise ParseError(f"update for {v.name!r} is not affine: {p}")
        rows.append(row)
        consts.append(const)

    init_vals: list[Polynomial | Fraction] = [
        p.constant_value() if p.is_constant() else p for p in init
    ]
    if any(c != 0 for c in consts):
        one = Var("_one", "program", s)
        for row, c in zip(rows, consts):
            row.append(c)
        rows.append([Fraction(0)] * s + [Fraction(1)])
        prog_vars = prog_vars + [one]
        init_vals.append(Fraction(1))
    return ConcreteSystem(
        vars=tuple(prog_vars),
        update=tuple(tuple(row) for row in rows),
        init=tuple(init_vals),
    )
