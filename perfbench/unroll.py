"""The benchmark's independent reference: plain-Fraction loop unrolling.

It reads the corpus loop notation with its own small reader, runs the loop
on concrete values and evaluates the invariant at each step.  It shares no
code with loopsynth, so the known answers it produces do not depend on the
program under test.  A nonzero invariant value at concrete parameter
values proves the invariant fails; finding none proves nothing, so the
benchmark only ever labels a loop "refuted" from a witness found here.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\S))")
_DELTAS = ["1", "2", "1/2", "3/4", "1/3"]


def _split_name(word: str, names: set[str]) -> list[str] | None:
    """`xz` -> [x, z] when both are known names, longest prefix first."""
    if not word:
        return []
    for cut in range(len(word), 0, -1):
        if word[:cut] in names:
            rest = _split_name(word[cut:], names)
            if rest is not None:
                return [word[:cut]] + rest
    return None


class _Expr:
    """One expression, read once and evaluated many times: `+ -` below
    `* /` and juxtaposition, which sit below unary minus, below `^`."""

    def __init__(self, text: str, names: set[str]):
        self.tokens: list[tuple[str, object]] = []
        for num, word, op in _TOKEN.findall(text):
            if num:
                self.tokens.append(("num", Fraction(int(num))))
            elif word:
                parts = _split_name(word, names)
                if parts is None:
                    raise KeyError(f"unknown name {word!r} in {text!r}")
                self.tokens.extend(("name", p) for p in parts)
            else:
                self.tokens.append(("op", op))

    def eval(self, env: dict[str, Fraction]) -> Fraction:
        self.env, self.i = env, 0
        v = self._sum()
        if self.i != len(self.tokens):
            raise ValueError(f"trailing input at token {self.tokens[self.i]}")
        return v

    def _peek(self) -> tuple[str, object]:
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", None)

    def _sum(self) -> Fraction:
        v = self._product()
        while self._peek() in (("op", "+"), ("op", "-")):
            sign = self.tokens[self.i][1]
            self.i += 1
            rhs = self._product()
            v = v + rhs if sign == "+" else v - rhs
        return v

    def _product(self) -> Fraction:
        v = self._unary()
        while True:
            kind, tok = self._peek()
            if kind == "op" and tok in ("*", "/"):
                self.i += 1
                rhs = self._unary()
                v = v * rhs if tok == "*" else v / rhs
            elif kind in ("num", "name") or (kind == "op" and tok == "("):
                v = v * self._power()
            else:
                return v

    def _unary(self) -> Fraction:
        if self._peek() == ("op", "-"):
            self.i += 1
            return -self._unary()
        return self._power()

    def _power(self) -> Fraction:
        kind, tok = self._peek()
        self.i += 1
        if kind == "num":
            v = tok
        elif kind == "name":
            v = self.env[tok]
        elif (kind, tok) == ("op", "("):
            v = self._sum()
            if self._peek() != ("op", ")"):
                raise ValueError("missing ')'")
            self.i += 1
        else:
            raise ValueError(f"unexpected token {tok!r}")
        if self._peek() == ("op", "^"):
            self.i += 1
            kind, exp = self._peek()
            if kind != "num":
                raise ValueError("exponent must be a number")
            self.i += 1
            v = v ** int(exp)
        return v


def _split_commas(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def _assignment(line: str) -> tuple[list[str], list[str]]:
    lhs, _, rhs = line.partition("=")
    return [t.strip() for t in lhs.split(",")], _split_commas(rhs)


def _lines(loop_text: str) -> tuple[tuple[list[str], list[str]], list[tuple[list[str], list[str]]]]:
    lines = [ln.strip() for ln in loop_text.splitlines() if ln.strip()]
    if lines[1] != "while true" or lines[-1] != "end":
        raise ValueError("expected 'while true' ... 'end'")
    return _assignment(lines[0]), [_assignment(ln) for ln in lines[2:-1]]


def _render(init: tuple[list[str], list[str]], body: list[tuple[list[str], list[str]]]) -> str:
    out = [f"{', '.join(init[0])} = {', '.join(init[1])}", "while true"]
    out += [f"{', '.join(t)} = {', '.join(e)}" for t, e in body]
    return "\n".join(out + ["end"])


def parameter_names(loop_text: str, invariant_text: str) -> list[str]:
    """Identifiers of the init line and the invariant that are not loop
    variables (nor products of loop variables, such as `xz`)."""
    (names, exprs), _ = _lines(loop_text)
    known = set(names)
    found: list[str] = []
    for text in exprs + [invariant_text]:
        for _, word, _ in _TOKEN.findall(text):
            if word and _split_name(word, known) is None and word not in found:
                found.append(word)
    return found


def first_failures(
    loop_text: str, invariant_text: str, params: dict[str, Fraction], steps: int
) -> list[int | None]:
    """For each invariant conjunct, the first iteration below `steps` at
    which it is nonzero, or None.  Updates run sequentially; a line with
    several targets assigns them simultaneously."""
    (names, exprs), body = _lines(loop_text)
    known = set(names) | set(params)
    env = dict(params)
    env.update(zip(names, [_Expr(e, known).eval(env) for e in exprs]))
    conjuncts = [[_Expr(side, known) for side in c.split("==")] for c in invariant_text.split("&&")]
    updates = [(targets, [_Expr(e, known) for e in rhss]) for targets, rhss in body]
    failures: list[int | None] = [None] * len(conjuncts)
    for n in range(steps):
        for k, (lhs, rhs) in enumerate(conjuncts):
            if failures[k] is None and lhs.eval(env) != rhs.eval(env):
                failures[k] = n
        if None not in failures:
            break
        for targets, rhss in updates:
            env.update(zip(targets, [e.eval(env) for e in rhss]))
    return failures


def random_params(names: list[str], rng: random.Random) -> dict[str, Fraction]:
    return {p: Fraction(rng.choice([-1, 1]) * rng.randint(1, 97), rng.randint(1, 13)) for p in names}


def refuted_variant(
    loop_text: str, invariant_text: str, index: int, rng: random.Random, early: int
) -> str:
    """The `index`-th refuted copy of the loop: one initial or update entry
    perturbed, kept only once concrete witnesses show every conjunct
    failing within the first `early` iterations.  Which entry, and whether
    it gains a constant or a multiple of a variable, depends only on the
    loop and `index`; the seeded `rng` picks the amount.  So a refuted loop
    costs about the same whatever the seed."""
    init, body = _lines(loop_text)
    entries = [(init, k) for k in range(len(init[1]))]
    entries += [(line, k) for line in body for k in range(len(line[1]))]
    shape = random.Random(f"{index}:{loop_text}")
    while True:
        line, k = shape.choice(entries)
        term = f"*{shape.choice(init[0])}" if line is not init and shape.random() < 0.5 else ""
        old = line[1][k]
        for _ in range(8):
            line[1][k] = f"{old} {rng.choice('+-')} {rng.choice(_DELTAS)}{term}"
            text = _render(init, body)
            line[1][k] = old
            params = random_params(parameter_names(text, invariant_text), rng)
            if None not in first_failures(text, invariant_text, params, early):
                return text
