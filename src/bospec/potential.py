"""Potentials V(x, y): quadratic forms and a small expression language.

Coordinates are split into n slow dimensions (x1..xn) and p fast dimensions
(y1..yp).  A potential is either an exact quadratic form <Ax,x> + <By,y> or a
parsed arithmetic expression over the coordinate variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExprError",
    "PotentialDomainError",
    "NotPositiveDefiniteError",
    "PotentialExpr",
    "Potential",
    "parse_potential",
    "oscillator_frequencies",
    "quadratic_potential",
    "expression_potential",
]


class ExprError(ValueError):
    """Syntax or binding error in a potential expression."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PotentialDomainError(ValueError):
    """Evaluation produced a non-finite value (division by zero, overflow)."""


class NotPositiveDefiniteError(ValueError):
    """A quadratic-form matrix has an eigenvalue <= 0."""


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    axis: str   # "x" or "y"
    index: int  # 1-based within its axis


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*", "/"
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str  # "abs" or "exp"
    arg: "Node"


Node = Num | Var | Neg | BinOp | Pow | Call

_FUNCS = ("abs", "exp")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExprError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        for kind in ("num", "ident", "op"):
            if m.group(kind) is not None:
                start = m.start(kind)
                text_val = text[start:m.end()]
                tokens.append((kind, text_val, start))
                break
        pos = m.end()
    return tokens


_VAR_RE = re.compile(r"([xy])([1-9]\d*)$")


class _Parser:
    """Precedence-climbing parser for the fixed arithmetic grammar."""

    def __init__(self, text: str, n: int, p: int):
        self.text = text
        self.n = n
        self.p = p
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}, found {val!r}" if kind != "end"
                            else f"expected {op!r}, found end of input", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected trailing token {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = Pow(node, self.integer())
        return node

    def integer(self) -> int:
        sign = 1
        kind, val, pos = self.next()
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.next()
        if kind != "num":
            raise ExprError(f"expected integer exponent, found {val!r}", pos)
        if not re.fullmatch(r"\d+", val):
            raise ExprError(f"non-integer exponent {val!r}", pos)
        return sign * int(val)

    def base(self) -> Node:
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "op" and val == "-":
            return Neg(self.base())
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if val in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            m = _VAR_RE.match(val)
            if m is None:
                raise ExprError(f"unbound variable name {val!r}", pos)
            axis, idx = m.group(1), int(m.group(2))
            bound = self.n if axis == "x" else self.p
            if idx > bound:
                raise ExprError(
                    f"unbound variable {val!r}: only {bound} {axis}-dimension(s) declared",
                    pos,
                )
            return Var(axis, idx)
        if kind == "end":
            raise ExprError("unexpected end of input", pos)
        raise ExprError(f"unexpected token {val!r}", pos)


def to_string(node: Node) -> str:
    """Fully parenthesized rendering; reparsing yields the identical AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return f"{node.axis}{node.index}"
    if isinstance(node, Neg):
        # parenthesize the operand: "^" would otherwise bind to the negated base
        return f"(-({to_string(node.operand)}))"
    if isinstance(node, BinOp):
        return f"({to_string(node.left)} {node.op} {to_string(node.right)})"
    if isinstance(node, Pow):
        base = to_string(node.base)
        if isinstance(node.base, (BinOp, Neg, Pow)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({to_string(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


def _eval_node(node: Node, xs, ys):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return xs[node.index - 1] if node.axis == "x" else ys[node.index - 1]
    if isinstance(node, Neg):
        return -_eval_node(node.operand, xs, ys)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, xs, ys)
        b = _eval_node(node.right, xs, ys)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return np.divide(a, b)
    if isinstance(node, Pow):
        return np.power(_eval_node(node.base, xs, ys), float(node.exponent))
    if isinstance(node, Call):
        v = _eval_node(node.arg, xs, ys)
        return np.abs(v) if node.func == "abs" else np.exp(v)
    raise TypeError(f"not an AST node: {node!r}")


@dataclass(frozen=True)
class PotentialExpr:
    """Parsed expression over x1..xn, y1..yp."""

    ast: Node
    n: int
    p: int

    def evaluate(self, point) -> float:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.n + self.p,):
            raise ValueError(
                f"point has dimension {point.shape}, expected {self.n + self.p}")
        return float(self.evaluate_many(point[None, :])[0])

    def evaluate_many(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; coords has shape (m, n+p)."""
        coords = np.asarray(coords, dtype=float)
        xs = [coords[:, j] for j in range(self.n)]
        ys = [coords[:, self.n + j] for j in range(self.p)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = _eval_node(self.ast, xs, ys)
        vals = np.broadcast_to(np.asarray(vals, dtype=float), (coords.shape[0],)).copy()
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise PotentialDomainError(
                f"expression evaluated to non-finite value at {coords[bad].tolist()}")
        return vals


def parse_potential(text: str, n: int, p: int) -> PotentialExpr:
    """Parse a potential expression with n x-variables and p y-variables.

    p = 0 permits purely semiclassical operators with no fast dimensions.
    """
    if not text or not text.strip():
        raise ExprError("empty expression")
    if n < 1 or p < 0:
        raise ValueError(f"need n >= 1 and p >= 0, got n={n}, p={p}")
    text = text.replace("−", "-")  # unicode minus
    return PotentialExpr(_Parser(text, n, p).parse(), n, p)


# ---------------------------------------------------------------------------
# Potential objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Potential:
    kind: str  # "quadratic" | "expression"
    n: int
    p: int
    nonnegative_claimed: bool
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    expr: PotentialExpr | None = None
    frequencies: tuple = field(default=())  # (w, mu) square roots, quadratic only

    @property
    def dim(self) -> int:
        return self.n + self.p

    def evaluate(self, point) -> float:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(
                f"point has shape {point.shape}, expected ({self.dim},)")
        return float(self.evaluate_many(point[None, :])[0])

    def evaluate_many(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise ValueError(f"coords must have shape (m, {self.dim})")
        if self.kind == "quadratic":
            x = coords[:, : self.n]
            vals = np.einsum("mi,ij,mj->m", x, self.a, x)
            if self.p:
                y = coords[:, self.n:]
                vals = vals + np.einsum("mi,ij,mj->m", y, self.b, y)
            return vals
        return self.expr.evaluate_many(coords)

    def min_curvature(self) -> float:
        """Smallest eigenvalue of blkdiag(A, B); quadratic kind only."""
        if self.kind != "quadratic":
            raise ValueError("min_curvature requires a quadratic potential")
        w, mu = self.frequencies
        return float(min(list(w) + list(mu)) ** 2)


def oscillator_frequencies(a, name: str = "matrix") -> tuple:
    """Ascending square roots of the eigenvalues of a symmetric PD matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.allclose(a, a.T, rtol=0, atol=1e-12 * max(1.0, np.abs(a).max())):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(a)
    if np.any(eigs <= 0):
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (eigenvalue {eigs.min():g})")
    return tuple(np.sort(np.sqrt(eigs)))


def quadratic_potential(a, b=None) -> Potential:
    """Build V(x, y) = <Ax,x> + <By,y>; matrices are symmetrized as (M+M^T)/2.

    Both matrices must be strictly positive definite (omit B for p = 0).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    a = (a + a.T) / 2
    if b is not None and np.size(b) > 0:
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if b.shape[0] != b.shape[1]:
            raise ValueError("B must be square")
        b = (b + b.T) / 2
    else:
        b = None
    w = oscillator_frequencies(a, "matrix A")
    mu = () if b is None else oscillator_frequencies(b, "matrix B")
    return Potential(
        kind="quadratic",
        n=a.shape[0],
        p=0 if b is None else b.shape[0],
        nonnegative_claimed=True,
        a=a,
        b=b,
        frequencies=(w, mu),
    )


def expression_potential(text: str, n: int, p: int,
                         nonnegative: bool = False) -> Potential:
    expr = parse_potential(text, n, p)
    return Potential(kind="expression", n=n, p=p,
                     nonnegative_claimed=nonnegative, expr=expr)
