"""Potentials V(x, y): quadratic forms and a small expression language.

Coordinates are split into n slow dimensions (x1..xn) and p fast dimensions
(y1..yp).  A potential is either an exact quadratic form <Ax,x> + <By,y> or an
arithmetic expression over the coordinate variables.  Python's parser reads
an expression, with `^` as its power operator; the resulting `ast.expr` is
checked against the grammar and then evaluated directly, node by node, on
numpy columns.
"""

from __future__ import annotations

import ast
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
# Expressions
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"([xy])([1-9]\d*)$")
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
_FUNCS = {"abs": np.abs, "exp": np.exp}


def _check(node: ast.expr, n: int, p: int, where) -> None:
    """Reject any node outside the grammar; `where(node)` is its position in the text."""
    def check(child):
        _check(child, n, p, where)

    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            float(node.value)
        except OverflowError:
            raise ExprError("number too large", where(node)) from None
    elif isinstance(node, ast.Name):
        m = _VAR_RE.match(node.id)
        if m is None:
            raise ExprError(f"unbound variable name {node.id!r}", where(node))
        axis, idx = m.group(1), int(m.group(2))
        bound = n if axis == "x" else p
        if idx > bound:
            raise ExprError(
                f"unbound variable {node.id!r}: only {bound} {axis}-dimension(s) declared",
                where(node),
            )
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        check(node.operand)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        # an integer literal, optionally negated
        negated = isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)
        literal = node.right.operand if negated else node.right
        if not (isinstance(literal, ast.Constant) and type(literal.value) is int):
            raise ExprError(f"expected integer exponent, found {_unparse(node.right)!r}",
                            where(node.right))
        check(node.left)
        check(literal)  # rejects an exponent too large for a float
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        check(node.left)
        check(node.right)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
        check(node.args[0])
    else:
        raise ExprError(f"unsupported expression {_unparse(node)!r}", where(node))


def _unparse(node: ast.expr) -> str:
    return ast.unparse(node).replace("**", "^")


def _eval_node(node: ast.expr, env: dict):
    """Evaluate a tree `_check` accepted; `env` maps variable names to columns."""
    if isinstance(node, ast.Constant):
        return float(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        return -_eval_node(node.operand, env)
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_eval_node(node.left, env),
                                      _eval_node(node.right, env))
    return _FUNCS[node.func.id](_eval_node(node.args[0], env))


@dataclass(frozen=True)
class PotentialExpr:
    """Parsed expression over x1..xn, y1..yp."""

    ast: ast.expr  # Python's tree of the text, `^` read as `**`
    n: int
    p: int

    def evaluate_many(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; coords has shape (m, n+p)."""
        coords = np.asarray(coords, dtype=float)
        env = {f"x{j + 1}": coords[:, j] for j in range(self.n)}
        env.update({f"y{j + 1}": coords[:, self.n + j] for j in range(self.p)})
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = _eval_node(self.ast, env)
        vals = np.broadcast_to(np.asarray(vals, dtype=float), (coords.shape[0],)).copy()
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise PotentialDomainError(
                f"expression evaluated to non-finite value at {coords[bad].tolist()}")
        return vals


def parse_potential(text: str, n: int, p: int) -> PotentialExpr:
    """Parse a potential expression with n x-variables and p y-variables.

    Python's parser reads the text with `^` as its power operator, so `^`
    binds tighter than unary minus and numbers follow Python's literal
    syntax; error positions index `text`.  p = 0 permits purely
    semiclassical operators with no fast dimensions.
    """
    if not text or not text.strip():
        raise ExprError("empty expression")
    if n < 1 or p < 0:
        raise ValueError(f"need n >= 1 and p >= 0, got n={n}, p={p}")
    # one character for one, so positions still index the user's text; any
    # whitespace (a newline in a multi-line config value) becomes a space
    text = re.sub(r"\s", " ", text.replace("−", "-"))  # unicode minus
    # `**` is not the power operator and `#` would start a Python comment;
    # beyond printable ASCII Python folds look-alike letters into names and
    # counts columns in UTF-8 bytes
    bad = re.search(r"\*\*|#|[^ -~]", text)
    if bad:
        raise ExprError(f"unexpected {bad.group()!r}", bad.start())
    body = text.lstrip()
    lead = len(text) - len(body)  # Python rejects an indented expression
    source = body.replace("^", "**")
    # position in `text` of each column of `source`, plus the end of input
    cols = [lead + i for i, ch in enumerate(body) for _ in range(1 + (ch == "^"))]
    cols.append(len(text))
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        col = exc.offset - 1 if exc.offset else len(source)
        raise ExprError(exc.msg, cols[min(col, len(source))]) from None
    _check(tree.body, n, p, lambda node: cols[node.col_offset])
    return PotentialExpr(tree.body, n, p)


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
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
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
