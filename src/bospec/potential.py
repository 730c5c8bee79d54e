"""Potentials V(x, y): quadratic forms and a small expression language.

Coordinates are split into n slow dimensions (x1..xn) and p fast dimensions
(y1..yp).  A potential is either an exact quadratic form <Ax,x> + <By,y> or an
arithmetic expression over the coordinate variables.  Python's parser reads
an expression, with `^` as its power operator, and the resulting `ast.expr`
is checked against the grammar; a quadratic form is built as the `ast.expr`
of its terms.  Either tree is evaluated directly, node by node, on numpy
columns.
"""

from __future__ import annotations

import ast
import numbers
import re
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "ArgumentError",
    "ExprError",
    "PotentialDomainError",
    "NotPositiveDefiniteError",
    "Potential",
    "parse_potential",
    "oscillator_frequencies",
    "quadratic_potential",
    "expression_potential",
]


class ArgumentError(ValueError):
    """A refused value of `argument`; the CLI files it under the config key of that name."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


class ExprError(ArgumentError):
    """Syntax or binding error in a potential expression."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__("expression", message)


class PotentialDomainError(ValueError):
    """Evaluation produced a non-finite value (division by zero, overflow)."""


class NotPositiveDefiniteError(ArgumentError):
    """A quadratic-form matrix has an eigenvalue <= 0."""


# ---------------------------------------------------------------------------
# Argument rules, here in the bottom layer so that every module can import
# them; no __all__ names them, so perfbench's tracer wraps neither
# ---------------------------------------------------------------------------

DEFAULT_H_MAX = 1.0


def check_h(h: float) -> None:
    """Refuse an h outside (0, DEFAULT_H_MAX] with ArgumentError."""
    if not 0 < h <= DEFAULT_H_MAX:
        raise ArgumentError("h", f"h must lie in (0, {DEFAULT_H_MAX}], got {h}")


def check_count(name: str, value, least: int = 1, most: int | None = None) -> int:
    """`value` as an int when it is an integer, Python's or numpy's but not a
    bool, in [least, most] (with no upper end for most None); else
    ArgumentError naming `name` and the value, whose argument is `name`
    without any index (`points` for `points[2]`)."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and least <= value and (most is None or value <= most)):
        return int(value)
    span = f">= {least}" if most is None else f"in [{least}, {most}]"
    raise ArgumentError(name.partition("[")[0],
                        f"{name} must be an integer {span}, got {name}={value!r}")


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


def _broadcast(coords, dim: int) -> tuple:
    """`coords` as `dim` float arrays, one per dimension, and the shape they
    broadcast to.  TypeError unless `coords` is a list or tuple of numpy
    arrays, so that a table of points, the older form, is refused rather
    than read by columns; ValueError when their count differs from `dim` or
    they do not broadcast together."""
    if not (isinstance(coords, (list, tuple)) and all(isinstance(c, np.ndarray) for c in coords)):
        raise TypeError("coords must be a list or tuple of numpy arrays, one per dimension; "
                        "for an (m, n + p) table of points pass list(table.T)")
    coords = [np.asarray(c, dtype=float) for c in coords]
    if len(coords) != dim:
        raise ValueError(f"need {dim} coordinate arrays, one per dimension, got {len(coords)}")
    return coords, np.broadcast_shapes(*(c.shape for c in coords))


def _flat(vals, shape: tuple, coords: list) -> np.ndarray:
    """Values broadcast to `shape` as a new flat float array in C order: an
    array of that shape the evaluation made is kept, not copied, but one of
    the caller's `coords` (V = x1, say) or a smaller one is copied."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != shape or any(vals is c for c in coords):
        vals = np.array(np.broadcast_to(vals, shape))
    return vals.ravel()


def parse_potential(text: str, n: int, p: int) -> ast.expr:
    """Parse a potential expression with n x-variables and p y-variables.

    Python's parser reads the text with `^` as its power operator, so `^`
    binds tighter than unary minus and numbers follow Python's literal
    syntax; error positions index `text`.  p = 0 permits purely
    semiclassical operators with no fast dimensions.  Returns Python's
    tree of the text, `^` read as `**`, once `_check` accepted it.
    """
    if not text or not text.strip():
        raise ExprError("empty expression")
    n, p = check_count("n", n), check_count("p", p, least=0)
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
    return tree.body


# ---------------------------------------------------------------------------
# Potential objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Potential:
    kind: str  # "quadratic" | "expression"
    n: int
    p: int
    nonnegative_claimed: bool
    tree: ast.expr  # V over x1..xn, y1..yp, either kind
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    frequencies: tuple = field(default=())  # (w, mu) square roots, quadratic only

    @property
    def dim(self) -> int:
        return self.n + self.p

    def evaluate_many(self, coords) -> np.ndarray:
        """V at the nodes that `coords` spans, flat in C order: `coords` is a
        list or tuple of numpy arrays, one coordinate array per dimension
        (x1..xn, then y1..yp), that broadcast together, and V is evaluated on
        their broadcast.  The columns of an (m, n + p) table of points,
        `list(table.T)`, are one such set; per-axis coordinates shaped along
        separate array axes span a tensor grid without its table.  A table
        itself, an array or nested list of points, raises TypeError.
        PotentialDomainError names the coordinates of the first node where V
        is not finite."""
        coords, shape = _broadcast(coords, self.dim)
        names = [f"x{j + 1}" for j in range(self.n)] + [f"y{j + 1}" for j in range(self.p)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = _flat(_eval_node(self.tree, dict(zip(names, coords))), shape, coords)
        # min and max (0 on no nodes) carry any NaN or infinity, with no
        # grid-sized mask
        if not (np.isfinite(vals.min(initial=0.0)) and np.isfinite(vals.max(initial=0.0))):
            bad = np.unravel_index(int(np.flatnonzero(~np.isfinite(vals))[0]), shape)
            point = [float(np.broadcast_to(c, shape)[bad]) for c in coords]
            raise PotentialDomainError(f"potential evaluated to non-finite value at {point}")
        return vals

    def min_curvature(self) -> float:
        """Smallest eigenvalue of blkdiag(A, B); quadratic kind only."""
        if self.kind != "quadratic":
            raise ValueError("min_curvature requires a quadratic potential")
        w, mu = self.frequencies
        return float(min(list(w) + list(mu)) ** 2)


def oscillator_frequencies(a, argument: str = "a") -> tuple:
    """Ascending square roots of the eigenvalues of a symmetric PD matrix;
    else ArgumentError of `argument`, whose message names "matrix A" for "a"."""
    name = f"matrix {argument.upper()}"
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise ArgumentError(argument, f"{name} must be square")
    if not np.all(np.isfinite(a)):
        raise ArgumentError(argument, f"{name} must be finite")
    # a is finite, so this decides as np.allclose(a, a.T, rtol=0, atol=...)
    if np.abs(a - a.T).max() > 1e-12 * max(1.0, np.abs(a).max()):
        raise ArgumentError(argument, f"{name} must be symmetric")
    # LAPACK's dsyevd on the lower triangle, the routine numpy's eigvalsh
    # runs, on scipy's LAPACK
    eigs, _, info = lapack.dsyevd(a, compute_v=0, lower=1)
    if info != 0:
        raise ArgumentError(argument, f"{name}: LAPACK dsyevd failed (info {info})")
    if np.any(eigs <= 0):
        raise NotPositiveDefiniteError(
            argument, f"{name} is not positive definite (eigenvalue {eigs.min():g})")
    return tuple(np.sort(np.sqrt(eigs)))


def _form_tree(matrix: np.ndarray, axis: str) -> ast.expr:
    """<Mc,c> over the `axis` coordinates: every term m_ij * c_i * c_j in row
    order, zero entries included, summed left to right."""
    names = [ast.Name(f"{axis}{i + 1}", ast.Load()) for i in range(len(matrix))]
    terms = [ast.BinOp(ast.BinOp(ast.Constant(float(matrix[i, j])), ast.Mult(), ci),
                       ast.Mult(), cj)
             for i, ci in enumerate(names) for j, cj in enumerate(names)]
    return reduce(lambda total, term: ast.BinOp(total, ast.Add(), term), terms)


def _form_matrix(m, argument: str):
    """`m` symmetrized as (M+M^T)/2, with its frequencies; else ArgumentError."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ArgumentError(argument, f"{argument.upper()} must be square")
    m = (m + m.T) / 2
    return m, oscillator_frequencies(m, argument)


def quadratic_potential(a, b=None) -> Potential:
    """Build V(x, y) = <Ax,x> + <By,y>; matrices are symmetrized as (M+M^T)/2.

    Both matrices must be strictly positive definite (omit B for p = 0).
    A is checked whole before B, so a refusal of both names `a`.
    """
    a, w = _form_matrix(a, "a")
    b, mu = _form_matrix(b, "b") if b is not None and np.size(b) > 0 else (None, ())
    tree = _form_tree(a, "x")
    if b is not None:
        tree = ast.BinOp(tree, ast.Add(), _form_tree(b, "y"))
    return Potential(
        kind="quadratic",
        n=a.shape[0],
        p=0 if b is None else b.shape[0],
        nonnegative_claimed=True,
        tree=tree,
        a=a,
        b=b,
        frequencies=(w, mu),
    )


def expression_potential(text: str, n: int, p: int,
                         nonnegative: bool = False) -> Potential:
    tree = parse_potential(text, n, p)  # refuses n and p unless they are counts
    return Potential(kind="expression", n=int(n), p=int(p), nonnegative_claimed=nonnegative,
                     tree=tree)
