"""Truncated tensor-product grids and the sparse symmetric discretization of
-h^2 Lap_x - Lap_y + V with Dirichlet boundary conditions.

Interior nodes along a dimension with half-width L and N points sit at
-L + (i+1)*delta, delta = 2L/(N+1).  The flat index map is lexicographic with
the x-dimensions varying fastest: index = i_0 + N_0*(i_1 + N_1*(...)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from .potential import Potential

__all__ = [
    "Grid",
    "GridOperator",
    "build_grid",
    "assemble_hamiltonian",
    "axis_eigenpairs",
    "kinetic_operator",
    "laplacian_1d",
    "separable_inverse",
]

DEFAULT_SIZE_CAP = 2_000_000
DEFAULT_H_MAX = 1.0


@dataclass(frozen=True)
class Grid:
    n: int
    p: int
    half_widths: tuple
    points: tuple

    @property
    def dim(self) -> int:
        return self.n + self.p

    @property
    def spacing(self) -> tuple:
        return tuple(2 * l / (m + 1) for l, m in zip(self.half_widths, self.points))

    @property
    def size(self) -> int:
        return math.prod(self.points)

    def axis_coords(self, d: int) -> np.ndarray:
        l, m = self.half_widths[d], self.points[d]
        delta = 2 * l / (m + 1)
        return -l + delta * np.arange(1, m + 1)

    def node_coords(self) -> np.ndarray:
        """(size, dim) coordinates in flat-index order (dimension 0 fastest)."""
        axes = [self.axis_coords(d) for d in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel(order="F") for m in mesh], axis=1)

    def node_radii(self) -> np.ndarray:
        return np.linalg.norm(self.node_coords(), axis=1)

    def dirichlet_modes(self, h: float) -> list:
        """Per-axis eigenvalues of the Dirichlet stencils of -h^2 Lap_x - Lap_y,
        ascending: c (2 - 2 cos(j pi / (m+1))) / delta^2, j = 1..m, with
        c = h^2 on x-dimensions and 1 on y-dimensions."""
        modes = []
        for d, (m, delta) in enumerate(zip(self.points, self.spacing)):
            weight = h * h if d < self.n else 1.0
            j = np.arange(1, m + 1)
            modes.append(np.sort(weight * (2 - 2 * np.cos(j * np.pi / (m + 1))) / delta**2))
        return modes

    def signature(self) -> str:
        import hashlib

        key = repr((self.n, self.p, self.half_widths, self.points))
        return hashlib.sha256(key.encode()).hexdigest()[:16]


def build_grid(n: int, p: int, half_widths, points) -> Grid:
    if n < 1 or p < 0:
        raise ValueError(f"need n >= 1 and p >= 0, got n={n}, p={p}")
    half_widths = tuple(float(l) for l in half_widths)
    points = tuple(int(m) for m in points)
    if len(half_widths) != n + p or len(points) != n + p:
        raise ValueError(f"need {n + p} half-widths and point counts")
    if any(l <= 0 for l in half_widths):
        raise ValueError("half-widths must be positive")
    if any(m < 3 for m in points):
        raise ValueError("need at least 3 interior points per dimension")
    total = math.prod(points)
    if total > DEFAULT_SIZE_CAP:
        raise ValueError(f"grid size {total} exceeds the safety cap of {DEFAULT_SIZE_CAP} "
                         "nodes (a fixed limit, not derived from solver memory)")
    return Grid(n=n, p=p, half_widths=half_widths, points=points)


def laplacian_1d(m: int, delta: float) -> sp.csr_matrix:
    """Second-order central-difference -d^2/dx^2 with Dirichlet truncation."""
    main = np.full(m, 2.0 / delta**2)
    off = np.full(m - 1, -1.0 / delta**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def kinetic_operator(grid: Grid, h: float) -> sp.csr_matrix:
    """-h^2 Lap_x - Lap_y on the grid (x-dimension stencils scaled by h^2): the
    Kronecker sum of the per-axis stencils, dimension 0 fastest."""
    if not 0 < h <= DEFAULT_H_MAX:
        raise ValueError(f"h must lie in (0, {DEFAULT_H_MAX}], got {h}")
    total = None
    for d, (m, delta) in enumerate(zip(grid.points, grid.spacing)):
        stencil = (h * h if d < grid.n else 1.0) * laplacian_1d(m, delta)
        total = stencil if total is None else sp.kronsum(total, stencil, format="csr")
    return total


def axis_eigenpairs(grid: Grid, h: float, d: int, values) -> tuple:
    """Ascending eigenvalues and orthonormal eigenvector columns of the axis-d
    tridiagonal w_d * laplacian_1d + diag(values), w_d = h^2 on x-dimensions
    and 1 on y-dimensions: the axis-d term of H when V is a sum of one-variable
    terms, `values` being axis d's term at its nodes."""
    # imported here: importing scipy.linalg with this module, ahead of
    # scipy.sparse.linalg, measured 0.05 s slower set-up of the package
    from scipy.linalg import eigh_tridiagonal

    weight = h * h if d < grid.n else 1.0
    delta = grid.spacing[d]
    main = 2.0 * weight / delta**2 + np.asarray(values, dtype=float)
    off = np.full(grid.points[d] - 1, -weight / delta**2)
    return eigh_tridiagonal(main, off)


@dataclass(frozen=True, eq=False)
class GridOperator:
    grid: Grid
    h: float
    matrix: sp.csr_matrix
    potential: Potential
    potential_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def shift_below_spectrum(self) -> float:
        """A shift strictly below the spectrum of H = K + diag(V).

        K is a Kronecker sum of Dirichlet stencils, so its smallest eigenvalue
        is the sum of the per-axis ones; by Weyl's inequality min(V) plus it
        bounds the spectrum from below for any V.  Half of the kinetic minimum
        is kept as margin, so H - sigma I is positive definite even for
        constant V.
        """
        kinetic_min = sum(modes[0] for modes in self.grid.dirichlet_modes(self.h))
        return float(self.potential_values.min()) + 0.5 * kinetic_min


def assemble_hamiltonian(grid: Grid, pot: Potential, h: float) -> GridOperator:
    if pot.n != grid.n or pot.p != grid.p:
        raise ValueError(
            f"potential dims ({pot.n},{pot.p}) do not match grid ({grid.n},{grid.p})")
    vvals = pot.evaluate_many(grid.node_coords())
    mat = (kinetic_operator(grid, h) + sp.diags(vvals)).tocsr()
    mat.sum_duplicates()
    return GridOperator(grid=grid, h=h, matrix=mat, potential=pot,
                        potential_values=vvals)


def separable_inverse(op: GridOperator, z: float):
    """(H - zI)^{-1} as a LinearOperator by per-axis fast diagonalization
    (Lynch, Rice & Thomas, Numer. Math. 6, 1964), or None.

    It is built only when V is a sum of one-variable terms on the grid: its
    node values equal the sum of its per-axis slices through the node m of
    least V, minus (dim - 1) V(m), up to 1e-12 max(1, max |V|).  H - zI is
    then the Kronecker sum of the per-axis tridiagonals T_d = w_d stencil +
    diag(slice_d), less z + (dim - 1) V(m), and the eigendecompositions
    T_d = Q_d diag(lam_d) Q_d^T invert it; z must not be an eigenvalue of H.

    The dense Q_d are kept only while each takes at most the bytes of the two
    grid vectors the apply holds anyway (the denominators and its work
    array), N_d^2 <= 2 prod N: never on a 1D grid (N^2 <= 2N needs N <= 2),
    and in 2D while neither axis has more than twice the other's points.

    The apply makes one scipy BLAS dgemm per axis and direction.  numpy and
    scipy each load their own OpenBLAS with its own thread pool, and ARPACK
    runs on scipy's: an apply on numpy's inside an ARPACK iteration makes the
    two pools alternate and oversubscribe the cores."""
    # imported here like eigh_tridiagonal in axis_eigenpairs
    from scipy.linalg.blas import dgemm

    return _separable_inverse(
        op, z, lambda x, q, trans: dgemm(1.0, x, q, trans_a=1, trans_b=trans))


def _separable_inverse(op: GridOperator, z: float, product):
    """`separable_inverse` with the per-axis products left to the caller, so
    that they run on the BLAS of the iteration that applies the inverse:
    product(x, q, trans) returns x^T Q (trans 0) or x^T Q^T (trans 1) in
    Fortran order, x being Fortran-ordered."""
    grid = op.grid
    if max(grid.points) ** 2 > 2 * grid.size:
        return None
    # array axis a holds dimension dim - 1 - a, since dimension 0 runs fastest
    values = op.potential_values.reshape(grid.points[::-1])
    least = np.unravel_index(np.argmin(values), values.shape)
    slices = [values[least[:a] + (slice(None),) + least[a + 1:]] for a in range(grid.dim)]
    offset = (grid.dim - 1) * values[least]
    gap = np.abs(reduce(np.add.outer, slices) - offset - values).max()
    if gap > 1e-12 * max(1.0, float(np.abs(values).max())):
        return None
    pairs = [axis_eigenpairs(grid, op.h, d, s) for d, s in enumerate(slices[::-1])]
    denominators = (reduce(np.add.outer, [lam for lam, _ in reversed(pairs)])
                    - (z + offset)).ravel()

    def rotate(x, trans):
        # one product per axis: with x read as the (N_d, rest) matrix of its
        # leading axis d, x^T Q_d (or x^T Q_d^T) transforms axis d and moves
        # it last, so after all axes the order is the original one
        for _, q in pairs:
            x = product(x.reshape((q.shape[0], -1), order="F"), q, trans)
        return x.ravel(order="F")

    def apply(r):
        return rotate(rotate(r, 0) / denominators, 1)

    return LinearOperator((op.dim, op.dim), apply, dtype=float)
