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

from .potential import Potential

__all__ = [
    "BLAS_SIDES",
    "Grid",
    "GridOperator",
    "SeparableDecomposition",
    "build_grid",
    "assemble_hamiltonian",
    "axis_eigenpairs",
    "kinetic_operator",
    "laplacian_1d",
    "eigenbasis_inverse",
    "separable_decomposition",
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
        """|X| per node in flat-index order, from outer sums of the per-axis
        squares in dimension order, without the coordinate table."""
        squares = reduce(np.add.outer, [self.axis_coords(d) ** 2 for d in range(self.dim)])
        return np.sqrt(squares).ravel(order="F")

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
    Kronecker sum of the per-axis stencils, dimension 0 fastest, assembled
    from its bands like `assemble_hamiltonian` with V = 0."""
    return _band_matrix(grid, h, 0.0)


def _band_matrix(grid: Grid, h: float, potential_values) -> sp.csr_matrix:
    """The kinetic operator plus diag(potential_values) in canonical CSR,
    converted by scipy from its 2 dim + 1 bands in DIA layout.

    The couplings of a node to its neighbours one stride of dimension d away
    are w_d * (-1 / delta_d^2), zeroed where they would cross an end of axis
    d, and the main band is sum_d w_d * (2 / delta_d^2), summed in dimension
    order, plus V.  Each value is formed as w_d * laplacian_1d,
    scipy.sparse.kronsum and a sparse add of diags(V) form it, and the
    conversion drops zero entries as that add does, so the matrix equals
    theirs bit for bit."""
    if not 0 < h <= DEFAULT_H_MAX:
        raise ValueError(f"h must lie in (0, {DEFAULT_H_MAX}], got {h}")
    dim, size = grid.dim, grid.size
    strides = [math.prod(grid.points[:d]) for d in range(dim)]
    offsets = [0] + strides + [-s for s in strides]
    # band k holds the entry (j - offsets[k], j) at column j
    data = np.empty((len(offsets), size))
    # array axis 1 + a holds dimension dim - 1 - a, since dimension 0 runs fastest
    nodes = data.reshape((len(offsets),) + grid.points[::-1])
    main = 0.0
    for d, delta in enumerate(grid.spacing):
        weight = h * h if d < grid.n else 1.0
        # a loop, not sum(): Python 3.12's sum() compensates float rounding
        main = main + weight * (2.0 / delta**2)
        # the coupling one stride up crosses the end of axis d where its
        # column is the first node along d, the one down where it is the last
        edge = [slice(None)] * dim
        for band, end in ((1 + d, 0), (1 + dim + d, -1)):
            data[band] = weight * (-1.0 / delta**2)
            edge[dim - 1 - d] = end
            nodes[(band, *edge)] = 0.0
    data[0] = main + potential_values
    return sp.dia_matrix((data, offsets), shape=(size, size)).tocsr()


def _axis_tridiagonal(grid: Grid, h: float, d: int, values) -> tuple:
    """Main and off diagonal of the axis-d tridiagonal w_d * laplacian_1d +
    diag(values), w_d = h^2 on x-dimensions and 1 on y-dimensions."""
    weight = h * h if d < grid.n else 1.0
    delta = grid.spacing[d]
    main = 2.0 * weight / delta**2 + np.asarray(values, dtype=float)
    return main, np.full(grid.points[d] - 1, -weight / delta**2)


# numpy and scipy each load their own OpenBLAS with its own thread pool.  The
# eigensolver runs ARPACK's products on scipy's; the probe applies its inverse
# and takes its norms on numpy's.  A threaded call on the other pool leaves
# that pool's workers spinning while the work goes on, so on 2 cores three
# threads compete: the eigensolver with its decomposition on numpy's side was
# 2.1-2.6x slower on grids up to 255^2, and the probe with its decomposition
# on scipy's side took 52.1 ms per probe-2d pass against 26.9 ms.  So each
# separable decomposition runs every threaded BLAS call on one side, the BLAS
# of the work that applies it: its axis eigensolver as well as its products.
# LAPACK's dpttrf and dpttrs are unthreaded and serve both sides.
BLAS_SIDES = ("scipy", "numpy")


def axis_eigenpairs(grid: Grid, h: float, d: int, values, blas: str) -> tuple:
    """Ascending eigenvalues and orthonormal eigenvector columns of the axis-d
    tridiagonal w_d * laplacian_1d + diag(values), w_d = h^2 on x-dimensions
    and 1 on y-dimensions: the axis-d term of H when V is a sum of one-variable
    terms, `values` being axis d's term at its nodes.

    On the "scipy" side by eigh_tridiagonal, whose LAPACK dstevd calls dgemm
    on scipy's BLAS in its merges; on the "numpy" side by numpy's eigh of the
    dense tridiagonal, whose N_d^2 entries are the size of the eigenvectors."""
    main, off = _axis_tridiagonal(grid, h, d, values)
    if blas == "numpy":
        # eigh reads the lower triangle only
        dense = np.diag(main)
        np.fill_diagonal(dense[1:], off)
        return np.linalg.eigh(dense)
    # imported here: importing scipy.linalg with this module, ahead of
    # scipy.sparse.linalg, measured 0.05 s slower set-up of the package
    from scipy.linalg import eigh_tridiagonal

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
        """A shift strictly below the spectrum of H = K + diag(V), for any V:
        the eigensolver's shift when V is not a sum of one-variable terms
        (else it shifts from the exact lowest eigenvalue of
        `separable_decomposition`), and, less 1, the probe's resolvent point.

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
    return GridOperator(grid=grid, h=h, matrix=_band_matrix(grid, h, vvals),
                        potential=pot, potential_values=vvals)


def _product(blas: str, x, q, back: bool):
    """The dense product of `SeparableDecomposition.rotate` (back false) and
    `rotate_back` (back true) on the given BLAS side, in Fortran order: x^T Q
    for the Fortran-ordered (N_d, rest) matrix x, or Q x^T for the
    Fortran-ordered (rest, N_d) matrix x."""
    if blas == "numpy":
        return (x @ q.T).T if back else (q.T @ x).T
    # imported here like eigh_tridiagonal in axis_eigenpairs
    from scipy.linalg.blas import dgemm

    return dgemm(1.0, q, x, trans_b=1) if back else dgemm(1.0, x, q, trans_a=1)


def _separable_split(op: GridOperator):
    """The per-axis slices of V through its node m of least V, indexed by
    dimension, and the offset (dim - 1) V(m), when V is a sum of one-variable
    terms on the grid: its node values equal the sum of the slices minus the
    offset, up to 1e-12 max(1, max |V|).  Else None."""
    dim = op.grid.dim
    # array axis a holds dimension dim - 1 - a, since dimension 0 runs fastest
    values = op.potential_values.reshape(op.grid.points[::-1])
    least = np.unravel_index(np.argmin(values), values.shape)
    slices = [values[least[:a] + (slice(None),) + least[a + 1:]] for a in range(dim)]
    offset = (dim - 1) * values[least]
    gap = np.abs(reduce(np.add.outer, slices) - offset - values).max()
    if gap > 1e-12 * max(1.0, float(np.abs(values).max())):
        return None
    return slices[::-1], offset


@dataclass(frozen=True, eq=False)
class SeparableDecomposition:
    """H as the Kronecker sum of the per-axis tridiagonals T_d = w_d stencil +
    diag(slice_d), less the offset (dim - 1) V(m), by the matrix decomposition
    method (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).

    Every axis but the one with the most points, t, is rotated into the
    eigenbasis of its T_d = Q_d diag(lam_d) Q_d^T, so each dense Q_d holds
    N_d^2 <= prod N entries, at most one grid vector's bytes.  `rotate` applies
    the orthogonal change of basis Q^T, `rotate_back` its transpose Q.  In the
    rotated basis H - zI is one tridiagonal matrix of size prod N whose blocks
    along axis t are uncoupled, T_t shifted by one eigenvalue of each rotated
    axis (see `eigenbasis_inverse`).  A 1D grid rotates nothing.  `blas`
    names the BLAS side (see BLAS_SIDES) of the eigendecomposition and of
    every product.
    """
    points: tuple
    blas: str        # "scipy" or "numpy"
    t: int           # the axis kept tridiagonal
    rotated: tuple   # the other axes, in the order `rotate` transforms them
    pairs: tuple     # (lam_d, Q_d) per rotated axis, from axis_eigenpairs
    main: np.ndarray  # main and off diagonal of T_t
    off: np.ndarray
    offset: float

    def lowest(self) -> float:
        """The lowest eigenvalue of H: the sum of each T_d's lowest, from the
        rotated axes' eigenvalues and one eigh_tridiagonal(select='i') of T_t,
        less the offset.  Computed on demand, since the probe, which needs no
        shift, measured 0.13 MB more peak memory on 191^2 when this LAPACK
        bisection ran there."""
        # imported here like eigh_tridiagonal in axis_eigenpairs
        from scipy.linalg import eigh_tridiagonal

        bottom = eigh_tridiagonal(self.main, self.off, eigvals_only=True,
                                  select="i", select_range=(0, 0))
        return float(sum(lam[0] for lam, _ in self.pairs) + bottom[0] - self.offset)

    def rotate(self, r):
        """Q^T r for a grid vector r."""
        x = r
        if self.t < len(self.points) - 1:
            x = x.reshape((math.prod(self.points[:self.t + 1]), -1), order="F").T
        # x^T Q_d for x read as the (N_d, rest) matrix of its leading dimension
        # d transforms d and moves it last: after dimensions 0..t are moved
        # last untransformed, rotating these in turn leaves t leading again
        for d, (_, q) in zip(self.rotated, self.pairs):
            x = _product(self.blas, x.reshape((self.points[d], -1), order="F"), q, False)
        return x.ravel(order="F")

    def rotate_back(self, x):
        """Q x, the inverse of `rotate`."""
        for d, (_, q) in zip(self.rotated[::-1], self.pairs[::-1]):
            x = _product(self.blas, x.reshape((-1, self.points[d]), order="F"), q, True)
        if self.t < len(self.points) - 1:
            x = x.reshape((-1, math.prod(self.points[:self.t + 1])), order="F").T
        return x.ravel(order="F")


def separable_decomposition(op: GridOperator, blas: str):
    """The `SeparableDecomposition` of H when V is a sum of one-variable terms
    on the grid (see `_separable_split`), else None; z-independent, so one
    serves every shift.  `blas` is the side of BLAS_SIDES the work that
    applies it runs on: "scipy" for ARPACK, "numpy" for the probe's
    resolvent; the axis eigensolver and every product run there."""
    if blas not in BLAS_SIDES:
        raise ValueError(f"blas must be one of {BLAS_SIDES}, got {blas!r}")
    split = _separable_split(op)
    if split is None:
        return None
    slices, offset = split
    points = op.grid.points
    dim = len(points)
    # of equal axes the last stays tridiagonal, which needs no transposition
    t = max(range(dim), key=lambda d: (points[d], d))
    rotated = (*range(t + 1, dim), *range(t))
    pairs = tuple(axis_eigenpairs(op.grid, op.h, d, slices[d], blas) for d in rotated)
    main, off = _axis_tridiagonal(op.grid, op.h, t, slices[t])
    return SeparableDecomposition(points=points, blas=blas, t=t, rotated=rotated, pairs=pairs,
                                  main=main, off=off, offset=float(offset))


def eigenbasis_inverse(decomposition: SeparableDecomposition, z: float):
    """(H - zI)^{-1} in the rotated basis of `decomposition`, as a function of
    one vector: there H - zI is tridiagonal, factored once by LAPACK's dpttrf,
    and each apply is one dpttrs solve, with no dense product.  z must lie
    below the spectrum of H, so that the matrix is positive definite; else
    ValueError."""
    # imported here like eigh_tridiagonal in axis_eigenpairs; dpttrf and
    # dpttrs are unthreaded, so they serve either BLAS side
    from scipy.linalg.lapack import dpttrf, dpttrs

    # block j of the system along t is T_t shifted by one eigenvalue of each
    # rotated axis, the first of `rotated` varying fastest with j
    shifts = np.ravel(reduce(np.add.outer, [lam for lam, _ in reversed(decomposition.pairs)],
                             -(z + decomposition.offset)))
    factor_d, factor_e, info = dpttrf(
        np.add.outer(shifts, decomposition.main).ravel(),
        np.tile(np.append(decomposition.off, 0.0), shifts.size)[:-1])
    if info != 0:
        raise ValueError(f"H - zI is not positive definite at z = {z} (dpttrf info {info})")
    return lambda x: dpttrs(factor_d, factor_e, x)[0]


def separable_inverse(op: GridOperator, z: float):
    """(H - zI)^{-1} in the grid basis as a function r -> (H - zI)^{-1} r on
    numpy's BLAS, when V is a sum of one-variable terms on the grid, else
    None.  Its `separable_decomposition` is built on the "numpy" side; each
    apply rotates into its eigenbasis, solves there by `eigenbasis_inverse`
    and rotates back, one numpy product per rotated axis and direction and
    one dpttrs solve.  z must lie below the spectrum of H; else ValueError."""
    decomposition = separable_decomposition(op, blas="numpy")
    if decomposition is None:
        return None
    solve = eigenbasis_inverse(decomposition, z)
    return lambda r: decomposition.rotate_back(solve(decomposition.rotate(r)))
