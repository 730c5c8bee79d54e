"""Truncated tensor-product grids and the sparse symmetric discretization of
-h^2 Lap_x - Lap_y + V with Dirichlet boundary conditions.

Interior nodes along a dimension with half-width L and N points sit at
-L + (i+1)*delta, delta = 2L/(N+1).  The flat index map is lexicographic with
the x-dimensions varying fastest: index = i_0 + N_0*(i_1 + N_1*(...)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp

from .potential import Potential

__all__ = [
    "BLAS_SIDES",
    "Grid",
    "GridError",
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
        return -self.half_widths[d] + self.spacing[d] * np.arange(1, self.points[d] + 1)

    def nodes(self, values: np.ndarray) -> np.ndarray:
        """A view of the grid vector `values` with array axis d running along
        dimension d: the flat index runs dimension 0 fastest."""
        return values.reshape(self.points, order="F")

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

    def stencil(self, h: float, d: int) -> tuple:
        """The weight w_d of axis d in -h^2 Lap_x - Lap_y, h^2 on x-dimensions
        and 1 on y-dimensions, and the main and off entries of its 3-point
        Dirichlet stencil, w_d * (2 / delta_d^2) and w_d * (-1 / delta_d^2)."""
        weight = h * h if d < self.n else 1.0
        delta = self.spacing[d]
        return weight, weight * (2.0 / delta**2), weight * (-1.0 / delta**2)

    def symbol(self, h: float, d: int, theta):
        """The axis-d stencil on the mode e^{i theta j}, w_d (2 - 2 cos theta)
        / delta_d^2: its eigenvalues at theta = j pi / (N_d + 1)."""
        return self.stencil(h, d)[0] * (2 - 2 * np.cos(theta)) / self.spacing[d] ** 2

    def dirichlet_modes(self, h: float) -> list:
        """Per-axis eigenvalues of the Dirichlet stencils of -h^2 Lap_x - Lap_y,
        ascending, since 2 - 2 cos rises on (0, pi)."""
        return [self.symbol(h, d, np.arange(1, m + 1) * np.pi / (m + 1))
                for d, m in enumerate(self.points)]

    def signature(self) -> str:
        import hashlib

        key = repr((self.n, self.p, self.half_widths, self.points))
        return hashlib.sha256(key.encode()).hexdigest()[:16]


class GridError(ValueError):
    """An invalid argument of `build_grid`, named by `argument`."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


def build_grid(n: int, p: int, half_widths, points) -> Grid:
    if n < 1:
        raise GridError("n", f"need n >= 1, got n={n}")
    if p < 0:
        raise GridError("p", f"need p >= 0, got p={p}")
    half_widths = tuple(float(l) for l in half_widths)
    points = tuple(int(m) for m in points)
    if len(half_widths) != n + p:
        raise GridError("half_widths", f"need {n + p} half-widths, got {len(half_widths)}")
    if not all(0 < l < math.inf for l in half_widths):
        raise GridError("half_widths", "half-widths must be positive and finite")
    if len(points) != n + p:
        raise GridError("points", f"need {n + p} point counts, got {len(points)}")
    if any(m < 3 for m in points):
        raise GridError("points", "need at least 3 interior points per dimension")
    total = math.prod(points)
    if total > DEFAULT_SIZE_CAP:
        raise GridError("points", f"grid size {total} exceeds the safety cap of {DEFAULT_SIZE_CAP}"
                        " nodes (a fixed limit, not derived from solver memory)")
    return Grid(n=n, p=p, half_widths=half_widths, points=points)


def laplacian_1d(m: int, delta: float) -> sp.csr_matrix:
    """Second-order central-difference -d^2/dx^2 with Dirichlet truncation."""
    main = np.full(m, 2.0 / delta**2)
    off = np.full(m - 1, -1.0 / delta**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def kinetic_operator(grid: Grid, h: float) -> sp.csr_matrix:
    """-h^2 Lap_x - Lap_y on the grid (x-dimension stencils scaled by h^2): the
    Kronecker sum of the per-axis stencils, dimension 0 fastest, assembled
    from its bands like `GridOperator.matrix` with V = 0."""
    check_h(h)
    return _band_matrix(grid, h, 0.0)


def check_h(h: float) -> None:
    """Refuse an h outside (0, DEFAULT_H_MAX] with ValueError."""
    if not 0 < h <= DEFAULT_H_MAX:
        raise ValueError(f"h must lie in (0, {DEFAULT_H_MAX}], got {h}")


def _stencil_entries(grid: Grid, h: float) -> tuple:
    """The entries H takes from `Grid.stencil`: the main entry less V, the
    axes' main entries summed in dimension order, and the off entry of each
    axis.  Shared by `_band_matrix` and `_band_apply`, whose bit-for-bit
    agreement rests on summing in one order."""
    main, couplings = 0.0, []
    for d in range(grid.dim):
        _, center, coupling = grid.stencil(h, d)
        # a loop, not sum(): Python 3.12's sum() compensates float rounding
        main = main + center
        couplings.append(coupling)
    return main, couplings


def _band_matrix(grid: Grid, h: float, potential_values) -> sp.csr_matrix:
    """The kinetic operator plus diag(potential_values) in canonical CSR,
    converted by scipy from its 2 dim + 1 bands in DIA layout: the off entry
    of `Grid.stencil` one stride of each dimension d away, zeroed where it
    would cross an end of axis d, and the main entries summed in dimension
    order plus V.  So it equals scipy.sparse.kronsum of w_d * laplacian_1d
    plus a sparse add of diags(V) bit for bit, zero entries dropped as that
    add drops them."""
    dim, size = grid.dim, grid.size
    strides = [math.prod(grid.points[:d]) for d in range(dim)]
    offsets = [0] + strides + [-s for s in strides]
    # band k holds the entry (j - offsets[k], j) at column j
    data = np.empty((len(offsets), size))
    main, couplings = _stencil_entries(grid, h)
    for d, coupling in enumerate(couplings):
        # the coupling one stride up crosses the end of axis d where its
        # column is the first node along d, the one down where it is the last
        for band, end in ((1 + d, 0), (1 + dim + d, -1)):
            data[band] = coupling
            np.moveaxis(grid.nodes(data[band]), d, 0)[end] = 0.0
    data[0] = main + potential_values
    return sp.dia_matrix((data, offsets), shape=(size, size)).tocsr()


def _band_apply(grid: Grid, h: float, potential_values, u) -> np.ndarray:
    """H u for H = `_band_matrix(grid, h, potential_values)`, without building
    H: one pass over the grid per band of H, neighbours found along the axes
    of `Grid.nodes`.

    Each row sums its terms from 0 in the column order of its CSR row, as
    scipy's CSR product does: the neighbours one stride down by descending
    stride, the main entry, then the neighbours one stride up by ascending
    stride, none past an end of its axis.  So it equals H @ u bit for bit,
    for a contiguous or strided u; the zero entries CSR drops add 0 to a sum
    started at 0, which changes no bit of a finite u's product."""
    main, couplings = _stencil_entries(grid, h)
    # each term is formed in `scratch` and added, so the apply holds two
    # grid vectors, not one more per temporary product
    out, scratch = np.zeros(grid.size), np.empty(grid.size)
    y, x, term = grid.nodes(out), grid.nodes(u), grid.nodes(scratch)

    def add_neighbours(d, rows, cols):
        # to the nodes at `rows` along axis d, the coupling times u at `cols`
        at = (slice(None),) * d
        target = y[at + (rows,)]
        target += np.multiply(x[at + (cols,)], couplings[d], out=term[at + (rows,)])

    head, tail = slice(None, -1), slice(1, None)
    for d in reversed(range(grid.dim)):
        add_neighbours(d, tail, head)
    np.multiply(np.add(main, potential_values, out=scratch), u, out=scratch)
    out += scratch
    for d in range(grid.dim):
        add_neighbours(d, head, tail)
    return out


def _axis_tridiagonal(grid: Grid, h: float, d: int, values) -> tuple:
    """Main and off diagonal of the axis-d stencil (see `Grid.stencil`) plus
    diag(values): the entries of H's bands along axis d."""
    _, center, coupling = grid.stencil(h, d)
    return center + np.asarray(values, dtype=float), np.full(grid.points[d] - 1, coupling)


# numpy and scipy each load their own OpenBLAS with its own thread pool, and a
# threaded call on one pool leaves the other's workers spinning against it.
# So each separable decomposition runs every threaded BLAS call, its axis
# eigensolver as well as its products, on the side of the work that applies
# it: scipy's for ARPACK, numpy's for the probe.  LAPACK's dpttrf and dpttrs
# are unthreaded and serve both sides.
BLAS_SIDES = ("scipy", "numpy")


def axis_eigenpairs(grid: Grid, h: float, d: int, values, blas: str) -> tuple:
    """Ascending eigenvalues and orthonormal eigenvector columns of the axis-d
    tridiagonal `_axis_tridiagonal`: the axis-d term of H when V is a sum of
    one-variable terms, `values` being axis d's term at its nodes.

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
    """H = -h^2 Lap_x - Lap_y + diag(V) on `grid`, V given by its node values."""
    grid: Grid
    h: float
    potential: Potential
    potential_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.grid.size

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """H in canonical CSR, built on first read and then kept.  Only the
        paths that factor or iterate on H read it: the eigensolver's sparse
        LU and matvec backends and the probe's CG solve.  Every other product
        with H is `apply`, so a separable solve or probe builds no H."""
        return _band_matrix(self.grid, self.h, self.potential_values)

    def apply(self, u) -> np.ndarray:
        """H u from the stencil, equal to `matrix @ u` bit for bit, without
        building `matrix` (see `_band_apply`)."""
        return _band_apply(self.grid, self.h, self.potential_values, u)

    def shift_below_spectrum(self) -> float:
        """A shift strictly below the spectrum of H = K + diag(V), for any V:
        the eigensolver's shift when V is not a sum of one-variable terms,
        and, less 1, the probe's resolvent point.

        K's smallest eigenvalue is the sum of the per-axis lowest Dirichlet
        modes; by Weyl's inequality min(V) plus it bounds the spectrum from
        below.  Half of it is kept as margin, so H - sigma I is positive
        definite even for constant V."""
        kinetic_min = sum(modes[0] for modes in self.grid.dirichlet_modes(self.h))
        return float(self.potential_values.min()) + 0.5 * kinetic_min


def assemble_hamiltonian(grid: Grid, pot: Potential, h: float) -> GridOperator:
    if pot.n != grid.n or pot.p != grid.p:
        raise ValueError(
            f"potential dims ({pot.n},{pot.p}) do not match grid ({grid.n},{grid.p})")
    vvals = pot.evaluate_many(grid.node_coords())
    check_h(h)
    return GridOperator(grid=grid, h=h, potential=pot, potential_values=vvals)


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
    values = op.grid.nodes(op.potential_values)
    # the flat argmin, so a tie at min V picks the first node in flat order
    least = np.unravel_index(np.argmin(op.potential_values), op.grid.points, order="F")
    slices = [values[least[:d] + (slice(None),) + least[d + 1:]] for d in range(dim)]
    offset = (dim - 1) * values[least]
    gap = np.abs(reduce(np.add.outer, slices) - offset - values).max()
    if gap > 1e-12 * max(1.0, float(np.abs(values).max())):
        return None
    return slices, offset


@dataclass(frozen=True, eq=False)
class SeparableDecomposition:
    """H as the Kronecker sum of the per-axis tridiagonals T_d = w_d stencil +
    diag(slice_d), less the offset (dim - 1) V(m), by the matrix decomposition
    method (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).

    Every axis but the one with the most points, t, is rotated into the
    eigenbasis of its T_d = Q_d diag(lam_d) Q_d^T, so each dense Q_d holds
    N_d^2 <= prod N entries, at most one grid vector's bytes.  `rotate` applies
    the orthogonal change of basis Q^T, `rotate_back` its transpose Q.  In the
    rotated basis H is block diagonal: block j along axis t is T_t +
    (shifts[j] - offset) I, shifts[j] one eigenvalue of each rotated axis
    summed, the first of `rotated` varying fastest with j.  A 1D grid rotates
    nothing and has the one shift 0.  The basis holds every block, or only
    those that can hold the k lowest eigenvalues (see
    `separable_decomposition`).  `blas` names the BLAS side (see BLAS_SIDES)
    of the eigendecomposition and of every product.
    """
    points: tuple
    blas: str        # "scipy" or "numpy"
    t: int           # the axis kept tridiagonal
    rotated: tuple   # the other axes, in the order `rotate` transforms them
    pairs: tuple     # (lam_d, Q_d) per rotated axis, from axis_eigenpairs, or
                     # the leading eigenpairs the kept blocks use
    main: np.ndarray  # main and off diagonal of T_t
    off: np.ndarray
    offset: float
    shifts: np.ndarray  # s_j of each kept block, in block order
    # which blocks the leading eigenpairs span are kept, as a mask in block
    # order, or None for all of them
    blocks: np.ndarray | None

    @property
    def size(self) -> int:
        """The dimension of the rotated basis: N_t per kept block."""
        return self.main.size * self.shifts.size

    def lowest(self) -> float:
        """The lowest eigenvalue of H: the least shift, block 0's, plus the
        lowest eigenvalue of T_t from one eigh_tridiagonal(select='i'), less
        the offset.  Computed on demand: the probe needs no shift."""
        # imported here like eigh_tridiagonal in axis_eigenpairs
        from scipy.linalg import eigh_tridiagonal

        bottom = eigh_tridiagonal(self.main, self.off, eigvals_only=True,
                                  select="i", select_range=(0, 0))
        return float(self.shifts[0] + bottom[0] - self.offset)

    def rotate(self, r):
        """Q^T r for a grid vector r, on the kept blocks."""
        x = r
        if self.t < len(self.points) - 1:
            x = x.reshape((math.prod(self.points[:self.t + 1]), -1), order="F").T
        # x^T Q_d for x read as the (N_d, rest) matrix of its leading dimension
        # d transforms d and moves it last: after dimensions 0..t are moved
        # last untransformed, rotating these in turn leaves t leading again
        for d, (_, q) in zip(self.rotated, self.pairs):
            x = _product(self.blas, x.reshape((self.points[d], -1), order="F"), q, False)
        if self.blocks is not None:
            x = x.reshape((self.main.size, -1), order="F")[:, self.blocks]
        return x.ravel(order="F")

    def rotate_back(self, x):
        """Q x, the inverse of `rotate` on the kept blocks."""
        if self.blocks is not None:
            spanned = np.zeros((self.main.size, self.blocks.size), order="F")
            spanned[:, self.blocks] = x.reshape((self.main.size, -1), order="F")
            x = spanned
        for _, q in self.pairs[::-1]:
            x = _product(self.blas, x.reshape((-1, q.shape[1]), order="F"), q, True)
        if self.t < len(self.points) - 1:
            x = x.reshape((-1, math.prod(self.points[:self.t + 1])), order="F").T
        return x.ravel(order="F")


def separable_decomposition(op: GridOperator, blas: str, k: int | None = None):
    """The `SeparableDecomposition` of H when V is a sum of one-variable terms
    on the grid (see `_separable_split`), else None; z-independent, so one
    serves every shift.  `blas` names its side of BLAS_SIDES.

    With k, its basis holds only the blocks that can hold the k lowest
    eigenvalues of H, or every block when there are at most k.  Block j's
    eigenvalues lie at or above its floor s_j + mu_0(T_t) - offset, and the k
    lowest floors are eigenvalues of H, so lambda_k is at most the k-th
    smallest floor: a block whose floor lies above it holds none of the k
    lowest.  Blocks tied at the cut, to 1e-12 of it for the rounding of the
    sums, are kept.  Each rotated axis's eigenvalues ascend, so the kept
    blocks use only a leading run of its eigenpairs, and only those columns
    of Q_d are kept."""
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
    # the shift of every block: one eigenvalue of each rotated axis summed,
    # the first of `rotated` varying fastest
    sums = reduce(np.add.outer, [lam for lam, _ in reversed(pairs)], 0.0)
    shifts, blocks = np.ravel(sums), None
    if k is not None and shifts.size > k:
        cut = np.partition(shifts, k - 1)[k - 1]
        kept = sums <= cut + 1e-12 * max(1.0, abs(cut))
        box = tuple(slice(int(i.max()) + 1) for i in np.nonzero(kept))
        # copied, so the full Q_d is freed with the full eigenpairs
        pairs = tuple((lam[m], q[:, m].copy(order="F")) for (lam, q), m in zip(pairs, box[::-1]))
        shifts, kept = sums[box].ravel(), kept[box].ravel()
        if not kept.all():
            shifts, blocks = shifts[kept], kept
    return SeparableDecomposition(points=points, blas=blas, t=t, rotated=rotated, pairs=pairs,
                                  main=main, off=off, offset=float(offset), shifts=shifts,
                                  blocks=blocks)


def eigenbasis_inverse(decomposition: SeparableDecomposition, z: float):
    """(H - zI)^{-1} in the rotated basis of `decomposition`, on its kept
    blocks, as a function of one vector: there H - zI is tridiagonal, block j
    being T_t + (shifts[j] - offset - z) I, factored once by LAPACK's dpttrf,
    and each apply is one dpttrs solve, with no dense product.  The blocks
    are uncoupled, so the kept ones are solved exactly without the others.
    z must lie below the spectrum of H, so that the matrix is positive
    definite; else ValueError."""
    # imported here like eigh_tridiagonal in axis_eigenpairs; dpttrf and
    # dpttrs are unthreaded, so they serve either BLAS side
    from scipy.linalg.lapack import dpttrf, dpttrs

    shifts = decomposition.shifts - (z + decomposition.offset)
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
