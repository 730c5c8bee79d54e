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
import scipy.linalg
from scipy.linalg import blas, lapack

from .potential import ArgumentError, Potential, check_count, check_h

__all__ = [
    "Grid",
    "GridOperator",
    "SeparableDecomposition",
    "build_grid",
    "assemble_hamiltonian",
    "axis_eigenpairs",
    "eigenbasis_inverse",
    "separable_decomposition",
    "separable_inverse",
]

DEFAULT_SIZE_CAP = 2_000_000


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
        """|X| per node in flat-index order, without the coordinate table:
        the per-axis squares, each along its own array axis with dimension
        0 last, summed in dimension order into one grid vector whose C order
        is the flat-index order, and its square root taken in place."""
        radii = reduce(np.add, [(self.axis_coords(d) ** 2).reshape((-1,) + (1,) * d)
                                for d in range(self.dim)])
        return np.sqrt(radii, out=radii).ravel()

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

    def signature(self) -> str:
        import hashlib

        key = repr((self.n, self.p, self.half_widths, self.points))
        return hashlib.sha256(key.encode()).hexdigest()[:16]


def build_grid(n: int, p: int, half_widths, points) -> Grid:
    n, p = check_count("n", n), check_count("p", p, least=0)
    half_widths = tuple(float(l) for l in half_widths)
    points = tuple(points)
    if len(half_widths) != n + p:
        raise ArgumentError("half_widths", f"need {n + p} half-widths, got {len(half_widths)}")
    if not all(0 < l < math.inf for l in half_widths):
        raise ArgumentError("half_widths", "half-widths must be positive and finite")
    if len(points) != n + p:
        raise ArgumentError("points", f"need {n + p} point counts, got {len(points)}")
    points = tuple(check_count(f"points[{d}]", m, least=3) for d, m in enumerate(points))
    total = math.prod(points)
    if total > DEFAULT_SIZE_CAP:
        raise ArgumentError("points", f"grid size {total} exceeds the safety cap of "
                            f"{DEFAULT_SIZE_CAP} nodes (a fixed limit, not derived from "
                            "solver memory)")
    grid = Grid(n=n, p=p, half_widths=half_widths, points=points)
    for d, (l, m) in enumerate(zip(half_widths, points)):
        try:
            center = grid.stencil(1.0, d)[1]  # 2 / spacing^2, twice the off entry
        except (OverflowError, ZeroDivisionError):
            center = math.inf
        if not 0 < center < math.inf:
            raise ArgumentError("half_widths", f"half-width {l:g} over {m} points gives "
                                f"spacing {grid.spacing[d]:g}, whose stencil entry 2 / spacing^2 "
                                "is not a finite nonzero float")
    return grid


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


def _band_matrix(grid: Grid, h: float, potential_values) -> "scipy.sparse.csr_matrix":
    """The kinetic operator plus diag(potential_values) in canonical CSR,
    converted by scipy from its 2 dim + 1 bands in DIA layout: the off entry
    of `Grid.stencil` one stride of each dimension d away, zeroed where it
    would cross an end of axis d, and the main entries summed in dimension
    order plus V.  So it equals scipy.sparse.kronsum of the per-axis stencils
    plus a sparse add of diags(V) bit for bit, zero entries dropped as that
    add drops them.  scipy.sparse is imported here, where H is built, so
    that a process that builds no H never loads it."""
    import scipy.sparse as sp

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


def _band_apply(grid: Grid, h: float, potential_values, u, out=None, scratch=None) -> np.ndarray:
    """H u for H = `_band_matrix(grid, h, potential_values)`, without building
    H: one pass over the grid per band of H, neighbours found along the axes
    of `Grid.nodes`.

    Each row sums its terms from 0 in the column order of its CSR row, as
    scipy's CSR product does: the neighbours one stride down by descending
    stride, the main entry, then the neighbours one stride up by ascending
    stride, none past an end of its axis.  So it equals H @ u bit for bit,
    for a contiguous or strided u; the zero entries CSR drops add 0 to a sum
    started at 0, which changes no bit of a finite u's product.

    H u is written into `out` and each term formed in `scratch`, contiguous
    grid vectors other than u that a caller applying H many times passes to
    reuse; those not passed are allocated.

    Each neighbour term is formed on flat slices one stride of its dimension
    apart and zeroed where the neighbour lies past an end of the axis, then
    added: a row sum starts at +0.0 and so is never -0.0, and adding +0.0
    changes none of its bits.  On flat slices numpy runs each product
    without its buffered iterator, which on the grid-shaped views of an
    axis other than the last allocated 64 KB per operand."""
    main, couplings = _stencil_entries(grid, h)
    # each term is formed in `scratch` and added, so the apply holds two
    # grid vectors, not one more per temporary product
    if out is None:
        out = np.zeros(grid.size)
    else:
        out.fill(0.0)
    if scratch is None:
        scratch = np.empty(grid.size)
    term = grid.nodes(scratch)

    def add_neighbours(d, up):
        # to each node, the coupling times u at its neighbour one stride of
        # dimension d up (or down)
        stride = math.prod(grid.points[:d])
        rows, cols = slice(None, -stride), slice(stride, None)
        if not up:
            rows, cols = cols, rows
        np.multiply(u[cols], couplings[d], out=scratch[rows])
        np.moveaxis(term, d, 0)[-1 if up else 0] = 0.0
        out[rows] += scratch[rows]

    for d in reversed(range(grid.dim)):
        add_neighbours(d, up=False)
    np.multiply(np.add(main, potential_values, out=scratch), u, out=scratch)
    out += scratch
    for d in range(grid.dim):
        add_neighbours(d, up=True)
    return out


def _axis_tridiagonal(grid: Grid, h: float, d: int, values) -> tuple:
    """Main and off diagonal of the axis-d stencil (see `Grid.stencil`) plus
    diag(values): the entries of H's bands along axis d."""
    _, center, coupling = grid.stencil(h, d)
    return center + np.asarray(values, dtype=float), np.full(grid.points[d] - 1, coupling)


# numpy and scipy each load their own OpenBLAS with its own thread pool, and a
# threaded call on one pool leaves the other's workers spinning against it.
# ARPACK runs on scipy's, so every BLAS or LAPACK call on a grid-sized
# operand does too: the axis eigensolver and the products here, every norm of
# a grid vector (`_norm`) and the probe's weighted sums.


def _norm(x) -> float:
    """||x|| of a contiguous grid vector, real or complex, by scipy's dnrm2
    over its float view, never numpy's BLAS.  dnrm2 is unthreaded, so it
    wakes neither pool: a threaded ddot left scipy's workers spinning against
    the numpy inner products of a former CG solve, which then took 1.6 times
    as long."""
    return float(blas.dnrm2(x.view(float)))


def _shifted_product(apply, x, lam: float, product, scratch) -> np.ndarray:
    """H x - lam x into `product`, in that order of operations: H x by
    `apply` (`GridOperator.apply` or a `_band_apply`) with `product` as its
    out and `scratch` as its scratch, then lam x formed in `scratch`; both
    are contiguous grid vectors other than x.  So it equals
    `matrix @ x - x * lam` bit for bit, in two work vectors a caller reuses."""
    apply(x, out=product, scratch=scratch)
    product -= np.multiply(x, lam, out=scratch)
    return product


def axis_eigenpairs(grid: Grid, h: float, d: int, values,
                    count: int | None = None) -> tuple:
    """Ascending eigenvalues and orthonormal eigenvector columns of the axis-d
    tridiagonal `_axis_tridiagonal`: the axis-d term of H when V is a sum of
    one-variable terms, `values` being axis d's term at its nodes.  All of
    them, or with `count`, a count of at most the axis's points
    (`check_count`), only the `count` lowest (`_leading_eigenpairs`).

    All of them by eigh_tridiagonal's default driver: LAPACK's divide and
    conquer dstevd (Cuppen; Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16,
    1995), whose merges call dgemm, on the scipy releases that wrap it, and
    MRRR (dstemr) on those before; no dense eigensolver of the tridiagonal."""
    main, off = _axis_tridiagonal(grid, h, d, values)
    if count is not None:
        return _leading_eigenpairs(main, off, check_count("count", count, most=grid.points[d]))
    return scipy.linalg.eigh_tridiagonal(main, off)


# the absolute tolerance of the axes' bisection, as a fraction of the
# largest magnitude the eigenvalues sought can have (`_bisection_tolerance`).
# Bisection (dstebz) for the 7 lowest eigenvalues of the x-axis of `cli-2d`
# (x^2 at h = 0.5) took 80/170/330 us on 63, 127 and 255 points at 1e-9,
# against 130/290/600 us at its default tolerance, machine precision of the
# axis's norm; all of `_leading_eigenpairs` took 150/280/530 us (2-core host)
BISECTION_TOL = 1e-9


def _bisection_tolerance(main, off, count: int) -> float:
    """BISECTION_TOL of the largest magnitude the `count` lowest eigenvalues
    of the symmetric tridiagonal (main, off) can have: they lie at or above
    its lower Gershgorin bound, and at or below the count-th smallest of
    main[::2], the eigenvalues of the principal submatrix on the even
    indices, which no off entry couples (Cauchy interlacing), or with fewer
    even indices than `count` its upper Gershgorin bound.  Scaled to those
    levels, not to the norm of T, which a steep V at the box edge sets far
    above them: there a tolerance of the norm may exceed the gap between
    levels."""
    edge = np.abs(off)
    reach = np.append(edge, 0.0)
    reach[1:] += edge
    even = main[::2]
    upper = (np.partition(even, count - 1)[count - 1] if count <= even.size
             else np.max(main + reach))
    return BISECTION_TOL * max(abs(float(np.min(main - reach))), abs(float(upper)))


def _leading_eigenpairs(main, off, count: int) -> tuple:
    """The `count` lowest eigenvalues, ascending, and orthonormal eigenvector
    columns (Fortran order) of the symmetric tridiagonal T with main diagonal
    `main` and off diagonal `off`, at working precision.

    LAPACK's bisection (dstebz) stops at `_bisection_tolerance`, and inverse
    iteration (dstein) takes the vectors Q from those values: each converges
    in a few steps to rounding, the value's error entering only as (error /
    gap) per step.  One Rayleigh-Ritz step then gives the pairs their
    precision: the eigenpairs (theta, S) of the count x count matrix Q^T T Q,
    by scipy's dsyevd, and the vectors Q S (Parlett, The Symmetric
    Eigenvalue Problem, ch. 11).  Not one Rayleigh quotient per vector: the
    quotients of a pair of levels split by less than the tolerance (a double
    well's) came out in descending order, whereas theta ascends and Q S
    stays orthonormal.  dstebz and dstein are what eigh_tridiagonal(
    select='i', tol=tol, check_finite=False) runs, less its argument
    handling and its reordering of the vectors: called through it, the
    `cli-2d` pass (7 separable solves) took 0.4-0.5 ms longer.  The products
    are `_tridiagonal_product` and np.einsum, which without `optimize` runs
    numpy's own sum-of-products loops: no dgemm, and no numpy BLAS or
    LAPACK.

    A level within four tolerances above the count-th (by a Sturm count:
    dstebz over a value range at an infinite tolerance) is carried through,
    and the first `count` pairs of the cluster returned.  Cut from its
    partner, a double well's lowest level was the pair's weighted mean: 1.5e-8
    relative off at a gap of 0.23 tolerances, 6e-12 at 2 and 1e-13 at 4."""
    tol = _bisection_tolerance(main, off, count)
    # the count lowest: range 3 (scipy's wrapper reads 0 as all, 1 as a
    # value range and more as an index range) takes the il-th to iu-th
    # eigenvalues, counted from 1; block order ("B"), the layout dstein reads
    m, w, block, split, info = lapack.dstebz(main, off, 3, 0.0, 0.0, 1, count, tol, "B")
    if info == 0 and count < main.size:
        # range 1 counts the eigenvalues in (vl, vu]
        reach = lapack.dstebz(main, off, 1, -np.inf, w[:m].max() + 4 * tol, 0, 0, np.inf, "B")[0]
        if reach > count:
            theta, vectors = _leading_eigenpairs(main, off, reach)
            return theta[:count], vectors[:, :count]
    if info == 0:
        q, info = lapack.dstein(main, off, w[:m], block, split)
    if info != 0:
        raise ValueError(f"LAPACK bisection or inverse iteration failed (info {info})")
    projected = np.einsum("ij,ik->jk", q, _tridiagonal_product(main[:, None], off, q))
    theta, s, info = lapack.dsyevd(projected, lower=1)
    if info != 0:
        raise ValueError(f"LAPACK dsyevd failed on the projected tridiagonal (info {info})")
    return theta, np.einsum("ij,jk->ik", q, s, order="F")


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
    def matrix(self) -> "scipy.sparse.csr_matrix":
        """H in canonical CSR, built on first read and then kept.  Only the
        eigensolver's sparse LU and matvec backends, which factor or iterate
        on H, read it.  Every other product with H is `apply`, so a separable
        solve or any probe builds no H."""
        return _band_matrix(self.grid, self.h, self.potential_values)

    def apply(self, u, out=None, scratch=None) -> np.ndarray:
        """H u from the stencil, equal to `matrix @ u` bit for bit, without
        building `matrix`; `out` and `scratch` are optional work vectors
        (see `_band_apply`)."""
        return _band_apply(self.grid, self.h, self.potential_values, u, out, scratch)

    def shift_below_spectrum(self) -> float:
        """A shift strictly below the spectrum of H = K + diag(V), for any V:
        the eigensolver's shift when V is not a sum of one-variable terms,
        and, less 1, the probe's resolvent point.

        K's smallest eigenvalue is the sum of the per-axis lowest Dirichlet
        modes, each stencil's symbol at theta = pi / (N_d + 1); by Weyl's
        inequality min(V) plus it bounds the spectrum from below.  Half of it
        is kept as margin, so H - sigma I is positive definite even for
        constant V."""
        kinetic_min = sum(self.grid.symbol(self.h, d, np.pi / (m + 1))
                          for d, m in enumerate(self.grid.points))
        return float(self.potential_values.min()) + 0.5 * kinetic_min


def assemble_hamiltonian(grid: Grid, pot: Potential, h: float) -> GridOperator:
    if pot.n != grid.n or pot.p != grid.p:
        raise ValueError(
            f"potential dims ({pot.n},{pot.p}) do not match grid ({grid.n},{grid.p})")
    # each axis's coordinates along its own array axis, dimension 0 last, so
    # that the broadcast values in C order run in flat-index order, with no
    # coordinate table
    axes = [grid.axis_coords(d).reshape((-1,) + (1,) * d) for d in range(grid.dim)]
    vvals = pot.evaluate_many(axes)
    check_h(h)
    return GridOperator(grid=grid, h=h, potential=pot, potential_values=vvals)


def _product(x, q, back: bool):
    """The dense product of `SeparableDecomposition.rotate` (back false) and
    `rotate_back` (back true) by scipy's dgemm, in Fortran order: x^T Q for
    the Fortran-ordered (N_d, rest) matrix x, or Q x^T for the
    Fortran-ordered (rest, N_d) matrix x."""
    return blas.dgemm(1.0, q, x, trans_b=1) if back else blas.dgemm(1.0, x, q, trans_a=1)


def _tridiagonal_product(diagonal, off, x) -> np.ndarray:
    """T x for the symmetric tridiagonal T along axis 0 of x with main
    diagonal `diagonal`, broadcast against x (so it may differ per column),
    and off diagonal `off`: in elementwise products, which call no BLAS."""
    off = off.reshape((-1,) + (1,) * (x.ndim - 1))
    r = diagonal * x
    r[1:] += off * x[:-1]
    r[:-1] += off * x[1:]
    return r


# the most nodes in a slab of `_separable_split`'s gap, 64 KB; a slab also
# holds at most a quarter of the grid.  Measured against the whole-grid gap
# on a 2-core host: 0.02 ms slower on 63^2, as fast on 127^2 to 255^2, and
# twice as fast on 1023^2 (2.6 against 5.3 ms)
SPLIT_SLAB_NODES = 1 << 13


def _separable_split(op: GridOperator):
    """The per-axis slices of V through its node m of least V, indexed by
    dimension, the offset (dim - 1) V(m), and the split gap, the largest
    |V - (sum of the slices - offset)| over the nodes, when V is a sum of
    one-variable terms on the grid: when that gap is at most 1e-12 max(1,
    max |V|).  Else None.  The gap is part of a separable solve's residual
    bound (see `SeparableDecomposition.defect`).

    The gap is formed over slabs of whole layers of the last axis, at most
    SPLIT_SLAB_NODES nodes and a quarter of the grid each, so the check
    allocates two slabs, not a grid vector.  Each node's gap is (0 +
    slice_0) + ... + slice_last, less the offset, less V, as over the whole
    grid at once, so it has the same bits.  Every step is elementwise on
    contiguous vectors or a broadcast copy: numpy runs a broadcast sum
    through its buffered iterator, which allocated up to 64 KB per operand."""
    dim = op.grid.dim
    values = op.grid.nodes(op.potential_values)
    # the flat argmin, so a tie at min V picks the first node in flat order
    least = np.unravel_index(np.argmin(op.potential_values), op.grid.points, order="F")
    slices = [values[least[:d] + (slice(None),) + least[d + 1:]] for d in range(dim)]
    offset = (dim - 1) * values[least]
    # the sum of every slice but the last (0.0 in 1D) over one layer of the
    # last axis, in flat order, repeated for each layer of a slab
    last = slices[-1]
    layer = op.grid.size // last.size
    step = max(1, min(SPLIT_SLAB_NODES // layer, last.size // 4))
    heads = np.tile(np.ravel(reduce(np.add.outer, slices[:-1], 0.0), order="F"), step)
    work = np.empty(heads.size)
    most = 0.0
    for start in range(0, last.size, step):
        stop = min(start + step, last.size)
        gap = work[:layer * (stop - start)]
        np.copyto(gap.reshape((stop - start, layer)), last[start:stop, None])
        np.add(heads[:gap.size], gap, out=gap)
        gap -= offset
        gap -= op.potential_values[layer * start:layer * stop]
        most = max(most, float(np.abs(gap, out=gap).max()))
    largest = max(1.0, float(values.max()), -float(values.min()))
    if most > 1e-12 * largest:
        return None
    return slices, offset, most


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
    `separable_decomposition`).

    `defect`, measured when the decomposition is built for k eigenpairs, is
    eta = the split gap of `_separable_split` plus, over the rotated axes,
    ||T_d Q_d - Q_d diag(lam_d)||_F on the kept eigenpairs: H Q - Q H~ =
    sum_d R_d + diag(gap) Q, H~ the block-diagonal H of the rotated basis,
    so with Q's columns orthonormal to rounding ||H~ x - theta x|| + eta
    bounds ||H Q x - theta Q x|| for a unit x (see `residuals`).
    """
    points: tuple
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
    k: int | None         # the k it was built for, or None
    defect: float | None  # eta, or None when built without k

    @property
    def size(self) -> int:
        """The dimension of the rotated basis: N_t per kept block."""
        return self.main.size * self.shifts.size

    def lowest(self, count: int) -> np.ndarray:
        """The count lowest eigenvalues of H, ascending and repeated by
        multiplicity, for a decomposition built for k: the min(count, N_t)
        lowest of T_t at working precision (`_leading_eigenpairs`, the
        routine the rotated axes use), added to each kept block's shift, less
        the offset, and sorted.  The kept blocks may lack every level above
        the k-th, so count is at most k.  The eigensolver anchors its shift
        on lowest(1)."""
        if self.k is None:
            raise ValueError("lowest needs a decomposition built for k, and this one has k=None")
        count = check_count("count", count, most=min(self.k, math.prod(self.points)))
        bottom = _leading_eigenpairs(self.main, self.off, min(count, self.main.size))[0]
        levels = np.ravel(np.add.outer(self.shifts, bottom) - self.offset)
        # ordered by argsort, whose code the eigensolver has paged in
        # already: np.sort's float kernels add about 0.1 MiB to a solve
        return levels[np.argsort(levels)[:count]]

    def residuals(self, x, theta) -> np.ndarray:
        """For the unit columns of the (size, k) Fortran-ordered x, in the
        rotated basis, and their Ritz values theta: ||H~ x_j - theta_j x_j|| +
        `defect`, a bound on the grid residual ||H u - theta_j u|| of u = Q x_j,
        for a decomposition built for k pairs (which measured the defect).
        H~ is applied block by block as T_t + (shifts[j] - offset) I, in
        elementwise products summed by np.add.reduce, which call no BLAS, and
        in arrays the size of x: no grid vector is allocated."""
        x = x.reshape((self.main.size, self.shifts.size, -1), order="F")
        diagonal = np.add.outer(self.main, self.shifts - self.offset)[:, :, None] - theta
        r = _tridiagonal_product(diagonal, self.off, x)
        r *= r
        return np.sqrt(np.add.reduce(r, axis=(0, 1))) + self.defect

    def rotate(self, r):
        """Q^T r for a grid vector r, on the kept blocks."""
        x = r
        if self.t < len(self.points) - 1:
            x = x.reshape((math.prod(self.points[:self.t + 1]), -1), order="F").T
        # x^T Q_d for x read as the (N_d, rest) matrix of its leading dimension
        # d transforms d and moves it last: after dimensions 0..t are moved
        # last untransformed, rotating these in turn leaves t leading again
        for d, (_, q) in zip(self.rotated, self.pairs):
            x = _product(x.reshape((self.points[d], -1), order="F"), q, False)
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
            x = _product(x.reshape((-1, q.shape[1]), order="F"), q, True)
        if self.t < len(self.points) - 1:
            x = x.reshape((-1, math.prod(self.points[:self.t + 1])), order="F").T
        return x.ravel(order="F")


def separable_decomposition(op: GridOperator, k: int | None = None):
    """The `SeparableDecomposition` of H when V is a sum of one-variable terms
    on the grid (see `_separable_split`), else None; z-independent, so one
    serves every shift.

    With k, its basis holds only the blocks that can hold the k lowest
    eigenvalues of H, or every block when there are at most k.  Block j's
    eigenvalues lie at or above its floor s_j + mu_0(T_t) - offset, and the k
    lowest floors are eigenvalues of H, so lambda_k is at most the k-th
    smallest floor: a block whose floor lies above it holds none of the k
    lowest.  Blocks tied at the cut, to 1e-12 of it for the rounding of the
    sums, are kept.  Each rotated axis's eigenvalues ascend, so the kept
    blocks use only a leading run of its eigenpairs, and only those are
    kept.  Each rotated axis computes just its min(k + 1, N_d) lowest
    eigenpairs (`axis_eigenpairs` with a count, at working precision), since
    the k-th smallest floor uses indices below k on every axis; where the
    ties at the cut reach the last index computed on an axis short of N_d,
    they may continue past it, and that axis is computed in full.  With k
    the `defect` of the kept eigenpairs is measured too, so whatever
    precision they were computed to is in the residual bound.  Without k,
    the probe's inverse, every eigenpair is computed, and no defect."""
    if k is not None:
        k = check_count("k", k)
    split = _separable_split(op)
    if split is None:
        return None
    slices, offset, gap = split
    points = op.grid.points
    dim = len(points)
    # of equal axes the last stays tridiagonal, which needs no transposition
    t = max(range(dim), key=lambda d: (points[d], d))
    rotated = (*range(t + 1, dim), *range(t))

    def eigenpairs(d, count=None):
        return axis_eigenpairs(op.grid, op.h, d, slices[d], count)

    def block_sums():
        # the shift of every block the eigenpairs span: one eigenvalue of each
        # rotated axis summed, the first of `rotated` varying fastest
        return reduce(np.add.outer, [lam for lam, _ in reversed(pairs)], 0.0)

    def defect():
        # the split gap plus ||T_d Q_d - Q_d diag(lam_d)||_F per rotated axis
        total = gap
        for d, (lam, q) in zip(rotated, pairs):
            main_d, off_d = _axis_tridiagonal(op.grid, op.h, d, slices[d])
            r = _tridiagonal_product(main_d[:, None] - lam, off_d, q)
            total += math.sqrt(np.add.reduce(r * r, axis=None))
        return total

    def cut(sums):
        # the blocks at or below the k-th smallest shift, and the leading run
        # of each rotated axis that they use
        at = np.partition(sums, k - 1, axis=None)[k - 1]
        kept = sums <= at + 1e-12 * max(1.0, abs(at))
        return kept, [int(i.max()) + 1 for i in np.nonzero(kept)][::-1]

    pairs = [eigenpairs(d, None if k is None else min(k + 1, points[d])) for d in rotated]
    main, off = _axis_tridiagonal(op.grid, op.h, t, slices[t])
    sums = block_sums()
    shifts, blocks = np.ravel(sums), None
    if k is not None and shifts.size > k:
        kept, box = cut(sums)
        # ties at the cut that reach the last index computed on an axis may
        # continue past it: that axis is computed in full, and the cut redone
        short = [i for i, ((lam, _), m) in enumerate(zip(pairs, box))
                 if m == lam.size < points[rotated[i]]]
        if short:
            for i in short:
                pairs[i] = eigenpairs(rotated[i])
            sums = block_sums()
            kept, box = cut(sums)
        # copied, so the computed Q_d is freed with the computed eigenpairs
        pairs = [(lam[:m], q[:, :m].copy(order="F")) for (lam, q), m in zip(pairs, box)]
        spanned = tuple(slice(m) for m in box[::-1])
        shifts, kept = sums[spanned].ravel(), kept[spanned].ravel()
        if not kept.all():
            shifts, blocks = shifts[kept], kept
    return SeparableDecomposition(points=points, t=t, rotated=rotated,
                                  pairs=tuple(pairs), main=main, off=off, offset=float(offset),
                                  shifts=shifts, blocks=blocks,
                                  k=k, defect=None if k is None else defect())


def _shifted_blocks(decomposition: SeparableDecomposition, shifts) -> tuple:
    """Main and off diagonal of the blocks T_t + s I, one per s in `shifts`,
    laid end to end with a zero off entry between blocks: H - zI in the
    rotated basis of `decomposition` when `shifts` are its kept blocks'
    shifts less offset + z."""
    return (np.add.outer(shifts, decomposition.main).ravel(),
            np.tile(np.append(decomposition.off, 0.0), len(shifts))[:-1])


def _check_definite(info: int, z: float) -> None:
    """Refuse a z at which LAPACK's factorization of H - zI reported `info`
    != 0, a pivot <= 0, with ValueError."""
    if info != 0:
        raise ValueError(f"H - zI is not positive definite at z = {z} (LAPACK info {info})")


def eigenbasis_inverse(decomposition: SeparableDecomposition, z: float):
    """(H - zI)^{-1} in the rotated basis of `decomposition`, on its kept
    blocks, as a function of one vector: there H - zI is tridiagonal, block j
    being T_t + (shifts[j] - offset - z) I, factored once by LAPACK's dpttrf
    and held, since ARPACK applies it many times, and each apply is one
    dpttrs solve, with no dense product.  The blocks are uncoupled, so the
    kept ones are solved exactly without the others.  z must lie below the
    spectrum of H, so that the matrix is positive definite; else ValueError."""
    factor_d, factor_e, info = lapack.dpttrf(
        *_shifted_blocks(decomposition, decomposition.shifts - (z + decomposition.offset)))
    _check_definite(info, z)
    return lambda x: lapack.dpttrs(factor_d, factor_e, x)[0]


def separable_inverse(op: GridOperator, z: float):
    """(H - zI)^{-1} in the grid basis as a function r -> (H - zI)^{-1} r,
    when V is a sum of one-variable terms on the grid, else None.  Each
    apply rotates into the eigenbasis of its `separable_decomposition`,
    solves there and rotates back, one dgemm per rotated axis and direction
    and one LAPACK dptsv.

    dptsv is dpttrf then dpttrs, so each apply solves with the bits of
    `eigenbasis_inverse`'s held factor, but the factor, two grid vectors,
    lives only while the apply runs: its caller, the probe, applies the
    inverse once per probe vector.  z must lie below the spectrum of H;
    else ValueError, from the block with the least shift, whose dpttrf
    pivots are the lowest: every other block adds a larger shift to the
    same diagonal, which raises each pivot, rounded too."""
    decomposition = separable_decomposition(op)
    if decomposition is None:
        return None
    shifts = decomposition.shifts - (z + decomposition.offset)
    _check_definite(lapack.dpttrf(*_shifted_blocks(decomposition, [shifts.min()]))[2], z)

    def inverse(r):
        x = decomposition.rotate(r)
        # solved in place unless x is r itself (a 1D grid rotates nothing);
        # the factor is left unbound, so it is freed before x is rotated back
        x, info = lapack.dptsv(*_shifted_blocks(decomposition, shifts), x, overwrite_d=1,
                               overwrite_e=1, overwrite_b=not np.may_share_memory(x, r))[2:]
        _check_definite(info, z)
        return decomposition.rotate_back(x)

    return inverse
