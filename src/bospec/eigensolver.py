"""Lowest eigenpairs of a grid operator by ARPACK's Lanczos iteration
(shift-invert through the exact per-axis inverse or a sparse LU, or
implicitly restarted on matvecs alone),
multiplicity clustering, grid-convergence studies, and the verdicts drawn
from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import blas

from .analytic import frequency_spectrum
from .grid import (GridOperator, SeparableDecomposition, _norm, _shifted_product,
                   assemble_hamiltonian, build_grid, eigenbasis_inverse,
                   separable_decomposition)
from .potential import Potential, check_count

__all__ = [
    "SpectrumResult",
    "MultiplicityCluster",
    "ConvergenceStudy",
    "lowest_eigenpairs",
    "cluster_multiplicities",
    "convergence_study",
    "OscillatorComparison",
    "compare_with_oscillator",
    "boundary_warning",
]

# Largest grid dimension whose V, when not a sum of one-variable terms (see
# grid.separable_decomposition, which serves every dimension), is solved by
# shift-invert through a sparse LU.  The LU of H - sigma I holds about 52
# factor nonzeros per unknown on a 2D 255^2 grid but already 274 on a 3D 23^3
# grid (436 on 31^3), where on a 2-core host factoring alone (0.4 s) outlasts
# the whole matvec-only solve (0.2 s).
SHIFT_INVERT_MAX_DIM = 2

# A fitted error slope in this range passes as second-order convergence.
SLOPE_RANGE = (1.7, 2.3)

COMPARE_COLUMNS = ("level", "analytic_energy", "numeric_energy", "abs_error",
                   "analytic_multiplicity", "numeric_multiplicity", "tolerance", "pass")


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """The k lowest eigenpairs found.  The Ritz vectors are kept in the basis
    ARPACK iterated in, `ritz_vectors`, with the `decomposition` that rotates
    them back to the grid (None when that basis is the grid, as on the sparse
    LU and matvec backends and after a no-convergence fill); `vectors`, the
    grid-basis eigenvectors, is built from them on first read and then kept."""
    eigenvalues: np.ndarray   # ascending
    residuals: np.ndarray     # ||H u - lambda u|| per pair; on the separable
                              # backend a bound on it, the rotated-basis norm
                              # plus the decomposition's measured defect
    ritz_vectors: np.ndarray  # (size, k) in ARPACK's basis, Fortran order
    decomposition: SeparableDecomposition | None
    iterations: int           # operator applications (inverse applies or matvecs)
    converged: np.ndarray     # per-pair flags
    h: float
    grid_signature: str
    backend: str              # operator ARPACK iterated on: "separable inverse",
                              # "sparse LU" or "matvec" (which='SA')

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))

    @cached_property
    def vectors(self) -> np.ndarray:
        """(dim, k) orthonormal eigenvector columns in the grid basis,
        Fortran order: the Ritz vectors, rotated back a column at a time
        when ARPACK iterated in the separable eigenbasis."""
        return _grid_basis(self.ritz_vectors, self.decomposition)


def _grid_basis(ritz: np.ndarray, decomposition) -> np.ndarray:
    """The columns of `ritz` in the grid basis, Fortran order: rotated back a
    column at a time by `decomposition`, or `ritz` itself when it is None."""
    if decomposition is None:
        return ritz
    vectors = np.empty((math.prod(decomposition.points), ritz.shape[1]), order="F")
    for j in range(ritz.shape[1]):
        vectors[:, j] = decomposition.rotate_back(ritz[:, j])
    return vectors


@dataclass(frozen=True)
class MultiplicityCluster:
    energy: float        # mean of the cluster
    multiplicity: int
    spread: float        # max - min within the cluster


def lowest_eigenpairs(op: GridOperator, k: int, tol: float = 1e-8,
                      seed: int = 0) -> SpectrumResult:
    """k smallest eigenpairs with residual check ||Hu - lu|| <= tol*max(1, |l|),
    for an integer k in [1, dim // 4].

    One of three backends, chosen by the operator:

    - "separable inverse", when `grid.separable_decomposition` admits it (V
      a sum of one-variable terms, on a grid of any dimension): its
      decomposition is built for k, on the eigenbasis blocks that can hold
      the k smallest eigenvalues, and ARPACK's shift-invert Lanczos iterates
      there, where (H - sigma I)^{-1} is one `dpttrs` solve
      (`grid.eigenbasis_inverse`).  sigma is the lowest eigenvalue at
      working precision (`grid.SeparableDecomposition.lowest`, the tests'
      oracle), less 1e-2 max(1, |lowest|).
      The start vector is drawn there, in the kept basis, not in the grid
      basis and rotated in, so the solve makes no dense product.  The Ritz vectors stay in the rotated basis, where
      each residual is taken block by block and the decomposition's
      measured defect added (`grid.SeparableDecomposition.residuals`): a
      bound on ||Hu - lu|| that touches no grid vector.
      `SpectrumResult.vectors` rotates the Ritz vectors back on first read.
    - "sparse LU", on grids of dimension <= SHIFT_INVERT_MAX_DIM: shift-
      invert Lanczos through one sparse LU of H - sigma I, sigma being the
      Weyl bound `GridOperator.shift_below_spectrum`.
    - "matvec", on higher-dimensional grids, whose LU fills in too much:
      ARPACK's implicitly restarted Lanczos (``which='SA'``) on products
      with H, with scipy's default restart cap, and no shift.

    On the other backends, and after a no-convergence fill, residuals are
    computed in the grid basis one pair at a time, by `GridOperator.apply`,
    which equals `op.matrix @ u` bit for bit without building H, in two
    work vectors reused for every pair, and normed by scipy's dnrm2 as
    every grid vector is (`grid._shifted_product`, `grid._norm`).  So a
    separable call allocates no grid vector (V is the caller's, and its
    separability is checked in slabs) and builds no H; its largest arrays
    are ARPACK's, in the kept basis, which grows as k^2 N_t.  Only the
    sparse LU and matvec backends read `op.matrix`.
    `iterations` counts operator applications and `backend` names the
    operator.  scipy.sparse, ARPACK's and the LU's home, is imported here,
    so that a process that solves nothing never loads it.

    Deterministic for fixed inputs and seed at a fixed BLAS thread count.  On
    non-convergence k pairs are still returned, with per-pair `converged`
    flags set accordingly.
    """
    dim = op.dim
    k = check_count("k", k, most=dim // 4)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    applications = 0

    def counted(apply, n):
        def matvec(x):
            nonlocal applications
            applications += 1
            return apply(x)
        return spla.LinearOperator((n, n), matvec=matvec, dtype=float)

    def shift_invert(solve, n, sigma):
        # in shift-invert mode eigsh applies OPinv alone and reads only the
        # shape and dtype of A, so OPinv stands in for it: the separable path
        # builds no H
        opinv = counted(solve, n)
        return {"A": opinv, "sigma": sigma, "which": "LM", "OPinv": opinv}

    decomposition = separable_decomposition(op, k=k)
    if decomposition is not None:
        # the lowest eigenvalue, less a margin far above rounding, so that
        # H - sigma I stays positive definite
        lowest = float(decomposition.lowest(1)[0])
        sigma = lowest - 1e-2 * max(1.0, abs(lowest))
        backend = "separable inverse"
        arpack = shift_invert(eigenbasis_inverse(decomposition, sigma), decomposition.size, sigma)
    elif op.grid.dim <= SHIFT_INVERT_MAX_DIM:
        sigma = op.shift_below_spectrum()
        shifted = (op.matrix - sigma * sp.identity(dim, format="csr")).tocsc()
        # H - sigma I is symmetric positive definite: no pivoting is needed,
        # and a symmetric ordering halves the fill of the default COLAMD
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        backend, arpack = "sparse LU", shift_invert(lu.solve, dim, sigma)
    else:
        backend, arpack = "matvec", {"A": counted(op.matrix.dot, dim), "which": "SA"}

    rng = np.random.default_rng(seed)
    # on the separable backend drawn in ARPACK's kept basis: Q^T of a standard
    # Gaussian grid vector is again a standard Gaussian there, Q's kept
    # columns being orthonormal, so the start is as random without a grid
    # vector or a product
    v0 = rng.standard_normal(dim if decomposition is None else decomposition.size)
    try:
        theta, ritz = spla.eigsh(k=k, v0=v0, tol=0.1 * tol, **arpack)
        # Fortran order, so that a grid-basis column is contiguous (the apply
        # of a strided column took twice as long)
        order = np.argsort(theta)
        theta, ritz = theta[order], np.asfortranarray(ritz[:, order])
    except spla.ArpackNoConvergence as exc:
        # keep the pairs ARPACK converged, in the grid basis, and fill up to k
        # by a Rayleigh-Ritz step on seeded random directions; the residuals
        # flag the fill.  Fortran order throughout, so every column applied
        # is contiguous (the apply of a strided column took twice as long).
        # On scipy's LAPACK and BLAS, like ARPACK just before (see the note
        # above grid.axis_eigenpairs)
        fill = rng.standard_normal((dim, k - len(exc.eigenvalues)))
        basis = scipy.linalg.qr(
            np.hstack([_grid_basis(exc.eigenvectors, decomposition), fill]),
            overwrite_a=True, mode="economic")[0]
        # H applied a column at a time by its stencil: the fill builds no H
        applied = np.empty_like(basis, order="F")
        for j in range(k):
            op.apply(basis[:, j], out=applied[:, j])
        # eigh returns theta ascending
        theta, s = scipy.linalg.eigh(blas.dgemm(1.0, basis, applied, trans_a=1))
        del applied
        ritz, decomposition = blas.dgemm(1.0, basis, s), None

    if decomposition is not None:
        # in the rotated basis, plus the decomposition's measured defect: a
        # bound on the grid residual that touches no grid vector
        residuals = decomposition.residuals(ritz, theta)
    else:
        # a column at a time, so the step holds two grid vectors whatever k
        # is, the residual and the apply's scratch, reused for every column,
        # since a fresh grid vector per column cost page faults as the
        # allocator handed each freed one back to the system
        r, scratch = np.empty((2, dim))
        residuals = np.empty(k)
        for j in range(k):
            residuals[j] = _norm(_shifted_product(op.apply, ritz[:, j], theta[j], r, scratch))
    return SpectrumResult(
        eigenvalues=theta,
        residuals=residuals,
        ritz_vectors=ritz,
        decomposition=decomposition,
        iterations=applications,
        converged=residuals <= tol * np.maximum(1.0, np.abs(theta)),
        h=op.h,
        grid_signature=op.grid.signature(),
        backend=backend,
    )


def boundary_warning(op: GridOperator, result: SpectrumResult) -> str | None:
    """A warning when V on the box boundary is within 10% of the spectral
    window, the largest converged eigenvalue, else None; unconverged pairs
    set no window."""
    converged = result.eigenvalues[result.converged]
    if converged.size == 0:
        return None
    window = float(converged.max())
    # the boundary nodes are the first and last slice along each axis, read
    # as views: np.take copied the Fortran-ordered V whole into C order
    values = op.grid.nodes(op.potential_values)
    min_v = min(float(np.moveaxis(values, d, 0)[end].min())
                for d in range(values.ndim) for end in (0, -1))
    if min_v < 1.1 * window:
        return (f"min boundary V = {min_v:g} is below the spectral window "
                f"{window:g} + 10%; enlarge the box")
    return None


def cluster_multiplicities(eigs, gap_tol: float) -> list[MultiplicityCluster]:
    """Cluster an ascending eigenvalue list.

    A cluster ends wherever the next value exceeds the previous one by more
    than gap_tol.
    """
    # a NaN gap_tol fails every comparison, so all values formed one cluster
    if not gap_tol > 0:
        raise ValueError(f"gap_tol must be positive, got {gap_tol}")
    eigs = np.asarray(eigs, dtype=float)
    if np.any(np.diff(eigs) < 0):
        raise ValueError("eigenvalues must be ascending")
    if eigs.size == 0:
        return []
    return [MultiplicityCluster(energy=float(np.mean(c)), multiplicity=len(c),
                                spread=float(c[-1] - c[0]))
            for c in np.split(eigs, np.flatnonzero(np.diff(eigs) > gap_tol) + 1)]


@dataclass(frozen=True)
class ConvergenceStudy:
    deltas: tuple                 # max grid spacing per size
    errors: np.ndarray            # (num_sizes, k) absolute eigenvalue errors
    slopes: tuple                 # fitted log-log slope per eigenvalue, or None
    reference: tuple              # eigenvalues the errors are measured against
    converged: np.ndarray         # (num_sizes, k) inner-solve flags

    @property
    def passed(self) -> tuple:
        """Per eigenvalue: its slope was fitted and lies in SLOPE_RANGE."""
        lo, hi = SLOPE_RANGE
        return tuple(s is not None and lo <= s <= hi for s in self.slopes)


def convergence_study(pot: Potential, half_widths, sizes, k: int,
                      h: float = 1.0, tol: float = 1e-7,
                      seed: int = 0) -> ConvergenceStudy:
    """Solve the same physics on a family of grids and fit eigenvalue-error
    slopes against the spacing.

    `sizes` are strictly ascending per-dimension interior point counts, at
    least two: a repeated size would fit one grid twice.
    The reference spectrum comes from the exact oscillator formulas for
    quadratic potentials and from Richardson extrapolation of the two finest
    grids otherwise.
    """
    k = check_count("k", k)
    sizes = [check_count(f"sizes[{i}]", s) for i, s in enumerate(sizes)]
    if len(sizes) < 2:
        raise ValueError("need at least 2 grid sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")

    # every grid built before any solve, so that a size refused is refused
    # before the solves on the sizes below it
    grids = [build_grid(pot.n, pot.p, half_widths, [nn] * pot.dim) for nn in sizes]
    deltas = [max(grid.spacing) for grid in grids]
    eigs = np.empty((len(sizes), k))
    flags = np.empty((len(sizes), k), dtype=bool)
    for i, grid in enumerate(grids):
        op = assemble_hamiltonian(grid, pot, h)
        res = lowest_eigenpairs(op, k, tol=tol, seed=seed)
        eigs[i] = res.eigenvalues[:k]
        flags[i] = res.converged[:k]

    if pot.kind == "quadratic":
        ref = np.asarray(frequency_spectrum(*pot.frequencies, h, k=k).flat(k), dtype=float)
    else:
        # Richardson extrapolation assuming O(delta^2) error, two finest grids
        d1, d2 = deltas[-2], deltas[-1]
        r = (d1 / d2) ** 2
        ref = (r * eigs[-1] - eigs[-2]) / (r - 1)

    errors = np.abs(eigs - ref)
    slopes = []
    log_d = np.log(np.asarray(deltas))
    for j in range(k):
        err = errors[:, j]
        if np.max(err) < 1e-12 * max(1.0, abs(ref[j])):
            slopes.append(None)  # errors at round-off; slope not meaningful
            continue
        mask = err > 0
        if mask.sum() < 2:
            slopes.append(None)
            continue
        # the least-squares slope in closed form, which needs no LAPACK; the
        # sizes ascend strictly, so the centred log deltas are not all 0
        x = log_d[mask] - log_d[mask].mean()
        y = np.log(err[mask])
        slopes.append(float(np.sum(x * (y - y.mean())) / np.sum(x * x)))
    return ConvergenceStudy(
        deltas=tuple(deltas),
        errors=errors,
        slopes=tuple(slopes),
        reference=tuple(float(x) for x in ref),
        converged=flags,
    )


@dataclass(frozen=True)
class OscillatorComparison:
    rows: tuple          # one per covered analytic level, fields as COMPARE_COLUMNS
    levels: tuple        # ((energy, multiplicity), ...) the k eigenvalues cover
    clusters: tuple      # MultiplicityCluster per cluster of those eigenvalues
    gap_tol: float       # cluster gap: least analytic gap / 4, or 1e-6 for one level
    converged: bool      # the solve and both calibration solves

    @property
    def structural(self) -> bool:
        """The cluster count or a cluster multiplicity differs from the levels'."""
        return [c.multiplicity for c in self.clusters] != [m for _, m in self.levels]


def compare_with_oscillator(op: GridOperator, k: int, tol: float = 1e-8,
                            seed: int = 0) -> OscillatorComparison:
    """Judge the k lowest eigenvalues of a quadratic-V operator against its
    exact Born-Oppenheimer levels.

    Only the analytic levels the k eigenvalues cover whole are judged; the
    i-th numeric cluster is matched to the i-th level.  A level passes when
    its cluster has its multiplicity and |error| <= 1.5 C delta^2, where
    delta is the largest grid spacing and C the largest |error| / delta^2 of
    the level's eigenvalues over two calibration grids.
    """
    pot, grid = op.potential, op.grid
    if pot.kind != "quadratic":
        raise ValueError("comparison requires a quadratic potential")
    result = lowest_eigenpairs(op, k, tol=tol, seed=seed)
    # the analytic levels the k eigenvalues cover whole; level i holds the
    # eigenvalues ends[i] - m_i .. ends[i] - 1
    spec = frequency_spectrum(*pot.frequencies, op.h, k=k).levels
    ends = np.cumsum([m for _, m in spec])
    levels = [(float(e), m) for (e, m), end in zip(spec, ends) if end <= k]
    total = sum(m for _, m in levels)

    gaps = [b - a for (a, _), (b, _) in zip(levels, levels[1:])]
    gap_tol = min(gaps) / 4 if gaps else 1e-6
    clusters = cluster_multiplicities(result.eigenvalues[:total], gap_tol)

    # |error| ~ C delta^2, C calibrated on grids of max(31, N // 4) and
    # max(63, N // 2) points per axis, N = max(grid.points), by a solve at
    # least as tight as the one it judges; both are coarser than the judged
    # grid only for N > 63 (N = 31 gives 31 and 63)
    base = max(grid.points)
    sizes = (max(31, base // 4), max(63, base // 2))
    study = convergence_study(pot, grid.half_widths, sizes, total, h=op.h,
                              tol=min(tol, 1e-8), seed=seed)
    constants = (study.errors / np.square(study.deltas)[:, None]).max(axis=0)
    delta = max(grid.spacing)

    rows = []
    for li, ((energy, mult), end) in enumerate(zip(levels, ends)):
        tol_level = 1.5 * float(constants[end - mult: end].max()) * delta**2
        if li < len(clusters):
            cl = clusters[li]
            err = abs(cl.energy - energy)
            ok = err <= tol_level and cl.multiplicity == mult
            rows.append((li, energy, cl.energy, err, mult, cl.multiplicity,
                         tol_level, ok))
        else:
            rows.append((li, energy, None, None, mult, 0, tol_level, False))
    return OscillatorComparison(
        rows=tuple(rows),
        levels=tuple(levels),
        clusters=tuple(clusters),
        gap_tol=gap_tol,
        converged=result.all_converged and bool(study.converged.all()),
    )
