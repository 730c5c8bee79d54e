"""Independent references the tests check the library against, kept out of
the package: the grid's stencil built afresh as sparse matrices, the
quadratic potential's, the separability check's and the probe layer's
former formulas."""

import math
from functools import reduce

import numpy as np
import scipy.sparse as sp

from bospec.grid import eigenbasis_inverse, separable_decomposition
from bospec.probe import _norm


def laplacian_1d(m: int, delta: float) -> sp.csr_matrix:
    """Second-order central-difference -d^2/dx^2 with Dirichlet truncation."""
    main = np.full(m, 2.0 / delta**2)
    off = np.full(m - 1, -1.0 / delta**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def kinetic_operator(grid, h: float) -> sp.csr_matrix:
    """-h^2 Lap_x - Lap_y on the grid: the Kronecker sum of the per-axis
    `laplacian_1d`, scaled by h^2 on the x-dimensions, dimension 0 fastest."""
    kinetic = None
    for d, (m, delta) in enumerate(zip(grid.points, grid.spacing)):
        stencil = (h * h if d < grid.n else 1.0) * laplacian_1d(m, delta)
        kinetic = stencil if kinetic is None else sp.kronsum(kinetic, stencil, format="csr")
    return kinetic


def quadratic_form(matrix: np.ndarray, coords: list):
    """sum_ij matrix_ij c_i c_j over broadcasting coordinate arrays, each term
    formed on the arrays' own shapes before the sum broadcasts them, as
    `Potential.evaluate_many` formed a quadratic V before it walked V's tree."""
    total = 0.0
    for i, ci in enumerate(coords):
        for j, cj in enumerate(coords):
            total = total + matrix[i, j] * ci * cj
    return total


def separable_split_gap(op) -> float:
    """The largest |V - (sum of the slices of V through its least node -
    (dim - 1) min V)|, summed over the whole grid at once, as
    `grid._separable_split` did before it took the gap in slabs."""
    values = op.grid.nodes(op.potential_values)
    least = np.unravel_index(np.argmin(op.potential_values), op.grid.points, order="F")
    dim = op.grid.dim
    slices = [values[least[:d] + (slice(None),) + least[d + 1:]] for d in range(dim)]
    gap = reduce(np.add.outer, slices, 0.0) - (dim - 1) * values[least] - values
    return float(np.abs(gap).max())


# The probe layer's former formulas, each allocating a fresh array per
# product: the probes must give their outputs bit for bit.  Their norms are
# the probe's own (`probe._norm`, scipy's dnrm2).

def bump(t) -> np.ndarray:
    """exp(1 - 1/(1 - t^2)) where |t| < 1, else 0, over the whole array."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def cutoff_profile(r) -> np.ndarray:
    """1 where r <= 1, bump(r - 1) where 1 < r < 2, else 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= 1] = 1.0
    mid = (r > 1) & (r < 2)
    out[mid] = bump(r[mid] - 1.0)
    return out


def node_radii(grid) -> np.ndarray:
    """|X| per node: outer sums of the per-axis squares in dimension order,
    raveled in flat-index order (dimension 0 fastest)."""
    squares = reduce(np.add.outer, [grid.axis_coords(d) ** 2 for d in range(grid.dim)])
    return np.sqrt(squares).ravel(order="F")


def zhislin_vector(grid, radius, k, width) -> np.ndarray:
    """The normalized bump times e^{i k.X}, the phase k.X summed and its
    exponential taken at each node of the bump's support."""
    envelope = bump(2 * (node_radii(grid) - radius - width) / width - 1.0)
    k = np.zeros(grid.dim) if k is None else np.asarray(k, dtype=float)
    if not np.any(k != 0):
        return envelope / _norm(envelope)
    support = np.flatnonzero(envelope)
    index = np.unravel_index(support, grid.points, order="F")
    phase = sum(kd * grid.axis_coords(d)[index[d]] for d, kd in enumerate(k) if kd != 0)
    v = np.zeros(grid.size, dtype=complex)
    v[support] = envelope[support] * np.exp(1j * phase)
    return v / _norm(v)


def residual(matrix, v, lam) -> float:
    """||(H - lam) v|| for the real sparse H = `matrix`, a complex v taken as
    its real and imaginary parts."""
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    return math.hypot(*[_norm(matrix @ x - lam * x) for x in parts])


def commutator_estimates(op, scales, probes, seed) -> list:
    """max over the probes of ||H (phi_q w) - phi_q (H w)|| per scale q, w =
    (H - z)^{-1} v for the seeded unit vectors v, by the separable inverse
    with its factor held (dpttrf once, dpttrs per solve); H by the sparse
    matrix."""
    z = op.shift_below_spectrum() - 1.0
    decomposition = separable_decomposition(op)
    matrix = op.matrix
    radii = node_radii(op.grid)
    phis = [cutoff_profile(radii / q) for q in scales]
    solve = eigenbasis_inverse(decomposition, z)
    best = [0.0] * len(phis)
    for pi in range(probes):
        v = np.random.default_rng((seed, pi)).standard_normal(op.dim)
        v /= _norm(v)
        w = decomposition.rotate_back(solve(decomposition.rotate(v)))
        hw = matrix @ w
        best = [max(b, _norm(matrix @ (phi * w) - phi * hw))
                for b, phi in zip(best, phis)]
    return [(float(q), b) for q, b in zip(scales, best)]
