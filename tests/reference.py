"""Independent references the tests check the library against, kept out of
the package: the grid's stencil built afresh as sparse matrices."""

import numpy as np
import scipy.sparse as sp


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
