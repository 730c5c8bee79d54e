import numpy as np
import pytest

from bospec.grid import (
    assemble_hamiltonian,
    build_grid,
    kinetic_operator,
    laplacian_1d,
    separable_inverse,
)
from bospec.potential import expression_potential, quadratic_potential


def zero_potential(n, p):
    return expression_potential("0*x1", n, p, nonnegative=True)


class TestBuildGrid:
    def test_spacing_formula(self):
        grid = build_grid(1, 0, [10.0], [1999])
        assert grid.spacing[0] == pytest.approx(20.0 / 2000)

    def test_total_size(self):
        grid = build_grid(1, 1, [8.0, 8.0], [127, 127])
        assert grid.size == 16129

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="3"):
            build_grid(1, 0, [1.0], [2])

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_grid(1, 1, [1.0, 1.0], [2000, 2000])

    def test_node_order_x_fastest(self):
        grid = build_grid(1, 1, [2.0, 2.0], [3, 3])
        coords = grid.node_coords()
        # first three nodes sweep x1 at the lowest y1
        assert np.allclose(coords[:3, 0], [-1.0, 0.0, 1.0])
        assert np.allclose(coords[:3, 1], -1.0)


class TestAssembly:
    def test_tridiagonal_stencil(self):
        grid = build_grid(1, 0, [2.0], [3])  # delta = 1
        op = assemble_hamiltonian(grid, zero_potential(1, 0), h=1.0)
        expected = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        assert np.allclose(op.matrix.toarray(), expected)

    def test_h_scaling(self):
        grid = build_grid(1, 0, [2.0], [3])
        op = assemble_hamiltonian(grid, zero_potential(1, 0), h=0.5)
        assert np.allclose(op.matrix.toarray()[0], [0.5, -0.25, 0])

    def test_potential_on_diagonal(self):
        grid = build_grid(1, 0, [4.0], [3])  # delta = 2, nodes {-2, 0, 2}
        pot = expression_potential("x1^2", 1, 0, nonnegative=True)
        h = 0.5
        op = assemble_hamiltonian(grid, pot, h)
        assert op.matrix[2, 2] == pytest.approx(2 * h**2 / 4.0 + 4.0)

    def test_h_out_of_range(self):
        grid = build_grid(1, 0, [2.0], [3])
        with pytest.raises(ValueError, match="h"):
            assemble_hamiltonian(grid, zero_potential(1, 0), h=1.5)

    def test_dim_mismatch(self):
        grid = build_grid(1, 1, [2.0, 2.0], [3, 3])
        with pytest.raises(ValueError, match="dims"):
            assemble_hamiltonian(grid, zero_potential(1, 0), h=1.0)

    def test_m_matrix_sign_pattern(self):
        grid = build_grid(1, 1, [3.0, 3.0], [7, 7])
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]], [[2.0]]), 0.7)
        dense = op.matrix.toarray()
        off = dense - np.diag(np.diag(dense))
        assert np.all(off <= 0)
        assert np.all(np.diag(dense) >= 0)

    def test_y_dimension_unscaled(self):
        grid = build_grid(1, 1, [2.0, 2.0], [3, 3])
        kin = kinetic_operator(grid, h=0.5).toarray()
        # diagonal = h^2 * 2/dx^2 + 2/dy^2 with dx = dy = 1
        assert kin[0, 0] == pytest.approx(0.25 * 2 + 2)

    def test_kronecker_axis_order(self):
        # unequal point counts: a permuted axis order changes the matrix but
        # not its eigenvalues
        grid = build_grid(1, 2, [2.0, 3.0, 4.0], [3, 4, 5])
        h = 0.6
        expected = np.zeros((grid.size, grid.size))
        for d in range(grid.dim):
            term = np.ones((1, 1))
            for j in reversed(range(grid.dim)):  # np.kron's right factor is fastest
                factor = (laplacian_1d(grid.points[j], grid.spacing[j]).toarray()
                          if j == d else np.eye(grid.points[j]))
                term = np.kron(term, factor)
            expected += (h * h if d < grid.n else 1.0) * term
        np.testing.assert_allclose(kinetic_operator(grid, h).toarray(), expected,
                                   rtol=1e-14, atol=0)


class TestMatvec:
    def test_constant_vector(self):
        grid = build_grid(1, 0, [2.0], [3])
        op = assemble_hamiltonian(grid, zero_potential(1, 0), h=1.0)
        out = op.matrix @ np.ones(3)
        assert np.allclose(out, [1.0, 0.0, 1.0])

    def test_zero_vector(self):
        grid = build_grid(1, 0, [2.0], [3])
        op = assemble_hamiltonian(grid, zero_potential(1, 0), h=1.0)
        assert np.allclose(op.matrix @ np.zeros(3), 0.0)

    def test_first_column(self):
        grid = build_grid(1, 0, [2.0], [3])
        op = assemble_hamiltonian(grid, zero_potential(1, 0), h=1.0)
        assert np.allclose(op.matrix @ np.eye(3)[0], [2.0, -1.0, 0.0])

    def test_length_mismatch(self):
        grid = build_grid(1, 0, [2.0], [3])
        op = assemble_hamiltonian(grid, zero_potential(1, 0), h=1.0)
        with pytest.raises(ValueError):
            op.matrix @ np.ones(4)


class TestRestrict:
    """Restriction to the ball B(0, r) is the node-radius mask the probes use."""

    def test_large_radius_identity(self):
        grid = build_grid(1, 0, [2.0], [3])
        assert np.all(grid.node_radii() <= 100.0)

    def test_small_radius(self):
        grid = build_grid(1, 0, [2.0], [3])  # nodes {-1, 0, 1}
        assert np.array_equal(grid.node_radii() <= 0.5, [False, True, False])

    def test_tiny_radius_off_origin(self):
        grid = build_grid(1, 0, [2.0], [4])  # nodes avoid the origin
        assert not np.any(grid.node_radii() <= 1e-12)


class TestInvariants:
    def test_symmetry(self):
        grid = build_grid(1, 1, [4.0, 4.0], [15, 15])
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]], [[1.0]]), 0.5)
        rng = np.random.default_rng(0)
        norm1 = np.abs(op.matrix).sum(axis=1).max()
        for _ in range(10):
            u = rng.standard_normal(op.dim)
            v = rng.standard_normal(op.dim)
            lhs = (op.matrix @ u) @ v
            rhs = u @ (op.matrix @ v)
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v) * norm1

    def test_form_chain(self):
        grid = build_grid(1, 0, [5.0], [63])
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]]), 1.0)
        kinetic = kinetic_operator(grid, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.standard_normal(op.dim)
            u /= np.linalg.norm(u)
            kin = u @ (kinetic @ u)
            full = u @ (op.matrix @ u)
            shifted = full + 1.0
            bound = np.linalg.norm(op.matrix @ u + u)
            eps = 1e-12 * max(1.0, bound)
            assert kin <= full + eps
            assert full <= shifted
            assert shifted <= bound + eps

    def test_positivity_split(self):
        grid = build_grid(1, 1, [4.0, 4.0], [15, 15])
        pot = quadratic_potential([[1.0]], [[2.0]])
        h = 0.3
        op = assemble_hamiltonian(grid, pot, h)
        kinetic = kinetic_operator(grid, h)
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.standard_normal(op.dim)
            full = u @ (op.matrix @ u)
            split = u @ (kinetic @ u) + u @ (op.potential_values * u)
            assert full == pytest.approx(split, rel=1e-10)
            assert full >= 0

    def test_laplacian_eigenvectors(self):
        m, length = 63, 4.0
        grid = build_grid(1, 0, [length], [m])
        delta = grid.spacing[0]
        lap = laplacian_1d(m, delta).toarray()
        i = np.arange(1, m + 1)
        for k in (1, 2, 5, m):
            vec = np.sin(k * np.pi * i / (m + 1))
            lam = (2 - 2 * np.cos(k * np.pi / (m + 1))) / delta**2
            assert np.allclose(lap @ vec, lam * vec, atol=1e-10 * lam)


class TestSeparableInverse:
    # each dense per-axis eigenvector matrix may take the bytes of two grid
    # vectors, N_d^2 <= 2 prod N: 82^2 = 2 * 41 * 82 is the edge, and a 1D
    # grid (N^2 <= 2N) is never admitted
    @pytest.mark.parametrize("points, admitted", [
        ((191, 193), True), ((255, 257), True), ((41, 82), True), ((41, 83), False),
        ((5, 41), False), ((1399,), False)])
    def test_admission_by_eigenvector_bytes(self, points, admitted):
        dim = len(points)
        pot = quadratic_potential([[1.0]], np.eye(dim - 1) if dim > 1 else None)
        op = assemble_hamiltonian(build_grid(1, dim - 1, [8.0] * dim, points), pot, 0.5)
        inverse = separable_inverse(op, op.shift_below_spectrum())
        assert (inverse is not None) == admitted
