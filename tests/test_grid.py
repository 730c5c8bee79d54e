import inspect
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from bospec import grid as grid_module
from bospec.grid import (
    GridError,
    assemble_hamiltonian,
    build_grid,
    eigenbasis_inverse,
    kinetic_operator,
    laplacian_1d,
    separable_decomposition,
    separable_inverse,
)
from bospec.potential import expression_potential, quadratic_potential
from bospec.probe import essential_spectrum_probe


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

    @pytest.mark.parametrize("half_width", [float("nan"), float("inf")])
    def test_non_finite_half_width_rejected(self, half_width):
        with pytest.raises(ValueError, match="half-widths must be positive and finite"):
            build_grid(1, 1, [half_width, 6.0], [31, 31])

    # each error names the argument at fault, which the CLI reports as its key
    @pytest.mark.parametrize("args, argument", [
        ((0, 0, [1.0], [5]), "n"), ((1, -1, [1.0], [5]), "p"),
        ((1, 1, [1.0], [5, 5]), "half_widths"), ((1, 0, [0.0], [5]), "half_widths"),
        ((1, 1, [1.0, 1.0], [5]), "points"), ((1, 0, [1.0], [2]), "points"),
        ((1, 1, [1.0, 1.0], [2000, 2000]), "points")])
    def test_error_names_its_argument(self, args, argument):
        with pytest.raises(GridError) as caught:
            build_grid(*args)
        assert caught.value.argument == argument

    def test_node_order_x_fastest(self):
        grid = build_grid(1, 1, [2.0, 2.0], [3, 3])
        coords = grid.node_coords()
        # first three nodes sweep x1 at the lowest y1
        assert np.allclose(coords[:3, 0], [-1.0, 0.0, 1.0])
        assert np.allclose(coords[:3, 1], -1.0)

    def test_nodes_view_axis_d_is_dimension_d(self):
        grid = build_grid(1, 2, [2.0, 3.0, 4.0], [3, 4, 5])
        coords = grid.node_coords()
        for d in range(grid.dim):
            nodes = grid.nodes(coords[:, d].copy())
            assert nodes.shape == grid.points
            assert np.array_equal(np.moveaxis(nodes, d, 0)[:, 0, 0], grid.axis_coords(d))


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

    def test_h_out_of_range(self, record_band_matrix):
        grid = build_grid(1, 0, [2.0], [3])
        with pytest.raises(ValueError, match="h must lie"):
            assemble_hamiltonian(grid, zero_potential(1, 0), h=1.5)
        assert record_band_matrix == []

    def test_matrix_built_on_first_read(self, record_band_matrix):
        grid = build_grid(1, 1, [3.0, 3.0], [7, 9])
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]], [[2.0]]), 0.7)
        assert op.dim == grid.size == 63
        op.apply(np.ones(63))
        assert record_band_matrix == []
        assert op.matrix is op.matrix and op.matrix.shape == (63, 63)
        assert record_band_matrix == [1]

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

    # assembly from the bands must give the matrix that kronsum and a sparse
    # add of diags(V) give, bit for bit and in the same canonical layout; at
    # h = 1 the 5-point case has spacing 1 and a zero main entry at x = 0,
    # which the sparse add drops
    @pytest.mark.parametrize("h", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n, p, points, expression", [
        (1, 0, (31,), "x1^2"), (1, 0, (5,), "x1^2 - 2"), (1, 1, (5, 9), "x1^4 + y1^2 - 3"),
        (1, 1, (191, 191), "x1^2 + y1^2"), (1, 2, (7, 9, 11), "x1^2 + y1^2 + y1*y2 + 2*y2^2"),
        (2, 2, (5, 6, 7, 4), "x1^2 + x2^2 + x1*y2 + y1^2 + y2^2")],
        ids=["1d", "zero-diagonal", "5x9", "191x191", "3d", "n2p2"])
    def test_bitwise_equal_to_kronsum(self, n, p, points, expression, h):
        dim = n + p
        grid = build_grid(n, p, [3.0 + d for d in range(dim)], points)
        pot = expression_potential(expression, n, p, nonnegative=False)
        kinetic = None
        for d, (m, delta) in enumerate(zip(grid.points, grid.spacing)):
            stencil = (h * h if d < n else 1.0) * laplacian_1d(m, delta)
            kinetic = stencil if kinetic is None else sp.kronsum(kinetic, stencil, format="csr")
        matrix = assemble_hamiltonian(grid, pot, h).matrix
        reference = (kinetic + sp.diags(pot.evaluate_many(grid.node_coords()))).tocsr()
        for built, expected in ((matrix, reference), (kinetic_operator(grid, h), kinetic)):
            assert built.format == "csr" and built.has_canonical_format
            for field in ("indptr", "indices", "data"):
                got, want = getattr(built, field), getattr(expected, field)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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


class TestApply:
    """`GridOperator.apply`, H u from the stencil, is `op.matrix @ u` bit for
    bit, and with V = 0 the kinetic operator's product."""

    # V has exact zeros and negative values on every grid; at h = 1 the 1D
    # grid has spacing 1 and a zero main entry at x = 0, which CSR drops
    @pytest.mark.parametrize("h", [0.3, 1.0])
    @pytest.mark.parametrize("n, p, points, expression", [
        (1, 0, (5,), "2*x1^2 - 2"), (1, 1, (15, 17), "x1*y1"),
        (2, 1, (7, 5, 9), "x1*y1 - x2^2"), (1, 2, (9, 7, 5), "y1*y2 - x1^2"),
        (2, 2, (5, 5, 7, 5), "x1*y2 - x2*y1")],
        ids=["1d", "2d", "n2p1", "n1p2", "n2p2"])
    def test_bitwise_equal_to_matrix_product(self, n, p, points, expression, h):
        dim = n + p
        grid = build_grid(n, p, [3.0 + d for d in range(dim)], points)
        op = assemble_hamiltonian(grid, expression_potential(expression, n, p), h)
        assert (op.potential_values == 0).any() and (op.potential_values < 0).any()
        # columns of a C-ordered array are strided; zero entries make the
        # products -0.0 that a sum started at 0 turns to +0.0
        columns = np.random.default_rng(0).standard_normal((grid.size, 3))
        columns[::4] = 0.0
        strided = columns[:, 1]
        assert not strided.flags.c_contiguous
        kinetic = kinetic_operator(grid, h)
        for u in (strided, np.ascontiguousarray(strided)):
            assert op.apply(u).tobytes() == (op.matrix @ u).tobytes()
            free = grid_module._band_apply(grid, h, 0.0, u)
            assert free.tobytes() == (kinetic @ u).tobytes()


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

    # node_radii sums per-axis squares without the coordinate table; unequal
    # axes catch a wrong flat-index order
    @pytest.mark.parametrize("n, p, half_widths, points", [
        (1, 0, [3.0], [17]), (1, 1, [2.0, 5.0], [7, 12]), (1, 2, [1.5, 4.0, 3.0], [5, 9, 6])],
        ids=["1d", "2d", "3d"])
    def test_radii_are_coordinate_norms(self, n, p, half_widths, points):
        grid = build_grid(n, p, half_widths, points)
        reference = np.linalg.norm(grid.node_coords(), axis=1)
        assert np.all(np.abs(grid.node_radii() - reference) <= 1e-15 * reference)


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
    @staticmethod
    def op(points, expression):
        dim = len(points)
        pot = expression_potential(expression, 1, dim - 1, nonnegative=False)
        return assemble_hamiltonian(build_grid(1, dim - 1, [6.0] * dim, points), pot, 0.5)

    # separability alone admits: a 1D grid, and grids of any aspect or
    # dimension, since only axes no longer than the longest are made dense
    @pytest.mark.parametrize("points, expression, admitted", [
        ((191, 193), "x1^2 + y1^2", True), ((41, 83), "x1^2 + y1^4", True),
        ((5, 41), "x1^2 + y1^2", True), ((1399,), "x1^2", True),
        ((9, 7, 8), "x1^2 + y1^2 + 2*y2^2", True),
        ((41, 83), "x1^2 + y1^2 + x1*y1", False), ((9, 7, 8), "x1^2 + y1*y2", False)],
        ids=["191x193", "41x83", "5x41", "1d", "3d", "41x83-coupled", "3d-coupled"])
    def test_admission_by_separability(self, points, expression, admitted):
        op = self.op(points, expression)
        inverse = separable_inverse(op, op.shift_below_spectrum())
        assert (inverse is not None) == admitted

    # `admitted` is whether each axis's dense eigenvectors would take at most
    # the bytes of two grid vectors, N_d^2 <= 2 prod N (41 x 83 would not);
    # eigenvector bytes no longer decide admission: the longest axis is never
    # made dense and every other axis's eigenvectors fit in one grid vector
    @pytest.mark.parametrize("points, admitted", [
        ((191, 193), True), ((255, 257), True), ((41, 82), True), ((41, 83), False)])
    def test_admission_by_eigenvector_bytes(self, points, admitted, monkeypatch):
        import bospec.grid as grid_module

        dense = []
        eigenpairs = grid_module.axis_eigenpairs

        def recording(grid, h, d, values, blas):
            dense.append(d)
            return eigenpairs(grid, h, d, values, blas)

        monkeypatch.setattr(grid_module, "axis_eigenpairs", recording)
        size = int(np.prod(points))
        assert all(n * n <= 2 * size for n in points) == admitted
        op = self.op(points, "x1^2 + y1^2")
        assert separable_inverse(op, op.shift_below_spectrum()) is not None
        assert dense == [int(np.argmin(points))]
        assert all(points[d] ** 2 <= size for d in dense)

    # the longest axis stays tridiagonal: the last (5 x 41, 41 x 83), the
    # first (1399 x 5, 9 x 8 x 7) or a middle one (7 x 9 x 8), where the
    # apply transposes around its products, or the only one (1D); the -3 makes
    # min V nonzero, so the shift (dim - 1) min V of the split is exercised
    @pytest.mark.parametrize("points", [(31,), (5, 41), (41, 83), (1399, 5), (7, 9, 8), (9, 8, 7)],
                             ids=["1d", "5x41", "41x83", "1399x5", "7x9x8", "9x8x7"])
    def test_apply_matches_direct_solve(self, points):
        expression = ["x1^2 - 3", "x1^2 + y1^4 - 3", "x1^2 + y1^2 + 2*y2^2 - 3"][len(points) - 1]
        op = self.op(points, expression)
        z = op.shift_below_spectrum()
        shifted = (op.matrix - z * sp.identity(op.dim, format="csr")).tocsc()
        r = np.random.default_rng(0).standard_normal(op.dim)
        exact = spsolve(shifted, r)
        inverse = separable_inverse(op, z)
        # a plain function of one vector, not a scipy LinearOperator
        assert inspect.isfunction(inverse)
        x = inverse(r)
        assert np.linalg.norm(shifted @ x - r) <= 1e-13 * np.linalg.norm(r)
        assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)

    # the eigensolver shifts 1e-2 max(1, |lowest|) below it, so the lowest
    # eigenvalue must be exact far beyond that margin; the -3 makes min V
    # nonzero, so the offset (dim - 1) min V is exercised
    @pytest.mark.parametrize("points", [(31,), (9, 11), (5, 6, 7)], ids=["1d", "9x11", "5x6x7"])
    def test_lowest_eigenvalue_exact(self, points):
        expression = ["x1^2 - 3", "x1^2 + y1^4 - 3", "x1^2 + y1^2 + 2*y2^2 - 3"][len(points) - 1]
        op = self.op(points, expression)
        lowest = separable_decomposition(op, blas="scipy").lowest()
        exact = np.linalg.eigvalsh(op.matrix.toarray())[0]
        assert abs(lowest - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_z_not_below_spectrum_raises(self):
        op = self.op((15, 17), "x1^2 + y1^2")
        lowest = np.linalg.eigvalsh(op.matrix.toarray())[0]
        with pytest.raises(ValueError, match="positive definite"):
            separable_inverse(op, lowest + 1e-3)

    # the eigensolver's side (eigh_tridiagonal, scipy's dgemm) and the probe's
    # (numpy's eigh and products) must give the same inverse; 17 x 15 keeps
    # axis 0 tridiagonal, so the apply transposes around its products
    @pytest.mark.parametrize("points", [(17, 15), (8, 8, 8)], ids=["17x15", "8x8x8"])
    def test_blas_sides_agree(self, points):
        expression = ["x1^2 + y1^4 - 3", "x1^2 + y1^2 + 2*y2^2 - 3"][len(points) - 2]
        op = self.op(points, expression)
        z = op.shift_below_spectrum()
        r = np.random.default_rng(1).standard_normal(op.dim)
        scipy_side = separable_decomposition(op, blas="scipy")
        assert scipy_side.blas == "scipy"
        x = scipy_side.rotate_back(eigenbasis_inverse(scipy_side, z)(scipy_side.rotate(r)))
        y = separable_inverse(op, z)(r)
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(x)

    # restricted to the blocks that can hold the k lowest eigenvalues, the
    # rotation maps their span isometrically onto the kept basis and the
    # inverse solves exactly there: 17 x 15 keeps a leading run of axis 1's
    # eigenpairs, 7 x 9 x 8 a staircase of blocks inside the leading runs
    @pytest.mark.parametrize("points", [(17, 15), (7, 9, 8)], ids=["17x15", "7x9x8"])
    def test_kept_blocks_solve_exactly(self, points):
        expression = ["x1^2 + y1^4 - 3", "x1^2 + y1^2 + 2*y2^2 - 3"][len(points) - 2]
        op = self.op(points, expression)
        z = op.shift_below_spectrum()
        kept = separable_decomposition(op, blas="scipy", k=4)
        assert (kept.blocks is None) == (len(points) == 2)
        assert kept.size < op.dim and kept.size % max(points) == 0
        y = np.random.default_rng(2).standard_normal(kept.size)
        r = kept.rotate_back(y)
        assert r.shape == (op.dim,)
        assert abs(np.linalg.norm(r) - np.linalg.norm(y)) <= 1e-12 * np.linalg.norm(y)
        assert np.linalg.norm(kept.rotate(r) - y) <= 1e-12 * np.linalg.norm(y)
        shifted = op.matrix - z * sp.identity(op.dim, format="csr")
        x = kept.rotate_back(eigenbasis_inverse(kept, z)(y))
        assert np.linalg.norm(shifted @ x - r) <= 1e-12 * np.linalg.norm(r)

    # the one block layout: in the kept basis H is block diagonal, block j
    # being T_t + (shifts[j] - offset) I, in the order `rotate` lays blocks
    # out; 1D has the one shift 0, 17 x 15 keeps axis 0 tridiagonal (the
    # transposed apply), 15 x 17 axis 1, 7 x 9 x 8 keeps a staircase of blocks,
    # and 9^4 at h = 1 ties floors at the cut
    @pytest.mark.parametrize("points", [(31,), (17, 15), (15, 17), (7, 9, 8), (9, 9, 9, 9)],
                             ids=["1d", "17x15", "15x17", "7x9x8", "9^4"])
    @pytest.mark.parametrize("k", [None, 4])
    def test_block_layout_matches_rotate(self, points, k):
        dim = len(points)
        if dim == 4:
            grid = build_grid(1, 3, [6.0] * 4, points)
            pot = expression_potential("x1^2 + y1^2 + y2^2 + y3^2", 1, 3)
            op = assemble_hamiltonian(grid, pot, 1.0)
        else:
            op = self.op(points, ["x1^2 - 3", "x1^2 + y1^4 - 3",
                                  "x1^2 + y1^2 + 2*y2^2 - 3"][dim - 1])
        decomposition = separable_decomposition(op, blas="scipy", k=k)
        n_t = decomposition.main.size
        assert decomposition.size == n_t * decomposition.shifts.size
        y = np.random.default_rng(3).standard_normal(decomposition.size)
        blocks = y.reshape((n_t, -1), order="F")
        expected = (decomposition.main[:, None] + decomposition.shifts - decomposition.offset) * blocks
        expected[:-1] += decomposition.off[:, None] * blocks[1:]
        expected[1:] += decomposition.off[:, None] * blocks[:-1]
        expected = expected.ravel(order="F")
        got = decomposition.rotate(op.matrix @ decomposition.rotate_back(y))
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_unknown_blas_side_raises(self):
        with pytest.raises(ValueError, match="blas"):
            separable_decomposition(self.op((9, 11), "x1^2 + y1^2"), blas="mkl")


class TestOneStencil:
    """H, the separable decomposition and the probes read one stencil."""

    # every axis tridiagonal the decomposition factors carries H's entries bit
    # for bit; the x-axis entries were once rounded differently at h = 0.1 and
    # h = 0.3, so the decomposition inverted an operator close to H but not H
    @pytest.mark.parametrize("h", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("points, expression", [((41,), "x1^2"), ((41, 43), "x1^2 + y1^4")],
                             ids=["1d", "41x43"])
    def test_decomposition_factors_h_entries(self, points, expression, h, monkeypatch):
        dim = len(points)
        grid = build_grid(1, dim - 1, [5.0] * dim, points)
        op = assemble_hamiltonian(grid, expression_potential(expression, 1, dim - 1), h)
        tridiagonals = {}
        axis_tridiagonal = grid_module._axis_tridiagonal

        def recording(grid, h, d, values):
            main, off = axis_tridiagonal(grid, h, d, values)
            tridiagonals[d] = (np.array(values), main, off)
            return main, off

        monkeypatch.setattr(grid_module, "_axis_tridiagonal", recording)
        assert separable_decomposition(op, blas="scipy") is not None
        assert sorted(tridiagonals) == list(range(dim))
        for d, (values, main, off) in tridiagonals.items():
            # H is the kronsum of these stencils bit for bit (TestAssembly)
            stencil = (h * h if d < grid.n else 1.0) * laplacian_1d(points[d], grid.spacing[d])
            band = op.matrix.diagonal(math.prod(points[:d]))
            assert np.unique(band[band != 0]).tobytes() == off[:1].tobytes()
            assert off.tobytes() == stencil.diagonal(1).tobytes()
            assert main.tobytes() == (stencil.diagonal() + values).tobytes()
        if dim == 1:
            assert tridiagonals[0][1].tobytes() == op.matrix.diagonal().tobytes()

    # the stencil's symbol keeps the bits of its former copies in Grid and the
    # essential probe: the shift below the spectrum, built from the lowest
    # per-axis modes, and the probe's snapped targets, at h = 0.3
    def test_symbol_bits_pinned(self):
        grid = build_grid(1, 1, [5.0, 5.0], [41, 43])
        op = assemble_hamiltonian(grid, expression_potential("x1^2 + y1^4", 1, 1), 0.3)
        assert op.shift_below_spectrum().hex() == "0x1.b874215b1f8d3p-5"
        reports = essential_spectrum_probe(0.3, build_grid(1, 1, [6.0, 6.0], [31, 31]),
                                           [1.0, 2.5], [1.5, 2.0])
        assert [[e.target.hex() for e in r.entries] for r in reports] == [
            ["0x1.949088b155626p-1"] * 2, ["0x1.c513e49d17de1p+0"] * 2]
