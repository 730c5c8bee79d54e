import importlib
import inspect
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from bospec import grid as grid_module
from bospec.grid import (
    assemble_hamiltonian,
    build_grid,
    eigenbasis_inverse,
    separable_decomposition,
    separable_inverse,
)
from bospec.analytic import bo_spectrum, enumerate_spectrum
from bospec.eigensolver import convergence_grids, convergence_study, lowest_eigenpairs
from bospec.potential import (ArgumentError, check_count, check_h, expression_potential,
                              oscillator_frequencies, parse_potential, quadratic_potential)
from bospec.probe import discreteness_certificate, essential_spectrum_probe

import reference
from reference import kinetic_operator, laplacian_1d


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

    @pytest.mark.parametrize("half_width", [1e150, 1e-150])
    def test_stencil_in_float_range_accepted(self, half_width):
        grid = build_grid(1, 1, [half_width, 1.0], [31, 31])
        assert all(0 < abs(e) < math.inf for e in grid.stencil(1.0, 0)[1:])

    # each error names the argument at fault, which the CLI reports as its key;
    # a spacing whose square overflows (1e160) or underflows to 0 (1e-170)
    # leaves no stencil entry to form, where Grid.stencil once raised
    # OverflowError or ZeroDivisionError
    @pytest.mark.parametrize("args, argument", [
        ((0, 0, [1.0], [5]), "n"), ((1, -1, [1.0], [5]), "p"),
        ((1, 1, [1.0], [5, 5]), "half_widths"), ((1, 0, [0.0], [5]), "half_widths"),
        ((1, 1, [1.0, 1.0], [5]), "points"), ((1, 0, [1.0], [2]), "points"),
        ((1, 1, [1.0, 1.0], [2000, 2000]), "points"),
        ((1, 1, [1e160, 1.0], [31, 31]), "half_widths"),
        ((1, 1, [1e-170, 1.0], [31, 31]), "half_widths")])
    def test_error_names_its_argument(self, args, argument):
        with pytest.raises(ArgumentError) as caught:
            build_grid(*args)
        assert caught.value.argument == argument

    # a fractional point count was truncated (31.9 x 31.2 built 31 x 31), a
    # fractional n was refused as a count of half-widths, and True and False
    # passed as n = 1 and p = 0
    @pytest.mark.parametrize("args, argument", [
        ((1, 1, [8.0, 8.0], [31.9, 31.2]), "points"), ((1, 1, [8.0, 8.0], [31, 31.0]), "points"),
        ((1.5, 0, [8.0], [31]), "n"), ((1, 0.0, [8.0], [31]), "p"),
        ((True, False, [8.0], [31]), "n"), ((1, False, [8.0], [31]), "p"),
        ((1, 0, [8.0], [float("nan")]), "points")],
        ids=["fractional-points", "float-points", "fractional-n", "float-p", "bool-n", "bool-p",
             "nan-points"])
    def test_counts_must_be_integers(self, args, argument):
        with pytest.raises(ArgumentError, match="must be an integer") as caught:
            build_grid(*args)
        assert caught.value.argument == argument

    # numpy integers are counts too, and the grid holds them as Python ints,
    # so its signature is that of the same Python ints
    def test_numpy_integer_counts_accepted(self):
        grid = build_grid(np.int64(1), np.int64(1), [8.0, 8.0], np.array([31, 33]))
        assert grid == build_grid(1, 1, [8.0, 8.0], [31, 33])
        assert all(type(m) is int for m in (grid.n, grid.p, *grid.points))
        assert grid.signature() == build_grid(1, 1, [8.0, 8.0], [31, 33]).signature()

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


# the rule every layer imports from bospec.potential, tested here beside
# build_grid, its first caller
class TestCheckCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)], ids=["int", "int64", "uint8"])
    def test_integer_returned_as_int(self, value):
        count = check_count("n", value)
        assert count == 3 and type(count) is int

    # a bool is no count, though Python reads True as 1
    @pytest.mark.parametrize("value", [True, np.True_, 3.0, 2.5, float("nan"), float("inf"), "3",
                                       None, 0, 6])
    def test_refusal_names_argument_and_value(self, value):
        with pytest.raises(ValueError, match=rf"^n must be an integer in \[1, 5\], got n={value!r}$"):
            check_count("n", value, most=5)

    def test_no_upper_end_by_default(self):
        assert check_count("p", 10**12, least=0) == 10**12
        with pytest.raises(ValueError, match=r"^p must be an integer >= 0, got p=-1$"):
            check_count("p", -1, least=0)

    # like check_h, a helper of the public functions, not one itself:
    # perfbench's tracer wraps every name in a module's __all__.  One
    # definition, in bospec.potential, which every layer can import
    def test_not_public(self):
        from bospec import potential

        for name in ("analytic", "cli", "eigensolver", "grid", "potential", "probe"):
            module = importlib.import_module(f"bospec.{name}")
            assert not {"check_count", "check_h"} & set(getattr(module, "__all__", ()))
            for rule in ("check_count", "check_h"):
                assert getattr(module, rule, None) in (None, getattr(potential, rule))
            assert module is potential or not hasattr(module, "DEFAULT_H_MAX")
        assert check_count.__module__ == check_h.__module__ == "bospec.potential"


# every library refusal of a value that a config key supplies is an
# ArgumentError named after that key, which the CLI files it under
def _oscillator_op():
    return assemble_hamiltonian(build_grid(1, 1, [6.0, 6.0], [31, 31]),
                                quadratic_potential([[1.0]], [[1.0]]), 0.5)


class TestArgumentError:
    @pytest.mark.parametrize("call, argument", [
        (lambda: check_count("points[2]", 0), "points"),
        (lambda: check_h(2.0), "h"),
        (lambda: build_grid(1, 0, [1.0], [2]), "points"),
        (lambda: parse_potential("x1 +", 1, 0), "expression"),
        (lambda: quadratic_potential([[1.0, 2.0]]), "a"),
        (lambda: quadratic_potential([[1.0]], [[-1.0]]), "b"),
        (lambda: quadratic_potential([[-1.0]], [[1.0, 2.0]]), "a"),
        (lambda: oscillator_frequencies([[np.nan]]), "a"),
        (lambda: bo_spectrum([[1.0]], [[-1.0]], k=2), "b"),
        (lambda: enumerate_spectrum([1.0], e_max=math.nan), "e_max"),
        (lambda: lowest_eigenpairs(_oscillator_op(), 4, tol=math.nan), "tol"),
        (lambda: convergence_study(quadratic_potential([[1.0]]),
                                   convergence_grids(1, 0, [6.0], [31, 15]), 2), "sizes"),
        (lambda: convergence_grids(1, 0, [6.0], [2, 15]), "sizes"),
        (lambda: discreteness_certificate(_oscillator_op(), math.nan, [1.5]), "lambdas"),
        (lambda: discreteness_certificate(_oscillator_op(), 1.0, [5.9]), "radii"),
        (lambda: essential_spectrum_probe(0.5, build_grid(1, 1, [6.0, 6.0], [31, 31]),
                                               [-1.0], [1.5, 2.0]), "lambdas"),
        (lambda: essential_spectrum_probe(0.5, build_grid(1, 1, [6.0, 6.0], [31, 31]),
                                               [1.0], [math.nan, 2.0]), "radii"),
    ], ids=["check_count", "check_h", "build_grid", "parse_potential", "a-square", "b-definite",
            "a-before-b", "oscillator_frequencies", "bo_spectrum", "e_max", "tol",
            "sizes-ascending", "sizes-points", "lambda-finite", "radius-no-room",
            "lambda-free", "radii-finite"])
    def test_refusal_names_its_key(self, call, argument):
        with pytest.raises(ArgumentError) as caught:
            call()
        assert caught.value.argument == argument


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
        kinetic = kinetic_operator(grid, h)
        matrix = assemble_hamiltonian(grid, pot, h).matrix
        reference = (kinetic + sp.diags(pot.evaluate_many(list(grid.node_coords().T)))).tocsr()
        for built, expected in ((matrix, reference),
                                (grid_module._band_matrix(grid, h, 0.0), kinetic)):
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
        norms = np.linalg.norm(grid.node_coords(), axis=1)
        radii = grid.node_radii()
        assert np.all(np.abs(radii - norms) <= 1e-15 * norms)
        # the squares summed in dimension order, as the former outer sums
        # raveled in Fortran order did, and in one contiguous grid vector
        assert radii.tobytes() == reference.node_radii(grid).tobytes()
        assert radii.flags.c_contiguous and radii.base is not None


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

        def recording(grid, h, d, values, count=None):
            dense.append(d)
            return eigenpairs(grid, h, d, values, count)

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

    # each apply factors the shifted blocks anew by dptsv, dpttrf then
    # dpttrs: the bits of the eigensolver's inverse, which holds its factor;
    # r itself is left as it was, also in 1D, where rotate returns it
    @pytest.mark.parametrize("points", [(31,), (41, 83), (1399, 5), (7, 9, 8)],
                             ids=["1d", "41x83", "1399x5", "7x9x8"])
    def test_apply_matches_held_factor(self, points):
        expression = ["x1^2 - 3", "x1^2 + y1^4 - 3", "x1^2 + y1^2 + 2*y2^2 - 3"][len(points) - 1]
        op = self.op(points, expression)
        z = op.shift_below_spectrum()
        r = np.random.default_rng(0).standard_normal(op.dim)
        given = r.copy()
        decomposition = separable_decomposition(op)
        held = decomposition.rotate_back(eigenbasis_inverse(decomposition, z)(decomposition.rotate(r)))
        assert separable_inverse(op, z)(r).tobytes() == held.tobytes()
        assert r.tobytes() == given.tobytes()

    # between applies the inverse holds the decomposition, whose one dense
    # axis has 191^2 entries, and no factor of the shifted blocks (two grid
    # vectors when it was held)
    def test_holds_no_factor(self):
        import tracemalloc

        op = self.op((191, 193), "x1^2 + y1^2")
        tracemalloc.start()
        try:
            inverse = separable_inverse(op, op.shift_below_spectrum())
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inverse is not None and held <= 1.05 * 8 * 191 * 191

    # the eigensolver shifts 1e-2 max(1, |lowest|) below the lowest
    # eigenvalue, and the solver's tests read every level as their oracle, so
    # each must be exact far beyond that margin: all of them from one built
    # for k = the grid size, which keeps every block, the k lowest from one
    # built for k = 4, whose kept blocks may lack every level above the k-th;
    # the -3 makes min V nonzero, so the offset (dim - 1) min V is exercised
    @pytest.mark.parametrize("points", [(31,), (9, 11), (5, 6, 7)], ids=["1d", "9x11", "5x6x7"])
    def test_lowest_eigenvalue_exact(self, points):
        expression = ["x1^2 - 3", "x1^2 + y1^4 - 3", "x1^2 + y1^2 + 2*y2^2 - 3"][len(points) - 1]
        op = self.op(points, expression)
        exact = np.linalg.eigvalsh(op.matrix.toarray())
        full, kept = separable_decomposition(op, k=op.dim), separable_decomposition(op, k=4)
        for decomposition, count in [(full, op.dim), (kept, 4)]:
            levels = decomposition.lowest(count)
            assert levels.shape == (count,) and np.all(np.diff(levels) >= 0)
            assert np.all(np.abs(levels - exact[:count])
                          <= 1e-12 * np.maximum(1.0, np.abs(exact[:count])))
            for beyond in (0, count + 1):
                with pytest.raises(ValueError, match="count"):
                    decomposition.lowest(beyond)

    # 2.5 passed the range test, then raised a bare TypeError
    @pytest.mark.parametrize("count", [2.5, float("nan"), True])
    def test_lowest_count_must_be_an_integer(self, count):
        decomposition = separable_decomposition(self.op((9, 11), "x1^2 + y1^4"), k=4)
        with pytest.raises(ValueError, match=r"count must be an integer in \[1, 4\]"):
            decomposition.lowest(count)

    # k = 0 built every block and recorded k = 0, and 2.5 raised a bare
    # TypeError from np.partition; either is refused before any work
    @pytest.mark.parametrize("k", [0, 2.5, True])
    def test_k_must_be_a_count(self, monkeypatch, k):
        monkeypatch.setattr(grid_module, "_separable_split", None)
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            separable_decomposition(self.op((9, 11), "x1^2 + y1^4"), k=k)

    # the residual bound's defect is measured only for an eigensolve, built
    # for k pairs; the probe's inverse, built without k, measures none
    def test_inverse_measures_no_defect(self, monkeypatch):
        built = []
        decompose = grid_module.separable_decomposition
        monkeypatch.setattr(grid_module, "separable_decomposition",
                            lambda *args, **kwargs: built.append(decompose(*args, **kwargs))
                            or built[-1])
        op = self.op((15, 17), "x1^2 + y1^4")
        separable_inverse(op, op.shift_below_spectrum())
        assert len(built) == 1 and built[0].defect is None
        assert separable_decomposition(op, k=4).defect > 0

    def test_z_not_below_spectrum_raises(self):
        op = self.op((15, 17), "x1^2 + y1^2")
        lowest = np.linalg.eigvalsh(op.matrix.toarray())[0]
        with pytest.raises(ValueError, match="positive definite"):
            separable_inverse(op, lowest + 1e-3)

    # the probe's decomposition takes every axis eigenpair by
    # eigh_tridiagonal's full driver, the eigensolver's only the k + 1 lowest
    # by bisection and inverse iteration (dstebz, dstein): the eigenpairs
    # both hold agree; 17 x 15 keeps axis 0 tridiagonal, 8 x 8 x 8 rotates two
    @pytest.mark.parametrize("points", [(17, 15), (8, 8, 8)], ids=["17x15", "8x8x8"])
    def test_full_and_leading_eigenpairs_agree(self, points):
        expression = ["x1^2 + y1^4 - 3", "x1^2 + y1^2 + 2*y2^2 - 3"][len(points) - 2]
        op = self.op(points, expression)
        full, leading = separable_decomposition(op), separable_decomposition(op, k=4)
        assert full.rotated == leading.rotated
        for d, (lam, q), (lam_leading, q_leading) in zip(full.rotated, full.pairs, leading.pairs):
            m = lam_leading.size
            assert lam.size == q.shape[1] == points[d] > m
            assert np.all(np.abs(lam[:m] - lam_leading) <= 1e-12 * np.maximum(1.0, np.abs(lam[:m])))
            signs = np.sign(np.sum(q[:, :m] * q_leading, axis=0))
            assert np.abs(q[:, :m] * signs - q_leading).max() <= 1e-12

    # restricted to the blocks that can hold the k lowest eigenvalues, the
    # rotation maps their span isometrically onto the kept basis and the
    # inverse solves exactly there: 17 x 15 keeps a leading run of axis 1's
    # eigenpairs, 7 x 9 x 8 a staircase of blocks inside the leading runs
    @pytest.mark.parametrize("points", [(17, 15), (7, 9, 8)], ids=["17x15", "7x9x8"])
    def test_kept_blocks_solve_exactly(self, points):
        expression = ["x1^2 + y1^4 - 3", "x1^2 + y1^2 + 2*y2^2 - 3"][len(points) - 2]
        op = self.op(points, expression)
        z = op.shift_below_spectrum()
        kept = separable_decomposition(op, k=4)
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
        decomposition = separable_decomposition(op, k=k)
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


# every level of the discrete free operator -h^2 Lap_x - Lap_y, with
# multiplicity, from the decomposition of V = 0 built for every level,
# against a dense eigensolve of the tests' own kinetic matrix
@pytest.mark.parametrize("n, p, half_widths, points", [
    (1, 1, (3.0, 4.5), (5, 7)),
    (1, 2, (2.0, 3.0, 2.5), (4, 5, 6)),
])
def test_free_operator_levels_match_dense_kinetic(n, p, half_widths, points):
    grid = build_grid(n, p, half_widths, points)
    dense = np.linalg.eigvalsh(kinetic_operator(grid, 0.6).toarray())
    decomposition = separable_decomposition(assemble_hamiltonian(grid, zero_potential(n, p), 0.6),
                                            k=grid.size)
    levels = decomposition.lowest(grid.size)
    assert levels.shape == (grid.size,)
    assert np.all(np.diff(levels) >= 0)
    np.testing.assert_allclose(levels, dense, rtol=1e-12, atol=0)


class TestSeparableSplit:
    """`_separable_split` takes the split gap over slabs of the last axis,
    each node's gap in the whole-grid order of operations."""

    @staticmethod
    def op(points, expression):
        dim = len(points)
        pot = expression_potential(expression, 1, dim - 1, nonnegative=False)
        return assemble_hamiltonian(build_grid(1, dim - 1, [6.0] * dim, points), pot, 0.5)

    # slabs of one layer, of a few layers with a shorter last slab, and the
    # default; the -3 makes the offset nonzero, and the 1e-13 x1 y1 term a
    # gap the check admits but the rounding floor does not explain
    @pytest.mark.parametrize("points, expression", [
        ((31,), "x1^2 - 3"), ((41, 83), "x1^2 + y1^4 - 3"), ((9, 8, 7), "x1^2 + y1^2 + 2*y2^2 - 3"),
        ((7, 9, 8), "x1^2 + y1^2 + 2*y2^2 - 3"), ((63, 63), "x1^2 + y1^2 + 1e-13*x1*y1")],
        ids=["1d", "41x83", "9x8x7", "7x9x8", "63-split-gap"])
    @pytest.mark.parametrize("slab", [1, 150, None], ids=["layer", "layers", "default"])
    def test_gap_equals_whole_grid_formula(self, points, expression, slab, monkeypatch):
        if slab is not None:
            monkeypatch.setattr(grid_module, "SPLIT_SLAB_NODES", slab)
        op = self.op(points, expression)
        _, offset, gap = grid_module._separable_split(op)
        assert gap == reference.separable_split_gap(op)
        assert offset == (len(points) - 1) * op.potential_values.min()
        if expression.endswith("x1*y1"):
            assert gap > 0

    # a coupling at one node of the last slab alone, or a coupled V, is
    # refused, whatever the slab size
    @pytest.mark.parametrize("slab", [1, 150, None], ids=["layer", "layers", "default"])
    def test_non_separable_refused(self, slab, monkeypatch):
        if slab is not None:
            monkeypatch.setattr(grid_module, "SPLIT_SLAB_NODES", slab)
        assert grid_module._separable_split(self.op((41, 83), "x1^2 + y1^2 + x1*y1")) is None
        op = self.op((41, 83), "x1^2 + y1^2")
        assert grid_module._separable_split(op) is not None
        values = op.potential_values.copy()
        values[-1] += 1e-6
        coupled = grid_module.GridOperator(grid=op.grid, h=op.h, potential=op.potential,
                                           potential_values=values)
        assert grid_module._separable_split(coupled) is None

    # two slabs of at most a quarter of the grid, not a grid vector: the
    # whole-grid gap and numpy's buffers for its broadcast sums took 2.0
    # grid vectors on 127 x 129 and 1.0 on 1023^2
    @pytest.mark.parametrize("points", [(127, 129), (23, 25, 24), (1023, 1023)],
                             ids=["127x129", "23x25x24", "1023"])
    def test_allocates_no_grid_vector(self, points):
        import tracemalloc

        op = self.op(points, "x1^2 + y1^2" + (" + 2*y2^2" if len(points) == 3 else ""))
        tracemalloc.start()
        try:
            split = grid_module._separable_split(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert split is not None and peak <= 0.55 * 8 * op.dim


class TestLeadingEigenpairs:
    """With k, each rotated axis computes only its k + 1 lowest eigenpairs,
    and the decomposition equals the one built on full axis eigenbases."""

    # an unchecked count reached LAPACK's bisection (dstebz), which printed
    # to the process's stderr before a ValueError "(info -7)"; 2.5 raised a
    # TypeError from np.partition, and True returned one pair
    @pytest.mark.parametrize("count", [0, -1, 40, 2.5, True])
    def test_axis_count_refused_by_name(self, capfd, count):
        grid = build_grid(1, 0, [6.0], [31])
        with pytest.raises(ValueError, match=rf"^count must be an integer in \[1, 31\], "
                                             rf"got count={count!r}$"):
            grid_module.axis_eigenpairs(grid, 0.5, 0, grid.axis_coords(0) ** 2, count)
        assert capfd.readouterr().err == ""

    @staticmethod
    def full_eigenbases(monkeypatch):
        """Make every axis compute all its eigenpairs, whatever the count."""
        eigenpairs = grid_module.axis_eigenpairs
        monkeypatch.setattr(grid_module, "axis_eigenpairs",
                            lambda grid, h, d, values, count=None:
                            eigenpairs(grid, h, d, values))

    @staticmethod
    def record_counts(monkeypatch):
        """A list that gains (d, count) per axis eigendecomposition."""
        calls = []
        eigenpairs = grid_module.axis_eigenpairs

        def recording(grid, h, d, values, count=None):
            calls.append((d, count))
            return eigenpairs(grid, h, d, values, count)

        monkeypatch.setattr(grid_module, "axis_eigenpairs", recording)
        return calls

    # two identical rotated axes tie floors exactly at the cut; in the double
    # well (wells at y = +-4, y rotated) each pair of levels ties to about
    # 1e-13, so the tie at the cut reaches the last computed index, k, and
    # the axis is computed in full
    @pytest.mark.parametrize("points, expression, k, fallback", [
        ((255,), "x1^2", 6, False), ((127, 129), "x1^2 + y1^4", 6, False),
        ((127, 129), "x1^2 + y1^4", 12, False), ((31, 21, 21), "x1^2 + y1^2 + y2^2", 3, False),
        ((31, 21, 21), "x1^2 + y1^2 + y2^2", 6, False),
        ((63, 41), "x1^2 + (y1^2 - 16)^2", 1, True), ((63, 41), "x1^2 + (y1^2 - 16)^2", 3, True)],
        ids=["1d", "127x129-k6", "127x129-k12", "3d-ties-k3", "3d-ties-k6", "double-well-k1",
             "double-well-k3"])
    def test_equals_decomposition_on_full_eigenbases(self, monkeypatch, points, expression, k,
                                                     fallback):
        dim = len(points)
        grid = build_grid(1, dim - 1, [6.0] * dim, points)
        op = assemble_hamiltonian(grid, expression_potential(expression, 1, dim - 1), 0.5)
        calls = self.record_counts(monkeypatch)
        leading = separable_decomposition(op, k=k)
        # every rotated axis asks first for its k + 1 lowest eigenpairs
        asked = {d: [c for e, c in calls if e == d] for d in leading.rotated}
        assert all(counts[0] == k + 1 for counts in asked.values())
        assert any(counts[1:] == [None] for counts in asked.values()) == fallback
        assert all(len(counts) <= 2 for counts in asked.values())
        monkeypatch.undo()
        self.full_eigenbases(monkeypatch)
        full = separable_decomposition(op, k=k)
        assert (leading.blocks is None) == (full.blocks is None)
        if full.blocks is not None:
            assert np.array_equal(leading.blocks, full.blocks)
        assert leading.shifts.shape == full.shifts.shape
        assert np.all(np.abs(leading.shifts - full.shifts)
                      <= 1e-12 * np.maximum(1.0, np.abs(full.shifts)))
        for (lam, q), (lam_full, q_full) in zip(leading.pairs, full.pairs):
            assert q.shape == q_full.shape and q.flags.f_contiguous
            assert np.all(np.abs(lam - lam_full) <= 1e-12 * np.maximum(1.0, np.abs(lam_full)))
            signs = np.sign(np.sum(q * q_full, axis=0))
            assert np.abs(q * signs - q_full).max() <= 1e-10

    # (x1^2 - 4)^2 at h = 0.5 splits its lowest pair by 2.9e-8, below the
    # bisection tolerance (1.3e-7 on 255 points): a count of 1 cut the pair,
    # inverse iteration's one vector mixed both levels, and lowest(1) came
    # out as their weighted mean, 1.5e-8 relative off (1.3e-8 on 511)
    @pytest.mark.parametrize("points", [255, 511])
    def test_count_cutting_a_near_degenerate_pair(self, points):
        op = assemble_hamiltonian(build_grid(1, 0, [8.0], [points]),
                                  expression_potential("(x1^2 - 4)^2", 1, 0), 0.5)
        exact = np.linalg.eigvalsh(op.matrix.toarray())[:2]
        assert exact[1] - exact[0] < 3e-8
        for k in (1, 2):
            levels = separable_decomposition(op, k=k).lowest(k)
            assert np.all(np.abs(levels - exact[:k]) <= 1e-12 * np.abs(exact[:k]))
        main, off = grid_module._axis_tridiagonal(op.grid, 0.5, 0, op.potential_values)
        theta, q = grid_module._leading_eigenpairs(main, off, 1)
        assert q.shape == (points, 1) and q.flags.f_contiguous
        residual = grid_module._tridiagonal_product(main[:, None] - theta, off, q)
        assert np.linalg.norm(residual) <= 1e-10

    # rotate_back inverts rotate on the kept blocks in every layout: t last
    # (15 x 17, 8^3), t second to last (17 x 15, 7 x 9 x 8), where the last
    # product keeps the last dimension last, t first of three (9 x 8 x 7),
    # where the result is transposed back, and 1D; on the probe's
    # decomposition of every block and on the eigensolver's of the blocks
    # that can hold the 4 lowest eigenvalues
    @pytest.mark.parametrize("k", [None, 4], ids=["full", "leading"])
    @pytest.mark.parametrize("points", [(31,), (15, 17), (17, 15), (8, 8, 8), (7, 9, 8), (9, 8, 7)],
                             ids=["1d", "15x17", "17x15", "8x8x8", "7x9x8", "9x8x7"])
    def test_rotate_back_into_out(self, points, k):
        dim = len(points)
        grid = build_grid(1, dim - 1, [6.0] * dim, points)
        expression = ["x1^2", "x1^2 + y1^4", "x1^2 + y1^2 + 2*y2^2"][dim - 1]
        op = assemble_hamiltonian(grid, expression_potential(expression, 1, dim - 1), 0.5)
        decomposition = separable_decomposition(op, k=k)
        y = np.random.default_rng(4).standard_normal(decomposition.size)
        x = decomposition.rotate_back(y)
        assert x.shape == (op.dim,)
        assert np.linalg.norm(decomposition.rotate(x) - y) <= 1e-12 * np.linalg.norm(y)


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
        assert separable_decomposition(op) is not None
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

    # lowest(1) is the least shift plus T_t's lowest eigenvalue from
    # `_leading_eigenpairs`, the rotated axes' routine, less the offset, bit
    # for bit, on a decomposition built for k; one built without k has no
    # oracle.  The Weyl shift keeps the bits of the former per-axis mode
    # lists, the symbol at arange(1, N_d + 1) pi / (N_d + 1)
    @pytest.mark.parametrize("h", [0.1, 0.3, 0.6, 1.0])
    @pytest.mark.parametrize("points, expression", [
        ((31,), "x1^4 - 3"), ((17, 15), "x1^2 + y1^4 - 3"), ((7, 9, 8), "x1^2 + y1^2 + 2*y2^2 - 3")],
        ids=["1d", "17x15", "7x9x8"])
    def test_lowest_and_shift_bits_pinned(self, points, expression, h):
        dim = len(points)
        grid = build_grid(1, dim - 1, [5.0, 6.0, 4.5][:dim], points)
        op = assemble_hamiltonian(grid, expression_potential(expression, 1, dim - 1), h)
        for k in (1, 4, 6):
            decomposition = separable_decomposition(op, k=k)
            bottom = grid_module._leading_eigenpairs(decomposition.main, decomposition.off, 1)[0]
            pinned = decomposition.shifts.min() + bottom[0] - decomposition.offset
            assert decomposition.lowest(1)[0] == pinned
        with pytest.raises(ValueError, match="built for k"):
            separable_decomposition(op).lowest(1)
        modes = [grid.symbol(h, d, np.arange(1, m + 1) * np.pi / (m + 1))
                 for d, m in enumerate(points)]
        former = float(op.potential_values.min()) + 0.5 * sum(mode[0] for mode in modes)
        assert op.shift_below_spectrum() == former

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
