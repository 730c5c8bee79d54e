import functools

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, splu

from bospec import eigensolver
from bospec.analytic import bo_spectrum
from bospec.eigensolver import (
    ConvergenceStudy,
    boundary_warning,
    cluster_multiplicities,
    compare_with_oscillator,
    convergence_study,
    lowest_eigenpairs,
)
from bospec.grid import assemble_hamiltonian, build_grid
from bospec.potential import expression_potential, quadratic_potential


def oscillator_op(points=999, length=10.0, h=1.0):
    grid = build_grid(1, 0, [length], [points])
    return assemble_hamiltonian(grid, quadratic_potential([[1.0]]), h)


def free_op(points=199, length=4.0):
    grid = build_grid(1, 0, [length], [points])
    pot = expression_potential("0*x1", 1, 0, nonnegative=True)
    return assemble_hamiltonian(grid, pot, 1.0)


class TestLowestEigenpairs:
    def test_oscillator_levels(self):
        op = oscillator_op()
        res = lowest_eigenpairs(op, 5, tol=1e-6, seed=0)
        assert np.all(res.converged)
        assert np.allclose(res.eigenvalues, [1, 3, 5, 7, 9], atol=2e-3)

    def test_free_operator_matches_exact_fd(self):
        op = free_op()
        m = op.grid.points[0]
        delta = op.grid.spacing[0]
        exact = np.sort((2 - 2 * np.cos(np.arange(1, m + 1) * np.pi / (m + 1))) / delta**2)
        res = lowest_eigenpairs(op, 4, tol=1e-9, seed=0)
        assert np.allclose(res.eigenvalues, exact[:4], rtol=1e-8)

    def test_k_too_large(self):
        op = free_op(points=19)
        with pytest.raises(ValueError, match="dim/4"):
            lowest_eigenpairs(op, 5)

    @pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
    def test_tol_positive_and_finite(self, monkeypatch, tol):
        # a NaN tol fails every comparison, so ARPACK would run and no pair
        # could ever be flagged converged
        monkeypatch.setattr(eigensolver, "eigsh", None)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            lowest_eigenpairs(free_op(), 3, tol=tol)

    def test_residual_contract(self):
        op = oscillator_op(points=499)
        res = lowest_eigenpairs(op, 3, tol=1e-7, seed=1)
        for lam, vec, r, ok in zip(res.eigenvalues, res.vectors.T,
                                   res.residuals, res.converged):
            recomputed = np.linalg.norm(op.matrix @ vec - lam * vec)
            assert recomputed == pytest.approx(r, rel=1e-8)
            if ok:
                assert r <= 1e-7 * max(1.0, abs(lam))

    def test_orthonormality(self):
        op = oscillator_op(points=499)
        res = lowest_eigenpairs(op, 4, tol=1e-7, seed=0)
        gram = res.vectors.T @ res.vectors
        assert np.abs(gram - np.eye(4)).max() <= 1e-8

    def test_nonnegative_spectrum(self):
        op = oscillator_op(points=299)
        res = lowest_eigenpairs(op, 3, tol=1e-6, seed=0)
        assert np.all(res.eigenvalues >= -1e-6)

    def test_determinism(self):
        op = oscillator_op(points=299)
        a = lowest_eigenpairs(op, 3, tol=1e-6, seed=42)
        b = lowest_eigenpairs(op, 3, tol=1e-6, seed=42)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.residuals, b.residuals)

    def test_increasing_k_stable(self):
        op = oscillator_op(points=499)
        tol = 1e-7
        small = lowest_eigenpairs(op, 3, tol=tol, seed=0)
        large = lowest_eigenpairs(op, 6, tol=tol, seed=0)
        for i in range(3):
            if small.converged[i] and large.converged[i]:
                assert abs(small.eigenvalues[i] - large.eigenvalues[i]) <= tol

    def test_partial_convergence_flagged(self):
        op = oscillator_op(points=999)
        res = lowest_eigenpairs(op, 3, tol=1e-15, seed=0)
        assert not np.all(res.converged)

    def test_restarted_lanczos_on_3d_grid(self):
        # a V that couples y1 and y2 takes the matvec-only backend on a 3D
        # grid; the expression equals the quadratic form a = [[1]],
        # b = [[1, .5], [.5, 1]]
        grid = build_grid(1, 2, [8.0] * 3, [23] * 3)
        pot = expression_potential("x1^2 + y1^2 + y1*y2 + y2^2", 1, 2,
                                   nonnegative=True)
        op = assemble_hamiltonian(grid, pot, 0.5)
        res = lowest_eigenpairs(op, 6, tol=1e-7, seed=0)
        exact = np.array(bo_spectrum([[1.0]], [[1.0, 0.5], [0.5, 1.0]], 0.5,
                                     k=8).flat(6))
        delta = max(grid.spacing)
        assert res.all_converged and res.backend == "matvec"
        assert np.all(np.abs(res.eigenvalues - exact) <= 0.15 * delta**2 * exact**2)

    def test_no_convergence_returns_k_flagged_pairs(self, monkeypatch):
        # one restart cannot converge on the 3D grid; ARPACK raises inside
        monkeypatch.setattr(eigensolver, "eigsh", functools.partial(eigsh, maxiter=1))
        grid = build_grid(1, 2, [8.0] * 3, [23] * 3)
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]], np.eye(2)), 0.5)
        res = lowest_eigenpairs(op, 6, tol=1e-7, seed=0)
        assert res.eigenvalues.shape == (6,) and not res.all_converged
        assert np.all(np.diff(res.eigenvalues) >= 0)
        assert np.abs(res.vectors.T @ res.vectors - np.eye(6)).max() <= 1e-8
        recomputed = np.linalg.norm(op.matrix @ res.vectors
                                    - res.vectors * res.eigenvalues, axis=0)
        assert np.allclose(recomputed, res.residuals, rtol=1e-8)

    def test_no_convergence_fill_in_grid_basis(self, monkeypatch):
        # ARPACK iterates in the separable inverse's rotated basis; the pairs
        # it converged within one restart must reach the fill rotated back,
        # or the Rayleigh-Ritz step would mix bases and converge nothing
        monkeypatch.setattr(eigensolver, "eigsh", functools.partial(eigsh, maxiter=1))
        op = op_2d("x1^2 + y1^2", (63, 65))
        res = lowest_eigenpairs(op, 6, tol=1e-12, seed=0)
        assert res.backend == "separable inverse"
        assert res.converged.any() and not res.all_converged
        assert np.abs(res.vectors.T @ res.vectors - np.eye(6)).max() <= 1e-8
        recomputed = np.linalg.norm(op.matrix @ res.vectors
                                    - res.vectors * res.eigenvalues, axis=0)
        assert np.allclose(recomputed, res.residuals, rtol=1e-8)


class TestNoConvergenceFill:
    """eigsh raising with 2 of k pairs: the 2 are kept and a Rayleigh-Ritz
    step on seeded random directions fills up to k, applying H a column at a
    time by its stencil."""

    @pytest.mark.parametrize("case", ["separable inverse", "sparse LU"])
    def test_returns_k_orthonormal_pairs(self, monkeypatch, record_band_matrix, case):
        def two_pairs(**kwargs):
            theta, vectors = eigsh(**kwargs)
            raise ArpackNoConvergence("two pairs only", theta[:2], vectors[:, :2])

        monkeypatch.setattr(eigensolver, "eigsh", two_pairs)
        expression = {"separable inverse": "x1^2 + y1^2",
                      "sparse LU": "x1^2*y1^2 + x1^2 + y1^2"}[case]
        op = op_2d(expression, (31, 33))
        k, tol = 6, 1e-8
        res = lowest_eigenpairs(op, k, tol=tol, seed=0)
        assert res.backend == case
        # the LU factors H; the separable path builds none
        assert len(record_band_matrix) == (case == "sparse LU")
        assert res.eigenvalues.shape == (k,) and np.all(np.diff(res.eigenvalues) >= 0)
        assert np.abs(res.vectors.T @ res.vectors - np.eye(k)).max() <= 1e-8
        recomputed = np.linalg.norm(op.matrix @ res.vectors - res.vectors * res.eigenvalues,
                                    axis=0)
        assert res.residuals.tobytes() == recomputed.tobytes()
        assert np.array_equal(res.converged,
                              recomputed <= tol * np.maximum(1.0, np.abs(res.eigenvalues)))
        # ARPACK's two pairs stay the two lowest; random directions converge none
        assert res.converged.tolist() == [True, True] + [False] * (k - 2)


def op_2d(expression, points, half_width=6.0, h=0.5):
    grid = build_grid(1, 1, [half_width] * 2, points)
    return assemble_hamiltonian(
        grid, expression_potential(expression, 1, 1, nonnegative=True), h)


class TestShiftInvertBackend:
    # 63 x 65 is near-square: the separable inverse must admit it
    @pytest.mark.parametrize("tol", [1e-7, 1e-12])
    @pytest.mark.parametrize("expression", ["x1^2 + y1^2", "x1^4 + y1^2"])
    def test_separable_inverse_matches_sparse_lu(self, monkeypatch, expression, tol):
        op = op_2d(expression, (63, 65))
        fast = lowest_eigenpairs(op, 6, tol=tol, seed=0)
        monkeypatch.setattr(eigensolver, "separable_decomposition", lambda *args, **kwargs: None)
        lu = lowest_eigenpairs(op, 6, tol=tol, seed=0)
        assert (fast.backend, lu.backend) == ("separable inverse", "sparse LU")
        assert fast.all_converged and np.array_equal(fast.converged, lu.converged)
        assert np.all(np.abs(fast.eigenvalues - lu.eigenvalues)
                      <= 1e-10 * np.maximum(1.0, np.abs(lu.eigenvalues)))

    @pytest.mark.parametrize("case", ["non-separable"])
    def test_other_grids_factor_a_sparse_lu(self, monkeypatch, case):
        op = op_2d("x1^2*y1^2 + x1^2 + y1^2", (41, 41))
        factored = []
        monkeypatch.setattr(eigensolver, "splu",
                            lambda *args, **kwargs: factored.append(1) or splu(*args, **kwargs))
        res = lowest_eigenpairs(op, 3, tol=1e-8, seed=0)
        assert res.backend == "sparse LU" and len(factored) == 1 and res.all_converged

    # every 1D V is a sum of one-variable terms, and so is this 3D one, whose
    # grid the sparse LU would not serve
    @pytest.mark.parametrize("case", ["1d", "3d"])
    def test_separable_inverse_on_any_dimension(self, monkeypatch, case):
        if case == "1d":
            op, other = oscillator_op(points=299), "sparse LU"
        else:
            grid = build_grid(1, 2, [8.0] * 3, [23] * 3)
            op = assemble_hamiltonian(grid, quadratic_potential([[1.0]], np.diag([1.0, 2.0])), 0.5)
            other = "matvec"
        tol = 1e-7
        fast = lowest_eigenpairs(op, 6, tol=tol, seed=0)
        monkeypatch.setattr(eigensolver, "separable_decomposition", lambda *args, **kwargs: None)
        reference = lowest_eigenpairs(op, 6, tol=tol, seed=0)
        assert (fast.backend, reference.backend) == ("separable inverse", other)
        assert fast.all_converged and reference.all_converged
        assert np.all(np.abs(fast.eigenvalues - reference.eigenvalues)
                      <= tol * np.maximum(1.0, np.abs(reference.eigenvalues)))

    # the separable path hands eigsh its inverse in place of H and computes
    # the residuals by the stencil apply, so it builds no H; the sparse LU
    # and matvec paths need H first
    @pytest.mark.parametrize("case, order", [
        ("2d", ["eigsh", "eigsh returned"]),
        ("3d", ["eigsh", "eigsh returned"]),
        ("sparse LU", ["H built", "eigsh", "eigsh returned"]),
        ("matvec", ["H built", "eigsh", "eigsh returned"]),
    ])
    def test_matrix_built_once_in_order(self, monkeypatch, case, order):
        import bospec.grid

        events = []
        band_matrix = bospec.grid._band_matrix
        monkeypatch.setattr(bospec.grid, "_band_matrix",
                            lambda *args: events.append("H built") or band_matrix(*args))

        def recorded_eigsh(**kwargs):
            events.append("eigsh")
            out = eigsh(**kwargs)
            events.append("eigsh returned")
            return out

        monkeypatch.setattr(eigensolver, "eigsh", recorded_eigsh)
        if case == "2d":
            op = op_2d("x1^2 + y1^4", (31, 33))
        elif case == "sparse LU":
            op = op_2d("x1^2*y1^2 + x1^2 + y1^2", (31, 33))
        else:
            v = "x1^2 + y1^2 + 2*y2^2" if case == "3d" else "x1^2 + y1^2 + y1*y2 + y2^2"
            grid = build_grid(1, 2, [6.0] * 3, [11, 13, 12])
            op = assemble_hamiltonian(grid, expression_potential(v, 1, 2), 0.5)
        res = lowest_eigenpairs(op, 4, tol=1e-8, seed=0)
        backend = "separable inverse" if case in ("2d", "3d") else case
        assert res.backend == backend and res.all_converged
        assert events == order

    def test_non_separable_shift_is_weyl_bound(self, monkeypatch):
        # only a sum of one-variable terms has its lowest eigenvalue exact;
        # other V keep the shift strictly below the spectrum by Weyl
        op = op_2d("x1^2*y1^2 + x1^2 + y1^2", (31, 33))
        shifts = []
        monkeypatch.setattr(eigensolver, "eigsh",
                            lambda **kwargs: shifts.append(kwargs["sigma"]) or eigsh(**kwargs))
        res = lowest_eigenpairs(op, 3, tol=1e-8, seed=0)
        assert res.backend == "sparse LU" and shifts == [op.shift_below_spectrum()]

    def test_inverse_applies_on_scipy_blas(self, monkeypatch):
        # ARPACK runs on scipy's OpenBLAS; the same apply on numpy's, which
        # loads its own thread pool, oversubscribed 2 cores: a 255^2 solve
        # took 0.60-1.02 s against 0.16 s
        import scipy.linalg.blas

        products = []
        dgemm = scipy.linalg.blas.dgemm
        monkeypatch.setattr(scipy.linalg.blas, "dgemm",
                            lambda *args, **kwargs: products.append(1) or dgemm(*args, **kwargs))
        res = lowest_eigenpairs(op_2d("x1^2 + y1^2", (31, 31)), 4, tol=1e-8, seed=0)
        # ARPACK iterates in the eigenbasis of axis 0, where an apply is one
        # dpttrs solve: one product rotates the start vector in and one
        # rotates each of the k Ritz vectors back, whatever the iterations
        assert res.backend == "separable inverse" and res.iterations > 0
        assert len(products) == 1 + 4

    # the probe's side of the decomposition takes numpy's eigh, which inside
    # ARPACK clashed with scipy's pool: cli-2d ran 1.8x slower
    @pytest.mark.parametrize("case", ["2d", "3d"])
    def test_decomposition_stays_off_numpy_eigh(self, monkeypatch, case):
        if case == "2d":
            op = op_2d("x1^2 + y1^4", (31, 33))
        else:
            grid = build_grid(1, 2, [6.0] * 3, [11, 13, 12])
            op = assemble_hamiltonian(grid, quadratic_potential([[1.0]], np.diag([1.0, 2.0])), 0.5)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *args, **kwargs: calls.append(1) or eigh(*args, **kwargs))
        res = lowest_eigenpairs(op, 4, tol=1e-8, seed=0)
        assert res.backend == "separable inverse" and res.all_converged
        assert calls == []


def record_operator_shapes(monkeypatch):
    """A list that gains the shape of the operator each eigsh call iterates on."""
    shapes = []
    monkeypatch.setattr(eigensolver, "eigsh",
                        lambda **kwargs: shapes.append(kwargs["A"].shape) or eigsh(**kwargs))
    return shapes


class TestKeptBlocks:
    """The separable solve iterates on the eigenbasis blocks whose floor is no
    higher than the k-th smallest floor, N_t rows per kept block."""

    # the floors are distinct here, so exactly k blocks are kept; a 1D grid
    # has one block, which is always kept
    @pytest.mark.parametrize("case", ["1d", "23x29", "9x11x10"])
    def test_matches_dense_spectrum(self, monkeypatch, case):
        if case == "1d":
            op, rows = oscillator_op(points=199), 199
        elif case == "23x29":
            op, rows = op_2d("x1^4 + y1^2", (23, 29)), 5 * 29
        else:
            grid = build_grid(1, 2, [6.0] * 3, [9, 11, 10])
            op = assemble_hamiltonian(grid, expression_potential("x1^2 + y1^2 + 2*y2^2", 1, 2), 0.5)
            rows = 5 * 11
        shapes = record_operator_shapes(monkeypatch)
        tol = 1e-8
        res = lowest_eigenpairs(op, 5, tol=tol, seed=0)
        exact = np.linalg.eigvalsh(op.matrix.toarray())[:5]
        assert res.backend == "separable inverse" and res.all_converged
        assert shapes == [(rows, rows)]
        assert np.all(np.abs(res.eigenvalues - exact) <= tol * np.maximum(1.0, np.abs(exact)))

    # at h = 1 on a square grid every axis has the same tridiagonal: in 2D
    # block j's floor lam_j + mu_0 ties block 0's eigenvalue lam_0 + mu_j, in
    # 3D the floors of blocks (0, 1) and (1, 0) tie exactly, and in 4D the
    # floors of (0, 0, 1), (0, 1, 0) and (1, 0, 0) tie but for the rounding
    # of the sums (on 9 points their sums differ in the last bit); every
    # block tied at the cut is kept
    @pytest.mark.parametrize("points, k, blocks", [
        ((31, 31), 2, 2), ((31, 31), 4, 4), ((11, 11, 11), 2, 3), ((9, 9, 9, 9), 2, 4)],
        ids=["2d-k2", "2d-k4", "3d", "4d"])
    def test_ties_at_the_cut_keep_every_tied_block(self, monkeypatch, points, k, blocks):
        dim = len(points)
        expression = " + ".join(["x1^2"] + [f"y{i}^2" for i in range(1, dim)])
        grid = build_grid(1, dim - 1, [6.0] * dim, points)
        op = assemble_hamiltonian(grid, expression_potential(expression, 1, dim - 1), 1.0)
        shapes = record_operator_shapes(monkeypatch)
        res = lowest_eigenpairs(op, k, tol=1e-8, seed=0)
        assert res.backend == "separable inverse" and res.all_converged
        assert shapes == [(blocks * points[0],) * 2]


def op_3d(expression, points=(11, 13, 12)):
    grid = build_grid(1, 2, [6.0] * 3, points)
    return assemble_hamiltonian(grid, expression_potential(expression, 1, 2), 0.5)


class TestResiduals:
    """The residuals are computed a column at a time, with the bits of the
    stacked ||H V - V diag(theta)|| per column."""

    @pytest.mark.parametrize("case", ["2d", "3d", "sparse LU", "matvec"])
    def test_match_stacked_norm_bit_for_bit(self, case):
        op = {"2d": lambda: op_2d("x1^2 + y1^4", (31, 33)),
              "3d": lambda: op_3d("x1^2 + y1^2 + 2*y2^2"),
              "sparse LU": lambda: op_2d("x1^2*y1^2 + x1^2 + y1^2", (31, 33)),
              "matvec": lambda: op_3d("x1^2 + y1^2 + y1*y2 + y2^2")}[case]()
        res = lowest_eigenpairs(op, 4, tol=1e-8, seed=0)
        assert res.backend == ("separable inverse" if case in ("2d", "3d") else case)
        stacked = np.linalg.norm(op.matrix @ res.vectors - res.vectors * res.eigenvalues, axis=0)
        assert res.residuals.tobytes() == stacked.tobytes()

    @staticmethod
    def _peak_in_grid_vectors(case, read_matrix, k=6):
        """The tracemalloc peak of a separable solve for k pairs, in grid
        vectors, with H read before the call or not."""
        import tracemalloc

        if case == "2d":
            op = op_2d("x1^2 + y1^4", (127, 129))
        else:
            op = op_3d("x1^2 + y1^2 + 2*y2^2", (23, 25, 24))
        if read_matrix:
            op.matrix
        tracemalloc.start()
        try:
            res = lowest_eigenpairs(op, k, tol=1e-8, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.backend == "separable inverse" and res.all_converged
        return peak / (8 * op.dim)

    # numpy reports its buffers to tracemalloc; H, read before, is resident,
    # so the call adds the k Ritz vectors and a few grid vectors: the
    # residual step once held three (dim, k) temporaries, and sorting the
    # pairs a stacked copy of the vectors
    @pytest.mark.parametrize("case", ["2d", "3d"])
    def test_peak_memory_is_the_ritz_vectors_and_a_few_grid_vectors(self, case):
        assert self._peak_in_grid_vectors(case, read_matrix=True) <= 6 + 6

    # nor does the call build H, whose build from its bands alone peaked at
    # about 13 grid vectors in 2D and 18 in 3D
    @pytest.mark.parametrize("case", ["2d", "3d"])
    def test_peak_memory_builds_no_matrix(self, case, record_band_matrix):
        assert self._peak_in_grid_vectors(case, read_matrix=False) <= 6 + 6
        assert record_band_matrix == []


class TestClusterMultiplicities:
    def test_basic(self):
        clusters = cluster_multiplicities([2.0000, 3.9999, 4.0001], gap_tol=1e-2)
        assert [(round(c.energy, 3), c.multiplicity) for c in clusters] == \
            [(2.0, 1), (4.0, 2)]

    def test_empty(self):
        assert cluster_multiplicities([], gap_tol=1e-3) == []

    def test_isotropic_2d_brute_force(self):
        # brute-force enumeration of (2n1+1) + (2n2+1)
        energies = sorted(2 * n1 + 2 * n2 + 2 for n1 in range(6) for n2 in range(6))
        clusters = cluster_multiplicities(energies[:6], gap_tol=1e-9)
        assert [(c.energy, c.multiplicity) for c in clusters] == \
            [(2, 1), (4, 2), (6, 3)]

    def test_spread_recorded(self):
        clusters = cluster_multiplicities([1.0, 1.001, 1.002], gap_tol=0.01)
        assert clusters[0].multiplicity == 3
        assert clusters[0].spread == pytest.approx(0.002)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            cluster_multiplicities([2.0, 1.0], gap_tol=0.1)


class TestConvergenceStudy:
    def test_oscillator_slope(self):
        pot = quadratic_potential([[1.0]])
        study = convergence_study(pot, [10.0], [125, 250, 500], k=1,
                                  tol=1e-8)
        assert study.slopes[0] == pytest.approx(2.0, abs=0.3)

    def test_one_size_rejected(self):
        pot = quadratic_potential([[1.0]])
        with pytest.raises(ValueError, match="2"):
            convergence_study(pot, [10.0], [100], k=1)

    # a repeated finest size divided the Richardson reference by zero, and a
    # repeated coarse one fitted two grids to an exact slope of 2
    @pytest.mark.parametrize("sizes", [[23, 31, 31], [23, 23, 31]])
    def test_repeated_size_rejected_before_any_solve(self, monkeypatch, sizes):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the sizes were checked")

        monkeypatch.setattr(eigensolver, "lowest_eigenpairs", no_solve)
        pot = expression_potential("x1^2 + y1^2 + x1^2*y1^2", 1, 1, nonnegative=True)
        with pytest.raises(ValueError, match="strictly ascending"):
            convergence_study(pot, [6.0, 6.0], sizes, k=3, h=0.5)

    def test_free_operator_solves_converge(self):
        pot = expression_potential("0*x1", 1, 0, nonnegative=True)
        study = convergence_study(pot, [4.0], [31, 63, 127], k=1, tol=1e-10)
        assert study.converged.all()

    def test_richardson_for_expression(self):
        pot = expression_potential("x1^2", 1, 0, nonnegative=True)
        study = convergence_study(pot, [10.0], [125, 250, 500], k=1,
                                  tol=1e-8)
        assert study.reference[0] == pytest.approx(1.0, abs=1e-3)
        assert study.slopes[0] == pytest.approx(2.0, abs=0.4)

    def test_slope_gate_edges(self):
        # the gate is the closed range [1.7, 2.3]; a level without a fitted
        # slope never passes
        slopes = (1.69, 1.7, 2.3, 2.31, None)
        study = ConvergenceStudy(deltas=(0.2, 0.1), errors=np.ones((2, 5)),
                                 slopes=slopes, reference=(1.0,) * 5,
                                 converged=np.ones((2, 5), dtype=bool))
        assert study.passed == (False, True, True, False, False)


@pytest.mark.parametrize("length, warns", [(2.0, True), (10.0, False)])
def test_boundary_warning(length, warns):
    # boundary V = x^2 is about 4 against a window of 6.8 at half-width 2,
    # and about 100 against 5 at half-width 10
    op = oscillator_op(399, length)
    result = lowest_eigenpairs(op, 3, tol=1e-7)
    assert (boundary_warning(op, result) is not None) == warns


def test_compare_with_oscillator_report():
    report = compare_with_oscillator(oscillator_op(255, 8.0), 3, tol=1e-8)
    assert report.levels == ((1.0, 1), (3.0, 1), (5.0, 1))
    assert report.gap_tol == 0.5  # a quarter of the least level gap
    assert not report.structural and report.converged
    assert all(row[-1] for row in report.rows)
