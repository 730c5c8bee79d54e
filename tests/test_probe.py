import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bospec.grid import assemble_hamiltonian, build_grid
from bospec.potential import expression_potential, quadratic_potential
from bospec.probe import (
    FORM_TOLERANCE,
    CutoffFamily,
    FormChainReport,
    bump,
    commutator_decay,
    cutoff_profile,
    discreteness_certificate,
    essential_spectrum_probe,
    form_inequality_check,
    make_zhislin_vector,
)


# V that are sums of one-variable terms, on which commutator_decay
# preconditions its resolvent solves; min V = 2 for the quartic
SEPARABLE = {
    "quadratic-2d": quadratic_potential([[1.0]], [[1.0]]),
    "quartic-2d": expression_potential("x1^4 + y1^2 + 2", 1, 1, nonnegative=True),
    "diagonal-3d": quadratic_potential([[1.0]], [[1.0, 0.0], [0.0, 2.0]]),
}


def oscillator_op(points=199, length=10.0, h=1.0):
    grid = build_grid(1, 0, [length], [points])
    return assemble_hamiltonian(grid, quadratic_potential([[1.0]]), h)


class TestBump:
    def test_support(self):
        assert bump(0.0) == pytest.approx(1.0)
        assert bump(1.0) == 0.0
        assert bump(-1.0) == 0.0
        assert bump(2.0) == 0.0

    def test_smooth_positive_inside(self):
        t = np.linspace(-0.99, 0.99, 50)
        assert np.all(bump(t) > 0)
        assert np.all(bump(t) <= 1.0)

    def test_cutoff_profile(self):
        assert cutoff_profile(np.array([0.0, 0.5, 1.0]))[0] == 1.0
        assert cutoff_profile(np.array([2.0]))[0] == 0.0
        r = np.linspace(0, 3, 40)
        vals = cutoff_profile(r)
        assert np.all(np.diff(vals) <= 1e-15)


class TestZhislinVector:
    def test_normalized_and_supported(self):
        grid = build_grid(1, 1, [20.0, 20.0], [99, 99])
        v = make_zhislin_vector(grid, radius=5.0, k=None, width=3.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.all(v[grid.node_radii() <= 5.0] == 0)

    def test_complex_with_wavevector(self):
        grid = build_grid(1, 0, [40.0], [399])
        v = make_zhislin_vector(grid, radius=8.0, k=[1.0], width=5.0)
        assert np.iscomplexobj(v)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_width_unresolvable(self):
        grid = build_grid(1, 0, [10.0], [19])  # spacing = 1
        with pytest.raises(ValueError, match="width"):
            make_zhislin_vector(grid, radius=2.0, k=None, width=2.0)

    def test_support_exceeds_box(self):
        grid = build_grid(1, 0, [10.0], [199])
        with pytest.raises(ValueError, match="box"):
            make_zhislin_vector(grid, radius=6.0, k=None, width=3.0)


class TestEssentialProbe:
    def test_negative_lambda_rejected(self):
        grid = build_grid(1, 0, [40.0], [399])
        with pytest.raises(ValueError, match=">= 0"):
            essential_spectrum_probe(1.0, grid, [-1.0], [4.0, 8.0])

    def test_h_out_of_range_rejected(self):
        grid = build_grid(1, 0, [40.0], [399])
        with pytest.raises(ValueError, match="h must lie"):
            essential_spectrum_probe(0.0, grid, [1.0], [4.0, 8.0])

    @pytest.mark.parametrize("radii", [[5.0], [5.0, 5.0], [10.0, 5.0]])
    def test_radii_need_an_ascending_pair(self, radii):
        # one radius, or residuals at repeated radii, measure no trend
        grid = build_grid(1, 0, [40.0], [399])
        with pytest.raises(ValueError, match="ascending"):
            essential_spectrum_probe(1.0, grid, [1.0], radii)

    def test_residuals_decay(self):
        grid = build_grid(1, 0, [80.0], [1999])
        reports = essential_spectrum_probe(1.0, grid, [0.0, 1.0], [5.0, 10.0, 20.0])
        for rep in reports:
            res = [e.residual for e in rep.entries]
            assert res[-1] < res[0]
            assert rep.verdict == "essential candidate"

    def test_target_near_lambda(self):
        grid = build_grid(1, 0, [80.0], [1999])
        (rep,) = essential_spectrum_probe(1.0, grid, [1.0], [5.0, 10.0])
        assert rep.entries[0].target == pytest.approx(1.0, abs=0.05)


class TestDiscretenessCertificate:
    def test_quadratic_exact_bounds(self):
        grid = build_grid(1, 1, [12.0, 12.0], [99, 99])
        pot = quadratic_potential([[1.0]], [[1.0]])
        op = assemble_hamiltonian(grid, pot, 1.0)
        rep = discreteness_certificate(op, lam=4.0, radii=[3.0, 5.0])
        assert [e.lower_bound for e in rep.entries] == \
            pytest.approx([9.0 - 4.0, 25.0 - 4.0])
        assert rep.verdict == "discrete at lambda=4"

    def test_residuals_respect_bounds(self):
        grid = build_grid(1, 1, [12.0, 12.0], [99, 99])
        pot = quadratic_potential([[1.0]], [[1.0]])
        op = assemble_hamiltonian(grid, pot, 1.0)
        rep = discreteness_certificate(op, lam=2.0, radii=[3.0, 5.0])
        for e in rep.entries:
            if e.lower_bound > 0:
                assert e.residual >= e.lower_bound

    def test_zero_potential_inconclusive(self):
        grid = build_grid(1, 0, [20.0], [199])
        pot = expression_potential("0*x1", 1, 0, nonnegative=True)
        op = assemble_hamiltonian(grid, pot, 1.0)
        rep = discreteness_certificate(op, lam=1.0, radii=[3.0, 5.0])
        assert rep.verdict == "inconclusive"

    def test_refuses_unclaimed_potential(self):
        grid = build_grid(1, 0, [20.0], [199])
        pot = expression_potential("x1", 1, 0, nonnegative=False)
        op = assemble_hamiltonian(grid, pot, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            discreteness_certificate(op, lam=0.0, radii=[3.0])

    def test_expression_bounds_dominate_closed_form(self):
        # the node minimum of x1^2 + y1^2 outside B(0, q) is at least q^2
        grid = build_grid(1, 1, [12.0, 12.0], [99, 99])
        quad = discreteness_certificate(assemble_hamiltonian(
            grid, quadratic_potential([[1.0]], [[1.0]]), 1.0), lam=4.0, radii=[3.0, 5.0])
        expr = discreteness_certificate(assemble_hamiltonian(
            grid, expression_potential("x1^2 + y1^2", 1, 1, nonnegative=True), 1.0),
            lam=4.0, radii=[3.0, 5.0])
        for q, e in zip((3.0, 5.0), expr.entries):
            assert e.lower_bound >= q * q - 4.0
        assert expr.verdict == quad.verdict == "discrete at lambda=4"

    @pytest.mark.parametrize("pot", [
        quadratic_potential([[1.0]], [[1.0]]),
        expression_potential("x1^2 + y1^2", 1, 1, nonnegative=True),
    ], ids=["quadratic", "expression"])
    def test_radii_must_ascend(self, pot):
        grid = build_grid(1, 1, [12.0, 12.0], [99, 99])
        op = assemble_hamiltonian(grid, pot, 1.0)
        with pytest.raises(ValueError, match="ascending"):
            discreteness_certificate(op, lam=4.0, radii=[5.0, 3.0])

    def test_needs_a_radius(self):
        op = oscillator_op(points=49)
        with pytest.raises(ValueError, match="need at least one radius"):
            discreteness_certificate(op, lam=4.0, radii=[])

    def test_valley_bounds_are_node_minima(self):
        # a sampled exterior infimum reported 0.086 and 0.283 here, above the
        # true bounds
        grid = build_grid(1, 1, [8.0, 8.0], [191, 191])
        pot = expression_potential("(x1 - y1)^2 + 0.01*(x1^2 + y1^2)", 1, 1,
                                   nonnegative=True)
        rep = discreteness_certificate(assemble_hamiltonian(grid, pot, 0.5),
                                       lam=0.05, radii=[3.0, 5.0])
        x, y = grid.node_coords().T
        v = (x - y) ** 2 + 0.01 * (x * x + y * y)
        r = np.hypot(x, y)
        exact = [v[r > q].min() - 0.05 for q in (3.0, 5.0)]
        assert [e.lower_bound for e in rep.entries] == pytest.approx(exact, rel=1e-12)
        assert exact == pytest.approx([0.0439, 0.2068], abs=1e-4)
        assert exact[0] < 0.086 and exact[1] < 0.283

    def test_radius_too_close_to_wall(self):
        grid = build_grid(1, 0, [10.0], [49])
        pot = quadratic_potential([[1.0]])
        op = assemble_hamiltonian(grid, pot, 1.0)
        with pytest.raises(ValueError, match="room"):
            discreteness_certificate(op, lam=0.0, radii=[9.5])


class TestCommutator:
    def test_constant_cutoff_commutes(self):
        op = oscillator_op(points=99)
        family = CutoffFamily(scales=(1000.0,))  # phi = 1 on the whole box
        results = commutator_decay(op, family, probes=1, seed=0)
        assert results[0][1] == 0.0

    def test_probes_must_be_positive(self):
        op = oscillator_op(points=49)
        with pytest.raises(ValueError, match="probes"):
            commutator_decay(op, CutoffFamily(scales=(2.0,)), probes=0)

    @pytest.mark.parametrize("scales", [(), (-1.0,), (0.0,), (2.0, 0.0)])
    def test_scales_must_be_positive(self, scales):
        # a scale q <= 0 would give the estimate 0.0, which reads as perfect
        # decay, and no scale an empty result
        op = oscillator_op(points=49)
        with pytest.raises(ValueError, match="scale"):
            commutator_decay(op, CutoffFamily(scales=scales), probes=1)

    def test_decay_with_scale(self):
        grid = build_grid(1, 0, [40.0], [799])
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]]), 1.0)
        results = commutator_decay(op, CutoffFamily(scales=(4.0, 8.0, 16.0)),
                                   probes=2, seed=0)
        ests = [e for _, e in results]
        assert ests[1] < ests[0]
        assert ests[2] < ests[1]

    def test_deterministic(self):
        op = oscillator_op(points=149)
        family = CutoffFamily(scales=(3.0, 6.0))
        a = commutator_decay(op, family, probes=2, seed=7)
        b = commutator_decay(op, family, probes=2, seed=7)
        assert a == b

    @staticmethod
    def _dense_resolvent_error(pot, half_width=4.0, points=21):
        """Largest error, relative to a dense solve of (H - z) w = v, of the
        unpreconditioned CG solve and of the one commutator_decay runs, on a
        grid with `points` nodes per axis in the potential's dimensions."""
        from bospec.probe import _resolvent_at_i, _separable_resolvent

        dim = pot.n + pot.p
        grid = build_grid(pot.n, pot.p, [half_width] * dim, [points] * dim)
        op = assemble_hamiltonian(grid, pot, 0.5)
        v = np.random.default_rng(3).standard_normal(op.dim)
        z = op.shift_below_spectrum() - 1.0
        exact = np.linalg.solve(op.matrix.toarray() - z * np.eye(op.dim), v)
        errors = [np.linalg.norm(_resolvent_at_i(op.matrix, v, z=z, M=inverse) - exact)
                  for inverse in (None, _separable_resolvent(op, z))]
        return max(errors) / np.linalg.norm(exact)

    @pytest.mark.parametrize("case, points", [
        ("quadratic-2d", 21), ("quartic-2d", 21), ("diagonal-3d", 12)], ids=list(SEPARABLE))
    def test_resolvent_matches_dense_solve(self, case, points):
        assert self._dense_resolvent_error(SEPARABLE[case], points=points) < 1e-7

    def test_resolvent_matches_dense_solve_indefinite(self):
        # min V = -10 puts the lowest eigenvalue of H below 0, so CG is only
        # safe at a z below the spectrum
        pot = expression_potential("x1^2 + y1^2 - 10", 1, 1, nonnegative=False)
        op = assemble_hamiltonian(build_grid(1, 1, [4.0, 4.0], [21, 21]), pot, 0.5)
        lowest = np.linalg.eigvalsh(op.matrix.toarray())[0]
        assert op.shift_below_spectrum() < lowest < 0
        assert self._dense_resolvent_error(pot) < 1e-7

    def test_unconverged_solve_raises(self):
        from bospec.probe import _resolvent_at_i

        op = oscillator_op(points=49)
        products = []

        def counted(x):
            products.append(1)
            return op.matrix @ x

        matrix = spla.LinearOperator(op.matrix.shape, matvec=counted, dtype=float)
        v = np.random.default_rng(0).standard_normal(op.dim)
        # no iterate reaches a residual of 1e-300: the cap must end the solve
        with pytest.raises(RuntimeError, match="did not converge"):
            _resolvent_at_i(matrix, v, z=op.shift_below_spectrum() - 1.0, rtol=1e-300)
        assert 0 < len(products) <= op.dim

    # 15 x 17 is not square, so that case solves unpreconditioned
    @pytest.mark.parametrize("case, points", [
        ("quadratic-2d", (15, 17)), ("quartic-2d", (15, 15)), ("diagonal-3d", (8, 8, 8))], ids=list(SEPARABLE))
    def test_matches_dense_commutator_resolvent(self, case, points):
        pot = SEPARABLE[case]
        grid = build_grid(pot.n, pot.p, [4.0] * len(points), points)
        op = assemble_hamiltonian(grid, pot, 0.5)
        family = CutoffFamily(scales=(1.0, 2.0))
        h = op.matrix.toarray()
        resolvent = np.linalg.inv(h - (op.shift_below_spectrum() - 1.0) * np.eye(op.dim))
        results = commutator_decay(op, family, probes=3, seed=5)
        for q, estimate in results:
            phi = np.diag(family.values(grid, q))
            comm = h @ phi - phi @ h
            best = 0.0
            for pi in range(3):
                v = np.random.default_rng((5, pi)).standard_normal(op.dim)
                v /= np.linalg.norm(v)
                best = max(best, np.linalg.norm(comm @ resolvent @ v))
            assert estimate == pytest.approx(best, rel=1e-7)

    # an even point count puts no node at the origin, so min V != 0 and the
    # shift (dim - 1) min V of the per-axis split is exercised
    @pytest.mark.parametrize("case, points", [
        ("quadratic-2d", (48, 48)), ("quartic-2d", (49, 49)), ("diagonal-3d", (14, 14, 14))], ids=list(SEPARABLE))
    def test_separable_solve_takes_two_iterations(self, monkeypatch, case, points):
        import bospec.probe as probe

        pot = SEPARABLE[case]
        grid = build_grid(pot.n, pot.p, [6.0] * len(points), points)
        op = assemble_hamiltonian(grid, pot, 0.5)
        products = []

        def counted(x):
            products.append(1)
            return op.matrix @ x

        matrix = spla.LinearOperator(op.matrix.shape, matvec=counted, dtype=float)
        v = np.random.default_rng(0).standard_normal(op.dim)
        z = op.shift_below_spectrum() - 1.0
        inverse = probe._separable_resolvent(op, z)
        assert inverse is not None
        probe._resolvent_at_i(matrix, v, z=z, M=inverse)
        # one product per CG iteration, plus the true-residual check
        assert len(products) - 1 <= 2
        # commutator_decay hands its solves the preconditioner
        solve, given = probe._resolvent_at_i, []

        def recording(matrix, v, z, M):
            given.append(M)
            return solve(matrix, v, z=z, M=M)

        monkeypatch.setattr(probe, "_resolvent_at_i", recording)
        commutator_decay(op, CutoffFamily(scales=(2.0,)), probes=1)
        assert given[0] is not None

    @pytest.mark.parametrize("case", ["non-separable", "1d"])
    def test_unselected_grid_solves_unpreconditioned(self, monkeypatch, case):
        import bospec.probe as probe

        if case == "non-separable":
            pot = expression_potential("x1^2*y1^2", 1, 1, nonnegative=True)
            op = assemble_hamiltonian(build_grid(1, 1, [8.0, 8.0], [41, 41]), pot, 0.5)
            family = CutoffFamily(scales=(1.5, 3.0))
        else:  # acceptance criterion 10's grid
            grid = build_grid(1, 0, [70.0], [1399])
            op = assemble_hamiltonian(grid, quadratic_potential([[1.0]]), 1.0)
            family = CutoffFamily(scales=(4.0, 8.0, 16.0, 32.0))
        assert probe._separable_resolvent(op, op.shift_below_spectrum() - 1.0) is None
        chosen = commutator_decay(op, family, probes=2, seed=0)
        solve = probe._resolvent_at_i
        monkeypatch.setattr(probe, "_resolvent_at_i",
                            lambda matrix, v, z, M: solve(matrix, v, z=z, M=None))
        assert chosen == commutator_decay(op, family, probes=2, seed=0)

    def test_deep_well_converges(self):
        # a well whose lowest eigenvalues lie far below 0: the former shifted
        # CG solve at the point i hit its cap of 1,681 iterations here
        pot = expression_potential("x1^4 - 3*x1^2 + y1^2 - 20", 1, 1, nonnegative=False)
        op = assemble_hamiltonian(build_grid(1, 1, [8.0, 8.0], [41, 41]), pot, 0.5)
        results = commutator_decay(op, CutoffFamily(scales=(1.5, 3.0)), probes=2, seed=0)
        assert all(estimate > 0 for _, estimate in results)
        assert self._dense_resolvent_error(pot, half_width=8.0, points=41) < 1e-7

    def test_one_solve_per_probe(self, monkeypatch):
        import bospec.probe as probe

        op = oscillator_op(points=99)
        solve = probe._resolvent_at_i
        calls = []

        def counting(shifted, v, **kwargs):
            calls.append(1)
            return solve(shifted, v, **kwargs)

        monkeypatch.setattr(probe, "_resolvent_at_i", counting)
        commutator_decay(op, CutoffFamily(scales=(1.0, 2.0, 4.0)), probes=2, seed=0)
        assert len(calls) == 2

    def test_scale_independent_of_family(self):
        op = oscillator_op(points=149)
        both = commutator_decay(op, CutoffFamily(scales=(2.0, 4.0)), probes=2, seed=11)
        alone = commutator_decay(op, CutoffFamily(scales=(4.0,)), probes=2, seed=11)
        assert both[1] == alone[0]

    def test_matrix_commutator_converges_to_continuum(self):
        # [H, phi] u -> -phi'' u - 2 phi' u' for smooth phi and u (h = 1);
        # phi' = -(x/9) phi, phi'' = (x^2/81 - 1/9) phi, u' = -(x/4) u
        gaps = []
        for points in (199, 399):
            grid = build_grid(1, 0, [20.0], [points])
            op = assemble_hamiltonian(grid, quadratic_potential([[1.0]]), 1.0)
            x = grid.node_coords()[:, 0]
            phi, u = np.exp(-(x**2) / 18), np.exp(-(x**2) / 8)
            diag = sp.diags(phi)
            assembled = (op.matrix @ diag - diag @ op.matrix) @ u
            exact = -(x**2 / 81 - 1 / 9) * phi * u - 2 * (x / 9) * (x / 4) * phi * u
            gaps.append(np.linalg.norm(assembled - exact) / np.linalg.norm(exact))
        assert gaps[0] < 1e-2
        assert gaps[1] < 0.3 * gaps[0]


class TestFormChain:
    def test_oscillator_no_violations(self):
        op = oscillator_op(points=199)
        report = form_inequality_check(op, trials=50, seed=0)
        assert report.violations == 0
        assert report.max_violation <= report.tolerance

    def test_zero_potential(self):
        grid = build_grid(1, 0, [10.0], [99])
        pot = expression_potential("0*x1", 1, 0, nonnegative=True)
        op = assemble_hamiltonian(grid, pot, 0.5)
        report = form_inequality_check(op, trials=30, seed=1)
        assert report.violations == 0

    @staticmethod
    def _plane_op(expression):
        pot = expression_potential(expression, 1, 1, nonnegative=True)
        return assemble_hamiltonian(build_grid(1, 1, [8.0, 8.0], [41, 41]), pot, 0.5)

    def _dip_op(self):
        # claimed nonnegative, but V = -1 at the origin node; the mean of V
        # over the nodes is 39.6, so Gaussian vectors alone never see the dip
        return self._plane_op("x1^2 + y1^2 - 1")

    def test_negative_dip_violates(self):
        op = self._dip_op()
        report = form_inequality_check(op, trials=500, seed=0)
        assert report.violations >= 1
        assert report.max_violation > report.tolerance

    def test_least_node_decides_alone(self):
        op = self._dip_op()
        report = form_inequality_check(op, trials=1, seed=0)
        assert report.violations == 1
        # the defect of e_m is -min V over the scale max(1, max |V|)
        scale = np.abs(op.potential_values).max()
        assert report.max_violation == pytest.approx(1.0 / scale, rel=1e-12)

    @staticmethod
    def _every_draw_report(op, trials, seed):
        # the report with all trials - 1 Gaussian vectors drawn and weighed
        values = op.potential_values
        scale = max(1.0, float(np.abs(values).max()))
        rng = np.random.default_rng(seed)
        forms = [float(values.min())]
        for _ in range(trials - 1):
            squares = np.square(rng.standard_normal(op.dim))
            forms.append(float(squares @ values) / float(squares.sum()))
        defects = [-form / scale for form in forms]
        return FormChainReport(trials=trials, max_violation=max(0.0, *defects),
                               violations=sum(d > FORM_TOLERANCE for d in defects),
                               tolerance=FORM_TOLERANCE)

    def _nonnegative_ops(self):
        grid = build_grid(1, 0, [10.0], [99])
        zero = expression_potential("0*x1", 1, 0, nonnegative=True)
        return [oscillator_op(points=199),
                assemble_hamiltonian(grid, zero, 0.5),
                self._plane_op("abs(x1) + y1^2")]

    def test_skipped_draws_change_nothing(self):
        ops = self._nonnegative_ops()
        # min V = 0.0 exactly at the origin node of the 41^2 grid
        assert ops[2].potential_values.min() == 0.0
        for op in ops:
            assert op.potential_values.min() >= 0
            for trials in (1, 2, 37):
                for seed in (0, 1, 7):
                    report = form_inequality_check(op, trials=trials, seed=seed)
                    reference = self._every_draw_report(op, trials, seed)
                    assert report == reference
                    assert repr(report) == repr(reference)

    @staticmethod
    def _count_draws(monkeypatch):
        calls = []
        default_rng = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def standard_normal(self, *args, **kwargs):
                calls.append(args)
                return self._rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        return calls

    def test_draws_only_when_v_dips(self, monkeypatch):
        calls = self._count_draws(monkeypatch)
        for op in self._nonnegative_ops():
            form_inequality_check(op, trials=20, seed=0)
        assert calls == []
        form_inequality_check(self._dip_op(), trials=20, seed=0)
        assert len(calls) == 19

    def test_draws_counted_when_v_dips(self):
        # mean V over the nodes is -9.4; each Gaussian form is a weighted
        # mean of V close to it, so each counts as a violation
        op = self._plane_op("x1^2 + y1^2 - 50")
        assert op.potential_values.mean() < 0
        report = form_inequality_check(op, trials=50, seed=0)
        assert report.violations == 50
        assert report == self._every_draw_report(op, 50, 0)

    def test_refuses_unclaimed(self):
        grid = build_grid(1, 0, [10.0], [99])
        pot = expression_potential("x1", 1, 0, nonnegative=False)
        op = assemble_hamiltonian(grid, pot, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            form_inequality_check(op, trials=10)

    def test_trials_positive(self):
        op = oscillator_op(points=49)
        with pytest.raises(ValueError, match="trials"):
            form_inequality_check(op, trials=0)
