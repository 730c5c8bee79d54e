import functools
import math
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bospec import grid as grid_module
from bospec.grid import GridOperator, assemble_hamiltonian, build_grid, separable_inverse
from bospec.potential import expression_potential, quadratic_potential
from bospec.probe import (
    FORM_TOLERANCE,
    CutoffFamily,
    FormChainReport,
    _bump_over,
    bump,
    commutator_decay,
    cutoff_profile,
    discreteness_certificate,
    essential_spectrum_probe,
    form_inequality_check,
    make_zhislin_vector,
)

import reference
from reference import kinetic_operator


# V that are sums of one-variable terms, on which commutator_decay applies
# the exact separable inverse as its resolvent; min V = 2 for the quartic
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

    # formed on the support only, with the bits of the former whole-array
    # formulas (tests/reference.py), at the support's ends and off it too
    @pytest.mark.parametrize("values", [
        np.linspace(-3.0, 3.0, 10001), np.linspace(0.0, 3.0, 10001),
        np.array([np.nan, np.inf, -np.inf, -1.0, 1.0, 2.0, 0.0, -0.0, np.nextafter(1.0, 0.0)]),
        0.3, [0.5, 1.5]], ids=["wide", "radial", "edges", "scalar", "list"])
    def test_match_former_formulas(self, values):
        for new, former in ((bump, reference.bump), (cutoff_profile, reference.cutoff_profile)):
            out, expected = new(values), former(values)
            assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    # the former formula took |t| and its output beside t, each the size of
    # t; written over t, the bump allocates a mask and its support, here an
    # eighth of the nodes
    def test_formed_on_support_only(self):
        import tracemalloc

        values = np.linspace(-1.25, 15.0, 1 << 16)
        expected = bump(values)
        tracemalloc.start()
        try:
            out = _bump_over(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out is values and out.tobytes() == expected.tobytes()
        assert peak <= 0.6 * values.nbytes


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

    # the phase is evaluated only on the bump's support
    @pytest.mark.parametrize("n, p, k", [(1, 1, [0.7, -1.3]), (1, 2, [0.4, 1.1, -0.9])],
                             ids=["2d", "3d"])
    def test_wavevector_phase(self, n, p, k):
        dim = n + p
        grid = build_grid(n, p, [6.0] * dim, [23, 27, 25][:dim])
        v = make_zhislin_vector(grid, radius=1.0, k=k, width=2.0)
        coords = grid.node_coords()
        envelope = bump(2 * (np.linalg.norm(coords, axis=1) - 3.0) / 2.0 - 1.0)
        reference = envelope * np.exp(1j * coords @ np.asarray(k))
        reference /= np.linalg.norm(reference)
        assert np.abs(v - reference).max() <= 1e-14

    # one nonzero component or none, along either axis: the bits of the
    # former formula, which took the exponential at each node of the support
    # (there +0.0, here +-0.0 off it, which compare equal); odd point counts
    # put a node at x = 0, where a negative k_d makes the phase -0.0
    @pytest.mark.parametrize("n, p, k", [
        (1, 0, [0.9]), (1, 1, None), (1, 1, [-1.3, 0.0]), (1, 1, [0.0, 0.7]),
        (1, 2, [0.0, 0.0, -0.4])], ids=["1d", "2d-zero", "2d-x", "2d-y", "3d"])
    def test_matches_former_formula(self, n, p, k):
        dim = n + p
        grid = build_grid(n, p, [6.0] * dim, [23, 27, 25][:dim])
        v = make_zhislin_vector(grid, radius=1.0, k=k, width=2.0)
        assert np.array_equal(v, reference.zhislin_vector(grid, 1.0, k, 2.0))

    # on a 2D grid [1, 2, 3] raised IndexError, [[1, 2]] an ambiguous truth
    # value, and [1.0] was read as (1, 0)
    @pytest.mark.parametrize("k", [[1.0, 2.0, 3.0], [[1.0, 2.0]], [1.0]],
                             ids=["three", "nested", "one"])
    def test_wavevector_needs_one_component_per_dimension(self, k):
        grid = build_grid(1, 1, [6.0, 6.0], [31, 31])
        with pytest.raises(ValueError, match="vector of 2 components"):
            make_zhislin_vector(grid, radius=1.0, k=k, width=2.0)

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

    def test_negative_radius_rejected(self, monkeypatch):
        # the bump width equals the radius, so a negative radius must be
        # refused by name before any vector is built, not as a width
        import bospec.probe as probe

        def no_vector(*args, **kwargs):
            raise AssertionError("no vector may be built")

        monkeypatch.setattr(probe, "make_zhislin_vector", no_vector)
        grid = build_grid(1, 1, [6.0, 6.0], [31, 31])
        with pytest.raises(ValueError, match="radii must be nonnegative"):
            essential_spectrum_probe(0.5, grid, [1.0], [-1.0, 2.0])

    @pytest.mark.parametrize("lambdas, radii, match", [
        ([1.0], [float("nan"), 2.0], "radii must be finite"),
        ([1.0], [1.5, float("inf")], "radii must be finite"),
        ([float("nan")], [1.5, 2.0], "lambda must be finite"),
        ([1.0, float("inf")], [1.5, 2.0], "lambda must be finite"),
    ])
    def test_non_finite_rejected(self, lambdas, radii, match):
        # every comparison with NaN is false, so no ordering check catches it
        grid = build_grid(1, 1, [6.0, 6.0], [31, 31])
        with pytest.raises(ValueError, match=match):
            essential_spectrum_probe(0.5, grid, lambdas, radii)

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

    def test_complex_residual(self):
        # a complex vector's residual is taken as two real products
        from bospec.probe import _residual

        grid = build_grid(1, 1, [6.0, 6.0], [23, 25])
        free = kinetic_operator(grid, 0.5)
        v = make_zhislin_vector(grid, radius=1.0, k=[0.8, -0.5], width=2.0)
        reference = np.linalg.norm(free.astype(complex) @ v - 1.3 * v)
        apply = functools.partial(grid_module._band_apply, grid, 0.5, 0.0)
        assert _residual(apply, v, 1.3) == pytest.approx(reference, rel=1e-14)


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

    def test_negative_radius_rejected(self):
        # B(0, -5) is empty, so its exterior is the whole box, where inf V = 0:
        # the closed form lambda_min q^2 = 25 would bound nothing there
        grid = build_grid(1, 1, [12.0, 12.0], [63, 63])
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]], [[1.0]]), 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            discreteness_certificate(op, lam=4.0, radii=[-5.0])

    @pytest.mark.parametrize("lam, radii, match", [
        (1.0, [float("nan"), 2.5], "radii must be finite"),
        (1.0, [1.5, float("inf")], "radii must be finite"),
        (float("nan"), [1.5, 2.5], "lambda must be finite"),
        (float("-inf"), [1.5, 2.5], "lambda must be finite"),
    ])
    def test_non_finite_rejected(self, lam, radii, match):
        grid = build_grid(1, 1, [6.0, 6.0], [31, 31])
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]], [[1.0]]), 0.5)
        with pytest.raises(ValueError, match=match):
            discreteness_certificate(op, lam=lam, radii=radii)

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

    # a steep V at the box edge of a rotated axis: the inverse's full axis
    # eigenbasis by dstevd has its low eigenvalues 7.8e-6 off on 63 points
    # and 4.7e-7 on 191, so its first apply misses the residual check by
    # three orders; one refinement step meets it.  The same must hold on
    # MRRR (lapack_driver='stemr'), which older scipy releases use for the
    # full eigenbasis
    @pytest.mark.parametrize("expression, points, mrrr", [
        ("x1^12 + y1^2", (63, 63), False),
        ("x1^12 + y1^2", (63, 63), True),
        ("x1^12 + y1^2", (191, 191), False),
        ("x1^12 + y1^2 + y2^2", (31, 31, 31), False),
    ], ids=["63", "63-stemr", "191", "31x31x31"])
    def test_steep_rotated_axis(self, monkeypatch, expression, points, mrrr):
        import scipy.linalg

        if mrrr:
            monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", functools.partial(
                scipy.linalg.eigh_tridiagonal, lapack_driver="stemr"))
        pot = expression_potential(expression, 1, len(points) - 1)
        op = assemble_hamiltonian(build_grid(1, len(points) - 1, [14.0] * len(points), points),
                                  pot, 0.5)
        results = commutator_decay(op, CutoffFamily(scales=(1.5, 3.0)), probes=2, seed=0)
        assert all(0 < estimate < math.inf for _, estimate in results)

    # the refinement runs only when the first apply misses: on probe-2d's
    # oscillator each probe is one apply of the inverse, so its estimates
    # keep their bits
    def test_one_inverse_apply_per_probe(self, monkeypatch):
        import bospec.probe as probe

        op = assemble_hamiltonian(build_grid(1, 1, [8.0, 8.0], [191, 191]),
                                  quadratic_potential([[1.0]], [[1.0]]), 0.5)
        build, applies = probe.separable_inverse, []

        def counted(op, z):
            inverse = build(op, z)
            return lambda r: applies.append(1) or inverse(r)

        monkeypatch.setattr(probe, "separable_inverse", counted)
        commutator_decay(op, CutoffFamily(scales=(1.5, 3.0)), probes=2, seed=0)
        assert len(applies) == 2

    def test_deterministic(self):
        op = oscillator_op(points=149)
        family = CutoffFamily(scales=(3.0, 6.0))
        a = commutator_decay(op, family, probes=2, seed=7)
        b = commutator_decay(op, family, probes=2, seed=7)
        assert a == b

    @staticmethod
    def _dense_resolvent_error(pot, half_width=4.0, points=21):
        """Largest error, relative to a dense solve of (H - z) w = v, of the
        CG solve and of the direct apply of the separable inverse, on a grid
        with `points` nodes per axis in the potential's dimensions."""
        from bospec.probe import _resolvent_at_i

        dim = pot.n + pot.p
        grid = build_grid(pot.n, pot.p, [half_width] * dim, [points] * dim)
        op = assemble_hamiltonian(grid, pot, 0.5)
        v = np.random.default_rng(3).standard_normal(op.dim)
        z = op.shift_below_spectrum() - 1.0
        exact = np.linalg.solve(op.matrix.toarray() - z * np.eye(op.dim), v)
        inverse = separable_inverse(op, z)
        assert inverse is not None
        errors = [np.linalg.norm(_resolvent_at_i(op, v, z=z, inverse=given) - exact)
                  for given in (None, inverse)]
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

        # CG iterates on the assembled H, here counting its products
        counting = types.SimpleNamespace(
            matrix=spla.LinearOperator(op.matrix.shape, matvec=counted, dtype=float),
            apply=op.apply)
        v = np.random.default_rng(0).standard_normal(op.dim)
        # no iterate reaches a residual of 1e-300: the cap must end the solve
        with pytest.raises(RuntimeError, match="did not converge"):
            _resolvent_at_i(counting, v, z=op.shift_below_spectrum() - 1.0, rtol=1e-300)
        assert 0 < len(products) <= op.dim

    def test_separable_solve_checks_its_residual(self):
        # the direct apply is exact only up to rounding, so its residual
        # check must still refuse a tolerance no float vector meets
        from bospec.probe import _resolvent_at_i

        op = oscillator_op(points=49)
        z = op.shift_below_spectrum() - 1.0
        v = np.random.default_rng(0).standard_normal(op.dim)
        with pytest.raises(RuntimeError, match="separable inverse"):
            _resolvent_at_i(op, v, z=z, rtol=1e-300, inverse=separable_inverse(op, z))

    # 17 x 15 keeps its longer axis 0 tridiagonal, so the inverse transposes
    # around the products commutator_decay supplies
    @pytest.mark.parametrize("case, points", [
        ("quadratic-2d", (17, 15)), ("quartic-2d", (15, 15)), ("diagonal-3d", (8, 8, 8))], ids=list(SEPARABLE))
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
    # 191 x 193 is near-square: the former rule sum N_d^2 <= 2 prod N_d
    # admitted square 2D grids only
    @pytest.mark.parametrize("case, points", [
        ("quadratic-2d", (48, 48)), ("quartic-2d", (49, 49)), ("diagonal-3d", (14, 14, 14)),
        ("quadratic-2d", (191, 193))], ids=[*SEPARABLE, "quadratic-191x193"])
    def test_separable_solve_takes_two_iterations(self, monkeypatch, record_band_matrix,
                                                   case, points):
        import bospec.probe as probe

        pot = SEPARABLE[case]
        grid = build_grid(pot.n, pot.p, [6.0] * len(points), points)
        op = assemble_hamiltonian(grid, pot, 0.5)
        products = []
        apply = GridOperator.apply
        monkeypatch.setattr(GridOperator, "apply",
                            lambda self, u, out=None, scratch=None:
                            products.append(1) or apply(self, u, out=out, scratch=scratch))

        def no_cg(*args, **kwargs):
            raise AssertionError("a separable solve must not run CG")

        monkeypatch.setattr(spla, "cg", no_cg)
        v = np.random.default_rng(0).standard_normal(op.dim)
        z = op.shift_below_spectrum() - 1.0
        inverse = separable_inverse(op, z)
        assert inverse is not None
        probe._resolvent_at_i(op, v, z=z, inverse=inverse)
        # no CG iteration at all: the one product is the true-residual check,
        # by the stencil, so no H is built
        assert len(products) == 1 and record_band_matrix == []
        # commutator_decay hands its solves the inverse, built and applied on
        # scipy's BLAS, ARPACK's: every axis eigenpair of each rotated axis by
        # eigh_tridiagonal's full driver (LAPACK's dstevd, whose merges call
        # dgemm) and one dgemm per rotated axis each way, and no numpy eigh
        # of the dense tridiagonal, which the inverse took on numpy's BLAS
        import scipy.linalg
        import scipy.linalg.blas

        solve, given, scipy_calls = probe._resolvent_at_i, [], []

        def recording(op, v, z, inverse):
            given.append(inverse)
            return solve(op, v, z=z, inverse=inverse)

        for module, name in ((scipy.linalg.blas, "dgemm"), (scipy.linalg, "eigh_tridiagonal")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, original=original, **kwargs:
                                scipy_calls.append((name, kwargs.get("select", "a")))
                                or original(*args, **kwargs))

        def refused(*args, **kwargs):
            raise AssertionError("numpy's eigh on the separable inverse's axis")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(probe, "_resolvent_at_i", recording)
        commutator_decay(op, CutoffFamily(scales=(2.0,)), probes=1)
        rotated = len(points) - 1
        assert given[0] is not None
        assert sorted(scipy_calls) == ([("dgemm", "a")] * 2 * rotated
                                       + [("eigh_tridiagonal", "a")] * rotated)

    # every norm of a grid vector in the probe layer is scipy's unthreaded
    # dnrm2 and the form check's weighted sum scipy's ddot: numpy's threaded
    # ddot in np.linalg.norm, against scipy's thread pool, took a probe-2d
    # pass from 24.3 to 43.1 ms once the separable inverse ran on scipy's,
    # and a threaded scipy ddot for the norms slowed the CG solve by half
    def test_probes_take_no_numpy_norm(self, monkeypatch):
        import sys

        import bospec.probe as probe
        from scipy.linalg import blas

        norm, calls = np.linalg.norm, []

        def guarded(*args, **kwargs):
            assert sys._getframe(1).f_globals["__name__"] != probe.__name__, (
                "a probe function called numpy.linalg.norm")
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", guarded)
        for name in ("dnrm2", "ddot"):
            original = getattr(blas, name)
            monkeypatch.setattr(blas, name, lambda *args, name=name, original=original, **kwargs:
                                calls.append(name) or original(*args, **kwargs))
        grid = build_grid(1, 1, [8.0, 8.0], [63, 65])
        separable = assemble_hamiltonian(grid, SEPARABLE["quadratic-2d"], 0.5)
        coupled = assemble_hamiltonian(
            grid, expression_potential("x1^2*y1^2", 1, 1, nonnegative=True), 0.5)
        dipping = assemble_hamiltonian(
            grid, expression_potential("x1^2 + y1^2 - 1", 1, 1, nonnegative=True), 0.5)
        essential_spectrum_probe(0.5, grid, [0.0, 4.0], [1.25, 2.5])
        discreteness_certificate(separable, lam=4.0, radii=[3.0, 5.0])
        for op in (separable, coupled):
            commutator_decay(op, CutoffFamily(scales=(1.5, 3.0)), probes=2)
        norms = len(calls)
        assert norms > 0 and set(calls) == {"dnrm2"}
        form_inequality_check(dipping, trials=5)
        assert calls[norms:] == ["ddot"] * 4

    # probe-2d's V is separable; x1^2*y1^2 takes the CG solve
    @pytest.mark.parametrize("expression", ["x1^2*y1^2", "x1^2 + y1^4"],
                             ids=["non-separable", "separable"])
    def test_matrix_free_commutator_matches_assembled(self, monkeypatch, expression):
        import bospec.probe as probe

        pot = expression_potential(expression, 1, 1, nonnegative=True)
        op = assemble_hamiltonian(build_grid(1, 1, [8.0, 8.0], [41, 41]), pot, 0.5)
        family = CutoffFamily(scales=(1.5, 3.0))
        solve, solved = probe._resolvent_at_i, []

        def recording(op, v, z, inverse):
            solved.append((inverse, solve(op, v, z=z, inverse=inverse)))
            return solved[-1][1]

        monkeypatch.setattr(probe, "_resolvent_at_i", recording)
        results = commutator_decay(op, family, probes=2, seed=0)
        assert [inverse is None for inverse, _ in solved] == [expression == "x1^2*y1^2"] * 2
        for q, estimate in results:
            phi = sp.diags(family.values(op.grid, q))
            comm = op.matrix @ phi - phi @ op.matrix
            assembled = max(np.linalg.norm(comm @ w) for _, w in solved)
            assert estimate == pytest.approx(assembled, rel=1e-12)

    @pytest.mark.parametrize("case", ["non-separable"])
    def test_unselected_grid_solves_unpreconditioned(self, monkeypatch, case):
        import bospec.probe as probe

        pot = expression_potential("x1^2*y1^2", 1, 1, nonnegative=True)
        op = assemble_hamiltonian(build_grid(1, 1, [8.0, 8.0], [41, 41]), pot, 0.5)
        family = CutoffFamily(scales=(1.5, 3.0))
        assert separable_inverse(op, op.shift_below_spectrum() - 1.0) is None
        cg, calls = spla.cg, []

        def recording(A, b, **kwargs):
            calls.append(kwargs)
            return cg(A, b, **kwargs)

        monkeypatch.setattr(spla, "cg", recording)
        chosen = commutator_decay(op, family, probes=2, seed=0)
        # one CG solve per probe, from zero, unpreconditioned, capped at dim
        # iterations
        assert len(calls) == 2
        assert all(kwargs.keys() == {"rtol", "atol", "maxiter"} for kwargs in calls)
        assert all(kwargs["maxiter"] == op.dim for kwargs in calls)
        solve = probe._resolvent_at_i
        monkeypatch.setattr(probe, "_resolvent_at_i",
                            lambda op, v, z, inverse: solve(op, v, z=z, inverse=None))
        assert chosen == commutator_decay(op, family, probes=2, seed=0)

    def test_1d_grid_solves_preconditioned(self, monkeypatch):
        # acceptance criterion 10's grid: every 1D V is a sum of one-variable
        # terms, so each solve is one apply of the exact inverse
        import bospec.probe as probe

        grid = build_grid(1, 0, [70.0], [1399])
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]]), 1.0)
        family = CutoffFamily(scales=(4.0, 8.0, 16.0, 32.0))
        solve, given = probe._resolvent_at_i, []

        def recording(op, v, z, inverse):
            given.append(inverse)
            return solve(op, v, z=z, inverse=inverse)

        monkeypatch.setattr(probe, "_resolvent_at_i", recording)
        chosen = commutator_decay(op, family, probes=2, seed=0)
        monkeypatch.setattr(probe, "_resolvent_at_i",
                            lambda op, v, z, inverse: solve(op, v, z=z, inverse=None))
        plain = commutator_decay(op, family, probes=2, seed=0)
        assert len(given) == 2 and all(inverse is not None for inverse in given)
        for (q, estimate), (_, reference) in zip(chosen, plain):
            assert estimate == pytest.approx(reference, rel=1e-7)

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

        def counting(op, v, **kwargs):
            calls.append(1)
            return solve(op, v, **kwargs)

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


class TestStencilProducts:
    """The probes apply H by its stencil: only the CG solve of a V that is not
    a sum of one-variable terms builds the sparse H, once."""

    @pytest.mark.parametrize("expression, builds", [("x1^2 + y1^4", 0), ("x1^2*y1^2", 1)],
                             ids=["separable", "non-separable"])
    def test_commutator_decay(self, record_band_matrix, expression, builds):
        pot = expression_potential(expression, 1, 1, nonnegative=True)
        op = assemble_hamiltonian(build_grid(1, 1, [8.0, 8.0], [41, 41]), pot, 0.5)
        commutator_decay(op, CutoffFamily(scales=(1.5, 3.0)), probes=2, seed=0)
        assert len(record_band_matrix) == builds

    def test_discreteness_certificate(self, record_band_matrix):
        grid = build_grid(1, 1, [12.0, 12.0], [99, 99])
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]], [[1.0]]), 1.0)
        rep = discreteness_certificate(op, lam=4.0, radii=[3.0, 5.0])
        assert rep.verdict == "discrete at lambda=4" and record_band_matrix == []

    def test_essential_spectrum_probe(self, record_band_matrix):
        grid = build_grid(1, 1, [6.0, 6.0], [31, 31])
        (rep,) = essential_spectrum_probe(0.5, grid, [1.0], [1.5, 2.0])
        assert len(rep.entries) == 2 and record_band_matrix == []


class TestFormerFormulas:
    """The probes give the outputs of their former formulas (tests/reference.py),
    which took a fresh grid vector per product, bit for bit."""

    def test_essential_residuals(self):
        from bospec.probe import _snap_wavevector

        grid = build_grid(1, 1, [8.0, 8.0], [63, 65])
        kinetic = kinetic_operator(grid, 0.5)
        radii = [1.25, 2.5]
        for rep in essential_spectrum_probe(0.5, grid, [0.0, 4.0], radii):
            k, target = _snap_wavevector(grid, 0.5, rep.candidate_lambda)
            assert [e.residual for e in rep.entries] == [
                reference.residual(kinetic, reference.zhislin_vector(grid, r, k, r), target)
                for r in radii]

    @pytest.mark.parametrize("pot", [
        quadratic_potential([[1.0]], [[1.0]]),
        expression_potential("x1^2 + y1^4", 1, 1, nonnegative=True),
    ], ids=["quadratic", "expression"])
    def test_certificate_residuals(self, pot):
        grid = build_grid(1, 1, [8.0, 8.0], [63, 65])
        op = assemble_hamiltonian(grid, pot, 0.5)
        rep = discreteness_certificate(op, lam=4.0, radii=[3.0, 5.0])
        assert [e.residual for e in rep.entries] == [
            reference.residual(op.matrix, reference.zhislin_vector(
                grid, q, None, 0.95 * (8.0 - q) / 2), 4.0) for q in (3.0, 5.0)]

    # the per-axis exponentials of a wavevector with two nonzero components
    # round their product, not the phase sum
    def test_multicomponent_residual(self):
        from bospec.probe import _residual

        grid = build_grid(1, 1, [6.0, 6.0], [23, 25])
        apply = functools.partial(grid_module._band_apply, grid, 0.5, 0.0)
        v = make_zhislin_vector(grid, radius=1.0, k=[0.8, -0.5], width=2.0)
        former = reference.residual(kinetic_operator(grid, 0.5),
                                    reference.zhislin_vector(grid, 1.0, [0.8, -0.5], 2.0), 1.3)
        assert _residual(apply, v, 1.3) == pytest.approx(former, rel=1e-14)

    # the separable inverse on either tridiagonal axis and in 3D, the 1D one,
    # and CG for a V that is not a sum of one-variable terms
    @pytest.mark.parametrize("points, expression", [
        ((17, 15), "x1^2 + y1^2"), ((15, 17), "x1^4 + y1^2 + 2"), ((8, 9, 7), "x1^2 + y1^2 + 2*y2^2"),
        ((199,), "x1^2"), ((21, 21), "x1^2*y1^2")],
        ids=["17x15", "15x17", "3d", "1d", "non-separable"])
    def test_commutator_estimates(self, points, expression):
        dim = len(points)
        pot = expression_potential(expression, 1, dim - 1, nonnegative=True)
        op = assemble_hamiltonian(build_grid(1, dim - 1, [4.0] * dim, points), pot, 0.5)
        scales = (0.7, 1.0, 2.0)
        assert (commutator_decay(op, CutoffFamily(scales), probes=3, seed=5)
                == reference.commutator_estimates(op, scales, 3, 5))


class TestPeakMemory:
    """tracemalloc peaks of the probes on probe-2d's 191^2 grid, the operator
    built before the call, in grid vectors.  Each took a fresh grid vector
    per product, the separable inverse held its tridiagonal factor and the
    stencil apply took numpy's iterator buffers: 12.7 (commutator_decay),
    9.9 (essential) and 5.1 (certificate); the certificate's bump took |t|
    and its output beside t: 4.29, now 4.02, set by its residual step."""

    @staticmethod
    def _peak_in_grid_vectors(call, size):
        import tracemalloc

        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * size)

    @pytest.mark.parametrize("probe, bound", [
        ("commutator_decay", 8.0), ("essential", 6.0), ("certificate", 4.1)])
    def test_peak(self, probe, bound):
        grid = build_grid(1, 1, [8.0, 8.0], [191, 191])
        op = assemble_hamiltonian(grid, quadratic_potential([[1.0]], [[1.0]]), 0.5)
        call = {
            "commutator_decay": lambda: commutator_decay(
                op, CutoffFamily(scales=(1.5, 3.0)), probes=2, seed=0),
            "essential": lambda: essential_spectrum_probe(0.5, grid, [4.0], [1.25, 2.5]),
            "certificate": lambda: discreteness_certificate(op, lam=4.0, radii=[3.0, 5.0]),
        }[probe]
        assert self._peak_in_grid_vectors(call, op.dim) <= bound


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
