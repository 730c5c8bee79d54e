import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bospec.analytic import (
    AnalyticSpectrum,
    bo_spectrum,
    enumerate_spectrum,
    hermite_values,
    leading_grid_error,
)
from bospec.grid import assemble_hamiltonian, build_grid, separable_decomposition
from bospec.potential import ArgumentError, oscillator_frequencies, quadratic_potential


def brute_force_levels(w, h_scale, e_max):
    """Independent nested-loop oracle for the weighted multi-index sums."""
    w = [Fraction(x) for x in w]
    h_scale = Fraction(h_scale)
    bounds = [int((e_max / h_scale / wi - 1) // 2) + 1 for wi in w]
    counts = {}
    for idx in itertools.product(*(range(b + 1) for b in bounds)):
        e = h_scale * sum((2 * n + 1) * wi for n, wi in zip(idx, w))
        if e <= e_max:
            counts[e] = counts.get(e, 0) + 1
    return tuple(sorted(counts.items()))


class TestFrequencies:
    def test_diagonal(self):
        assert oscillator_frequencies([[1.0, 0.0], [0.0, 4.0]]) == \
            pytest.approx((1.0, 2.0))

    def test_identity(self):
        assert oscillator_frequencies(np.eye(3)) == pytest.approx((1.0, 1.0, 1.0))

    def test_coupled(self):
        # eigenvalues of [[2,1],[1,2]] are {1, 3}
        w = oscillator_frequencies([[2.0, 1.0], [1.0, 2.0]])
        assert w == pytest.approx((1.0, np.sqrt(3.0)))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            oscillator_frequencies([[1.0, 2.0], [2.0, 1.0]])


class TestEnumerateSpectrum:
    def test_1d_count_cutoff(self):
        spec = enumerate_spectrum([1], k=5)
        assert spec.levels == ((1, 1), (3, 1), (5, 1), (7, 1), (9, 1))

    def test_isotropic_2d(self):
        spec = enumerate_spectrum([1, 1], e_max=6)
        assert spec.levels == ((2, 1), (4, 2), (6, 3))

    def test_anisotropic(self):
        spec = enumerate_spectrum([1, 2], e_max=7)
        assert spec.levels == ((3, 1), (5, 1), (7, 2))

    def test_cutoff_below_ground(self):
        with pytest.warns(UserWarning, match="ground"):
            spec = enumerate_spectrum([1, 1], e_max=1)
        assert spec.levels == ()

    @pytest.mark.parametrize("e_max", [float("nan"), float("inf")])
    def test_non_finite_cutoff_rejected(self, monkeypatch, e_max):
        # no energy exceeds such a cutoff: the enumeration is cut at 100
        # energies here, so that a missing check fails instead of running on
        import bospec.analytic as analytic

        ascending = analytic._ascending_energies
        monkeypatch.setattr(analytic, "_ascending_energies",
                            lambda *args: itertools.islice(ascending(*args), 100))
        with pytest.raises(ValueError, match="e_max must be finite"):
            enumerate_spectrum([1.0, 2.0], e_max=e_max)

    # no count of levels equals a fractional k, so the enumeration never
    # stopped: it is cut at 100 energies here, so that a missing check fails
    # instead of running on.  bo_spectrum passes k on.
    # True is a bool, not a count, though Python reads it as 1
    @pytest.mark.parametrize("k", [2.5, 3.0, 0, True])
    @pytest.mark.parametrize("spectrum", [
        lambda k: enumerate_spectrum([1.0, 2.0], k=k),
        lambda k: bo_spectrum([[1.0]], [[1.0]], 0.5, k=k)],
        ids=["enumerate_spectrum", "bo_spectrum"])
    def test_non_integer_k_rejected(self, monkeypatch, spectrum, k):
        import bospec.analytic as analytic

        ascending = analytic._ascending_energies
        monkeypatch.setattr(analytic, "_ascending_energies",
                            lambda *args: itertools.islice(ascending(*args), 100))
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            spectrum(k)

    # a NaN weight makes every energy NaN, which no cutoff stops, and an
    # infinite one gives infinite levels: the enumeration is cut at 100
    # energies here, so that a missing check fails instead of running on
    @pytest.mark.parametrize("w, cutoff", [
        ([float("nan"), 1.0], {"e_max": 5.0}), ([float("nan")], {"k": 3}),
        ([1.0, float("inf")], {"k": 3}), ([float("-inf")], {"k": 3})],
        ids=["nan-e_max", "nan-k", "inf-k", "-inf-k"])
    def test_non_finite_weight_rejected(self, monkeypatch, w, cutoff):
        import bospec.analytic as analytic

        ascending = analytic._ascending_energies
        monkeypatch.setattr(analytic, "_ascending_energies",
                            lambda *args: itertools.islice(ascending(*args), 100))
        with pytest.raises(ValueError, match="weights must be positive, finite and nonempty"):
            enumerate_spectrum(w, **cutoff)

    @pytest.mark.parametrize("e_max, k", [(5.0, 2), (None, None)], ids=["both", "neither"])
    def test_one_cutoff_required(self, e_max, k):
        with pytest.raises(ValueError, match="give exactly one of e_max or k"):
            enumerate_spectrum([1.0, 2.0], e_max=e_max, k=k)

    def test_float_weights_merge(self):
        spec = enumerate_spectrum([0.5, 1.0], e_max=3.5)
        assert [m for _, m in spec.levels] == [1, 1, 2]

    def test_brute_force_small(self):
        for w, e_max in [((1,), 11), ((1, 1), 10), ((Fraction(1, 2), 2), 9),
                         ((2, 3, 5), 30)]:
            spec = enumerate_spectrum(w, e_max=e_max)
            assert spec.levels == brute_force_levels(w, 1, e_max)


@given(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=5,
                             max_denominator=4), min_size=1, max_size=3),
       st.integers(5, 30))
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_brute_force(w, e_max):
    import warnings

    with warnings.catch_warnings():
        # a generated cutoff below the ground energy is a legitimate case
        warnings.simplefilter("ignore", UserWarning)
        spec = enumerate_spectrum(w, e_max=e_max)
    assert spec.levels == brute_force_levels(w, 1, e_max)


class TestBoSpectrum:
    def test_semiclassical_bo(self):
        spec = bo_spectrum([[1.0]], [[1.0]], h=0.5, e_max=3.5)
        assert [(e, m) for e, m in spec.levels] == \
            [(pytest.approx(1.5), 1), (pytest.approx(2.5), 1), (pytest.approx(3.5), 2)]

    def test_reduces_to_isotropic(self):
        spec = bo_spectrum([[1.0]], [[1.0]], h=1.0, e_max=6.0)
        iso = enumerate_spectrum([1, 1], e_max=6)
        assert [m for _, m in spec.levels] == [m for _, m in iso.levels]
        assert [float(e) for e, _ in spec.levels] == \
            pytest.approx([float(e) for e, _ in iso.levels])

    def test_pure_semiclassical(self):
        spec = bo_spectrum([[1.0]], None, h=0.1, k=3)
        assert [float(e) for e, _ in spec.levels] == pytest.approx([0.1, 0.3, 0.5])

    def test_params_recorded(self):
        spec = bo_spectrum([[1.0, 0.0], [0.0, 4.0]], [[1.0]], h=0.5, k=2)
        assert spec.params["h"] == 0.5
        assert spec.params["w"] == pytest.approx((1.0, 2.0))
        assert spec.params["mu"] == pytest.approx((1.0,))

    # h is refused by check_h, the rule of every other layer: (0, 1], so
    # h = 2, which every command refuses, is refused here too
    @pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -1.0, 2.0])
    def test_non_positive_or_non_finite_h_rejected(self, h):
        with pytest.raises(ArgumentError, match="h must lie in") as caught:
            bo_spectrum([[1.0]], [[1.0]], h=h, k=3)
        assert caught.value.argument == "h"

    # the reference takes the matrices quadratic_potential takes: A is
    # symmetrized as (A + A^T)/2, so an asymmetric A gives the levels of its
    # symmetric part, and of the potential's A, bit for bit
    def test_asymmetric_matrix_symmetrized_like_the_potential(self):
        levels = bo_spectrum([[1.0, 2.0], [0.0, 4.0]], None, 0.5, k=4)
        assert levels == bo_spectrum([[1.0, 1.0], [1.0, 4.0]], None, 0.5, k=4)
        assert levels == bo_spectrum(quadratic_potential([[1.0, 2.0], [0.0, 4.0]]).a,
                                     None, 0.5, k=4)


class TestStates:
    # each level's multi-indices come from the one enumerator, in the order
    # of the weights: h * w_1 .. h * w_n, then mu_1 .. mu_p
    def test_states_per_level(self):
        spec = bo_spectrum([[1.0]], [[1.0]], h=0.5, k=4)
        assert spec.levels == ((1.5, 1), (2.5, 1), (3.5, 2), (4.5, 2))
        assert spec.states == (((0, 0),), ((1, 0),), ((0, 1), (2, 0)), ((1, 1), (3, 0)))

    def test_states_match_multiplicities(self):
        spec = enumerate_spectrum([1, 1, 2], e_max=11)
        assert [len(states) for states in spec.states] == [m for _, m in spec.levels]
        for (e, _), states in zip(spec.levels, spec.states):
            assert all(sum((2 * n + 1) * w for n, w in zip(idx, (1, 1, 2))) == e
                       for idx in states)

    def test_states_default_empty(self):
        assert AnalyticSpectrum(levels=((1, 1),), e_max=None, k=1, params={}).states == ()


class TestLeadingGridError:
    # on a diagonal form <d_d^4> = 3/4 (2 n_d^2 + 2 n_d + 1) a_d / s_d, so
    # Delta_2 = -sum_d a_d delta_d^2 (2 n_d^2 + 2 n_d + 1) / 16, whatever h is
    def test_diagonal_closed_form(self):
        a, b, spacing = np.diag([1.0, 2.0]), np.diag([1.0, 1.5]), (0.1, 0.2, 0.3, 0.4)
        states = [(0, 0, 0, 0), (1, 0, 2, 0), (0, 3, 1, 1)]
        want = [-sum(c * d * d * (2 * n * n + 2 * n + 1) / 16
                     for c, d, n in zip((1.0, 2.0, 1.0, 1.5), spacing, idx)) for idx in states]
        for h in (0.5, 1.0):
            assert leading_grid_error(a, b, h, spacing, states) == pytest.approx(want, rel=1e-12)

    # the modes are ordered by ascending frequency, not by axis: diag(2, 1)
    # has its slow mode on axis 2, and on equal spacings takes diag(1, 2)'s error
    def test_coupled_swap_of_axes(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0]])
        swapped = leading_grid_error(a, None, 0.5, (0.1, 0.1), [(0, 0), (2, 1), (1, 3)])
        plain = leading_grid_error(np.diag([1.0, 2.0]), None, 0.5, (0.1, 0.1),
                                   [(0, 0), (2, 1), (1, 3)])
        assert swapped == pytest.approx(plain, rel=1e-12)

    # the remainder against the exact grid levels is O(delta^4): the mean
    # over each level's states falls by 16 per halving of delta
    def test_remainder_falls_by_16_per_halving(self):
        pot = quadratic_potential([[1.0]], [[1.0]])
        remainders = []
        for points in (127, 255, 511):
            op = assemble_hamiltonian(build_grid(1, 1, [8.0, 8.0], [points, points]), pot, 0.5)
            spec = bo_spectrum(pot.a, pot.b, 0.5, k=5)  # two levels of two states
            count = sum(m for _, m in spec.levels)
            lowest = separable_decomposition(op, k=count).lowest(count)
            predicted = leading_grid_error(pot.a, pot.b, 0.5, op.grid.spacing,
                                           [idx for states in spec.states for idx in states])
            ends = np.cumsum([m for _, m in spec.levels])
            remainders.append([np.mean(lowest[end - m:end] - float(e) - predicted[end - m:end])
                               for (e, m), end in zip(spec.levels, ends)])
        coarse, middle, fine = np.abs(remainders)
        assert np.all(np.abs(coarse / middle - 16) <= 0.5)
        assert np.all(np.abs(middle / fine - 16) <= 0.5)

    @pytest.mark.parametrize("spacing, states, argument", [
        ((0.1,), [(0, 0)], "spacing"), ((0.1, 0.1), [(0, 0, 0)], "states"),
        ((0.1, 0.1), [0, 0], "states")])
    def test_one_spacing_and_index_per_axis(self, spacing, states, argument):
        with pytest.raises(ArgumentError, match=f"^{argument} must ") as caught:
            leading_grid_error([[1.0]], [[1.0]], 0.5, spacing, states)
        assert caught.value.argument == argument


class TestHermite:
    def test_ground_value(self):
        assert hermite_values(0, 0.0)[0] == pytest.approx(np.pi ** -0.25)

    def test_odd_vanishes_at_origin(self):
        assert hermite_values(1, 0.0)[1] == pytest.approx(0.0, abs=1e-15)

    def test_matches_raising_recurrence(self):
        # unnormalized polynomials from H_{p+1} = 2x H_p - H_p' with H_0 = 1
        polys = [np.polynomial.Polynomial([1.0])]
        x = np.polynomial.Polynomial([0.0, 1.0])
        for _ in range(8):
            polys.append(2 * x * polys[-1] - polys[-1].deriv())
        assert polys[1](3.0) == pytest.approx(6.0)  # H_1(x) = 2x
        import math

        pts = np.array([-2.1, -0.3, 0.0, 0.7, 1.9])
        for p, poly in enumerate(polys):
            c = (np.sqrt(np.pi) * 2**p * math.factorial(p)) ** -0.5
            expected = c * poly(pts) * np.exp(-pts**2 / 2)
            assert np.allclose(hermite_values(p, pts)[p], expected, rtol=1e-12,
                               atol=1e-14)

    def test_parity(self):
        x = np.linspace(-8, 8, 101)
        for p in range(10):
            vals = hermite_values(p, x)[p]
            assert np.allclose(vals[::-1], (-1) ** p * vals, atol=1e-12)

    def test_orthonormality(self):
        x = np.linspace(-12.0, 12.0, 1201)
        vals = hermite_values(20, x)
        defect = np.abs(vals @ vals.T * (x[1] - x[0]) - np.eye(21)).max()
        assert defect <= 1e-8
        # position in this basis is the recurrence's Jacobi matrix, exactly
        off = np.sqrt(np.arange(1, 21) / 2)
        jacobi = np.diag(off, 1) + np.diag(off, -1)
        assert np.abs((vals * x) @ vals.T * (x[1] - x[0]) - jacobi).max() <= 1e-12

    def test_eigen_relation(self):
        x = np.arange(-12.0, 12.0 + 1e-9, 0.01)
        delta = x[1] - x[0]
        for p in (0, 3, 9, 15):
            psi = hermite_values(p, x)[p]
            # 4th-order second difference
            d2 = (-psi[:-4] + 16 * psi[1:-3] - 30 * psi[2:-2]
                  + 16 * psi[3:-1] - psi[4:]) / (12 * delta**2)
            lhs = -d2 + x[2:-2] ** 2 * psi[2:-2]
            resid = np.linalg.norm(lhs - (2 * p + 1) * psi[2:-2])
            assert resid / np.linalg.norm(psi[2:-2]) <= 1e-4

    def test_underflow_is_zero(self):
        assert hermite_values(0, 30.0)[0] < 1e-190

    def test_negative_order(self):
        with pytest.raises(ValueError):
            hermite_values(-1, 0.0)

    # 2.5 and NaN reached np.zeros, which raised a bare TypeError
    @pytest.mark.parametrize("max_order", [2.5, float("nan"), True])
    def test_order_must_be_a_count(self, max_order):
        with pytest.raises(ValueError, match="max_order must be an integer >= 0"):
            hermite_values(max_order, 0.0)

    def test_numpy_integer_order_accepted(self):
        assert np.array_equal(hermite_values(np.int64(3), [0.5, 1.0]),
                              hermite_values(3, [0.5, 1.0]))


class TestFlat:
    SPECTRUM = AnalyticSpectrum(levels=((1, 1), (3, 2), (5, 3)), e_max=None, k=3, params={})

    def test_truncates_by_multiplicity(self):
        assert self.SPECTRUM.flat() == [1, 3, 3, 5, 5, 5]
        assert self.SPECTRUM.flat(np.int64(2)) == [1, 3]
        assert self.SPECTRUM.flat(0) == []

    # NaN returned every level and -1 none, both as if valid; 2.5 raised a
    # bare TypeError
    @pytest.mark.parametrize("count", [float("nan"), -1, 2.5, True])
    def test_count_must_be_a_count(self, count):
        with pytest.raises(ValueError, match="count must be an integer >= 0"):
            self.SPECTRUM.flat(count)
