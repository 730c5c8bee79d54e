import ast
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bospec.grid import assemble_hamiltonian, build_grid
from bospec.potential import (
    ExprError,
    NotPositiveDefiniteError,
    PotentialDomainError,
    _unparse,
    expression_potential,
    oscillator_frequencies,
    parse_potential,
    quadratic_potential,
)
from bospec.probe import discreteness_certificate

from reference import quadratic_form


def value_at(pot, point):
    """V at one point, by evaluate_many on one-element coordinate arrays."""
    return pot.evaluate_many([np.array([c], dtype=float) for c in point])[0]


class TestParser:
    def test_basic_eval(self):
        expr = expression_potential("x1^2 + 2*y1^2", n=1, p=1)
        assert value_at(expr, [1.0, 1.0]) == pytest.approx(3.0)

    def test_zero_case(self):
        expr = expression_potential("x1^2", n=1, p=0)
        assert value_at(expr, [0.0]) == 0.0

    # the operator needs a slow dimension: -h^2 Lap_x with n = 0 is no
    # semiclassical operator
    def test_no_x_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got n=0$"):
            parse_potential("1", 0, 0)

    # n = 1.5 once gave a Potential of dimension 1.5, and True one of n = True
    @pytest.mark.parametrize("n, p, message", [
        (1.5, 0, r"^n must be an integer >= 1, got n=1\.5$"),
        (True, 0, r"^n must be an integer >= 1, got n=True$"),
        (1, 0.5, r"^p must be an integer >= 0, got p=0\.5$"),
        (1, -1, r"^p must be an integer >= 0, got p=-1$")],
        ids=["fractional-n", "bool-n", "fractional-p", "negative-p"])
    def test_dimension_counts_refused_by_name(self, n, p, message):
        with pytest.raises(ValueError, match=message):
            expression_potential("x1", n, p)

    def test_numpy_dimension_counts_held_as_ints(self):
        pot = expression_potential("x1^2 + y1^2", np.int64(1), np.uint8(1))
        assert (pot.n, pot.p, pot.dim) == (1, 1, 2)
        assert type(pot.n) is int and type(pot.p) is int

    def test_unbound_variable(self):
        with pytest.raises(ExprError, match="z3"):
            parse_potential("x1 + z3", n=1, p=0)

    def test_out_of_range_index(self):
        with pytest.raises(ExprError, match="x2"):
            parse_potential("x2", n=1, p=0)
        with pytest.raises(ExprError, match="y1"):
            parse_potential("y1", n=1, p=0)

    def test_syntax_error_has_position(self):
        with pytest.raises(ExprError) as err:
            parse_potential("x1 + * 2", n=1, p=0)
        assert err.value.position is not None

    def test_non_integer_exponent(self):
        with pytest.raises(ExprError, match="exponent"):
            parse_potential("x1^2.5", n=1, p=0)

    def test_empty(self):
        with pytest.raises(ExprError):
            parse_potential("   ", n=1, p=0)

    def test_functions_and_division(self):
        expr = expression_potential("abs(x1) + exp(y1) / 2", n=1, p=1)
        assert value_at(expr, [-3.0, 0.0]) == pytest.approx(3.5)

    def test_division_by_zero(self):
        expr = expression_potential("1 / x1", n=1, p=0)
        from bospec.potential import PotentialDomainError

        with pytest.raises(PotentialDomainError):
            value_at(expr, [0.0])

    def test_unicode_minus(self):
        expr = expression_potential("x1 − 1", n=1, p=0)
        assert value_at(expr, [3.0]) == pytest.approx(2.0)

    def test_precedence(self):
        expr = expression_potential("1 + 2 * 3 ^ 2", n=1, p=0)
        assert value_at(expr, [0.0]) == pytest.approx(19.0)

    def test_power_binds_tighter_than_unary_minus(self):
        assert value_at(expression_potential("-x1^2 + x1^4", 1, 0), [3.0]) == 72.0
        assert value_at(expression_potential("2 * -x1^2", 1, 0), [3.0]) == -18.0

    def test_python_literals_and_parenthesized_exponent(self):
        assert ast.unparse(parse_potential("1_000 + 0x10", 1, 0)) == "1000 + 16"
        assert ast.unparse(parse_potential("x1^(2) + x1^-2", 1, 0)) == \
            "x1 ** 2 + x1 ** (-2)"
        with pytest.raises(ExprError):
            parse_potential("01", 1, 0)

    @pytest.mark.parametrize("text, position", [
        ("x1 + * 2", 5),
        ("x1^2 + * 2", 7),
        ("x1^2 + z3", 7),
        ("  x1 + * 2", 7),
        ("x1^2 +\n y1^2 + *", 15),
    ])
    def test_error_position_indexes_the_text(self, text, position):
        with pytest.raises(ExprError) as err:
            parse_potential(text, n=1, p=1)
        assert err.value.position == position

    @pytest.mark.parametrize("text", [
        "x1 ** 2", "+x1", "sin(x1)", "abs(x1, y1)", "x1 < 2", "x1 if y1 else 2",
        "x1.real", "'a'", "1j", "True", "x1^2.5", "x1^y1", "x1^2^2",
    ])
    def test_rejected(self, text):
        with pytest.raises(ExprError) as err:
            parse_potential(text, n=1, p=1)
        assert err.value.position is not None

    @pytest.mark.parametrize("text, position", [("1" * 400, 0), ("x1^" + "1" * 400, 3)],
                             ids=["number", "exponent"])
    def test_number_too_large(self, text, position):
        with pytest.raises(ExprError, match="number too large") as err:
            parse_potential(text, n=1, p=0)
        assert err.value.position == position


# Every expression in README.md, tests/ and perfbench/workloads.py (the last
# is a sample of the text test_quadratic_matches_expanded_expression builds),
# with Python's rendering of its tree; the rendering parenthesizes wherever
# precedence requires, so it fixes the tree's shape.
CORPUS = {
    "(x1 - y1)^2 + 0.01*(x1^2 + y1^2)": "(x1 - y1) ** 2 + 0.01 * (x1 ** 2 + y1 ** 2)",
    "0*x1": "0 * x1",
    "1 / x1": "1 / x1",
    "abs(x1) + exp(y1) / 2": "abs(x1) + exp(y1) / 2",
    "abs(x1)": "abs(x1)",
    "x1 − 1": "x1 - 1",
    "x1": "x1",
    "x1^2 + 2*y1^2": "x1 ** 2 + 2 * y1 ** 2",
    "x1^2 + abs(x1*y1)": "x1 ** 2 + abs(x1 * y1)",
    "x1^2 + abs(y1)": "x1 ** 2 + abs(y1)",
    "x1^2 + y1^2 + y1*y2 + y2^2": "x1 ** 2 + y1 ** 2 + y1 * y2 + y2 ** 2",
    "x1^2 + y1^2": "x1 ** 2 + y1 ** 2",
    "x1^2": "x1 ** 2",
    "1*x1^2": "1 * x1 ** 2",
    "4*x1^2": "4 * x1 ** 2",
    "16*x1^2": "16 * x1 ** 2",
    "1 + 2 * 3 ^ 2": "1 + 2 * 3 ** 2",
    "x1^2 + 2*y1^2 + abs(x1*y1)": "x1 ** 2 + 2 * y1 ** 2 + abs(x1 * y1)",
    "1.5*x1*x1 + 0.25*x1*x2 - 0.25*x2*x1 + 2.0*x2*x2":
        "1.5 * x1 * x1 + 0.25 * x1 * x2 - 0.25 * x2 * x1 + 2.0 * x2 * x2",
}


@pytest.mark.parametrize("text", CORPUS)
def test_corpus_parses_as_before(text):
    assert ast.unparse(parse_potential(text, n=2, p=2)) == CORPUS[text]


def _text_strategy():
    """Fully parenthesized expressions of the grammar, drawn as text."""
    leaves = st.one_of(
        st.floats(min_value=0, max_value=100, allow_nan=False,
                  allow_infinity=False).map(repr),
        st.sampled_from(["x1", "x2", "y1", "y2"]),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(children, st.sampled_from("+-*/"), children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            children.map(lambda c: f"(-({c}))"),
            st.tuples(children, st.integers(-3, 5)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["abs", "exp"]), children).map(
                lambda t: f"{t[0]}({t[1]})"),
        ),
        max_leaves=12,
    )


@given(_text_strategy())
@settings(max_examples=150, deadline=None)
def test_roundtrip(text):
    tree = parse_potential(text, n=2, p=2)
    assert ast.dump(parse_potential(_unparse(tree), n=2, p=2)) == ast.dump(tree)


class TestQuadratic:
    def test_identity(self):
        pot = quadratic_potential([[1.0]], [[1.0]])
        assert value_at(pot, [2.0, 3.0]) == pytest.approx(13.0)

    def test_diagonal_p0(self):
        pot = quadratic_potential([[1.0, 0.0], [0.0, 4.0]])
        assert pot.p == 0
        assert value_at(pot, [1.0, 1.0]) == pytest.approx(5.0)

    def test_identity_2d(self):
        pot = quadratic_potential(np.eye(2))
        assert value_at(pot, [1.0, 1.0]) == pytest.approx(2.0)

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveDefiniteError):
            quadratic_potential([[-1.0]])

    def test_error_names_the_matrix(self):
        with pytest.raises(NotPositiveDefiniteError, match="matrix B"):
            quadratic_potential([[1.0]], [[-2.0]])

    def test_rejects_semidefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            quadratic_potential([[1.0, 1.0], [1.0, 1.0]])

    # an infinite entry passed the symmetry and eigenvalue checks, and a NaN
    # one was reported as asymmetric
    @pytest.mark.parametrize("a, b, name", [
        ([[np.inf]], None, "matrix A"), ([[1.0, np.nan], [0.0, 1.0]], None, "matrix A"),
        ([[1.0]], [[np.nan]], "matrix B")], ids=["a-inf", "a-nan", "b-nan"])
    def test_rejects_non_finite(self, a, b, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            quadratic_potential(a, b)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            oscillator_frequencies(a) if b is None else oscillator_frequencies(b, "b")

    # scipy's dsyevd on the lower triangle is the routine numpy's eigvalsh
    # runs, so the frequencies keep their bits with no call to numpy.linalg
    def test_frequencies_equal_numpy_eigvalsh(self, monkeypatch):
        rng = np.random.default_rng(0)
        corpus = [np.diag(rng.uniform(0.1, 5.0, n)) for n in (1, 2, 3, 4)]
        for n in (2, 3, 4):
            for _ in range(5):
                m = rng.uniform(-1.0, 1.0, (n, n))
                corpus.append(m @ m.T + 0.5 * np.eye(n))
        corpus += [np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[1.0, 0.3], [0.3, 2.0]])]
        expected = [tuple(np.sort(np.sqrt(np.linalg.eigvalsh(a)))) for a in corpus]

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("oscillator_frequencies called numpy.linalg.eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        for a, want in zip(corpus, expected):
            assert oscillator_frequencies(a) == want

    # max |a - a^T| against the tolerance decides as np.allclose(a, a^T,
    # rtol=0, atol=1e-12 max(1, max |a|)) did, on either side of the bound
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("skew", [0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e6])
    def test_symmetry_decision_matches_allclose(self, scale, skew):
        a = scale * np.array([[2.0, 0.5], [0.5, 3.0]])
        a[0, 1] += skew * 1e-12 * max(1.0, np.abs(a).max())
        symmetric = np.allclose(a, a.T, rtol=0, atol=1e-12 * max(1.0, np.abs(a).max()))
        if symmetric:
            assert len(oscillator_frequencies(a)) == 2
        else:
            with pytest.raises(ValueError, match="must be symmetric"):
                oscillator_frequencies(a)

    def test_tree_of_the_form(self):
        assert ast.unparse(quadratic_potential([[1.0]], [[1.0]]).tree) == \
            "1.0 * x1 * x1 + 1.0 * y1 * y1"

    def test_symmetrization(self):
        pot = quadratic_potential([[1.0, 2.0], [0.0, 4.0]])
        assert np.allclose(pot.a, pot.a.T)
        assert value_at(pot, [1.0, 1.0]) == pytest.approx(7.0)

    def test_dimension_mismatch(self):
        pot = quadratic_potential([[1.0]])
        with pytest.raises(ValueError):
            value_at(pot, [1.0, 2.0])

    def test_expression_zero_at_origin(self):
        pot = expression_potential("x1^2 + y1^2", 1, 1)
        assert value_at(pot, [0.0, 0.0]) == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_quadratic_matches_expanded_expression(seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, size=(2, 2))
    a = m @ m.T + 0.5 * np.eye(2)
    pot = quadratic_potential(a)
    terms = [f"{float(a[i, j])!r}*x{i + 1}*x{j + 1}" for i in range(2) for j in range(2)]
    expr = expression_potential(" + ".join(terms).replace("+ -", "- "), 2, 0)
    pt = rng.uniform(-3, 3, size=2)
    v1 = value_at(pot, pt)
    v2 = value_at(expr, pt)
    assert v1 == pytest.approx(v2, rel=1e-12)


class TestEvaluateMany:
    """V on per-axis coordinates that broadcast over the grid equals V on the
    columns of the coordinate table, node for node in flat-index order."""

    @staticmethod
    def axes(grid):
        # axis d along array axis -(d + 1), so C order runs dimension 0 fastest
        return [grid.axis_coords(d).reshape((-1,) + (1,) * d) for d in range(grid.dim)]

    @pytest.mark.parametrize("pot", [
        quadratic_potential([[1.0, 0.3], [0.3, 2.0]], [[1.5, -0.4], [-0.4, 0.7]]),
        expression_potential("3.5", 2, 2),
        expression_potential("abs(x1 - y2) + exp(-y1^2) * x2 / 2", 2, 2)],
        ids=["quadratic-n2p2", "constant", "abs-exp"])
    def test_axes_equal_table(self, pot):
        grid = build_grid(2, 2, [2.0, 3.0, 4.0, 2.5], [5, 6, 7, 4])
        table = grid.node_coords()
        on_axes = pot.evaluate_many(self.axes(grid))
        on_table = pot.evaluate_many(list(table.T))
        assert on_axes.shape == on_table.shape == (grid.size,)
        assert np.all(np.abs(on_axes - on_table) <= 1e-15 * np.abs(on_table))
        # each node's value is V at its point, and assembly reads the same
        pointwise = [value_at(pot, point) for point in table]
        assert np.allclose(on_axes, pointwise, rtol=1e-14, atol=0)
        op = assemble_hamiltonian(grid, pot, 1.0)
        assert op.potential_values.tobytes() == on_axes.tobytes()

    def test_quadratic_form_with_coupling(self):
        a, b = np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([[1.5, -0.4], [-0.4, 0.7]])
        grid = build_grid(2, 2, [2.0, 3.0, 4.0, 2.5], [5, 6, 7, 4])
        x, y = grid.node_coords()[:, :2], grid.node_coords()[:, 2:]
        exact = np.einsum("mi,ij,mj->m", x, a, x) + np.einsum("mi,ij,mj->m", y, b, y)
        values = quadratic_potential(a, b).evaluate_many(self.axes(grid))
        assert np.allclose(values, exact, rtol=1e-14, atol=0)

    # a quadratic V walks its tree term by term as `quadratic_form` sums it:
    # the same bits on broadcast axes and on table columns, off-diagonal and
    # zero entries included, and the same bits as the expression potential
    # of the tree's text
    @pytest.mark.parametrize("a, b, half_widths, points", [
        ([[1.3]], None, [4.0], [9]),
        ([[1.0, 0.3], [0.3, 2.0]], None, [2.0, 3.0], [5, 6]),
        ([[1.5]], [[1.0, 0.0], [0.0, 0.7]], [2.0, 3.0, 4.0], [5, 6, 7]),
        ([[1.0, 0.3], [0.3, 2.0]], [[0.9]], [2.0, 3.0, 4.0], [5, 6, 7]),
        ([[2.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 3.0]], None, [2.0, 3.0, 4.0], [5, 6, 7]),
        ([[1.0, 0.3], [0.3, 2.0]], [[1.5, -0.4], [-0.4, 0.7]], [2.0, 3.0, 4.0, 2.5], [5, 6, 7, 4]),
    ], ids=["1d", "2d-n2", "3d-p2-zeros", "3d-n2", "3d-n3-zeros", "4d"])
    def test_quadratic_bits_equal_reference(self, a, b, half_widths, points):
        pot = quadratic_potential(a, b)
        grid = build_grid(pot.n, pot.p, half_widths, points)
        for coords in (self.axes(grid), list(grid.node_coords().T)):
            expected = quadratic_form(pot.a, coords[:pot.n])
            if pot.p:
                expected = expected + quadratic_form(pot.b, coords[pot.n:])
            assert pot.evaluate_many(coords).tobytes() == expected.ravel().tobytes()
            expr = expression_potential(ast.unparse(pot.tree), pot.n, pot.p)
            assert expr.evaluate_many(coords).tobytes() == expected.ravel().tobytes()

    # quadratic V takes the same non-finite check: x1^2 overflows at the
    # first node of a box 1e155 wide
    def test_quadratic_overflow_names_the_node(self):
        grid = build_grid(1, 0, [1e155], [1001])
        first = float(grid.axis_coords(0)[0])
        message = f"potential evaluated to non-finite value at [{first!r}]"
        with pytest.raises(PotentialDomainError, match=f"^{re.escape(message)}$"):
            quadratic_potential([[1.0]]).evaluate_many(self.axes(grid))

    # the first non-finite node in flat order (x1 = 0 at the lowest y1) is
    # named by its coordinates on either path
    def test_division_by_zero_names_the_node(self):
        grid = build_grid(1, 1, [2.0, 2.0], [3, 3])
        pot = expression_potential("1 / x1", 1, 1)
        for coords in (self.axes(grid), list(grid.node_coords().T)):
            with pytest.raises(PotentialDomainError, match=r"at \[0\.0, -1\.0\]"):
                pot.evaluate_many(coords)
        with pytest.raises(PotentialDomainError, match=r"at \[0\.0, -1\.0\]"):
            assemble_hamiltonian(grid, pot, 1.0)

    def test_count_of_coordinate_arrays(self):
        pot = quadratic_potential([[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="2 coordinate arrays"):
            pot.evaluate_many([np.zeros(3)])

    # an (m, n + p) table of points, the older form, is refused, also when
    # m = n + p, where reading it by columns would evaluate other points
    @pytest.mark.parametrize("table", [np.array([[1.0, 2.0], [3.0, 4.0]]),
                                       [[1.0, 2.0], [3.0, 4.0]], np.zeros((5, 2))],
                             ids=["square-array", "square-list", "array"])
    def test_table_of_points_refused(self, table):
        pot = quadratic_potential([[1.0]], [[1.0]])
        with pytest.raises(TypeError, match="list or tuple of numpy arrays"):
            pot.evaluate_many(table)
        assert pot.evaluate_many(list(np.asarray(table).T)).tolist() == [
            value_at(pot, point) for point in np.asarray(table)]


def exterior_infima(pot, radii, half_width, points):
    """inf V over the grid nodes outside B(0, q), per radius q, as the
    certificate reads it (its lower bound at lambda = 0)."""
    grid = build_grid(pot.n, pot.p, [half_width] * pot.dim, [points] * pot.dim)
    rep = discreteness_certificate(assemble_hamiltonian(grid, pot, 1.0), 0.0, radii)
    return [e.lower_bound for e in rep.entries]


class TestConfinementProfile:
    def test_exact_infimum_quadratic(self):
        pot = quadratic_potential([[1.0]], [[1.0]])  # V = |X|^2 in 1+1 dims
        assert exterior_infima(pot, [5.0], 20.0, 99) == [25.0]

    def test_zero_potential(self):
        pot = expression_potential("0*x1", 1, 1, nonnegative=True)
        assert exterior_infima(pot, [3.0], 10.0, 49) == [0.0]

    def test_empty_exterior(self):
        pot = quadratic_potential([[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="room"):
            exterior_infima(pot, [20.0], 10.0, 49)

    def test_refinement_monotone(self):
        # 2m + 1 points keep every node of the m-point grid, so refining can
        # only lower the minimum over the exterior nodes
        pot = expression_potential("x1^2 + abs(y1)", 1, 1, nonnegative=True)
        coarse = exterior_infima(pot, [2.0, 4.0], 8.0, 49)
        fine = exterior_infima(pot, [2.0, 4.0], 8.0, 99)
        for c, f in zip(coarse, fine):
            assert f <= c

    def test_radii_must_ascend(self):
        pot = expression_potential("x1^2", 1, 0, nonnegative=True)
        with pytest.raises(ValueError, match="ascending"):
            exterior_infima(pot, [3.0, 3.0], 10.0, 99)

    def test_deterministic(self):
        pot = expression_potential("x1^2 + abs(x1*y1)", 1, 1, nonnegative=True)
        a = exterior_infima(pot, [4.0], 10.0, 49)
        assert a == exterior_infima(pot, [4.0], 10.0, 49)
