"""Grid, the upwind difference stencil, generator, and preconditioner.

The dense oracles (``dense.py``) are built independently, with explicit
Python loops straight from the stencil definition, and never call the
matrix-free code paths they are checking.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_solve_banded

import dense
from blowup.discrete import DiscreteGenerator, Grid, Preconditioner
from blowup.expr import EvalDomainError, parse


def make_operator(rng, n=12, z=6.0):
    grid = Grid(z, n)
    v = rng.standard_normal(n + 1)
    lam = float(rng.uniform(0.3, 3.0))
    return DiscreteGenerator(grid, v, lam)


# --------------------------------------------------------------------------
# grid
# --------------------------------------------------------------------------

def test_grid_nodes():
    g = Grid(10.0, 4)
    assert len(g.nodes) == 5
    assert g.h == 2.5
    np.testing.assert_array_equal(g.nodes, [0.0, 2.5, 5.0, 7.5, 10.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 10)
    with pytest.raises(ValueError):
        Grid(-1.0, 10)
    with pytest.raises(ValueError):
        Grid(10.0, 1)
    for z in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match=repr(z)):
            Grid(z, 10)
    with pytest.raises(ValueError, match="40.7"):
        Grid(10.0, 40.7)


# --------------------------------------------------------------------------
# differences
# --------------------------------------------------------------------------

def test_field_is_sampled_on_python_floats():
    seen = set()
    DiscreteGenerator.from_field(lambda x: seen.add(type(x)) or 0.0, Grid(1.0, 4), 1.0)
    assert seen == {float}
    with pytest.raises(EvalDomainError) as info:
        DiscreteGenerator.from_field(parse("exp(x^2)"), Grid(40.0, 40), 1.0)
    assert str(info.value) == "'exp(x^2)' has no finite real value at x=27.0"
    assert "np.float64" not in str(info.value)


def test_difference_kills_constants():
    grid = Grid(5.0, 10)
    op = DiscreteGenerator.from_field(parse("x^2"), grid, 1.0)
    np.testing.assert_array_equal(op.apply_difference(np.full(11, 3.7)), 0.0)


def test_difference_is_exact_on_linear_functions():
    grid = Grid(8.0, 16)
    op = DiscreteGenerator.from_field(parse("x*(x-1)"), grid, 1.0)
    g = 2.0 - 3.0 * grid.nodes
    np.testing.assert_allclose(op.apply_difference(g), -3.0, rtol=1e-13)


def test_difference_on_squares_spacing_two():
    # nodes 0, 2, 4, 6, 8; forward at the left end: (4 - 0) / 2 = 2
    grid = Grid(8.0, 4)
    op = DiscreteGenerator.from_field(parse("x"), grid, 1.0)
    d = op.apply_difference(grid.nodes**2)
    assert d[0] == 2.0
    assert d[-1] == (64.0 - 36.0) / 2.0  # backward closure at the right edge


def test_generator_on_identity_samples():
    # B = x^2, g = x: Dg is exactly 1, so (M g)(j) = x_j^2; at x = 2 it is 4
    grid = Grid(10.0, 5)
    op = DiscreteGenerator.from_field(parse("x^2"), grid, 1.0)
    out = op.apply_generator(grid.nodes.copy())
    np.testing.assert_array_equal(out, grid.nodes**2)
    assert out[1] == 4.0


def test_zero_field_makes_identity_residual():
    grid = Grid(4.0, 8)
    op = DiscreteGenerator(grid, np.zeros(9), 1.0)
    g = np.linspace(-1.0, 1.0, 9)
    np.testing.assert_array_equal(op.residual(g), g)
    np.testing.assert_array_equal(dense.gradient(op, g), g)


def test_objective_zero_field():
    grid = Grid(4.0, 3)
    op = DiscreteGenerator(grid, np.zeros(4), 1.0)
    g = np.array([1.0, 0.0, -1.0, 0.0])  # sum of squares 2
    assert dense.objective(op, g) == 1.0
    assert dense.objective(op, np.zeros(4)) == 0.0


def test_residual_at_field_zeros_is_lambda_g():
    # rows where the field vanishes reduce to lam * g exactly
    grid = Grid(10.0, 40)  # x = 1 is node 4
    lam = 1.75
    op = DiscreteGenerator.from_field(parse("x*(x-1)"), grid, lam)
    g = np.sin(grid.nodes)
    r = op.residual(g)
    for j in np.flatnonzero(op.v == 0.0):
        assert r[j] == lam * g[j]


def test_matches_dense_difference():
    rng = np.random.default_rng(7)
    for _ in range(5):
        op = make_operator(rng)
        D = dense.difference(op)
        g = rng.standard_normal(len(op.v))
        np.testing.assert_allclose(op.apply_difference(g), D @ g, rtol=1e-12)
        np.testing.assert_allclose(
            op.apply_difference_transpose(g), D.T @ g, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            op.residual(g), op.lam * g - op.v * (D @ g), rtol=1e-12, atol=1e-12
        )
        R = op.lam * np.eye(len(op.v)) - op.v[:, None] * D
        ab = op.residual_bands()
        for i, j in np.ndindex(R.shape):
            want = ab[1 + i - j, j] if abs(i - j) <= 1 else 0.0
            assert R[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_transpose_is_adjoint():
    rng = np.random.default_rng(21)
    for _ in range(10):
        op = make_operator(rng)
        g = rng.standard_normal(len(op.v))
        w = rng.standard_normal(len(op.v))
        lhs = float(op.apply_difference(g) @ w)
        rhs = float(g @ op.apply_difference_transpose(w))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)
        # and for the shifted operator R as a whole
        assert float(op.residual(g) @ w) == pytest.approx(
            float(g @ op.residual_transpose(w)), rel=1e-11, abs=1e-11
        )


KERNEL_FIELDS = ["x^2", "x*(x-1)", "-x^2", "sin(x)", "0", "x*(x-1)*(x-3)"]


def kernel_vectors(n1, rng):
    """Random, with exact zeros, and made of signed zeros alone."""
    g = rng.standard_normal(n1)
    holes = g.copy()
    holes[rng.integers(0, n1, size=n1 // 3)] = 0.0
    holes[rng.integers(0, n1, size=n1 // 5)] = -0.0
    signed = np.where(rng.integers(0, 2, size=n1) == 1, 0.0, -0.0)
    return [g, holes, signed, np.zeros(n1), -np.zeros(n1)]


def assert_bitwise(a, b):
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("text", KERNEL_FIELDS)
@pytest.mark.parametrize("n", [3, 40, 125])
def test_difference_transpose_is_bitwise_the_scatter(text, n):
    rng = np.random.default_rng(n)
    op = DiscreteGenerator.from_field(parse(text), Grid(10.0, n), 1.0)
    for w in kernel_vectors(n + 1, rng):
        assert_bitwise(op.apply_difference_transpose(w), dense.difference_transpose(op, w))
        # and so is R^T, which the descent applies every step
        assert_bitwise(
            op.residual_transpose(w),
            op.lam * w - dense.difference_transpose(op, op.v * w),
        )


@pytest.mark.parametrize("text", KERNEL_FIELDS)
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_residual_bands_are_bitwise_the_scatter(text, lam):
    for n in (3, 40, 125):
        op = DiscreteGenerator.from_field(parse(text), Grid(10.0, n), lam)
        assert_bitwise(op.residual_bands(), dense.residual_bands(op))


def test_kernels_are_bitwise_the_scatter_on_signed_zero_fields():
    # v made of +-0 and small integers: some of the terms are -0.0
    rng = np.random.default_rng(5)
    v = rng.choice([0.0, -0.0, 1.0, -1.0, 2.0], size=31)
    op = DiscreteGenerator(Grid(3.0, 30), v, 1.0)
    assert_bitwise(op.residual_bands(), dense.residual_bands(op))
    for w in kernel_vectors(31, rng):
        assert_bitwise(op.apply_difference_transpose(w), dense.difference_transpose(op, w))


def test_only_the_residual_depends_on_lam():
    op = DiscreteGenerator.from_field(parse("x*(x-1)"), Grid(10.0, 40), 1.0)
    # an operator at another lam factors Q bitwise the same; R is the one
    # thing that depends on lam
    fresh = DiscreteGenerator.from_field(parse("x*(x-1)"), Grid(10.0, 40), 2.0)
    assert Preconditioner(fresh)._factor.tobytes() == Preconditioner(op)._factor.tobytes()
    g = np.sin(op.grid.nodes)
    assert_bitwise(fresh.residual(g), 2.0 * g - op.apply_generator(g))
    assert_bitwise(fresh.apply_generator(g), op.apply_generator(g))


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_adjointness_property(seed):
    rng = np.random.default_rng(seed)
    op = make_operator(rng, n=int(rng.integers(2, 20)))
    g = rng.standard_normal(len(op.v))
    w = rng.standard_normal(len(op.v))
    lhs = float(op.apply_difference(g) @ w)
    rhs = float(g @ op.apply_difference_transpose(w))
    scale = 1.0 + abs(lhs)
    assert abs(lhs - rhs) / scale < 1e-10


# --------------------------------------------------------------------------
# linearity
# --------------------------------------------------------------------------

def test_generator_linearity_exact_on_dyadic_data():
    # every quantity is a small dyadic rational and the spacing is 1, so
    # all arithmetic is exact and equality must hold bit for bit
    rng = np.random.default_rng(3)
    grid = Grid(8.0, 8)
    assert grid.h == 1.0
    v = rng.integers(-512, 512, size=9) / 64.0
    op = DiscreteGenerator(grid, v, 1.5)
    f = rng.integers(-512, 512, size=9) / 64.0
    g = rng.integers(-512, 512, size=9) / 64.0
    for a, b in ((0.5, 2.0), (1.25, -0.75), (3.0, 0.0)):
        lhs = op.apply_generator(a * f + b * g)
        rhs = a * op.apply_generator(f) + b * op.apply_generator(g)
        np.testing.assert_array_equal(lhs, rhs)
        np.testing.assert_array_equal(
            op.residual(a * f + b * g),
            a * op.residual(f) + b * op.residual(g),
        )


def test_generator_linearity_on_general_floats():
    rng = np.random.default_rng(4)
    op = make_operator(rng, n=25)
    f = rng.standard_normal(26)
    g = rng.standard_normal(26)
    a, b = 0.3141, -2.718
    np.testing.assert_allclose(
        op.apply_generator(a * f + b * g),
        a * op.apply_generator(f) + b * op.apply_generator(g),
        rtol=1e-13,
        atol=1e-13,
    )


# --------------------------------------------------------------------------
# preconditioner
# --------------------------------------------------------------------------

def test_preconditioner_is_identity_for_zero_field():
    grid = Grid(4.0, 6)
    op = DiscreteGenerator(grid, np.zeros(7), 1.0)
    P = Preconditioner(op)
    U = dense.upper_factor(P)
    np.testing.assert_allclose(U.T @ U, dense.preconditioner(op), rtol=1e-12)
    r = np.linspace(-2.0, 2.0, 7)
    np.testing.assert_array_equal(P.solve(r), r)


def test_preconditioner_matches_dense_tiny_case():
    grid = Grid(10.0, 5)
    op = DiscreteGenerator.from_field(parse("x^2"), grid, 1.0)
    P = Preconditioner(op)
    Q = dense.preconditioner(op)
    U = dense.upper_factor(P)
    np.testing.assert_allclose(U.T @ U, Q, rtol=1e-12)
    g = np.array([0.5, -1.0, 2.0, 0.0, 1.5, -0.5])
    np.testing.assert_allclose(P.solve(Q @ g), g, rtol=1e-12, atol=1e-12)


def test_preconditioner_quadratic_form_dominates_identity():
    # Q - I is a Gram matrix, so g'Qg >= g'g for every g
    rng = np.random.default_rng(11)
    Q = dense.preconditioner(make_operator(rng, n=20))
    for _ in range(100):
        g = rng.standard_normal(21)
        assert float(g @ Q @ g) >= float(g @ g) * (1.0 - 1e-12)


def test_preconditioner_solve_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(10):
        op = make_operator(rng, n=int(rng.integers(5, 40)))
        P = Preconditioner(op)
        r = rng.standard_normal(op.grid.n + 1)
        back = dense.preconditioner(op) @ P.solve(r)
        assert np.max(np.abs(back - r)) <= 1e-10 * np.max(np.abs(r))


def test_preconditioner_solve_matches_dense_solver():
    rng = np.random.default_rng(17)
    grid = Grid(10.0, 5)
    op = DiscreteGenerator.from_field(parse("x^2"), grid, 1.0)
    P = Preconditioner(op)
    r = rng.standard_normal(6)
    expected = np.linalg.solve(dense.preconditioner(op), r)
    np.testing.assert_allclose(P.solve(r), expected, rtol=1e-10, atol=1e-12)


def test_preconditioner_solve_is_bitwise_cho_solve_banded():
    rng = np.random.default_rng(23)
    op = DiscreteGenerator.from_field(parse("x^2"), Grid(10.0, 200), 1.0)
    P = Preconditioner(op)
    r = rng.standard_normal(201)
    assert P.solve(r).tobytes() == cho_solve_banded((P._factor, False), r).tobytes()
    for bad in (np.nan, np.inf, -np.inf):
        r[17] = bad
        with pytest.raises(ValueError):
            P.solve(r)


def exact_pivots(op):
    """Cholesky pivots of Q = I + C^T C in exact rational arithmetic.

    The stencil is read off the dense D (row j's first nonzero column is
    its left endpoint); m_j = v_j / h is formed exactly from the floats.
    """
    h = Fraction(op.grid.h)
    n1 = op.grid.n + 1
    diag = [Fraction(1)] * n1
    off = [Fraction(0)] * (n1 - 1)
    for j, row in enumerate(dense.difference(op)):
        left = int(np.flatnonzero(row)[0])
        w = (Fraction(float(op.v[j])) / h) ** 2
        diag[left] += w
        diag[left + 1] += w
        off[left] -= w
    pivots = [diag[0]]
    for k in range(1, n1):
        pivots.append(diag[k] - off[k - 1] ** 2 / pivots[-1])
    return pivots


@pytest.mark.parametrize(
    "text,z,n",
    [("exp(x)", 40.0, 20), ("exp(x)", 20.0, 20), ("x^3", 40.0, 20), ("x*(x-1)", 10.0, 12)],
)
def test_preconditioner_pivots_are_exact(text, z, n):
    # (v/h)^2 eps is far above 1 on the exp(x) grids, where Cholesky of the
    # formed Q = I + C^T C returns pivots off by 5x and 1e17 without raising
    op = DiscreteGenerator.from_field(parse(text), Grid(z, n), 1.0)
    pivots = Preconditioner(op)._factor[1] ** 2
    for got, want in zip(pivots.tolist(), exact_pivots(op)):
        assert got >= 1.0
        assert abs(Fraction(got) - want) <= 2e-15 * want


def test_preconditioner_rejects_an_overflowing_field():
    # (v/h)^2 reaches 1e404 at the right end; no warning escapes
    op = DiscreteGenerator.from_field(parse("1e200*x"), Grid(10.0, 40), 1.0)
    with pytest.raises(ValueError, match="overflow"):
        Preconditioner(op)


def test_preconditioner_positive_definite_eigenvalues():
    rng = np.random.default_rng(19)
    op = make_operator(rng, n=15)
    eigs = np.linalg.eigvalsh(dense.preconditioner(op))
    assert np.all(eigs >= 1.0 - 1e-10)  # Q = I + PSD part


# --------------------------------------------------------------------------
# gradient
# --------------------------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(5):
        op = make_operator(rng, n=8)
        g = rng.standard_normal(9)
        grad = dense.gradient(op, g)
        eps = 1e-6 * (1.0 + np.max(np.abs(g)))
        fd = np.empty_like(grad)
        for j in range(9):
            bump = np.zeros(9)
            bump[j] = eps
            fd[j] = (
                dense.objective(op, g + bump) - dense.objective(op, g - bump)
            ) / (2 * eps)
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)


def test_gradient_matches_dense_normal_equations():
    rng = np.random.default_rng(29)
    op = make_operator(rng, n=10)
    R = dense.residual(op)
    g = rng.standard_normal(11)
    np.testing.assert_allclose(
        dense.gradient(op, g), R.T @ (R @ g), rtol=1e-11, atol=1e-11
    )


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_operator_validation():
    grid = Grid(5.0, 10)
    with pytest.raises(ValueError):
        DiscreteGenerator(grid, np.zeros(5), 1.0)  # wrong length
    with pytest.raises(ValueError):
        DiscreteGenerator(grid, np.full(11, np.nan), 1.0)


def test_from_field_samples_nodes():
    grid = Grid(10.0, 4)
    op = DiscreteGenerator.from_field(parse("x^2"), grid, 1.0)
    np.testing.assert_array_equal(op.v, grid.nodes**2)
