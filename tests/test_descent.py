"""Preconditioned steepest descent: step choice, stopping, equivariance."""

import math

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded, solve_banded

import dense
from blowup.descent import (
    COLLAPSE_RATIO,
    CYCLE_STREAK,
    CYCLE_TOL,
    RATIO_GATE,
    DescentConfig,
    _in_span,
    initial_vector,
    near_null,
    run_descent,
)
from blowup.discrete import DiscreteGenerator, Grid, Preconditioner
from blowup.expr import parse


def zero_field_operator(n=8, lam=1.0):
    grid = Grid(4.0, n)
    return DiscreteGenerator(grid, np.zeros(n + 1), lam)


def random_operator(rng, n=12):
    grid = Grid(6.0, n)
    v = rng.standard_normal(n + 1)
    lam = float(rng.uniform(0.3, 3.0))
    return DiscreteGenerator(grid, v, lam)


# --------------------------------------------------------------------------
# optimal step
# --------------------------------------------------------------------------

def test_optimal_step_identity_residual():
    # v = 0, lam = 1 makes R the identity; stepping by 1 along g lands on 0
    op = zero_field_operator()
    g = np.linspace(1.0, 2.0, 9)
    s, stalled = dense.exact_step(op, g, g)
    assert s == 1.0
    assert not stalled
    assert dense.objective(op, g - s * g) == 0.0


def test_optimal_step_dominates_line_scan():
    rng = np.random.default_rng(5)
    op = random_operator(rng, n=5)  # 6 nodes
    g = rng.standard_normal(6)
    d = rng.standard_normal(6)
    s_star, stalled = dense.exact_step(op, g, d)
    assert not stalled
    best = dense.objective(op, g - s_star * d)
    for s in np.linspace(-2 * s_star, 2 * s_star, 50):
        assert best <= dense.objective(op, g - s * d) + 1e-12 * (1.0 + best)


def test_optimal_step_flags_stagnation():
    op = zero_field_operator()
    g = np.ones(9)
    s, stalled = dense.exact_step(op, g, np.zeros(9))  # R d = 0 while R g != 0
    assert s == 0.0
    assert stalled


# --------------------------------------------------------------------------
# run_descent
# --------------------------------------------------------------------------

def test_one_step_exact_solve_when_residual_is_scaled_identity():
    # R = lam * I for a zero field; one exact step reaches the minimizer
    op = zero_field_operator(lam=2.0)
    trace = run_descent(op)
    assert trace.iterations == 1
    assert trace.final_norm == 0.0
    assert trace.norm_ratio == 0.0
    assert trace.rel_residual is None
    assert trace.objectives[-1] == 0.0


def test_near_one_step_for_non_dyadic_lambda():
    op = zero_field_operator(lam=3.0)
    trace = run_descent(op)
    assert trace.iterations <= 3
    assert trace.final_norm <= 1e-14


def test_objectives_non_increasing():
    rng = np.random.default_rng(31)
    for _ in range(10):
        op = random_operator(rng)
        trace = run_descent(op, DescentConfig(max_iters=300))
        phis = np.array(trace.objectives)
        assert np.all(np.diff(phis) <= 0.0)
        assert np.all(np.isfinite(phis))


def test_trace_records_initial_objective_and_iteration_count():
    op = zero_field_operator(lam=1.0)
    g0 = np.ones(9)
    trace = run_descent(op, g0=g0)
    assert trace.objectives[0] == dense.objective(op, g0)
    assert len(trace.objectives) == trace.iterations + 1
    assert trace.initial_norm == 1.0


def test_determinism_bitwise():
    rng = np.random.default_rng(37)
    op = random_operator(rng)
    cfg = DescentConfig(max_iters=150, init="random", seed=99)
    a = run_descent(op, cfg)
    b = run_descent(op, cfg)
    assert np.array_equal(a.g_final, b.g_final)
    assert a.objectives == b.objectives
    assert a.iterations == b.iterations


def test_power_of_two_scaling_is_bitwise_equivariant():
    # every arithmetic operation commutes with scaling by 4, so the whole
    # iterate sequence must scale exactly
    grid = Grid(10.0, 50)
    op = DiscreteGenerator.from_field(parse("x^2"), grid, 1.0)
    cfg = DescentConfig(max_iters=100)
    base = run_descent(op, cfg)
    scaled = run_descent(op, cfg, g0=4.0 * np.ones(51))
    assert scaled.iterations == base.iterations
    assert np.array_equal(scaled.g_final, 4.0 * base.g_final)
    assert scaled.objectives == [16.0 * p for p in base.objectives]


@pytest.mark.parametrize(
    "text,max_iters,reason",
    [
        ("x^2", 400, "certified"),  # by the span test
        ("-x^2", 1000, "collapsed"),  # predicted from the two-step cycle
        ("x^2", 20000, "certified"),  # by the cycle, after about 80 steps
    ],
)
def test_power_of_two_scaling_holds_through_early_stops(text, max_iters, reason):
    # every early stop tests quantities relative to the iterate's own size,
    # and the step sizes and the pair rate do not change when g is scaled,
    # so they fire at the same step of the scaled run
    op = DiscreteGenerator.from_field(parse(text), Grid(10.0, 100), 1.0)
    cfg = DescentConfig(max_iters=max_iters)
    base = run_descent(op, cfg)
    scaled = run_descent(op, cfg, g0=4.0 * np.ones(101))
    assert base.stop_reason == scaled.stop_reason == reason
    assert scaled.iterations == base.iterations
    assert np.array_equal(scaled.g_final, 4.0 * base.g_final)


def test_scale_equivariance_of_trace_summary_under_seven():
    grid = Grid(10.0, 100)
    op = DiscreteGenerator.from_field(parse("x^2"), grid, 1.0)
    cfg = DescentConfig(max_iters=400)
    base = run_descent(op, cfg)
    scaled = run_descent(op, cfg, g0=7.0 * np.ones(101))
    assert scaled.norm_ratio == pytest.approx(base.norm_ratio, rel=1e-12)
    assert scaled.rel_residual == pytest.approx(base.rel_residual, rel=1e-12)
    assert scaled.final_norm == pytest.approx(7.0 * base.final_norm, rel=1e-12)


def test_stop_grad_halts_early():
    grid = Grid(10.0, 100)
    op = DiscreteGenerator.from_field(parse("x^2"), grid, 1.0)
    loose = run_descent(op, DescentConfig(max_iters=20000, stop_grad=1e-2))
    assert loose.iterations < 20000
    assert loose.stop_reason == "converged"


def test_explicit_start_vector():
    op = zero_field_operator()
    trace = run_descent(op, g0=np.zeros(9))
    assert trace.iterations == 0
    assert trace.initial_norm == 0.0
    assert trace.norm_ratio == 0.0
    assert trace.rel_residual is None
    with pytest.raises(ValueError):
        run_descent(op, g0=np.ones(3))


def test_initial_vector_modes():
    ones = initial_vector(5, DescentConfig())
    np.testing.assert_array_equal(ones, 1.0)
    r1 = initial_vector(5, DescentConfig(init="random", seed=7))
    r2 = initial_vector(5, DescentConfig(init="random", seed=7))
    r3 = initial_vector(5, DescentConfig(init="random", seed=8))
    np.testing.assert_array_equal(r1, r2)
    assert not np.array_equal(r1, r3)


def test_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(max_iters=0)
    with pytest.raises(ValueError):
        DescentConfig(stop_grad=-1.0)
    with pytest.raises(ValueError):
        DescentConfig(init="sobol")


def test_random_start_still_finds_the_eigenfunction():
    # the verdict mechanism must not depend on the all-ones start
    grid = Grid(10.0, 100)
    op = DiscreteGenerator.from_field(parse("x^2"), grid, 1.0)
    trace = run_descent(op, DescentConfig(init="random", seed=3))
    assert trace.norm_ratio > 0.05
    assert trace.rel_residual < 1e-2


def test_global_field_collapses():
    grid = Grid(10.0, 100)
    op = DiscreteGenerator.from_field(parse("-x^2"), grid, 1.0)
    trace = run_descent(op)
    assert trace.norm_ratio <= COLLAPSE_RATIO
    assert trace.stop_reason == "collapsed"
    assert not trace.stagnated


def test_certified_stop_advances_the_survivor_over_the_rest_of_the_budget():
    grid = Grid(10.0, 200)
    op = DiscreteGenerator.from_field(parse("x^2"), grid, 1.0)
    cfg = DescentConfig(max_iters=20000)
    trace = run_descent(op, cfg)
    null = near_null(op)
    assert trace.stop_reason == "certified"
    assert trace.iterations < 100
    assert trace.budget_margin == null.mu * cfg.max_iters
    # the stopped iterate, rescaled, is the survivor: a multiple of w
    g = trace.g_final / np.linalg.norm(trace.g_final)
    assert min(np.max(np.abs(g - null.w)), np.max(np.abs(g + null.w))) < 1e-5
    # a budget that ends at the same step keeps the iterate as it is; the
    # certified stop shrinks it by 2 mu / (1 + lam^2) = mu per step left
    shorter = run_descent(op, DescentConfig(max_iters=trace.iterations))
    assert shorter.stop_reason == "cap"
    shrink = shorter.norm_ratio / trace.norm_ratio - 1.0
    rest = cfg.max_iters - trace.iterations
    assert shrink == pytest.approx(null.mu * rest, rel=1e-2)


@pytest.mark.parametrize(
    "text,n,z,reason,most",
    [("-x^2", 800, 40.0, "collapsed", 100), ("x^2", 100, 10.0, "certified", 200)],
)
def test_the_two_step_cycle_ends_the_run_early(text, n, z, reason, most):
    # stepped out, -x^2 collapses only after about 300 steps, and x^2 on
    # this grid stays outside the span test's tolerance for 16 000
    op = DiscreteGenerator.from_field(parse(text), Grid(z, n), 1.0)
    trace = run_descent(op)
    assert trace.stop_reason == reason
    assert trace.iterations <= most
    assert len(trace.objectives) == trace.iterations + 1
    if reason == "collapsed":
        assert 0.0 < trace.norm_ratio <= COLLAPSE_RATIO


def test_cap_is_reported_as_such():
    op = DiscreteGenerator.from_field(parse("x^2"), Grid(10.0, 100), 1.0)
    trace = run_descent(op, DescentConfig(max_iters=5))
    assert trace.iterations == 5
    assert trace.stop_reason == "cap"


def reference_descent(op, config):
    """The descent loop in its first form, R g applied four times a step.

    dense.gradient, dense.exact_step and dense.objective each apply R to g
    (or to g_next) afresh, and Q is solved through cho_solve_banded.  run_descent
    carries R g forward and calls dpbtrs itself; the arithmetic is the same.
    The stop tests are run_descent's, the count of pairs to collapse found
    by a linear search.
    """
    g = initial_vector(op.grid.n + 1, config)
    precond = Preconditioner(op)
    ab = np.zeros((2, op.grid.n + 1))
    ab[0, 1:] = precond.off_diagonal
    ab[1] = precond.diagonal
    factor = cholesky_banded(ab, lower=False)
    null = near_null(op)
    shrink = 2.0 * null.mu / (1.0 + op.lam**2)

    initial_norm = float(np.max(np.abs(g)))
    objectives = [dense.objective(op, g)]
    iterations = 0
    stop_reason = "cap"
    steps, coefficients, streak = [], [], 0
    for _ in range(config.max_iters):
        grad = dense.gradient(op, g)
        if float(np.linalg.norm(grad)) <= config.stop_grad * float(np.linalg.norm(g)):
            stop_reason = "converged"
            break
        d = cho_solve_banded((factor, False), grad)
        s, stalled = dense.exact_step(op, g, d)
        if stalled:
            stop_reason = "stagnated"
            break
        g_next = g - s * d
        phi_next = dense.objective(op, g_next)
        if phi_next > objectives[-1]:
            stop_reason = "stagnated"
            break
        g = g_next
        objectives.append(phi_next)
        iterations += 1
        g_max = float(np.max(np.abs(g)))
        limit = COLLAPSE_RATIO * initial_norm
        if g_max <= limit:
            stop_reason = "collapsed"
            break
        rest = config.max_iters - iterations
        if len(steps) >= 2 and abs(s - steps[-2]) <= CYCLE_TOL * abs(s):
            streak += 1
        else:
            streak = 0
        steps.append(s)
        if streak < CYCLE_STREAK:
            coefficients = []
        else:
            mg = op.apply_generator(g)
            coefficients.append(float(g @ null.w + mg @ null.mw) / null.wq)
            if len(coefficients) >= 3 and coefficients[-3] != 0.0:
                rate = coefficients[-1] / coefficients[-3]
                if 0.0 < rate < 1.0 and rest > 0 and rest % 2 == 0:
                    pairs = rest // 2
                    stop_reason = "certified"
                    if rate**pairs * g_max <= limit:
                        pairs = 1
                        while rate**pairs * g_max > limit:
                            pairs += 1
                        stop_reason = "collapsed"
                    g = rate**pairs * g
                    break
        if rest > 0 and shrink * rest <= RATIO_GATE and _in_span(op, g, null):
            g = math.exp(-shrink * rest) * g
            stop_reason = "certified"
            break
    return g, objectives, iterations, stop_reason


@pytest.mark.parametrize(
    "text,n,z,lam,config,reason",
    [
        ("x^2", 200, 10.0, 1.0, DescentConfig(), "certified"),
        ("-x^2", 200, 10.0, 1.0, DescentConfig(), "collapsed"),
        ("x^2", 100, 10.0, 1.0, DescentConfig(stop_grad=1e-2), "converged"),
        ("x^2", 40, 10.0, 1.0, DescentConfig(max_iters=30), "cap"),
        ("exp(x)", 200, 40.0, 2.0, DescentConfig(), "stagnated"),
        # the cases above stop by the span test (certified) and by the cycle
        # (collapsed); this one is certified by the cycle
        ("x^2", 100, 10.0, 1.0, DescentConfig(), "certified"),
    ],
)
def test_descent_is_bitwise_the_reference_loop(text, n, z, lam, config, reason):
    op = DiscreteGenerator.from_field(parse(text), Grid(z, n), lam)
    g, objectives, iterations, stop_reason = reference_descent(op, config)
    trace = run_descent(op, config)
    assert stop_reason == reason
    assert trace.stop_reason == stop_reason
    assert trace.iterations == iterations
    assert trace.objectives == objectives
    assert trace.g_final.tobytes() == g.tobytes()


# --------------------------------------------------------------------------
# near_null
# --------------------------------------------------------------------------

def test_near_null_survives_an_exactly_singular_residual():
    # B = x makes v_j / h = j on every grid, and lam = 1 an exact eigenvalue
    # of R's recurrence: the banded solve hits a zero pivot
    op = DiscreteGenerator.from_field(parse("x"), Grid(10.0, 40), 1.0)
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded((1, 1), op.residual_bands(), np.ones(41))
    null = near_null(op)
    assert np.all(np.isfinite(null.w))
    assert np.linalg.norm(null.w) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(dense.residual(op) @ null.w) <= 1e-10


@pytest.mark.parametrize("text", ["x^2", "x*(x-1)", "x", "x^3"])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [20, 60])
def test_near_null_matches_the_dense_smallest_singular_vector(text, lam, n):
    op = DiscreteGenerator.from_field(parse(text), Grid(10.0, n), lam)
    R = dense.residual(op)
    _, sigmas, vt = np.linalg.svd(R)
    v = vt[-1]
    null = near_null(op)
    # each inverse-iteration step on R^T R shrinks every other singular
    # direction by (sigma_min / sigma_i)^2 relative to v
    err = min(np.linalg.norm(null.w - v), np.linalg.norm(null.w + v))
    assert err <= (sigmas[-1] / sigmas[-2]) ** 4 + 1e-10
    rw = R @ null.w
    assert np.linalg.norm(rw) == pytest.approx(sigmas[-1], rel=1e-6, abs=1e-10)
    Q = dense.preconditioner(op)
    assert null.wq == pytest.approx(float(null.w @ Q @ null.w), rel=1e-8)
    assert null.mu == pytest.approx(
        float(rw @ rw) / float(null.w @ Q @ null.w), rel=1e-8, abs=1e-20
    )
