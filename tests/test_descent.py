"""Preconditioned steepest descent: step choice, stopping, equivariance."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

import dense
from blowup.descent import (
    _SINGULAR_SHIFT,
    COLLAPSE_RATIO,
    DescentConfig,
    _inverse_iteration,
    initial_vector,
    near_null,
    run_descent,
)
from blowup.classify import SweepPlan
from blowup.discrete import DiscreteGenerator, Grid
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


def test_near_one_step_for_non_dyadic_lambda():
    op = zero_field_operator(lam=3.0)
    trace = run_descent(op)
    assert trace.iterations <= 3
    assert trace.final_norm <= 1e-14


def test_objectives_non_increasing():
    # the descent keeps no objective trace; the reference loop does, and
    # the descent is bitwise that loop
    rng = np.random.default_rng(31)
    cfg = DescentConfig(max_iters=300)
    for _ in range(10):
        op = random_operator(rng)
        g, objectives, iterations, stop_reason = dense.reference_descent(op, cfg)
        phis = np.array(objectives)
        assert np.all(np.diff(phis) <= 0.0)
        assert np.all(np.isfinite(phis))
        trace = run_descent(op, cfg)
        assert trace.stop_reason == stop_reason
        assert trace.iterations == iterations
        assert trace.g_final.tobytes() == g.tobytes()


def test_trace_records_initial_norm_and_iteration_count():
    # R = I: one step lands on 0
    op = zero_field_operator(lam=1.0)
    trace = run_descent(op, g0=np.ones(9))
    assert trace.iterations == 1
    assert trace.stop_reason == "collapsed"
    assert trace.initial_norm == 1.0


def test_determinism_bitwise():
    rng = np.random.default_rng(37)
    op = random_operator(rng)
    cfg = DescentConfig(max_iters=150, init="random", seed=99)
    a = run_descent(op, cfg)
    b = run_descent(op, cfg)
    assert np.array_equal(a.g_final, b.g_final)
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


def test_explicit_start_vector():
    op = zero_field_operator()
    trace = run_descent(op, g0=np.zeros(9))
    assert trace.iterations == 0
    assert trace.stop_reason == "stagnated"  # R d = 0 at a zero start
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
        DescentConfig(init="sobol")
    # construct-time errors, not a TypeError from range or SeedSequence
    # when the descent starts
    with pytest.raises(ValueError, match="2.5"):
        DescentConfig(max_iters=2.5)
    with pytest.raises(ValueError, match="1.5"):
        DescentConfig(init="random", seed=1.5)
    with pytest.raises(ValueError, match="seed.*-1"):
        DescentConfig(init="random", seed=-1)


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
    if reason == "collapsed":
        assert 0.0 < trace.norm_ratio <= COLLAPSE_RATIO


def test_cap_is_reported_as_such():
    op = DiscreteGenerator.from_field(parse("x^2"), Grid(10.0, 100), 1.0)
    trace = run_descent(op, DescentConfig(max_iters=5))
    assert trace.iterations == 5
    assert trace.stop_reason == "cap"


@pytest.mark.parametrize(
    "text,n,z,lam,config,reason",
    [
        ("x^2", 200, 10.0, 1.0, DescentConfig(), "certified"),
        ("-x^2", 200, 10.0, 1.0, DescentConfig(), "collapsed"),
        # a field that changes sign (backward rows) from a random start,
        # certified by the cycle
        ("x*(x-1)", 100, 10.0, 1.0, DescentConfig(init="random", seed=1), "certified"),
        ("x^2", 40, 10.0, 1.0, DescentConfig(max_iters=30), "cap"),
        ("exp(x)", 200, 40.0, 2.0, DescentConfig(), "stagnated"),
        # the first two stop by the span test (certified) and by the cycle
        # (collapsed); this one is certified by the cycle from the ones start
        ("x^2", 100, 10.0, 1.0, DescentConfig(), "certified"),
    ],
)
def test_descent_is_bitwise_the_reference_loop(text, n, z, lam, config, reason):
    op = DiscreteGenerator.from_field(parse(text), Grid(z, n), lam)
    g, _, iterations, stop_reason = dense.reference_descent(op, config)
    trace = run_descent(op, config)
    assert stop_reason == reason
    assert trace.stop_reason == stop_reason
    assert trace.iterations == iterations
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


@pytest.mark.parametrize("text", ["x^2", "x*(x-1)", "-x^2", "x", "sin(x)", "x^3"])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_near_null_is_bitwise_the_solve_banded_reference(text, lam):
    for n, z in ((40, 10.0), (200, 20.0)):
        op = DiscreteGenerator.from_field(parse(text), Grid(z, n), lam)
        ab = dense.residual_bands(op)
        start = np.random.default_rng(0).standard_normal(n + 1)
        try:
            w = dense.inverse_iteration(ab, start)
        except np.linalg.LinAlgError:
            # B = x at lam = 1: R is exactly singular
            assert (text, lam) == ("x", 1.0)
            ab[1] += _SINGULAR_SHIFT * float(np.max(np.abs(ab)))
            w = dense.inverse_iteration(ab, start)
        null = near_null(op)
        assert null.w.tobytes() == w.tobytes()
        mw = op.apply_generator(w)
        rw = lam * w - mw
        wq = 1.0 + float(mw @ mw)
        assert (null.wq, null.mu) == (wq, float(rw @ rw) / wq)


def test_inverse_iteration_keeps_solve_banded_errors():
    op = DiscreteGenerator.from_field(parse("x"), Grid(10.0, 40), 1.0)
    ab = op.residual_bands()
    start = np.random.default_rng(0).standard_normal(41)
    kept = start.copy()
    with pytest.raises(np.linalg.LinAlgError):
        _inverse_iteration(ab, start)
    ab[1] += 1.0
    for bad in (np.nan, np.inf):
        x = start.copy()
        x[7] = bad
        with pytest.raises(ValueError):
            solve_banded((1, 1), ab, x)
        with pytest.raises(ValueError):
            _inverse_iteration(ab, x)
    # a non-finite intermediate vector is caught before the next solve
    huge = ab.copy()
    huge[1] = 1e-300
    huge[0] = huge[2] = 0.0
    with pytest.raises(ValueError):
        _inverse_iteration(huge, np.full(41, 1e300))
    assert np.array_equal(start, kept)


def osgood_product(op):
    """The null vector of R's forward rows where v >= 0, unit 2-norm.

    Row j of R g = 0 reads g_{j+1} = g_j (1 + lam h / v_j): a Riemann sum
    of Osgood's int du/B in the exponent.  g is 0 below the first j with
    v_j > 0 and the product from there on, formed in logarithms.
    """
    v, h = op.v, op.grid.h
    j0 = int(np.argmax(v > 0.0))
    logs = np.full(len(v), -np.inf)
    logs[j0] = 0.0
    logs[j0 + 1 :] = np.cumsum(np.log1p(op.lam * h / v[j0:-1]))
    p = np.exp(logs - logs.max())
    return p / np.linalg.norm(p)


@pytest.mark.parametrize(
    "text", ["x^2", "x^1.5", "x^3", "x*ln(1+x)^2", "x", "1+x", "x*ln(1+x)"]
)
def test_the_survivor_is_the_discrete_osgood_product(text):
    # on every default-sweep grid; only the last row of R, a backward
    # difference, is left out of the product
    for lam in (0.5, 1.0, 2.0):
        for n, z, _ in SweepPlan(lam=lam).points():
            op = DiscreteGenerator.from_field(parse(text), Grid(z, n), lam)
            assert np.all(op.v >= 0.0)
            p = osgood_product(op)
            w = near_null(op).w
            assert min(np.max(np.abs(w - p)), np.max(np.abs(w + p))) <= 1e-5
            g = run_descent(op).g_final
            assert np.max(np.abs(g / np.linalg.norm(g) - p)) <= 1e-4


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
