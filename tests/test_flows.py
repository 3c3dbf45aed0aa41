"""Closed-form flows and the numeric escape-time probe."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from blowup.expr import parse
from blowup.flows import BLEW_UP, SURVIVED, IntegrationError, estimate_escape_time
from closed_forms import CLOSED_FORM_FLOWS, LOGISTIC, NEGSQ, SQ, sample_eigenfunction


def test_registry():
    assert set(CLOSED_FORM_FLOWS) == {"sq", "logistic", "negsq"}
    assert CLOSED_FORM_FLOWS["sq"] is SQ


def test_escape_times_quadratic():
    assert SQ.escape_time(2.0) == 0.5
    assert SQ.escape_time(0.5) == 2.0
    assert SQ.escape_time(0.0) is None  # fixed point, lives forever


def test_escape_times_logistic():
    # [0, 1] is invariant and global; above 1 the trajectory blows up
    assert LOGISTIC.escape_time(0.0) is None
    assert LOGISTIC.escape_time(0.5) is None
    assert LOGISTIC.escape_time(1.0) is None
    assert LOGISTIC.escape_time(2.0) == pytest.approx(math.log(2.0))
    assert LOGISTIC.escape_time(1.5) == pytest.approx(math.log(3.0))


def test_escape_times_negative_quadratic():
    for x in (0.0, 0.1, 1.0, 100.0):
        assert NEGSQ.escape_time(x) is None


def test_escape_time_rejects_negative_state():
    with pytest.raises(ValueError):
        SQ.escape_time(-1.0)


def test_apply_known_values():
    assert SQ.apply(0.25, 2.0) == 4.0
    assert NEGSQ.apply(1.0, 1.0) == 0.5
    assert LOGISTIC.apply(0.0, 0.7) == pytest.approx(0.7)


def test_apply_rejects_times_past_escape():
    with pytest.raises(ValueError):
        SQ.apply(0.5, 2.0)  # exactly the escape time
    with pytest.raises(ValueError):
        SQ.apply(1.0, 2.0)
    with pytest.raises(ValueError):
        SQ.apply(-0.1, 2.0)
    with pytest.raises(ValueError):
        LOGISTIC.apply(math.log(2.0) + 1e-9, 2.0)


def test_logistic_interval_is_invariant():
    for x in (0.0, 0.25, 0.5, 0.99, 1.0):
        for t in (0.1, 1.0, 10.0, 100.0):
            y = LOGISTIC.apply(t, x)
            assert 0.0 <= y <= 1.0


def test_field_matches_field_text():
    for flow in CLOSED_FORM_FLOWS.values():
        expr = parse(flow.field_text)
        for x in (0.0, 0.3, 1.0, 2.7, 9.5):
            assert flow.field(x) == pytest.approx(expr(x), rel=1e-15, abs=1e-15)


@settings(max_examples=200)
@given(
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_semigroup_law_quadratic(x, a, b):
    # stay strictly inside the blow-up time 1/x
    m = SQ.escape_time(x)
    t, s = a * 0.45 * m, b * 0.45 * m
    lhs = SQ.apply(t, SQ.apply(s, x))
    rhs = SQ.apply(t + s, x)
    assert lhs == pytest.approx(rhs, rel=1e-9)


@settings(max_examples=200)
@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_semigroup_law_negative_quadratic(x, t, s):
    lhs = NEGSQ.apply(t, NEGSQ.apply(s, x))
    rhs = NEGSQ.apply(t + s, x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-300)


def test_sample_eigenfunction_uses_zero_for_infinite_times():
    xs = [0.0, 1.0, 2.0]
    values = sample_eigenfunction(SQ.escape_time, 1.0, xs)
    assert values[0] == 0.0
    assert values[1] == pytest.approx(math.exp(-1.0))
    assert values[2] == pytest.approx(math.exp(-0.5))

    on_interval = sample_eigenfunction(LOGISTIC.escape_time, 2.0, [0.0, 0.5, 1.0])
    assert on_interval == [0.0, 0.0, 0.0]


# --------------------------------------------------------------------------
# numeric probe
# --------------------------------------------------------------------------

def test_estimate_matches_quadratic_escape():
    field = parse("x^2")
    for x in (0.5, 1.0, 2.0, 5.0):
        est = estimate_escape_time(field, x)
        assert est.status == BLEW_UP
        assert est.time == pytest.approx(1.0 / x, rel=1e-6)
        assert est.steps > 0


def test_estimate_matches_logistic_escape():
    field = parse("x*(x-1)")
    for x in (1.5, 2.0, 5.0):
        est = estimate_escape_time(field, x)
        assert est.status == BLEW_UP
        assert est.time == pytest.approx(math.log(x / (x - 1.0)), rel=1e-6)


def test_estimate_survival():
    est = estimate_escape_time(parse("-x^2"), 5.0)
    assert est.status == SURVIVED
    assert est.time == 10.0
    assert 0.0 < est.final_state < 5.0
    assert not est.escaped

    still = estimate_escape_time(parse("0"), 3.0, horizon=2.0)
    assert still.status == SURVIVED
    assert still.final_state == 3.0


def test_estimate_logistic_interval_survives():
    est = estimate_escape_time(parse("x*(x-1)"), 0.5, horizon=5.0)
    assert est.status == SURVIVED
    assert est.final_state < 0.5  # decays toward the fixed point at 0


def test_estimate_cubic_field():
    # escape time of u' = u^3 from x is 1/(2 x^2)
    est = estimate_escape_time(parse("x^3"), 1.0)
    assert est.escaped
    assert est.time == pytest.approx(0.5, rel=1e-6)


def test_estimate_exponential_field_commits_by_timescale():
    # u' = exp(u) escapes from x at exp(-x); exp overflows long before the
    # cap, so the probe must stop on the geometric tail of its time pieces
    # (by u = 128) instead of reaching the cap.  The name is older than the
    # probe: no timescale is read any more.  From x = 0 the first piece,
    # [0, 1], runs in ln(1 + u), since ln u is unbounded there
    for x in (0.0, 1.0):
        est = estimate_escape_time(parse("exp(x)"), x)
        assert est.escaped
        assert est.time == pytest.approx(math.exp(-x), rel=1e-6)


def test_estimate_argument_validation():
    field = parse("x^2")
    with pytest.raises(ValueError):
        estimate_escape_time(field, 1.0, horizon=0.0)
    with pytest.raises(ValueError):
        estimate_escape_time(field, 2.0, cap=1.0)
    # x^2 from 1 escapes at t = 1, inside the default horizon; settings
    # under which the probe would call it SURVIVED, or report a NaN time,
    # are refused
    for bad in (
        {"tol": 0.0},
        {"tol": -1e-10},
        {"h0": -1.0},
        {"h0": 0.0},
        {"horizon": math.nan},
        {"horizon": math.inf},
        {"cap": math.inf},
        {"cap": math.nan},
    ):
        with pytest.raises(ValueError):
            estimate_escape_time(field, 1.0, **bad)


def test_estimate_propagates_broken_fields():
    # ln(x) is undefined left of 0 and the trajectory from 0.5 heads there
    with pytest.raises((IntegrationError, ArithmeticError)):
        estimate_escape_time(parse("ln(x)"), 0.5, horizon=5.0)


def test_estimate_is_deterministic():
    field = parse("x^2")
    a = estimate_escape_time(field, 2.0)
    b = estimate_escape_time(field, 2.0)
    assert a == b


def test_closed_form_and_numeric_probe_agree_everywhere_sampled():
    # the two escape-time routes are fully independent: closed form vs RK4
    field = parse("x^2")
    for x in np.linspace(0.4, 6.0, 7):
        est = estimate_escape_time(field, float(x))
        assert est.time == pytest.approx(SQ.escape_time(float(x)), rel=1e-6)


# --------------------------------------------------------------------------
# time as a function of the state (B(x0) > 0)
# --------------------------------------------------------------------------

HORIZON, CAP = 50.0, 1e8


@pytest.mark.parametrize("text", ["x", "x*ln(1+x)"])
@pytest.mark.parametrize("x0", [0.625, 5.0, 9.9])
def test_global_growth_survives_its_cap_crossing(text, x0):
    # both cross the cap well inside the horizon, but their piece times do
    # not shrink geometrically (ratios 1 and about 0.96 at the cap)
    est = estimate_escape_time(parse(text), x0, horizon=HORIZON, cap=CAP)
    assert est.status == SURVIVED
    assert est.time == HORIZON


@pytest.mark.parametrize("x0", [7.3, 8.0, 10.0])
def test_exponential_field_escapes_from_large_states(x0):
    est = estimate_escape_time(parse("exp(x)"), x0, horizon=HORIZON, cap=CAP)
    assert est.status == BLEW_UP
    assert est.time == pytest.approx(math.exp(-x0), rel=1e-6)


def test_trajectory_stops_at_a_zero_of_the_field():
    # from 0.5 the flow of sin climbs toward its zero at pi and never passes it
    est = estimate_escape_time(parse("sin(x)"), 0.5, horizon=HORIZON, cap=CAP)
    assert est.status == SURVIVED
    assert 3.0 < est.final_state <= math.pi


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1.2, max_value=4.0),
    st.floats(min_value=0.05, max_value=10.0, exclude_min=True),
)
def test_power_fields_cross_the_cap_at_the_closed_form_time(p, x0):
    # m(x) = x^(1-p) / (p-1) is the escape time of u' = u^p from x
    def m(x):
        return x ** (1.0 - p) / (p - 1.0)

    crossing = m(x0) - m(CAP)
    # within the tolerance of the horizon either verdict is right
    assume(abs(crossing - HORIZON) > 1e-6 * HORIZON)
    est = estimate_escape_time(parse("x^%r" % p), x0, horizon=HORIZON, cap=CAP)
    if crossing > HORIZON:
        assert est.status == SURVIVED
    else:
        assert est.status == BLEW_UP
        assert est.time == pytest.approx(crossing, rel=1e-6)


@pytest.mark.parametrize(
    "text, x0, most",
    [
        ("x^3", 9.9, 4_999),    # stops once its piece times are about 1e-12 of t
        ("exp(x)", 0.0, 4_999),
        ("exp(x)", 10.0, 4_999),
        ("sin(x)", 3.1, 50),    # brackets the zero at pi a doubled Newton step ahead
    ],
    ids=["x^3-9.9", "exp(x)-0.0", "exp(x)-10.0", "sin(x)-3.1"],
)
def test_probe_work_is_bounded(text, x0, most):
    est = estimate_escape_time(parse(text), x0, horizon=HORIZON, cap=CAP)
    assert est.steps <= most


def test_probe_gives_up_after_its_trial_budget():
    # B oscillates with period 0.006, so reaching the horizon would take
    # about 500 000 steps (54 000 at a tenth of the frequency); the probe
    # raises instead of running on
    with pytest.raises(IntegrationError):
        estimate_escape_time(parse("2 + sin(1000*x)"), 0.0, horizon=HORIZON, cap=CAP)


# --------------------------------------------------------------------------
# one path in both directions
# --------------------------------------------------------------------------

@pytest.mark.parametrize("x0", [-2.0, -0.5])
def test_falling_quadratic_escapes_to_minus_infinity(x0):
    # u' = -u^2 from x0 < 0 is x0 / (1 + t x0), which reaches -oo at 1/|x0|
    est = estimate_escape_time(parse("-x^2"), x0, horizon=HORIZON, cap=CAP)
    assert est.status == BLEW_UP
    assert est.time == pytest.approx(1.0 / abs(x0), rel=1e-6)
    assert est.final_state == -CAP


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1.2, max_value=4.0),
    st.floats(min_value=0.05, max_value=10.0, exclude_min=True),
)
def test_mirrored_power_fields_cross_the_cap_at_the_closed_form_time(p, x0):
    # u' = -((-u)^p) from -x0 is the mirror image of u' = u^p from x0
    def m(x):
        return x ** (1.0 - p) / (p - 1.0)

    crossing = m(x0) - m(CAP)
    assume(abs(crossing - HORIZON) > 1e-6 * HORIZON)
    est = estimate_escape_time(parse("-((-x)^%r)" % p), -x0, horizon=HORIZON, cap=CAP)
    if crossing > HORIZON:
        assert est.status == SURVIVED
    else:
        assert est.status == BLEW_UP
        assert est.time == pytest.approx(crossing, rel=1e-6)


def test_a_fixed_point_survives_without_a_step():
    est = estimate_escape_time(parse("x*(x-1)"), 1.0, horizon=HORIZON, cap=CAP)
    assert est.status == SURVIVED
    assert est.time == HORIZON
    assert est.final_state == 1.0
    assert est.steps == 0


def test_a_look_ahead_outside_the_domain_is_no_bracket():
    # from 1 the flow of -sqrt(u) reaches 0 at t = 2 and stops there; the
    # sample a doubled Newton step ahead of a state u lands at -3u, where
    # x^0.5 is undefined
    est = estimate_escape_time(parse("-x^0.5"), 1.0, horizon=HORIZON, cap=CAP)
    assert est.status == SURVIVED
    assert est.final_state == 0.0


def test_a_trajectory_whose_pieces_shrink_slowly_still_reaches_zero():
    # from 1 the flow of -u^0.9 reaches 0 at t = 10, but its piece times
    # shrink by 2^-0.1 = 0.93 each, above the tail rule's 0.9: the pieces
    # run down to the least normal float, where B(0) = 0 stops it
    est = estimate_escape_time(parse("-x^0.9"), 1.0, horizon=HORIZON, cap=CAP)
    assert est.status == SURVIVED
    assert est.final_state == 0.0


def test_a_falling_trajectory_crosses_zero():
    # u' = -e^u reaches 0 at t = 1 - 1/e, passes it, and slows down for good:
    # the time to -X is e^X - 1/e, so the horizon falls near -ln(50)
    est = estimate_escape_time(parse("-exp(x)"), 1.0, horizon=HORIZON, cap=CAP)
    assert est.status == SURVIVED
    assert est.final_state == pytest.approx(-math.log(HORIZON + 1.0 / math.e), rel=1e-3)


def test_a_falling_trajectory_stops_at_a_zero_of_the_field():
    # from 4 the flow of sin falls toward its zero at pi, and a sample one
    # doubled Newton step ahead brackets it
    est = estimate_escape_time(parse("sin(x)"), 4.0, horizon=HORIZON, cap=CAP)
    assert est.status == SURVIVED
    assert est.steps <= 50
    assert math.pi <= est.final_state < 4.0
