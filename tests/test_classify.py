"""Verdicts, sweeps, and the trajectory-integration cross-check."""

import numpy as np
import pytest

from blowup.classify import (
    GLOBAL,
    INCONCLUSIVE,
    LOCAL,
    RHO_MAX,
    THETA_GLOBAL,
    THETA_LOCAL,
    SweepPlan,
    _label,
    classify_once,
    classify_sweep,
    cross_validate,
    probe_states,
)
from blowup.descent import COLLAPSE_RATIO, DescentConfig, run_descent
from blowup.discrete import DiscreteGenerator, Grid
from blowup.expr import parse

# small grids keep each descent fast; the full-size runs live in the
# acceptance suite
FAST = SweepPlan(ns=(100,), zs=(10.0,), lams=(1.0,))


def test_classify_once_blowup_field():
    ev = classify_once(parse("x^2"), Grid(10.0, 100), 1.0)
    assert ev.label == LOCAL
    assert ev.norm_ratio >= 0.1
    assert ev.rel_residual <= 1e-2
    assert ev.error is None


def test_classify_once_global_field():
    ev = classify_once(parse("-x^2"), Grid(10.0, 100), 1.0)
    assert ev.label == GLOBAL
    assert ev.norm_ratio <= 1e-4


def test_classify_once_zero_field():
    # identity flow: R = lam I, the descent collapses in one step
    ev = classify_once(parse("0"), Grid(10.0, 50), 1.0)
    assert ev.label == GLOBAL
    assert ev.norm_ratio == 0.0
    assert ev.rel_residual is None
    assert ev.trace.iterations == 1


def test_classify_once_respects_thresholds():
    # one step leaves the run in the buffer zone: ratio 0.569 is above
    # THETA_LOCAL, but the residual 0.169 is above RHO_MAX
    ev = classify_once(parse("x^2"), Grid(10.0, 100), 1.0, DescentConfig(max_iters=1))
    assert ev.norm_ratio >= THETA_LOCAL
    assert ev.rel_residual > RHO_MAX
    assert ev.label == INCONCLUSIVE


def test_thresholds_leave_a_buffer_above_the_collapse_ratio():
    # the descent stops collapsing iterates at COLLAPSE_RATIO, so a Global
    # threshold below it would read every Global field Inconclusive
    assert 0.0 < THETA_GLOBAL < THETA_LOCAL
    assert THETA_GLOBAL >= COLLAPSE_RATIO


def test_verdict_invariant_under_start_scaling():
    for text in ("x^2", "-x^2"):
        plain = classify_once(parse(text), Grid(10.0, 100), 1.0)
        op = DiscreteGenerator.from_field(parse(text), Grid(10.0, 100), 1.0)
        scaled = run_descent(op, g0=7.0 * np.ones(101))
        assert _label(scaled.norm_ratio, scaled.rel_residual) == plain.label


# Label and norm ratio of descents that ran to the 20 000-iteration cap,
# recorded before runs stopped early.  Local ratios were 0.2-0.95 then.
CAPPED_RUNS = [
    ("x^2", 200, 10.0, 0.5, LOCAL, 0.8704603889),
    ("x^2", 200, 10.0, 1.0, LOCAL, 0.5675473387),
    ("x^2", 200, 10.0, 2.0, LOCAL, 0.2409235077),
    ("x*(x-1)", 200, 10.0, 0.5, LOCAL, 0.8670031062),
    ("x*(x-1)", 200, 10.0, 1.0, LOCAL, 0.5670522714),
    ("x*(x-1)", 200, 10.0, 2.0, LOCAL, 0.2414485675),
    ("x", 200, 10.0, 0.5, LOCAL, 1.0650865501),
    ("x", 200, 10.0, 1.0, LOCAL, 0.7481296758),
    ("x", 200, 10.0, 2.0, LOCAL, 0.3310390851),
    ("x*ln(1+x)", 200, 10.0, 0.5, LOCAL, 0.9538290958),
    ("x*ln(1+x)", 200, 10.0, 1.0, LOCAL, 0.6488055316),
    ("x*ln(1+x)", 200, 10.0, 2.0, LOCAL, 0.2866617867),
    # certified only once the rest of the budget is small (about 1 200 steps)
    ("x*ln(1+x)", 80, 10.0, 2.0, LOCAL, 0.2844486115),
    ("-x^2", 200, 10.0, 0.5, GLOBAL, 6.510e-161),
    ("-x^2", 200, 10.0, 1.0, GLOBAL, 1.178e-161),
    ("-x^2", 200, 10.0, 2.0, GLOBAL, 2.037e-162),
    ("sin(x)", 200, 10.0, 0.5, GLOBAL, 3.972e-161),
    ("sin(x)", 200, 10.0, 1.0, GLOBAL, 3.378e-162),
    ("sin(x)", 200, 10.0, 2.0, GLOBAL, 1.026e-163),
    # the capped run used all 20 000 steps here
    ("sin(x)", 40, 20.0, 1.0, GLOBAL, 7.012e-67),
    # budget-bound: the capped run used all 20 000 steps, and the descent
    # now stops by its two-step cycle
    ("x^2", 40, 10.0, 1.0, LOCAL, 0.3765714370),
    ("x^2", 100, 10.0, 1.0, LOCAL, 0.5548121348),
    ("sin(x)", 400, 20.0, 1.0, LOCAL, 0.3995242905),
    ("sin(x)", 800, 20.0, 1.0, LOCAL, 0.7026142352),
    ("x^3", 200, 10.0, 1.0, LOCAL, 0.5222756284),
]
# the rows above that stop by the two-step cycle, (text, n, z, lam)
CYCLE_STOPS = {
    ("x^2", 40, 10.0, 1.0),
    ("x^2", 100, 10.0, 1.0),
    ("sin(x)", 400, 20.0, 1.0),
    ("sin(x)", 800, 20.0, 1.0),
    ("x^3", 200, 10.0, 1.0),
}


@pytest.mark.parametrize("text,n,z,lam,label,ratio", CAPPED_RUNS)
def test_labels_match_the_capped_run(text, n, z, lam, label, ratio):
    ev = classify_once(parse(text), Grid(z, n), lam)
    assert ev.label == label
    if label == LOCAL:
        # unextrapolated, a certified stop can sit up to 4e-3 above these
        assert ev.norm_ratio == pytest.approx(ratio, rel=1e-3)
    if (text, n, z, lam) in CYCLE_STOPS:
        # the pair rate extrapolates the cycle exactly
        assert ev.trace.iterations < 200
        assert ev.norm_ratio == pytest.approx(ratio, rel=1e-4)


def test_lambda_consistency_for_blowup_field():
    field = parse("x^2")
    for lam in (0.5, 1.0, 2.0):
        ev = classify_once(field, Grid(10.0, 200), lam)
        assert ev.label == LOCAL


def test_refinement_stability_of_verdicts():
    # doubling n or doubling z must not flip any of the three known fields
    expected = {"x^2": LOCAL, "x*(x-1)": LOCAL, "-x^2": GLOBAL}
    for text, want in expected.items():
        field = parse(text)
        base = classify_once(field, Grid(10.0, 100), 1.0)
        finer = classify_once(field, Grid(10.0, 200), 1.0)
        wider = classify_once(field, Grid(20.0, 100), 1.0)
        assert base.label == want
        assert finer.label == want
        assert wider.label == want


# --------------------------------------------------------------------------
# sweep plan
# --------------------------------------------------------------------------

def test_plan_defaults_and_points():
    plan = SweepPlan()
    assert plan.ns == (200, 400, 800)
    assert plan.zs == (10.0, 20.0, 40.0)
    assert plan.lams == (0.5, 1.0, 2.0)
    pts = plan.points()
    assert len(pts) == 27
    assert pts == sorted(pts)
    assert (200, 10.0, 0.5) in pts


def test_plan_validation():
    with pytest.raises(ValueError):
        SweepPlan(ns=())
    with pytest.raises(ValueError):
        SweepPlan(zs=(0.0,))
    with pytest.raises(ValueError):
        SweepPlan(lams=(-1.0,))
    with pytest.raises(ValueError):
        SweepPlan(ns=(1,))
    with pytest.raises(ValueError, match="40.7"):
        SweepPlan(ns=(40.7,))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=repr(bad)):
            SweepPlan(lams=(bad,))
        with pytest.raises(ValueError, match=repr(bad)):
            SweepPlan(zs=(bad,))


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def test_sweep_local_verdict_structure():
    c = classify_sweep(parse("x^2"), FAST)
    assert c.verdict == LOCAL
    assert c.eigenfunction is not None
    assert np.max(np.abs(c.eigenfunction)) == 1.0
    assert c.norm_ratio >= 0.1
    assert c.rel_residual <= 1e-2
    assert len(c.evidence) == 1
    assert c.grid.n == 100 and c.grid.z == 10.0
    assert len(c.profile) == 101


def test_sweep_global_verdict_structure():
    c = classify_sweep(parse("-x^2"), FAST)
    assert c.verdict == GLOBAL
    assert c.eigenfunction is None
    for ev in c.evidence:
        assert ev.norm_ratio <= 1e-4


def test_sweep_mixed_evidence_is_inconclusive():
    # x(x-1) is Local on a wide grid but its eigenfunction support needs
    # x > 1, so a grid truncated at z = 0.5 sees only the global part
    plan = SweepPlan(ns=(100,), zs=(0.5, 10.0), lams=(1.0,))
    c = classify_sweep(parse("x*(x-1)"), plan)
    labels = {ev.label for ev in c.evidence}
    assert len(labels) > 1
    assert c.verdict == INCONCLUSIVE


def test_sweep_failed_point_is_inconclusive_with_error():
    # ln(x) cannot even be sampled at the x = 0 node
    c = classify_sweep(parse("ln(x)"), FAST)
    assert c.verdict == INCONCLUSIVE
    assert c.evidence[0].error is not None
    assert c.evidence[0].label == INCONCLUSIVE


def test_sweep_records_failed_factorizations_as_inconclusive():
    # the preconditioner cannot be factored for exp(x) on three of the
    # default grids; the budget does not matter to which points fail
    c = classify_sweep(parse("exp(x)"), SweepPlan(), DescentConfig(max_iters=20))
    failed = {(ev.n, ev.z, ev.lam) for ev in c.evidence if ev.error is not None}
    assert failed == {
        (n, z, lam)
        for n, z in ((200, 20.0), (400, 40.0), (800, 40.0))
        for lam in (0.5, 1.0, 2.0)
    }
    for ev in c.evidence:
        if ev.error is not None:
            assert ev.label == INCONCLUSIVE
            assert ev.trace is None
    assert c.verdict == INCONCLUSIVE


def test_sweep_representative_is_finest_grid():
    plan = SweepPlan(ns=(50, 100), zs=(10.0,), lams=(0.5, 1.0, 2.0))
    c = classify_sweep(parse("x^2"), plan)
    assert c.grid.n == 100  # smallest spacing
    assert c.lam == 1.0  # tie among lams broken toward 1
    assert len(c.evidence) == 6


def test_sweep_evidence_is_sorted():
    plan = SweepPlan(ns=(100, 50), zs=(10.0, 5.0), lams=(1.0,))
    c = classify_sweep(parse("x^2"), plan)
    keys = [(ev.n, ev.z, ev.lam) for ev in c.evidence]
    assert keys == sorted(keys)


def test_local_eigenfunction_vanishes_at_fixed_points():
    c = classify_sweep(parse("x*(x-1)"), FAST)
    assert c.verdict == LOCAL
    sup = np.max(np.abs(c.eigenfunction))
    for j, x in enumerate(c.grid.nodes):
        if x * (x - 1.0) == 0.0:
            assert abs(c.eigenfunction[j]) <= 1e-3 * sup


def test_evidence_as_dict_is_json_friendly():
    c = classify_sweep(parse("x^2"), FAST)
    d = c.evidence[0].as_dict()
    assert d["n"] == 100
    assert d["label"] == LOCAL
    assert "trace" not in d


# --------------------------------------------------------------------------
# cross-validation
# --------------------------------------------------------------------------

def test_probe_states_are_interior_midpoints():
    xs = probe_states(16.0)
    assert xs == [1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]
    assert all(0.0 < x < 16.0 for x in xs)


def test_cross_validate_blowup_field():
    field = parse("x^2")
    c = classify_sweep(field, FAST)
    report = cross_validate(field, c)
    assert report.agreement is True
    assert all(p.status == "blew-up" for p in report.probes)
    assert report.profile_deviation is not None
    # the first-order discretization error dominates on this coarse grid;
    # the 5% figure of the full-size runs is checked in the acceptance suite
    assert report.profile_deviation <= 0.10


def test_cross_validate_global_field():
    field = parse("-x^2")
    c = classify_sweep(field, FAST)
    report = cross_validate(field, c)
    assert report.agreement is True
    assert all(p.status == "survived" for p in report.probes)
    assert report.profile_deviation is None


def test_cross_validate_logistic_probe_split():
    # probes below 1 survive, probes above 1 blow up
    field = parse("x*(x-1)")
    c = classify_sweep(field, FAST)
    report = cross_validate(field, c)
    assert report.agreement is True
    for p in report.probes:
        assert p.status == ("survived" if p.x < 1.0 else "blew-up")


def test_cross_validate_catches_the_false_local_of_linear_growth():
    # the descent calls u' = u Local; every trajectory x e^t crosses the cap
    # inside the horizon, but none escapes, and the probes say so
    field = parse("x")
    c = classify_sweep(field, FAST)
    report = cross_validate(field, c)
    assert c.verdict == LOCAL
    assert report.agreement is False
    assert all(p.status == "survived" for p in report.probes)


def test_cross_validate_inconclusive_has_no_agreement():
    field = parse("x^2")
    c = classify_sweep(field, FAST, DescentConfig(max_iters=1))
    assert c.verdict == INCONCLUSIVE
    report = cross_validate(field, c)
    assert report.agreement is None


def test_cross_validate_as_dict():
    field = parse("-x^2")
    report = cross_validate(field, classify_sweep(field, FAST))
    d = report.as_dict()
    assert d["agreement"] is True
    assert len(d["probes"]) == 8
    assert set(d["probes"][0]) == {"x", "status", "escape_time", "error"}
