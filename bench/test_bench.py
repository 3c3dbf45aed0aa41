"""Tests of the benchmark itself: metric names, span arithmetic, reference table.

    python3 -m pytest bench
"""

import json
import math
import os
import re
import sys

import pytest
from scipy.integrate import quad

import reference
import run
import tracing

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_definition():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_are_valid_and_match_the_definition():
    definition = load_definition()
    for group, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in definition[group]}
        assert listed == table, group
        for name, (unit, better) in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
            assert better in ("higher", "lower")
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in definition[g]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in definition["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in definition["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in definition["end_to_end"])


def span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("cli.main", 0.0, 10.0, None),         # 0
        span("classify.sweep", 1.0, 7.0, 0),       # 1
        span("classify.point", 1.0, 4.0, 1),       # 2
        span("descent.run", 2.0, 3.5, 2),          # 3
        span("classify.point", 4.0, 6.0, 1),       # 4
        span("cli.emit", 8.0, 9.0, 0),             # 5
        span("cli.emit", 8.5, 9.5, 0),             # 6: overlaps its sibling
    ]
    assert tracing.self_times(spans) == pytest.approx([
        10.0 - 6.0 - 1.5,  # children cover [1, 7] and [8, 9.5]
        6.0 - 3.0 - 2.0,
        3.0 - 1.5,
        1.5,
        2.0,
        1.0,
        1.0,
    ])


def test_self_time_clips_children_to_the_parent():
    spans = [span("a", 0.0, 1.0, None), span("b", 0.5, 2.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([0.5, 1.5])


@pytest.mark.parametrize("field", [f for f, r in reference.TABLE.items()
                                   if r.kind == reference.BLOWUP])
@pytest.mark.parametrize("x0", [1.5, 2.0, 7.0])
def test_escape_times_are_osgood_integrals(field, x0):
    text = field.replace("^", "**").replace("ln", "log")
    def exp(v):  # 1/exp(x) is 0, not an overflow, far out on the tail
        return math.exp(v) if v < 700.0 else math.inf

    integrand = eval(f"lambda x: 1.0 / ({text})", {"exp": exp, "log": math.log})
    value, _ = quad(integrand, x0, math.inf, epsabs=1e-13, epsrel=1e-11)
    ref = reference.TABLE[field]
    assert ref.escape_time(x0) == pytest.approx(value, rel=1e-8)
    cap = 1e3
    crossing, _ = quad(integrand, x0, cap, epsabs=1e-13, epsrel=1e-11)
    assert ref.crossing_time(x0, cap) == pytest.approx(crossing, rel=1e-8)


@pytest.mark.parametrize("field", ["x", "x*ln(1+x)"])
def test_growing_global_fields_have_divergent_osgood_integrals(field):
    text = field.replace("ln", "log")
    integrand = eval(f"lambda x: 1.0 / ({text})", {"log": math.log})
    partial = [quad(integrand, 1.0, top, limit=200)[0] for top in (1e2, 1e4, 1e8)]
    assert partial[0] < partial[1] < partial[2]
    assert partial[2] - partial[1] > 0.5
    assert reference.TABLE[field].escape_time(1.0) is None


def test_reference_table_gives_every_verdict_a_reason():
    blowup = {f for f, r in reference.TABLE.items() if r.kind == reference.BLOWUP}
    assert blowup == {"x^2", "x*(x-1)", "x^3", "x^1.5", "exp(x)"}
    assert set(reference.TABLE) == set(run.ORACLE_FIELDS)
    assert all(r.reason for r in reference.TABLE.values())


def test_judge_probe_outcomes():
    judge = reference.judge_probe
    assert judge("x^2", 2.0, True, 0.5 - 1e-8, 50.0, 1e8) == (None, pytest.approx(0.0, abs=1e-9))
    assert judge("x^2", 2.0, False, 50.0, 50.0, 1e8)[0] == reference.MISSED_ESCAPE
    assert judge("x^2", 2.0, True, 0.6, 50.0, 1e8)[0] == reference.TIME_OFF
    assert judge("x", 2.0, True, 17.7, 50.0, 1e8)[0] == reference.FALSE_ESCAPE
    assert judge("x*(x-1)", 0.5, False, 50.0, 50.0, 1e8) == (None, None)
    # x^3 from 0.05 escapes at t = 200, beyond the horizon
    assert judge("x^3", 0.05, False, 50.0, 50.0, 1e8) == (None, None)


def test_profile_error_of_the_closed_form_is_zero():
    xs = [0.1 * j for j in range(101)]
    g = [0.0] + [3.0 * math.exp(-1.0 / x) for x in xs[1:]]
    assert reference.profile_error("x^2", 1.0, xs, g) == pytest.approx(0.0, abs=1e-12)
    assert reference.profile_error("x", 1.0, xs, g) is None


def test_instrumentation_counts_a_small_sweep_and_restores_the_package():
    sys.path.insert(0, run.SRC)
    from blowup import classify, descent, discrete, expr

    originals = (classify.run_descent, discrete.Preconditioner.__init__,
                 expr.FieldExpr.__call__, discrete.DiscreteGenerator.from_field)
    tracer = tracing.Tracer()
    tracer.op = (0, "x^2")
    inst = tracing.instrument(tracer)
    try:
        result = classify.classify_sweep(
            expr.parse("x^2"),
            classify.SweepPlan(ns=(20, 40), zs=(10.0,), lams=(1.0,)),
            descent.DescentConfig(max_iters=30),
        )
    finally:
        inst.remove()
    assert (classify.run_descent, discrete.Preconditioner.__init__,
            expr.FieldExpr.__call__, discrete.DiscreteGenerator.from_field) == originals

    metrics = tracing.layer_metrics(tracer, passes=1)
    assert metrics["classify.points"] == 2
    assert metrics["discrete.factorizations"] == 2
    assert metrics["discrete.samples"] == 2
    assert metrics["expr.evals"] == 21 + 41
    assert metrics["descent.iterations"] == 60
    assert metrics["descent.cap_hits"] == 2
    assert metrics["discrete.solves"] == 60
    labels = [metrics["classify.labels." + v] for v in ("local", "global", "inconclusive")]
    assert sum(labels) == 2 and len(result.evidence) == 2
    assert 0.0 < metrics["descent.self_s"] < metrics["descent.run_s"]


def test_known_defects_match_only_where_they_show():
    known = reference.known_defect
    assert known("x", reference.WRONG_VERDICT) is not None
    assert known("-x^2", reference.WRONG_VERDICT) is None
    assert known("x*ln(1+x)", reference.FALSE_ESCAPE, 0.05) is not None
    assert known("x*ln(1+x)", reference.MISSED_ESCAPE, 0.05) is None
    assert known("exp(x)", reference.DOMAIN_ERROR, 7.3) is not None
    assert known("exp(x)", reference.DOMAIN_ERROR, 7.0) is None
    for defect in reference.KNOWN_DEFECTS:
        assert defect.field in reference.TABLE and defect.note


def test_known_defects_lower_ok_frac_and_other_wrong_answers_fail():
    outcome = run.Run("oracle", seed=0)
    for field, wrong in (("x^2", None), ("x", reference.FALSE_ESCAPE),
                         ("x^2", reference.FALSE_ESCAPE)):
        outcome.begin_op(field)
        if wrong is not None:
            outcome.wrong(field, wrong, 1.0)
            outcome.wrong(field, wrong, 2.0)
        outcome.end_op(field)
    assert (outcome.attempted, outcome.ok, outcome.failed) == (3, 1, 1)
    assert outcome.defects == {"x: " + reference.FALSE_ESCAPE: 2}
    assert sum(outcome.failures.values()) == 1
