"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each criterion is checked at its stated tolerance.  A criterion's line
reports the joint outcome of all its sub-checks; the assertion message
lists any that failed.
"""

import json
import math
import time

import numpy as np

import conftest
import dense
from blowup.classify import LOCAL, SweepPlan, classify_sweep
from blowup.cli import main
from blowup.descent import DescentConfig, run_descent
from blowup.discrete import DiscreteGenerator, Grid, Preconditioner
from blowup.expr import parse
from blowup.flows import estimate_escape_time
from closed_forms import CLOSED_FORM_FLOWS


def report(num, name, checks):
    ok = all(flag for _, flag in checks)
    line = "[acceptance] criterion %d (%s): %s" % (num, name, "PASS" if ok else "FAIL")
    print(line)
    conftest.acceptance_lines.append(line)
    failed = [label for label, flag in checks if not flag]
    assert ok, "criterion %d failed: %s" % (num, failed)


def read_profile(out_dir):
    data = np.loadtxt(out_dir / "eigenfunction.csv", delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1]


def run_and_load(argv, out_dir):
    code = main([*argv, "--out", str(out_dir)])
    report_path = out_dir / "report.json"
    payload = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, payload


def test_criterion_1_quadratic_blowup_profile(tmp_path):
    start = time.perf_counter()
    code, payload = run_and_load(
        ["--field", "x^2", "--z", "10", "--n", "400", "--lambda", "1"], tmp_path
    )
    elapsed = time.perf_counter() - start

    xs, g = read_profile(tmp_path)
    g_norm = g / np.max(np.abs(g))
    oracle = np.where(xs > 0, np.exp(-1.0 / np.where(xs > 0, xs, 1.0)), 0.0)
    oracle_norm = oracle / np.max(oracle)
    mask = oracle_norm > 0.05
    deviation = np.max(np.abs(g_norm[mask] - oracle_norm[mask]) / oracle_norm[mask])

    report(1, "quadratic blow-up profile", [
        ("exit code 0", code == 0),
        ("verdict Local", payload["verdict"] == "Local"),
        ("profile within 5% of exp(-1/x)", deviation <= 0.05),
        ("vanishes at x=0", abs(g[0]) <= 1e-3 * np.max(np.abs(g))),
        ("runtime <= 30 s", elapsed <= 30.0),
    ])


def test_criterion_2_logistic_profile(tmp_path):
    code, payload = run_and_load(
        ["--field", "x*(x-1)", "--z", "10", "--n", "400", "--lambda", "1"], tmp_path
    )

    xs, g = read_profile(tmp_path)
    sup = np.max(np.abs(g))
    sup_interval = np.max(np.abs(g[xs <= 1.0]))

    tail = xs > 1.5
    oracle = (xs[tail] - 1.0) / xs[tail]
    oracle_norm = oracle / np.max(oracle)
    g_norm = g[tail] / np.max(np.abs(g[tail]))
    deviation = np.max(np.abs(g_norm - oracle_norm) / oracle_norm)

    report(2, "logistic blow-up profile", [
        ("exit code 0", code == 0),
        ("verdict Local", payload["verdict"] == "Local"),
        ("zero over [0,1]", sup_interval <= 1e-3 * sup),
        ("tail within 5% of (x-1)/x", deviation <= 0.05),
    ])


def test_criterion_3_global_decay(tmp_path):
    checks = []
    for z in (10, 20, 40):
        code, payload = run_and_load(
            ["--field", "-x^2", "--z", str(z), "--n", "400", "--lambda", "1"],
            tmp_path / str(z),
        )
        checks.append(("exit code 0 at z=%d" % z, code == 0))
        checks.append(("verdict Global at z=%d" % z, payload["verdict"] == "Global"))
        checks.append(
            ("norm ratio <= 1e-5 at z=%d" % z, payload["norm_ratio"] <= 1e-5)
        )
    report(3, "global decay of the negative quadratic", checks)


def test_criterion_4_escape_time_oracle():
    checks = []
    quadratic = parse("x^2")
    for x in (0.5, 1.0, 2.0, 5.0):
        est = estimate_escape_time(quadratic, x)
        err = abs(est.time - 1.0 / x) * x
        checks.append(("x^2 from %g within 1e-3" % x, est.escaped and err <= 1e-3))
    logistic = parse("x*(x-1)")
    for x in (1.5, 2.0, 5.0):
        expected = math.log(x / (x - 1.0))
        est = estimate_escape_time(logistic, x)
        err = abs(est.time - expected) / expected
        checks.append(
            ("x(x-1) from %g within 1e-3" % x, est.escaped and err <= 1e-3)
        )
    report(4, "escape-time estimates match closed forms", checks)


def test_criterion_5_consistency_and_eigenvalue_sweep():
    checks = []
    field = parse("x^2")

    # first-order consistency: the residual of the sampled exact
    # eigenfunction exp(-lam/x) halves when the grid is refined
    for lam in (0.5, 1.0, 2.0):
        norms = {}
        for n in (200, 400, 800):
            grid = Grid(10.0, n)
            op = DiscreteGenerator.from_field(field, grid, lam)
            g = np.zeros(n + 1)
            g[1:] = np.exp(-lam / grid.nodes[1:])
            norms[n] = np.max(np.abs(op.residual(g)))
        for n in (200, 400):
            factor = norms[2 * n] / norms[n]
            checks.append(
                (
                    "halving factor lam=%g n=%d->%d in [0.4,0.6]" % (lam, n, 2 * n),
                    0.4 <= factor <= 0.6,
                )
            )

    # the full default sweep must call the field Local, at every lam
    for lam in (0.5, 1.0, 2.0):
        sweep = classify_sweep(field, SweepPlan(lam=lam))
        checks.append(("sweep verdict Local at lam=%g" % lam, sweep.verdict == LOCAL))
        at_lam = [ev for ev in sweep.evidence if ev.lam == lam]
        checks.append(
            (
                "all sweep points Local at lam=%g" % lam,
                len(at_lam) == 9 and all(ev.label == LOCAL for ev in at_lam),
            )
        )
    report(5, "first-order consistency and eigenvalue sweep", checks)


def test_criterion_6_algorithm_invariants():
    checks = []
    rng = np.random.default_rng(2024)

    def random_problem(n):
        grid = Grid(float(rng.uniform(2.0, 10.0)), n)
        v = rng.standard_normal(n + 1)
        lam = float(rng.uniform(0.3, 3.0))
        return DiscreteGenerator(grid, v, lam)

    def same_run(trace, reference):
        g, _, iterations, stop_reason = reference
        return (
            trace.g_final.tobytes() == g.tobytes()
            and trace.iterations == iterations
            and trace.stop_reason == stop_reason
        )

    # objective monotone along the descent, 50 random problems; the
    # objectives come from the reference loop, which the descent is bitwise
    monotone = True
    bitwise = True
    for _ in range(50):
        op = random_problem(int(rng.integers(8, 40)))
        cfg = DescentConfig(max_iters=150)
        g0 = np.random.default_rng(int(rng.integers(1e6))).standard_normal(op.grid.n + 1)
        reference = dense.reference_descent(op, cfg, g0)
        if np.any(np.diff(reference[1]) > 0.0):
            monotone = False
        if not same_run(run_descent(op, cfg, g0), reference):
            bitwise = False
    checks.append(("objective non-increasing on 50 random problems", monotone))
    checks.append(("descent is the reference loop bit for bit on them", bitwise))

    # gradient against central finite differences, 20 cases
    grad_ok = True
    for _ in range(20):
        op = random_problem(8)
        g = rng.standard_normal(9)
        grad = dense.gradient(op, g)
        eps = 1e-6 * (1.0 + np.max(np.abs(g)))
        fd = np.empty(9)
        for j in range(9):
            bump = np.zeros(9)
            bump[j] = eps
            fd[j] = (
                dense.objective(op, g + bump) - dense.objective(op, g - bump)
            ) / (2 * eps)
        if np.linalg.norm(grad - fd) > 1e-5 * np.linalg.norm(grad):
            grad_ok = False
    checks.append(("gradient matches finite differences to 1e-5", grad_ok))

    # preconditioner SPD quadratic form and solve round-trip, 20 cases
    spd_ok = True
    round_trip_ok = True
    for _ in range(20):
        op = random_problem(int(rng.integers(5, 30)))
        P = Preconditioner(op)
        Q = dense.preconditioner(op)
        g = rng.standard_normal(op.grid.n + 1)
        if float(g @ Q @ g) < float(g @ g) * (1.0 - 1e-12):
            spd_ok = False
        r = rng.standard_normal(op.grid.n + 1)
        if np.max(np.abs(Q @ P.solve(r) - r)) > 1e-10 * np.max(np.abs(r)):
            round_trip_ok = False
    checks.append(("quadratic form dominates the identity", spd_ok))
    checks.append(("solve round-trip within 1e-10", round_trip_ok))

    # optimal step beats a 50-point line scan
    dominance = True
    for _ in range(10):
        op = random_problem(6)
        g = rng.standard_normal(7)
        d = rng.standard_normal(7)
        s_star, stalled = dense.exact_step(op, g, d)
        if stalled:
            continue
        best = dense.objective(op, g - s_star * d)
        for s in np.linspace(-2 * s_star, 2 * s_star, 50):
            if best > dense.objective(op, g - s * d) + 1e-12 * (1.0 + best):
                dominance = False
    checks.append(("optimal step dominates 50-point line scans", dominance))

    # scaling the start by 7 scales the trace without changing its summary;
    # 7 is not a power of two, so agreement is to rounding accuracy rather
    # than bitwise (measured ~1e-12 over 400 iterations)
    grid = Grid(10.0, 100)
    op = DiscreteGenerator.from_field(parse("x^2"), grid, 1.0)
    cfg = DescentConfig(max_iters=400)
    base = run_descent(op, cfg)
    scaled = run_descent(op, cfg, g0=7.0 * np.ones(101))
    ratio_ok = (
        abs(scaled.norm_ratio - base.norm_ratio) <= 1e-10 * base.norm_ratio
        and abs(scaled.rel_residual - base.rel_residual)
        <= 1e-10 * base.rel_residual
        and abs(scaled.final_norm - 7.0 * base.final_norm)
        <= 1e-10 * 7.0 * base.final_norm
    )
    base_ref = dense.reference_descent(op, cfg)
    scaled_ref = dense.reference_descent(op, cfg, g0=7.0 * np.ones(101))
    phis_ok = all(
        abs(p7 - 49.0 * p1) <= 1e-10 * 49.0 * p1
        for p1, p7 in zip(base_ref[1], scaled_ref[1])
        if p1 > 0.0
    )
    same_ok = same_run(base, base_ref) and same_run(scaled, scaled_ref)
    checks.append(
        ("trace equivariant under scaling by 7", ratio_ok and phis_ok and same_ok)
    )

    report(6, "algorithm invariant suite", checks)


def test_criterion_7_semigroup_law():
    checks = []
    rng = np.random.default_rng(7)
    for flow_id, flow in sorted(CLOSED_FORM_FLOWS.items()):
        worst = 0.0
        for _ in range(1000):
            if flow_id == "negsq":
                x = float(rng.uniform(0.0, 10.0))
            else:
                x = float(rng.uniform(0.01, 5.0))
            m = flow.escape_time(x)
            if m is None:
                t = float(rng.uniform(0.0, 5.0))
                s = float(rng.uniform(0.0, 5.0))
            else:
                t = float(rng.uniform(0.0, 0.45 * m))
                s = float(rng.uniform(0.0, 0.45 * m))
            lhs = flow.apply(t, flow.apply(s, x))
            rhs = flow.apply(t + s, x)
            err = abs(lhs - rhs) / max(abs(rhs), 1e-300)
            worst = max(worst, err)
        checks.append(
            ("%s: 1000 samples within 1e-9 relative" % flow_id, worst <= 1e-9)
        )
    report(7, "semigroup law of the closed-form flows", checks)


def test_criterion_8_novel_fields(tmp_path):
    checks = []

    code, payload = run_and_load(
        ["--field", "x^3", "--z", "10", "--n", "400", "--lambda", "1"],
        tmp_path / "cubic",
    )
    checks.append(("x^3 exit code 0", code == 0))
    checks.append(("x^3 verdict Local", payload["verdict"] == "Local"))
    checks.append(
        ("x^3 trajectory check agrees", payload["cross_validation"]["agreement"])
    )

    # independent oracle: escape time from 1 is 1/(2*1^2) = 0.5
    est = estimate_escape_time(parse("x^3"), 1.0)
    checks.append(
        ("escape time from 1 near 0.5", est.escaped and abs(est.time - 0.5) <= 5e-4)
    )

    for text in ("0", "-x"):
        code, payload = run_and_load(
            ["--field", text, "--z", "10", "--n", "400"], tmp_path / repr(text)
        )
        checks.append(("%r exit code 0" % text, code == 0))
        checks.append(("%r verdict Global" % text, payload["verdict"] == "Global"))

    report(8, "novel fields", checks)
