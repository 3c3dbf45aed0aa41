"""Benchmark of the blowup classifier: time to verdict, checked against Osgood.

    python3 bench/run.py --workload sweep-blowup --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in BENCHMARK.json and NOTES.md):

``sweep-blowup``  ``blowup --field F --sweep --out DIR`` in-process for
                  F in {x^2, x*(x-1)}: descent runs to the iteration cap.
``sweep-global``  the same for F in {-x^2, x}: descent collapses and stops
                  on stagnation (and ``x`` is a known false Local).
``oracle``        ``estimate_escape_time(f, x0, horizon=50, cap=1e8)`` from
                  64 seeded states x0 in (0.05, 10] for nine fields; RK
                  probe and scalar evaluation only.

Load: one process, one thread (BLAS pinned to one thread), closed loop.
A run repeats whole passes over the workload until ``--seconds`` have
elapsed, at least one.  The seed draws the oracle's states and the field
order of each pass.  Every operation is judged against ``reference.py``.
A wrong answer listed there as a known defect lowers ``ok_frac`` and is
counted on the ``env`` line; any other wrong answer is a failed
operation.  ``correct`` is false when an operation failed or an output is
malformed: an exit code other than 0 or 2, an exception from the CLI, a
``report.json`` that does not parse or disagrees with stdout, or two
passes of one run whose outputs differ.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` passes alternate untraced and traced, the last line
carries the per-layer metrics, and the spans go to ``bench/_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

SWEEP_FIELDS = {
    "sweep-blowup": ("x^2", "x*(x-1)"),
    "sweep-global": ("-x^2", "x"),
}
ORACLE_FIELDS = (
    "x^2", "x*(x-1)", "-x^2", "x^3", "x^1.5", "exp(x)", "x", "x*ln(1+x)", "sin(x)",
)
WORKLOADS = (*SWEEP_FIELDS, "oracle")
ORACLE_STATES = 64
ORACLE_LOW, ORACLE_HIGH = 0.05, 10.0
# cross_validate's probe settings, which the CLI uses too
HORIZON, CAP = 50.0, 1e8
# fresh interpreters timed before the passes and as many again after them,
# so the median spans the host's load over the whole run
SETUP_REPEATS = 6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_s": ("s", "lower"),
    "op_s.p90": ("s", "lower"),
    "ok_frac": ("1", "higher"),
    "rss_mb": ("MB", "lower"),
}

ARTIFACTS = ("eigenfunction.csv", "report.json", "figure.svg")


class Run:
    """Outcomes of one benchmark run: op times, failures, output problems."""

    def __init__(self, workload, seed, tracer=None):
        self.workload = workload
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.op_times = []
        self.pass_walls = {False: [], True: []}  # keyed by "traced"
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.failures = Counter()
        self.defects = Counter()
        self._op_state = None  # None, "defect" or "failed"
        self.problems = []
        self.first_outputs = {}
        self.profile_errs = []
        self.time_errs = []
        self.per_field = {}
        self._counts_before = None

    def begin_op(self, op):
        self._op_state = None
        if self.tracer is not None:
            self.tracer.op = op
            self._counts_before = Counter(self.tracer.counts)

    def end_op(self, field):
        self.attempted += 1
        if self._op_state is None:
            self.ok += 1
        if self.tracer is not None:
            delta = self.tracer.counts - self._counts_before
            self.per_field.setdefault(field, Counter()).update(delta)

    def fail(self, kind):
        """The operation failed: counted once per operation, by first kind."""
        if self._op_state != "failed":
            self.failed += 1
            self.failures[kind] += 1
            self._op_state = "failed"

    def wrong(self, field, outcome, x0=None):
        """The operation contradicts the reference: a known defect or a failure."""
        defect = reference.known_defect(field, outcome, x0)
        if defect is None:
            self.fail(outcome if x0 is None else f"{outcome} from {x0!r}")
            return
        self.defects[f"{field}: {outcome}"] += 1
        if self._op_state is None:
            self._op_state = "defect"

    def same_as_first(self, key, output):
        first = self.first_outputs.setdefault(key, output)
        if first != output:
            self.problems.append(f"output of {key!r} differs between passes")


# --------------------------------------------------------------------------
# set-up time: fresh interpreters importing the package and parsing fields
# --------------------------------------------------------------------------

def measure_setup(fields, repeats, warm_up):
    """Seconds for ``repeats`` fresh interpreters to import the package
    and parse ``fields``, after ``warm_up`` unmeasured ones."""
    code = (
        "import sys; sys.path.insert(0, %r); import blowup; "
        "[blowup.parse(f) for f in %r]" % (SRC, list(fields))
    )
    times = []
    for attempt in range(repeats + warm_up):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)
        if attempt >= warm_up:  # the warm-up fills the file cache and bytecode
            times.append(time.perf_counter() - start)
    return times


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def sweep_op(run, cli, field, out_dir):
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["--field", field, "--sweep", "--out", out_dir])
    except Exception:
        code = None
        run.problems.append(f"{field}: CLI raised\n{traceback.format_exc()}")
    run.op_times.append(time.perf_counter() - start)
    if code not in (0, 2):
        if code is not None:
            run.problems.append(f"{field}: exit code {code}")
        run.fail("raised" if code is None else f"exit {code}")
        return

    outputs = {}
    for name in ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            outputs[name] = fh.read()
    run.same_as_first(field, outputs)
    try:
        report = json.loads(outputs["report.json"])
        verdict, lam = report["verdict"], report["lam"]
        probes = report["cross_validation"]["probes"]
    except (ValueError, KeyError) as exc:
        run.problems.append(f"{field}: report.json unreadable: {exc!r}")
        run.fail("report")
        return
    printed = stdout.getvalue().split("\n", 1)[0].strip()
    if verdict.upper() != printed:
        run.problems.append(f"{field}: stdout says {printed}, report.json {verdict}")

    kind = reference.TABLE[field].kind
    if (verdict, kind) in (("Local", reference.GLOBAL), ("Global", reference.BLOWUP)):
        run.wrong(field, reference.WRONG_VERDICT)
    for probe in probes:
        if probe["status"] == "failed":
            continue
        failure, _ = reference.judge_probe(
            field, probe["x"], probe["escape_time"] is not None,
            probe["escape_time"], HORIZON, CAP,
        )
        if failure is not None:
            run.wrong(field, failure, probe["x"])
    if verdict == "Local" and kind == reference.BLOWUP:
        rows = [line.split(",") for line in outputs["eigenfunction.csv"].decode().split()[1:]]
        err = reference.profile_error(
            field, lam, [float(x) for x, _ in rows], [float(g) for _, g in rows]
        )
        if err is not None:
            run.profile_errs.append(err)
        if err is None or err > reference.PROFILE_TOL:
            run.fail("profile")


def oracle_op(run, flows, errors, domain_error, field, x0):
    start = time.perf_counter()
    try:
        est = flows.estimate_escape_time(field, x0, horizon=HORIZON, cap=CAP)
    except errors as exc:
        est = exc
    except Exception as exc:
        est = exc
        run.problems.append(f"{field.text} from {x0!r}: probe crashed\n"
                            + traceback.format_exc())
    run.op_times.append(time.perf_counter() - start)
    if not isinstance(est, flows.EscapeEstimate):
        run.same_as_first((field.text, x0), repr(est))
        if isinstance(est, domain_error):
            run.wrong(field.text, reference.DOMAIN_ERROR, x0)
        else:
            run.fail("raised " + type(est).__name__)
        return
    run.same_as_first((field.text, x0), (est.status, est.time, est.final_state, est.steps))
    failure, err = reference.judge_probe(field.text, x0, est.escaped, est.time, HORIZON, CAP)
    if err is not None:
        run.time_errs.append(err)
    if failure is not None:
        run.wrong(field.text, failure, x0)


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------

def make_pass(run, blowup, fields):
    """A callable that runs one pass of the workload."""
    if run.workload == "oracle":
        parsed = [blowup.expr.parse(f) for f in fields]
        # one state per equal slice of (LOW, HIGH]: seeded, but evenly spread,
        # so a pass costs about the same whatever the seed
        width = (ORACLE_HIGH - ORACLE_LOW) / ORACLE_STATES
        states = {
            f.text: [ORACLE_HIGH - width * (k + run.rng.random())
                     for k in range(ORACLE_STATES)]
            for f in parsed
        }
        errors = (blowup.flows.IntegrationError, blowup.expr.EvalDomainError)

        def one_pass(number):
            for field in run.rng.sample(parsed, len(parsed)):
                for x0 in states[field.text]:
                    run.begin_op((number, field.text, x0))
                    oracle_op(run, blowup.flows, errors,
                              blowup.expr.EvalDomainError, field, x0)
                    run.end_op(field.text)
        return one_pass

    def one_pass(number):
        for field in run.rng.sample(fields, len(fields)):
            out_dir = os.path.join(WORK, str(os.getpid()), str(number), field)
            run.begin_op((number, field))
            sweep_op(run, blowup.cli, field, out_dir)
            run.end_op(field)
            shutil.rmtree(out_dir)
    return one_pass


def run_passes(run, one_pass, seconds):
    """Whole passes until ``seconds`` elapse.  Traced runs alternate an
    untraced pass and a traced one and run at least one of each."""
    start = time.perf_counter()
    number = 0
    while True:
        traced = run.tracer is not None and number % 2 == 1
        inst = tracing.instrument(run.tracer) if traced else None
        first_op = len(run.op_times)
        try:
            one_pass(number)
        finally:
            if inst is not None:
                inst.remove()
            if run.tracer is not None:
                run.tracer.op = None
        run.pass_walls[traced].append(sum(run.op_times[first_op:]))
        number += 1
        done = time.perf_counter() - start >= seconds
        if done and (run.tracer is None or number >= 2):
            return number


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def environment(args, passes, setup_samples):
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "setup_samples": setup_samples,
    }


def end_to_end(run, setup_s):
    ops = run.op_times
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(run.pass_walls[False]),
        "op_s": statistics.median(ops),
        "op_s.p90": statistics.quantiles(ops, n=10, method="inclusive")[8],
        "ok_frac": run.ok / run.attempted,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_field_summary(run, passes):
    """Counts and spans per field and traced pass: the per-classification
    baseline on the sweeps, the per-field split on the oracle."""
    rows = {field: Counter(counts) for field, counts in run.per_field.items()}
    for span in run.tracer.spans:
        if span.op not in (None, "setup"):
            rows.setdefault(span.op[1], Counter())[span.name + ".calls"] += 1
    return {
        field: {key: value / passes for key, value in sorted(row.items())}
        for field, row in rows.items()
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # pinned before NumPy loads, here and in every child interpreter
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import blowup
    import blowup.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(blowup.__file__)) != os.path.join(SRC, "blowup"):
        sys.exit(f"error: imported blowup from {blowup.__file__}, not from {SRC}")

    fields = SWEEP_FIELDS.get(args.workload, ORACLE_FIELDS)
    tracer = None
    setup_samples = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.op = "setup"
        inst = tracing.instrument(tracer)
        for f in fields:
            blowup.expr.parse(f)
        inst.remove()
        tracer.op = None
    else:
        setup_samples = measure_setup(fields, SETUP_REPEATS, warm_up=1)

    run = Run(args.workload, args.seed, tracer)
    os.makedirs(WORK, exist_ok=True)
    try:
        one_pass = make_pass(run, blowup, fields)
        passes = run_passes(run, one_pass, args.seconds)
    finally:
        shutil.rmtree(os.path.join(WORK, str(os.getpid())), ignore_errors=True)

    if tracer is None:
        setup_samples += measure_setup(fields, SETUP_REPEATS, warm_up=0)
    env = environment(args, passes, setup_samples)
    env["ops_per_pass"] = run.attempted // passes
    env["failures"] = run.failures
    env["known_defects"] = run.defects
    env["profile_err"] = max(run.profile_errs, default=None)
    env["time_err"] = max(run.time_errs, default=None)
    print("env " + json.dumps(env, sort_keys=True))
    for problem in run.problems:
        print("problem: " + problem, file=sys.stderr)

    if tracer is None:
        values = end_to_end(run, statistics.median(setup_samples))
        units = END_TO_END
    else:
        traced = len(run.pass_walls[True])
        values = tracing.layer_metrics(tracer, traced)
        values["classify.profile_err"] = max(run.profile_errs, default=0.0)
        values["trace.wall_s"] = statistics.median(run.pass_walls[True])
        values["trace.overhead_s"] = (
            values["trace.wall_s"] - statistics.median(run.pass_walls[False])
        )
        units = tracing.PER_LAYER
        summary = per_field_summary(run, traced)
        print("per-field " + json.dumps(summary, sort_keys=True))
        with open(os.path.join(WORK, f"trace-{args.workload}.json"), "w") as fh:
            json.dump({
                "env": env,
                "per_field": summary,
                "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans],
            }, fh)
    result = {
        "correct": not run.problems and not run.failed,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, (unit, _) in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
