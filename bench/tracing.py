"""Spans and counts at the program's layer boundaries, recorded from outside.

The layers are the package's modules: ``expr``, ``discrete``, ``descent``,
``classify``, ``flows`` and ``cli``.  :func:`instrument` replaces their
public entry points, and the names other modules imported from them, with
wrappers that open a span per call or bump a counter.  Nothing under the
package changes; :meth:`Instrumentation.remove` restores every original.

Hot calls (a field evaluation, a residual application, a preconditioner
solve) only bump counters, so the trace holds a few hundred spans per
classification rather than millions.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass

import reference


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: object


class Tracer:
    """Spans kept in memory, plus counters; ``op`` tags the operation running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.time_errs: list[float] = []
        self.op = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            lo, hi = max(start, reach), min(end, span.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, end)
        out.append(span.end - span.start - covered)
    return out


def _spanned(tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.errors[name] += 1
            raise
        finally:
            tracer.close(index)
        if after is not None:
            after(result, *args, **kwargs)
        return result
    return wrapper


def _counted(tracer, key, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


_PROBE_FAILURES = {
    reference.FALSE_ESCAPE: "flows.false_escapes",
    reference.MISSED_ESCAPE: "flows.missed_escapes",
    reference.TIME_OFF: "flows.times_off",
}


class Instrumentation:
    """The installed wrappers; :meth:`remove` puts the originals back."""

    def __init__(self):
        self._saved = []

    def patch(self, owners, attr, wrapped):
        for owner in owners:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def instrument(tracer: Tracer) -> Instrumentation:
    from blowup import classify, cli, descent, discrete, expr, flows

    counts = tracer.counts
    inst = Instrumentation()

    # expr
    inst.patch([expr], "parse", _spanned(tracer, "expr.parse", expr.parse))
    inst.patch(
        [expr.FieldExpr], "__call__",
        _counted(tracer, "expr.evals", expr.FieldExpr.__call__),
    )

    # discrete
    gen = discrete.DiscreteGenerator
    from_field = gen.__dict__["from_field"].__func__
    inst.patch(
        [gen], "from_field",
        classmethod(_spanned(tracer, "discrete.sample", from_field)),
    )
    inst.patch(
        [gen], "residual",
        _counted(tracer, "discrete.residual_applies", gen.residual),
    )
    pre = discrete.Preconditioner
    inst.patch([pre], "__init__", _spanned(tracer, "discrete.factor", pre.__init__))
    inst.patch([pre], "solve", _counted(tracer, "discrete.solves", pre.solve))

    # descent
    def after_descent(trace, op, config=None, g0=None):
        max_iters = (config or descent.DescentConfig()).max_iters
        counts["descent.iterations"] += trace.iterations
        if trace.stagnated:
            counts["descent.stagnated"] += 1
        elif trace.iterations >= max_iters:
            counts["descent.cap_hits"] += 1
        else:
            counts["descent.converged"] += 1

    inst.patch(
        [descent, classify], "run_descent",
        _spanned(tracer, "descent.run", descent.run_descent, after_descent),
    )

    # classify
    def after_sweep(result, field_fn, *args, **kwargs):
        for ev in result.evidence:
            counts["classify.points"] += 1
            counts["classify.labels." + ev.label.lower()] += 1
            if ev.error is not None:
                counts["classify.point_errors"] += 1
        kind = reference.TABLE[field_fn.text].kind
        if (result.verdict, kind) in (
            (classify.LOCAL, reference.GLOBAL),
            (classify.GLOBAL, reference.BLOWUP),
        ):
            counts["classify.wrong_verdicts"] += 1

    def after_crosscheck(result, *args, **kwargs):
        if result.agreement is False:
            counts["classify.disagreements"] += 1

    inst.patch(
        [classify, cli], "classify_sweep",
        _spanned(tracer, "classify.sweep", classify.classify_sweep, after_sweep),
    )
    inst.patch(
        [classify], "classify_once",
        _spanned(tracer, "classify.point", classify.classify_once),
    )
    inst.patch(
        [classify, cli], "cross_validate",
        _spanned(tracer, "classify.crosscheck", classify.cross_validate, after_crosscheck),
    )

    # flows
    def after_probe(est, field_fn, x0, horizon=10.0, cap=1e8, **kwargs):
        counts["flows.rk_steps"] += est.steps
        failure, err = reference.judge_probe(
            field_fn.text, x0, est.escaped, est.time, horizon, cap
        )
        if failure is not None:
            counts[_PROBE_FAILURES[failure]] += 1
        if err is not None:
            tracer.time_errs.append(err)

    inst.patch(
        [flows, classify], "estimate_escape_time",
        _spanned(tracer, "flows.probe", flows.estimate_escape_time, after_probe),
    )

    # cli
    def after_emit(result, *args):
        counts["cli.artifact_bytes"] += os.path.getsize(args[-1])

    inst.patch([cli], "main", _spanned(tracer, "cli.main", cli.main))
    for name in ("emit_csv", "emit_json", "emit_svg"):
        inst.patch(
            [cli], name, _spanned(tracer, "cli.emit", getattr(cli, name), after_emit)
        )
    return inst


# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "expr.parse_s": ("s", "lower"),
    "expr.evals": ("count", "lower"),
    "discrete.sample_s": ("s", "lower"),
    "discrete.samples": ("count", "lower"),
    "discrete.factor_s": ("s", "lower"),
    "discrete.factorizations": ("count", "lower"),
    "discrete.factor_errors": ("count", "lower"),
    "discrete.residual_applies": ("count", "lower"),
    "discrete.solves": ("count", "lower"),
    "descent.run_s": ("s", "lower"),
    "descent.self_s": ("s", "lower"),
    "descent.iterations": ("count", "lower"),
    "descent.cap_hits": ("count", "lower"),
    "descent.stagnated": ("count", "lower"),
    "descent.converged": ("count", "higher"),
    "descent.us_per_iter": ("us", "lower"),
    "classify.sweep_s": ("s", "lower"),
    "classify.self_s": ("s", "lower"),
    "classify.points": ("count", "lower"),
    "classify.point_errors": ("count", "lower"),
    "classify.labels.local": ("count", "higher"),
    "classify.labels.global": ("count", "higher"),
    "classify.labels.inconclusive": ("count", "lower"),
    "classify.crosscheck_s": ("s", "lower"),
    "classify.disagreements": ("count", "lower"),
    "classify.wrong_verdicts": ("count", "lower"),
    "classify.profile_err": ("1", "lower"),
    "flows.probe_s": ("s", "lower"),
    "flows.probes": ("count", "lower"),
    "flows.rk_steps": ("count", "lower"),
    "flows.probe_errors": ("count", "lower"),
    "flows.false_escapes": ("count", "lower"),
    "flows.missed_escapes": ("count", "lower"),
    "flows.times_off": ("count", "lower"),
    "flows.time_err": ("1", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.artifact_bytes": ("B", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_DURATIONS = {
    "discrete.sample_s": "discrete.sample",
    "discrete.factor_s": "discrete.factor",
    "descent.run_s": "descent.run",
    "classify.sweep_s": "classify.sweep",
    "classify.crosscheck_s": "classify.crosscheck",
    "flows.probe_s": "flows.probe",
    "cli.emit_s": "cli.emit",
}
_SPAN_COUNTS = {
    "discrete.samples": "discrete.sample",
    "discrete.factorizations": "discrete.factor",
    "flows.probes": "flows.probe",
}


def layer_metrics(tracer: Tracer, passes: int):
    """Per-pass layer metrics from the spans and counts of ``passes`` traced
    passes.  Spans of the operation ``"setup"`` feed only ``expr.parse_s``."""
    total = Counter()
    selves = self_times(tracer.spans)
    for span, own in zip(tracer.spans, selves):
        if span.op == "setup":
            if span.name == "expr.parse":
                total["expr.parse_s"] += span.end - span.start
            continue
        total[span.name + ":dur"] += span.end - span.start
        total[span.name + ":n"] += 1
        layer = span.name.split(".")[0]
        if layer in ("descent", "classify"):
            total[layer + ".self_s"] += own

    out = {name: 0.0 for name in PER_LAYER}
    out["expr.parse_s"] = total["expr.parse_s"]
    for key, value in tracer.counts.items():
        if key in out:
            out[key] = value / passes
    for metric, span_name in _DURATIONS.items():
        out[metric] = total[span_name + ":dur"] / passes
    for metric, span_name in _SPAN_COUNTS.items():
        out[metric] = total[span_name + ":n"] / passes
    out["descent.self_s"] = total["descent.self_s"] / passes
    out["classify.self_s"] = total["classify.self_s"] / passes
    out["discrete.factor_errors"] = tracer.errors["discrete.factor"] / passes
    out["flows.probe_errors"] = tracer.errors["flows.probe"] / passes
    if out["descent.iterations"]:
        out["descent.us_per_iter"] = 1e6 * out["descent.run_s"] / out["descent.iterations"]
    out["flows.time_err"] = max(tracer.time_errs, default=0.0)
    return out
