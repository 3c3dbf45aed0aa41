"""Decide whether a scalar flow u' = B(u) on the half-line is global or
blows up in finite time.

The test is spectral: the flow admits finite-time blow-up exactly when the
generator g |-> B g' has a bounded eigenfunction with positive eigenvalue.
This package discretizes the generator on a truncated grid, searches for
such an eigenfunction by preconditioned steepest descent, and reads off a
verdict (Local, Global, or Inconclusive) from what the descent leaves
behind — then cross-checks the verdict by integrating trajectories
directly.

Quick use::

    from blowup import parse, Grid, SweepPlan, classify_sweep

    field = parse("x^2")
    result = classify_sweep(field, SweepPlan(ns=(400,), zs=(10.0,), lams=(1.0,)))
    print(result.verdict)          # "Local"
"""

from .classify import (
    GLOBAL,
    INCONCLUSIVE,
    LOCAL,
    Classification,
    CrossValidation,
    Evidence,
    SweepPlan,
    classify_once,
    classify_sweep,
    cross_validate,
)
from .descent import DescentConfig, DescentTrace, run_descent
from .discrete import DiscreteGenerator, Grid, Preconditioner
from .expr import EvalDomainError, ExprSyntaxError, FieldExpr, parse
from .flows import EscapeEstimate, IntegrationError, estimate_escape_time

__all__ = [
    "parse",
    "FieldExpr",
    "ExprSyntaxError",
    "EvalDomainError",
    "EscapeEstimate",
    "IntegrationError",
    "estimate_escape_time",
    "Grid",
    "DiscreteGenerator",
    "Preconditioner",
    "DescentConfig",
    "DescentTrace",
    "run_descent",
    "LOCAL",
    "GLOBAL",
    "INCONCLUSIVE",
    "Evidence",
    "SweepPlan",
    "Classification",
    "CrossValidation",
    "classify_once",
    "classify_sweep",
    "cross_validate",
]

__version__ = "0.1.0"
