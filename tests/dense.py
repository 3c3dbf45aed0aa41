"""Dense reference forms of the discrete operators, for small problems.

D is built with explicit Python loops straight from the upwind stencil
definition and never calls the matrix-free code it is checked against.
The descent quantities (phi, its gradient and the exact step) are built
from ``op.residual`` and ``op.residual_transpose``, so they round exactly
as the descent loop's own arithmetic does; the step is the descent's own
``_exact_step`` fed with R g and R d.  :func:`reference_descent` is the
descent loop built from these pieces; it keeps the objective of every
step, which the descent itself does not.
"""

import math

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from blowup.descent import (
    COLLAPSE_RATIO,
    CYCLE_STREAK,
    CYCLE_TOL,
    RATIO_GATE,
    _exact_step,
    _in_span,
    initial_vector,
    near_null,
)
from blowup.discrete import Preconditioner


def difference(op):
    """Dense upwind D: forward rows, backward where v < 0 and at the right end."""
    v, h = op.v, op.grid.h
    n = len(v) - 1
    D = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        if (j == n) or (v[j] < 0.0 and j > 0):
            D[j, j - 1] = -1.0 / h
            D[j, j] = 1.0 / h
        else:
            D[j, j] = -1.0 / h
            D[j, j + 1] = 1.0 / h
    return D


def residual(op):
    """Dense R = lam*I - diag(v) D."""
    return op.lam * np.eye(op.grid.n + 1) - op.v[:, None] * difference(op)


def preconditioner(op):
    """Dense Q = I + (v D)^T (v D)."""
    C = op.v[:, None] * difference(op)
    return np.eye(op.grid.n + 1) + C.T @ C


def objective(op, g):
    """phi(g) = 0.5 * ||R g||^2."""
    r = op.residual(g)
    return 0.5 * float(r @ r)


def gradient(op, g):
    """grad phi = R^T (R g)."""
    return op.residual_transpose(op.residual(g))


def exact_step(op, g, d):
    """The descent's exact line-search step along d, and whether it stagnated."""
    return _exact_step(op.residual(g), op.residual(d))


def reference_descent(op, config, g0=None):
    """The descent loop in its first form, R g applied four times a step.

    gradient, exact_step and objective each apply R to g (or to g_next)
    afresh, and Q is solved through cho_solve_banded.  run_descent carries
    R g forward and calls dpbtrs itself; the arithmetic is the same.  The
    stop tests are run_descent's, the count of pairs to collapse found by a
    linear search.  Returns the final iterate, phi at the start and after
    every accepted step, the number of steps and the stop reason.
    """
    g = initial_vector(op.grid.n + 1, config) if g0 is None else np.array(g0, dtype=float)
    precond = Preconditioner(op)
    ab = np.zeros((2, op.grid.n + 1))
    ab[0, 1:] = precond.off_diagonal
    ab[1] = precond.diagonal
    factor = cholesky_banded(ab, lower=False)
    null = near_null(op)
    shrink = 2.0 * null.mu / (1.0 + op.lam**2)

    initial_norm = float(np.max(np.abs(g)))
    objectives = [objective(op, g)]
    iterations = 0
    stop_reason = "cap"
    steps, coefficients, streak = [], [], 0
    for _ in range(config.max_iters):
        d = cho_solve_banded((factor, False), gradient(op, g))
        s, stalled = exact_step(op, g, d)
        if stalled:
            stop_reason = "stagnated"
            break
        g_next = g - s * d
        phi_next = objective(op, g_next)
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
