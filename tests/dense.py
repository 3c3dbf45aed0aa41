"""Dense reference forms of the discrete operators, for small problems.

D is built with explicit Python loops straight from the upwind stencil
definition and never calls the matrix-free code it is checked against.
The descent quantities (phi, its gradient and the exact step) are built
from ``op.residual`` and ``op.residual_transpose``, so they round exactly
as the descent loop's own arithmetic does; the step is the descent's own
``_exact_step`` fed with R g and R d.
"""

import numpy as np

from blowup.descent import _exact_step


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
