"""Discretization of the generator g |-> B * g' on a uniform grid.

A :class:`Grid` truncates the half-line to [0, z] with n equal cells.  On
its n+1 nodes the derivative is approximated by one-sided first
differences, giving a matrix D, and the generator becomes

    (M g)(j) = v_j * (D g)(j),        v_j = B(x_j).

Two stencil choices are offered.  ``forward-then-backward`` uses the
forward difference on rows 0..n-1 and the backward difference on row n.
``upwind`` (the default) picks the direction row by row from the sign of
the field: forward where v_j >= 0, backward where v_j < 0, falling back to
forward at the left boundary and backward at the right.  The two coincide
whenever the field is nonnegative on the grid.  Against fields that turn
negative, the fixed forward stencil differences against the flow and
supports spurious oscillating near-null modes that a descent search will
happily converge to; the upwind stencil does not.

Both stencils are captured by one representation: a left-endpoint index
l_j per row, with (D g)(j) = (g[l_j + 1] - g[l_j]) / h.

The eigenvalue-shifted residual operator is R = lam*I - M.  The descent
preconditioner is Q = I + (v D)^T (v D): symmetric tridiagonal, positive
definite, assembled in banded form and factored by a banded Cholesky.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky_banded, lapack

__all__ = [
    "Grid",
    "SCHEME_UPWIND",
    "SCHEME_FORWARD_THEN_BACKWARD",
    "SCHEMES",
    "DiscreteGenerator",
    "Preconditioner",
    "FactorizationError",
]

SCHEME_UPWIND = "upwind"
SCHEME_FORWARD_THEN_BACKWARD = "forward-then-backward"
SCHEMES = (SCHEME_UPWIND, SCHEME_FORWARD_THEN_BACKWARD)


class Grid:
    """Uniform grid of n+1 nodes on [0, z]; x_j = z*j/n, spacing h = z/n."""

    def __init__(self, z: float, n: int):
        if not (z > 0.0):
            raise ValueError(f"truncation point must be positive, got {z!r}")
        if n < 2:
            raise ValueError(f"need at least 2 cells, got n={n!r}")
        self.z = float(z)
        self.n = int(n)
        self.h = self.z / self.n
        self.nodes = (self.z * np.arange(self.n + 1)) / self.n

    def __len__(self):
        return self.n + 1

    def __repr__(self):
        return f"Grid(z={self.z!r}, n={self.n})"


def _left_endpoints(v, scheme):
    """Per-row left endpoint l_j of the difference stencil.

    Row j differences g over [l_j, l_j + 1]; l_j is j (forward) or j - 1
    (backward), clamped so the stencil stays inside the grid.
    """
    n = len(v) - 1
    idx = np.arange(n + 1)
    if scheme == SCHEME_FORWARD_THEN_BACKWARD:
        left = idx.copy()
    elif scheme == SCHEME_UPWIND:
        left = np.where(np.asarray(v) >= 0.0, idx, idx - 1)
        left[0] = 0
    else:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    left[n] = n - 1
    return left


class DiscreteGenerator:
    """The operators M = v * D and R = lam*I - M on a fixed grid.

    Holds the node field values ``v`` (v_j = B(x_j)), the eigenvalue
    candidate ``lam``, and the stencil.  All applications are linear in
    their vector argument and never form a dense matrix.
    """

    def __init__(self, grid: Grid, v, lam: float, scheme: str = SCHEME_UPWIND):
        v = np.asarray(v, dtype=float)
        if v.shape != (grid.n + 1,):
            raise ValueError(
                f"field values must have one entry per node "
                f"({grid.n + 1},); got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite on the grid")
        self.grid = grid
        self.v = v
        self.lam = float(lam)
        self.scheme = scheme
        self._left = _left_endpoints(v, scheme)

    @classmethod
    def from_field(cls, field, grid: Grid, lam: float, scheme: str = SCHEME_UPWIND):
        """Sample a callable field at the grid nodes."""
        v = np.array([field(x) for x in grid.nodes], dtype=float)
        return cls(grid, v, lam, scheme)

    # -- core linear maps ---------------------------------------------------

    def apply_difference(self, g):
        """D g: one-sided first differences, row stencils per the scheme."""
        g = np.asarray(g, dtype=float)
        left = self._left
        return (g[left + 1] - g[left]) / self.grid.h

    def apply_difference_transpose(self, w):
        """D^T w, by scattering each row's two coefficients."""
        w = np.asarray(w, dtype=float)
        left = self._left
        out = np.zeros_like(w)
        scaled = w / self.grid.h
        np.subtract.at(out, left, scaled)
        np.add.at(out, left + 1, scaled)
        return out

    def apply_generator(self, g):
        """M g = v * (D g)."""
        return self.v * self.apply_difference(g)

    def residual(self, g):
        """R g = lam*g - M g."""
        g = np.asarray(g, dtype=float)
        return self.lam * g - self.apply_generator(g)

    def residual_transpose(self, w):
        """R^T w = lam*w - D^T (v * w)."""
        w = np.asarray(w, dtype=float)
        return self.lam * w - self.apply_difference_transpose(self.v * w)

    def residual_bands(self):
        """R in the (1, 1) banded layout of ``scipy.linalg.solve_banded``.

        Row j has lam on the diagonal, +v_j/h at column l_j and -v_j/h at
        column l_j + 1; entry (j, c) sits at ``ab[1 + j - c, c]``.
        """
        rows = np.arange(self.grid.n + 1)
        left = self._left
        m = self.v / self.grid.h
        ab = np.zeros((3, self.grid.n + 1))
        ab[1] = self.lam
        np.add.at(ab, (1 + rows - left, left), m)
        np.add.at(ab, (rows - left, left + 1), -m)
        return ab

    # -- descent quantities -------------------------------------------------

    def objective(self, g) -> float:
        """phi(g) = 0.5 * ||R g||^2."""
        r = self.residual(g)
        return 0.5 * float(r @ r)

    def ordinary_gradient(self, g):
        """grad phi = R^T (R g)."""
        return self.residual_transpose(self.residual(g))

    # -- dense forms (small-problem cross-checks) ---------------------------

    def difference_matrix(self):
        """Dense D, built column by column through apply_difference."""
        n1 = self.grid.n + 1
        cols = [self.apply_difference(e) for e in np.eye(n1)]
        return np.column_stack(cols)

    def generator_matrix(self):
        """Dense M = diag(v) @ D."""
        return self.v[:, None] * self.difference_matrix()

    def __repr__(self):
        return (
            f"DiscreteGenerator(n={self.grid.n}, z={self.grid.z!r}, "
            f"lam={self.lam!r}, scheme={self.scheme!r})"
        )


class FactorizationError(RuntimeError):
    """The preconditioner could not be Cholesky-factored in floating point.

    Q = I + C^T C is positive definite in exact arithmetic, but C^T C is
    singular (D kills constants), so once (v/h)^2 * eps >> 1 the identity
    is lost to cancellation and the computed Q is not positive definite.
    Fast-growing fields reach this on the default sweep: exp(x) at
    (n, z) = (200, 20), (400, 40) and (800, 40).
    """


class Preconditioner:
    """Q = I + (v D)^T (v D), factored once, applied many times.

    Q is symmetric tridiagonal and positive definite (an identity plus a
    Gram matrix), so a banded Cholesky factorization is stable and each
    solve costs O(n).
    """

    def __init__(self, op: DiscreteGenerator):
        n1 = op.grid.n + 1
        left = op._left
        m = op.v / op.grid.h  # row weight of the scaled difference C = v D
        diag = np.zeros(n1)
        off = np.zeros(n1 - 1)  # off[i] couples nodes i and i+1
        # row j of C has entries -m_j at l_j and +m_j at l_j + 1;
        # its contribution to C^T C is m_j^2 on both diagonal slots and
        # -m_j^2 on the coupling between them.
        np.add.at(diag, left, m**2)
        np.add.at(diag, left + 1, m**2)
        np.add.at(off, left, -(m**2))
        diag += 1.0

        self.diagonal = diag
        self.off_diagonal = off
        ab = np.zeros((2, n1))
        ab[0, 1:] = off
        ab[1, :] = diag
        try:
            self._factor = cholesky_banded(ab, lower=False)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(str(exc)) from exc

    def apply(self, g):
        """Q g, from the stored bands."""
        g = np.asarray(g, dtype=float)
        out = self.diagonal * g
        out[:-1] += self.off_diagonal * g[1:]
        out[1:] += self.off_diagonal * g[:-1]
        return out

    def solve(self, rhs):
        """Q^{-1} rhs via the banded Cholesky factor.

        Calls LAPACK ``dpbtrs`` directly, the routine ``cho_solve_banded``
        runs, with the same checks and without its wrapper's overhead.
        """
        rhs = np.asarray_chkfinite(rhs, dtype=float)
        if rhs.shape[0] != self._factor.shape[1]:
            raise ValueError("shapes of Q and the right-hand side differ")
        x, info = lapack.dpbtrs(self._factor, rhs)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        return x

    def dense(self):
        """Dense Q, for small-problem cross-checks."""
        return (
            np.diag(self.diagonal)
            + np.diag(self.off_diagonal, 1)
            + np.diag(self.off_diagonal, -1)
        )
