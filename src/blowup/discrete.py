"""Discretization of the generator g |-> B * g' on a uniform grid.

A :class:`Grid` truncates the half-line to [0, z] with n equal cells.  On
its n+1 nodes the derivative is approximated by one-sided first
differences, giving a matrix D, and the generator becomes

    (M g)(j) = v_j * (D g)(j),        v_j = B(x_j).

The stencil is upwind: row by row it differences along the sign of the
field, forward where v_j >= 0 and backward where v_j < 0, falling back to
forward at the left boundary and backward at the right.  A fixed forward
stencil would difference against the flow wherever the field turns
negative and admit spurious oscillating near-null modes that a descent
search converges to; the upwind stencil does not.

The stencil is stored as a left-endpoint index l_j per row, with
(D g)(j) = (g[l_j + 1] - g[l_j]) / h.

The eigenvalue-shifted residual operator is R = lam*I - M.  The descent
preconditioner is Q = I + (v D)^T (v D): symmetric tridiagonal, positive
definite, assembled in banded form and factored by a banded Cholesky.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np
from scipy.linalg import cholesky_banded, lapack

__all__ = [
    "Grid",
    "DiscreteGenerator",
    "Preconditioner",
    "FactorizationError",
]


class Grid:
    """Uniform grid of n+1 nodes on [0, z]; x_j = z*j/n, spacing h = z/n."""

    def __init__(self, z: float, n: int):
        if not (math.isfinite(z) and z > 0.0):
            raise ValueError(f"truncation point must be finite and positive, got {z!r}")
        if not isinstance(n, Integral) or n < 2:
            raise ValueError(f"need an integer number of cells >= 2, got n={n!r}")
        self.z = float(z)
        self.n = int(n)
        self.h = self.z / self.n
        self.nodes = (self.z * np.arange(self.n + 1)) / self.n

    def __repr__(self):
        return f"Grid(z={self.z!r}, n={self.n})"


def _left_endpoints(v):
    """Per-row left endpoint l_j of the upwind stencil.

    Row j differences g over [l_j, l_j + 1]; l_j is j (forward) or j - 1
    (backward), clamped so the stencil stays inside the grid.
    """
    n = len(v) - 1
    idx = np.arange(n + 1)
    left = np.where(np.asarray(v) >= 0.0, idx, idx - 1)
    left[0] = 0
    left[n] = n - 1
    return left


class DiscreteGenerator:
    """The operators M = v * D and R = lam*I - M on a fixed grid.

    Holds the node field values ``v`` (v_j = B(x_j)), the eigenvalue
    candidate ``lam``, and the upwind stencil.  All applications are linear
    in their vector argument and never form a dense matrix.
    """

    def __init__(self, grid: Grid, v, lam: float):
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
        self._left = _left_endpoints(v)

    @classmethod
    def from_field(cls, field, grid: Grid, lam: float):
        """Sample a callable field at the grid nodes."""
        v = np.array([field(x) for x in grid.nodes], dtype=float)
        return cls(grid, v, lam)

    # -- core linear maps ---------------------------------------------------

    def apply_difference(self, g):
        """D g: one-sided first differences, upwind row stencils."""
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

    def __repr__(self):
        return (
            f"DiscreteGenerator(n={self.grid.n}, z={self.grid.z!r}, "
            f"lam={self.lam!r})"
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
