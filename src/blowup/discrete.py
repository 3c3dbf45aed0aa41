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
preconditioner is Q = I + (v D)^T (v D), the identity plus a path
Laplacian; its banded Cholesky factor comes from a pivot recurrence that
subtracts nothing (see :class:`Preconditioner`); each descent factors Q
once.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "Grid",
    "DiscreteGenerator",
    "Preconditioner",
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
        # 0/1 masks of the forward (l_j = j) and backward rows
        self._forward = (self._left == np.arange(grid.n + 1)).astype(float)
        self._backward = 1.0 - self._forward

    @classmethod
    def from_field(cls, field, grid: Grid, lam: float):
        """Sample a callable field at the grid nodes, passed as Python floats."""
        v = np.array([field(x) for x in grid.nodes.tolist()], dtype=float)
        return cls(grid, v, lam)

    # -- core linear maps ---------------------------------------------------

    def apply_difference(self, g):
        """D g: one-sided first differences, upwind row stencils."""
        g = np.asarray(g, dtype=float)
        return (g[1:] - g[:-1])[self._left] / self.grid.h

    def apply_difference_transpose(self, w):
        """D^T w, the sum over rows of each row's two coefficients.

        Row j adds -s_j at node l_j and +s_j at l_j + 1, s = w/h.  Node k
        hears from row k (forward: -s_k; backward: +s_k) and from its
        neighbours' rows: row k+1 when backward (-s_{k+1}), row k-1 when
        forward (+s_{k-1}).  The terms are summed from 0.0 in row order,
        subtractions first, as scattering them would.  A row that does not
        reach the node adds a zero (s times a 0/1 row mask), and since
        such a running sum is never -0.0, a zero of either sign leaves it
        as it is: for finite w the result is the scatter's, bit for bit.
        """
        w = np.asarray(w, dtype=float)
        s = w / self.grid.h
        fs = s * self._forward
        bs = s * self._backward
        out = 0.0 - fs
        out[:-1] -= bs[1:]
        out[1:] += fs[:-1]
        out += bs
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
        column l_j + 1; entry (j, c) sits at ``ab[1 + j - c, c]``.  A
        forward row puts +v_j/h on the diagonal and -v_j/h above it, a
        backward row -v_j/h on the diagonal and +v_j/h below it; each band
        slot receives one term, added to lam on the diagonal and to 0.0
        off it.
        """
        fwd = self._forward == 1.0
        m = self.v / self.grid.h
        ab = np.zeros((3, self.grid.n + 1))
        ab[0, 1:] += np.where(fwd[:-1], -m[:-1], 0.0)
        ab[1] = self.lam + np.where(fwd, m, -m)
        ab[2, :-1] += np.where(fwd[1:], 0.0, m[1:])
        return ab

    def __repr__(self):
        return (
            f"DiscreteGenerator(n={self.grid.n}, z={self.grid.z!r}, "
            f"lam={self.lam!r})"
        )


class Preconditioner:
    """Q = I + (v D)^T (v D), factored once per descent, applied at every
    step.

    Row j of C = v D is m_j (e_{l_j + 1} - e_{l_j}) with m = v/h, so C^T C
    is the path Laplacian with edge weights w_k = sum of m_j^2 over the rows
    with l_j = k.  Forming I + C^T C would lose the identity to rounding
    once (v/h)^2 eps >> 1.  The Cholesky pivots have a form without
    subtraction instead (Grassmann, Taksar & Heyman 1985): d_k = e_k + w_k,
    with e_0 = 1, e_{k+1} = 1 + e_k w_k / (e_k + w_k) and w_n = 0.  Every
    pivot is at least 1 and exact to a few roundings.  The upper factor has
    U_kk = sqrt(d_k) and U_k,k+1 = -w_k / sqrt(d_k); each solve is O(n).
    A field so large that some w_k overflows raises ValueError.
    """

    def __init__(self, op: DiscreteGenerator):
        with np.errstate(over="ignore"):
            m = op.v / op.grid.h
            w = np.bincount(op._left, weights=m * m, minlength=op.grid.n)
        if not np.all(np.isfinite(w)):
            raise ValueError("(v/h)^2 overflows: the field is too large for the grid")
        pivots, e = [], 1.0
        for wk in w.tolist():
            pivots.append(e + wk)
            e = 1.0 + e * (wk / (e + wk))
        root = np.sqrt([*pivots, e])
        # upper band in LAPACK layout: superdiagonal over the diagonal
        self._factor = np.array([np.append(0.0, -w / root[:-1]), root], order="F")

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
