"""Preconditioned steepest descent on phi(g) = 0.5 ||lam*g - M g||^2.

Starting from g0 (all ones, or seeded Gaussian noise), each iteration
solves Q d = grad phi(g) with the tridiagonal preconditioner and moves
along -d by the exact line-search step

    s* = <R g, R d> / <R d, R d>,

which minimizes phi(g - s d) over s because phi is quadratic along any
line.  With that step phi never increases; a numerically observed uptick
would mean the arithmetic has degenerated, so the move is rejected and
the run stops.

R g is carried from one iteration to the next, so a step costs one
application of R^T (grad phi = R^T R g), one Q solve (the stored banded
Cholesky factor) and two of R: R d for the step, and R g_next, which gives
phi(g_next) and becomes the next R g.  R g_next is applied afresh rather
than updated as R g - s R d, which would round differently and blunt the
test for an increase of phi.

What the final iterate means: when R is far from singular the descent
drives g toward zero, and when R is nearly singular the descent
leaves behind g0's component along the near-null direction — an
approximate eigenfunction of M with eigenvalue lam.  The caller reads off
the verdict from the trace's norm ratio and relative residual.

Where the descent is heading can be computed directly.  :func:`near_null`
runs two steps of inverse iteration on R^T R (Golub & Van Loan) and
returns the near-null vector w with mu = ||R w||^2 / <w, Q w>, its
Rayleigh quotient for the pencil (R^T R, Q) that the descent sees.

Steepest descent with exact steps settles into a two-step cycle (Akaike
1959; Forsythe 1968): the step sizes repeat with period two, and every
pair of steps multiplies the iterate by the same pair rate P.  Once that
holds, the rest of the run is known in closed form.  The loop keeps the
last three step sizes; the cycle has formed when
|s_k - s_{k-2}| <= CYCLE_TOL |s_k| has held on CYCLE_STREAK consecutive
steps.  From then on it reads P = c_k / c_{k-2} off the coefficient
c = <g, Q w> / <w, Q w> of the iterate along w.  When P lies in (0, 1) and
the steps left in the budget, rest, are even, g at the cap would be
P^(rest/2) g, and the run stops:

``collapsed``  that would bring ||g||_inf to COLLAPSE_RATIO of its start
               (a hundredth of the classifier's Global threshold); g is
               scaled by P^k for the smallest number of pairs k that does;
``certified``  otherwise; g is scaled by P^(rest/2), so the trace reports
               what the capped run would have reached.

On the default sweep the cycle stops every ``-x^2`` point, 13 ``sin(x)``
points and one each of ``x^3`` and ``x*(x-1)``; most coarse-grid points
(n = 40 or 100) stop by it as well.  A cycle can be transient: for ``x`` at n = 40,
lam = 0.5 the descent leaves its first cycle for a slower one, and the
stop sits 2e-3 below the capped run's ratio.  Where the cycle forms too
late or not at all, the span test is the fallback:

``certified``  the Q-norm distance of g from span(w) is at most
               CERTIFY_TOL of ||g||_Q, and the rest of the budget would
               shrink the survivor by at most RATIO_GATE at the per-step
               rate 2 mu / (1 + lam^2).  g is then scaled by
               exp(-2 mu rest / (1 + lam^2)).  That rate is steepest
               descent's 2 mu / mu_max with mu_max replaced by 1 + lam^2
               (||lam g - M g||^2 <= (1 + lam^2)(||g||^2 + ||M g||^2) by
               Cauchy-Schwarz); it approximates the cycle's shrink per
               step, within a few percent, and is not a bound.
``collapsed``  ||g||_inf has actually fallen to COLLAPSE_RATIO of its
               start.

The default-grid ``x^2``, ``x^1.5``, ``x*ln(1+x)`` and ``x`` points certify
by the span test after 10-28 steps, before a cycle can be detected; ``x``
at lam = 1 (R exactly singular) and the rounding-limited ``exp(x)``
points never form a cycle.

Every test is relative to the iterate's own size, and neither the step
sizes nor P change when g is scaled, so scaling the start vector by a
power of two scales the whole trace exactly.  The other stops are
``stagnated`` (R d = 0, or a step that would increase phi; a zero start
stops here at once) and ``cap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_banded

from .discrete import DiscreteGenerator, Preconditioner

__all__ = [
    "DescentConfig",
    "DescentTrace",
    "NearNull",
    "initial_vector",
    "near_null",
    "run_descent",
    "COLLAPSE_RATIO",
]

INIT_ONES = "ones"
INIT_RANDOM = "random"

STOP_STAGNATED = "stagnated"
STOP_CAP = "cap"
STOP_CERTIFIED = "certified"
STOP_COLLAPSED = "collapsed"

# the two-step cycle has formed once |s_k - s_{k-2}| <= CYCLE_TOL |s_k| has
# held on CYCLE_STREAK consecutive steps
CYCLE_TOL = 1e-9
CYCLE_STREAK = 4
# relative Q-norm distance of the iterate from span(w) that certifies it
CERTIFY_TOL = 1e-6
# largest shrink of the survivor over the rest of the budget that a
# certified stop extrapolates: even unextrapolated, the norm ratio is then
# within about this relative distance of what the capped run reports
RATIO_GATE = 5e-3
# sup-norm ratio at which the iterate counts as collapsed
COLLAPSE_RATIO = 1e-6
# seed of near_null's start; any fixed seed works, ``ones`` does not
# (it is an exact eigenvector of R, with eigenvalue lam)
_NEAR_NULL_SEED = 0
# shift of lam, relative to R's largest entry, that makes an exactly
# singular R invertible
_SINGULAR_SHIFT = 1e-12


@dataclass(frozen=True)
class DescentConfig:
    """Iteration budget and starting-vector choice.

    max_iters   hard iteration cap
    init        "ones" or "random"
    seed        RNG seed for the random start
    """

    max_iters: int = 20000
    init: str = INIT_ONES
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.max_iters, Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not isinstance(self.seed, Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.init not in (INIT_ONES, INIT_RANDOM):
            raise ValueError(f"init must be 'ones' or 'random', got {self.init!r}")


@dataclass
class DescentTrace:
    """Everything a classifier needs from one descent run.

    g_final        final iterate (after a certified stop or a collapse
                   predicted from the cycle, advanced in closed form; see
                   the module docstring)
    initial_norm   ||g0||_inf
    final_norm     ||g_final||_inf
    rel_residual   ||R g||_2 / ||g||_2 at the final iterate, None if g = 0
    iterations     number of accepted steps; a closed-form advance adds none
    stop_reason    why the run stopped: "stagnated", "cap", "certified" or
                   "collapsed" (see the module docstring)
    budget_margin  mu * max_iters: how far the whole iteration budget could
                   shrink the near-null component w; a verdict that reads
                   a norm ratio depends on the budget when this is not small
    """

    g_final: np.ndarray
    initial_norm: float
    final_norm: float
    rel_residual: float | None
    iterations: int = 0
    stop_reason: str = STOP_CAP
    budget_margin: float | None = None

    @property
    def stagnated(self) -> bool:
        """True when the run stopped because R d vanished or a step failed
        to decrease phi."""
        return self.stop_reason == STOP_STAGNATED

    @property
    def norm_ratio(self) -> float:
        if self.initial_norm == 0.0:
            return 0.0
        return self.final_norm / self.initial_norm


class NearNull(NamedTuple):
    """The near-null vector of R that a descent converges toward.

    w     unit vector (2-norm), the smallest right singular vector of R
    mw    M w
    wq    <w, Q w> = 1 + ||M w||^2
    mu    ||R w||^2 / <w, Q w>, the Rayleigh quotient of the pencil
          (R^T R, Q) at w; it sets how fast the descent shrinks w's
          component
    """

    w: np.ndarray
    mw: np.ndarray
    wq: float
    mu: float


def _inverse_iteration(ab, x):
    """Two steps of inverse iteration on R^T R, R given by its bands."""
    abt = np.zeros_like(ab)  # bands of R^T
    abt[0, 1:] = ab[2, :-1]
    abt[1] = ab[1]
    abt[2, :-1] = ab[0, 1:]
    for _ in range(2):
        x = solve_banded((1, 1), ab, solve_banded((1, 1), abt, x))
        norm = np.linalg.norm(x)
        if not (np.isfinite(norm) and norm > 0.0):
            raise np.linalg.LinAlgError("inverse iteration lost its vector")
        x = x / norm
    return x


def near_null(op: DiscreteGenerator) -> NearNull:
    """Smallest right singular pair of R = lam*I - M, by inverse iteration.

    Two steps on R^T R from a seeded random start, each a banded solve
    with R^T and one with R.  When R is exactly singular (B = x at lam = 1
    is, on every grid) lam is shifted by a relative 1e-12 of R's largest
    entry, which leaves w the null vector.
    """
    ab = op.residual_bands()
    start = np.random.default_rng(_NEAR_NULL_SEED).standard_normal(op.grid.n + 1)
    try:
        w = _inverse_iteration(ab, start)
    except np.linalg.LinAlgError:
        ab[1] += _SINGULAR_SHIFT * (float(np.max(np.abs(ab))) or 1.0)
        w = _inverse_iteration(ab, start)
    mw = op.apply_generator(w)
    rw = op.lam * w - mw
    wq = 1.0 + float(mw @ mw)
    return NearNull(w=w, mw=mw, wq=wq, mu=float(rw @ rw) / wq)


def initial_vector(size: int, config: DescentConfig) -> np.ndarray:
    if config.init == INIT_RANDOM:
        return np.random.default_rng(config.seed).standard_normal(size)
    return np.ones(size)


def _exact_step(rg, rd):
    """Exact line-search step along d from R g and R d, and whether the
    search stagnated.

    Returns (s, stagnated).  stagnated is True when R d = 0, i.e. the
    direction carries no residual change and the quadratic has no
    minimizer along it; the caller should stop rather than divide by zero.
    """
    den = float(rd @ rd)
    if den == 0.0:
        return 0.0, True
    return float(rg @ rd) / den, False


def _w_coefficient(g, mg, null: NearNull) -> float:
    """c = <g, Q w> / <w, Q w>, g's coefficient along w in the Q-inner product.

    Q = I + M^T M, so <x, Q y> = <x, y> + <M x, M y>; mg is M g.
    """
    return float(g @ null.w + mg @ null.mw) / null.wq


def _in_span(op: DiscreteGenerator, g, null: NearNull) -> bool:
    """Whether g lies within CERTIFY_TOL of span(w), relative, in the Q-norm."""
    mg = op.apply_generator(g)
    c = _w_coefficient(g, mg, null)
    e = g - c * null.w
    me = mg - c * null.mw
    return float(e @ e + me @ me) <= CERTIFY_TOL**2 * float(g @ g + mg @ mg)


def _cycle_stop(g_max, initial_norm, rate, pairs_left):
    """Pairs of steps to advance a cycling iterate by, and the stop reason.

    The iterate of sup-norm g_max shrinks by ``rate`` per pair.  If the
    rest of the budget collapses it, advance by the fewest pairs that do;
    otherwise by all the pairs left.
    """
    limit = COLLAPSE_RATIO * initial_norm
    if rate**pairs_left * g_max > limit:
        return pairs_left, STOP_CERTIFIED
    pairs = max(1, math.ceil(math.log(limit / g_max) / math.log(rate)))
    # the logarithms round; settle on the exact smallest count
    while pairs < pairs_left and rate**pairs * g_max > limit:
        pairs += 1
    while pairs > 1 and rate ** (pairs - 1) * g_max <= limit:
        pairs -= 1
    return pairs, STOP_COLLAPSED


def run_descent(
    op: DiscreteGenerator,
    config: DescentConfig = DescentConfig(),
    g0=None,
) -> DescentTrace:
    """Run preconditioned steepest descent; see the module docstring.

    ``g0`` overrides the configured starting vector when given.
    """
    if g0 is None:
        g = initial_vector(op.grid.n + 1, config)
    else:
        g = np.array(g0, dtype=float)
        if g.shape != (op.grid.n + 1,):
            raise ValueError(
                f"starting vector must have shape ({op.grid.n + 1},), "
                f"got {g.shape}"
            )

    precond = Preconditioner(op)
    null = near_null(op)
    # the span test's shrink of w's component per step, 2 mu / mu_max with
    # mu_max replaced by 1 + lam^2: an approximation, not a bound
    shrink = 2.0 * null.mu / (1.0 + op.lam**2)

    initial_norm = float(np.max(np.abs(g)))
    rg = op.residual(g)
    phi = 0.5 * float(rg @ rg)
    iterations = 0
    stop_reason = STOP_CAP
    steps = []  # the last three step sizes
    streak = 0  # consecutive steps with s_k = s_{k-2}, to CYCLE_TOL
    coefficients = []  # c along w at the last three steps of the cycle

    for _ in range(config.max_iters):
        d = precond.solve(op.residual_transpose(rg))
        s, stalled = _exact_step(rg, op.residual(d))
        if stalled:
            stop_reason = STOP_STAGNATED
            break

        g_next = g - s * d
        rg_next = op.residual(g_next)
        phi_next = 0.5 * float(rg_next @ rg_next)
        if phi_next > phi:
            # exact step on a quadratic cannot increase phi; arithmetic is
            # exhausted, keep the better iterate
            stop_reason = STOP_STAGNATED
            break
        g, rg, phi = g_next, rg_next, phi_next
        iterations += 1

        g_max = float(np.max(np.abs(g)))
        if g_max <= COLLAPSE_RATIO * initial_norm:
            stop_reason = STOP_COLLAPSED
            break
        rest = config.max_iters - iterations

        steps = [*steps[-2:], s]
        if len(steps) == 3 and abs(s - steps[0]) <= CYCLE_TOL * abs(s):
            streak += 1
        else:
            streak = 0
        if streak < CYCLE_STREAK:
            coefficients = []
        else:
            c = _w_coefficient(g, op.apply_generator(g), null)
            coefficients = [*coefficients[-2:], c]
            if len(coefficients) == 3 and coefficients[0] != 0.0:
                rate = c / coefficients[0]
                if 0.0 < rate < 1.0 and rest > 0 and rest % 2 == 0:
                    pairs, stop_reason = _cycle_stop(
                        g_max, initial_norm, rate, rest // 2
                    )
                    g = rate**pairs * g
                    break

        if (
            rest > 0
            and shrink * rest <= RATIO_GATE
            and _in_span(op, g, null)
        ):
            g = math.exp(-shrink * rest) * g
            stop_reason = STOP_CERTIFIED
            break

    final_norm = float(np.max(np.abs(g)))
    g_l2 = float(np.linalg.norm(g))
    if g_l2 == 0.0:
        rel_residual = None
    else:
        rel_residual = float(np.linalg.norm(op.residual(g))) / g_l2

    return DescentTrace(
        g_final=g,
        initial_norm=initial_norm,
        final_norm=final_norm,
        rel_residual=rel_residual,
        iterations=iterations,
        stop_reason=stop_reason,
        budget_margin=null.mu * config.max_iters,
    )
