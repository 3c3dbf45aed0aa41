"""A numeric escape-time probe for scalar flows u' = B(u).

:func:`estimate_escape_time` integrates the trajectory from a state x0 and
reports BLEW_UP with the time it crosses a large cap, or SURVIVED.  Times
are ``float``; IEEE infinities and NaNs never enter the arithmetic.

The trajectory of a continuous field is monotone: it moves in the
direction sigma = sign B(x0) and never crosses a zero of B.  So the probe
integrates its time as a function of the state, t(u) = int ds / |B(s)|
(Osgood's test read as an ODE), one piece of the state line at a time:

- away from 0 the pieces are dyadic in |u|, [a, 2a] once |a| >= 1, the
  last one clipped at +-cap.  An escape is claimed only when the piece
  times shrink geometrically and their bounded sum stays inside the
  horizon; crossing the cap is not enough, so x e^t, which crosses any
  cap in finite time, survives.
- toward 0 each piece halves the distance to 0.  When the piece times
  shrink by the same rule the trajectory reaches 0 in finite time, and it
  carries on past 0 if B(0) keeps the sign of the motion.
- each piece is integrated in ln|u| (in ln(1 + |u|) on a piece from 0), so
  every dyadic piece has the same length, ln 2, and B = x has a constant
  integrand.
- a zero of B that the samples bracket ends the probe with SURVIVED.
  Besides the samples of its steps, the probe looks one doubled Newton
  distance ahead after a rejected step on which |B| falls.

Near the Osgood boundary the geometric test reads a slowly converging
tail as survival: B = x ln(1+x)^2 blows up, but its piece-time ratio at a
cap of 1e8 is about 0.93.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .expr import EvalDomainError

__all__ = [
    "BLEW_UP",
    "SURVIVED",
    "EscapeEstimate",
    "IntegrationError",
    "estimate_escape_time",
]

BLEW_UP = "blew-up"
SURVIVED = "survived"

# Thresholds of the probe (see estimate_escape_time).
_TAIL_RATIO = 0.9      # a full piece may take at most this share of the time of the one before
_TAIL_PIECES = 4       # how many of the last full pieces the ratio test reads
_TAIL_STOP = 1e-12     # stop early once the tail bound is below this share of t
_STEP_FLOOR = 1e-14    # smallest step in the piece's log variable; bisection resolution
_MAX_TRIALS = 100_000  # trial steps one probe may take
_TINY = sys.float_info.min  # a state below this in size has reached 0


class IntegrationError(RuntimeError):
    """The integrator could not resolve the trajectory to the requested accuracy."""


@dataclass
class EscapeEstimate:
    """Outcome of a numeric trajectory probe.

    status      BLEW_UP or SURVIVED
    time        estimated time the trajectory crosses ``cap`` (BLEW_UP), or
                the horizon (SURVIVED)
    final_state trajectory value when the probe stopped; for a trajectory
                stopped by a zero of the field, that zero as seen from the
                trajectory's side
    steps       number of accepted Simpson steps of the time as a function
                of the state
    """

    status: str
    time: float
    final_state: float
    steps: int

    @property
    def escaped(self) -> bool:
        return self.status == BLEW_UP


def estimate_escape_time(
    field,
    x0: float,
    horizon: float = 10.0,
    cap: float = 1e8,
    h0: float = 1e-3,
    tol: float = 1e-10,
) -> EscapeEstimate:
    """Integrate the trajectory of u' = field(u) from x0 and judge whether
    it escapes past ``cap`` within ``horizon``.

    B(x0) = 0 is a fixed point: SURVIVED with final_state x0 and 0 steps.
    Otherwise the state moves in the direction sigma = sign B(x0) and its
    time t(u) = int ds/|B(s)| solves dt/du = 1/B(u), which depends on u
    alone, so a fourth-order Runge-Kutta step of it is Simpson's rule.
    Each step is taken once whole and once as two halves, which share
    their five samples of B (four new ones per step, two per retry); the
    discrepancy, scaled by 1 + t, is checked against ``tol``, and the step
    is halved, or doubled after a very clean step.  The first step covers
    the time ``h0``.

    The states are cut into pieces: [a, a + sigma max(|a|, 1)] away from
    0, the last one clipped at +-``cap``, and [a, a/2] toward 0.  A piece
    is integrated in ln|u|, where dt = (u/B) d ln|u|, so a dyadic piece
    has length ln 2 at every scale; a piece from 0 uses ln(1 + |u|).  The
    probe ends at the first of:

    - t reaches the horizon: SURVIVED, final_state = the state there;
    - a sample of B does not have the sign sigma: B has a zero between the
      state and that sample, which the trajectory never passes.  SURVIVED,
      final_state = that zero, located by bisection to 1e-14 of the
      bracket and kept on the trajectory's side (a trajectory of a
      Lipschitz field approaches that zero and never reaches it);
    - a step is rejected where |B| falls along the motion (B' < 0, from
      the step's first two samples): B is sampled once more, twice the
      Newton distance ahead, at u - 2 B/B'.  A sign change there brackets
      a zero, handled as above; an ``EvalDomainError`` there only means
      no bracket.  So a trajectory bound for a simple zero stops within a
      few steps, not after closing on it geometrically;
    - the step falls below 1e-14 (a relative state step of 1e-14): 1/B
      cannot be resolved, B is closing on a zero ahead.  SURVIVED,
      final_state = the last state reached;
    - the state reaches the cap: BLEW_UP with time = t(cap) if the times
      of the last four full pieces (at least two) each are at most 0.9 of
      the one before, and t(cap) plus the geometric tail bound
      tau r / (1 - r) stays inside the horizon, where tau is the time of
      the last full piece and r the largest of those ratios.  Otherwise
      SURVIVED, final_state = the cap.  At a cap of 1e8 the ratio is 1
      for B = x, about 0.96 for x ln(1+x), 0.71 for x^1.5 and 0.5 for x^2;
    - after a full piece away from 0, the tail bound is below 1e-12 t
      (and t plus it inside the horizon): BLEW_UP with time = t, which is
      then within 1e-12 t of t(cap).  exp(x) stops there by u = 128, long
      before exp overflows.

    After a full piece toward 0 the same tail stop means the trajectory
    reaches 0; so does a state smaller than the least normal float.  B(0)
    is then evaluated: if it has the sign sigma the trajectory passes 0
    and the pieces start afresh from there, and otherwise 0 stops it
    (SURVIVED, final_state = 0).

    The ratio test reads a slowly converging tail as survival, so near
    the Osgood boundary a flow that blows up can be reported SURVIVED:
    B = x ln(1+x)^2 escapes (at t = 1.9936 from x0 = 1), yet its ratio at
    a cap of 1e8 is about 0.93.  B is evaluated on the trajectory up to
    one step past the state reached, at the look-ahead sample, and during
    a bisection between the two.  Evaluation errors on the trajectory
    propagate (ln(x) from 0.5 reaches 0 and raises there), and a probe
    that needs more than 100 000 trial steps raises
    :class:`IntegrationError`.  ``ValueError`` is raised unless
    ``horizon`` and ``cap`` are finite, ``horizon`` > 0, ``cap`` > |x0|,
    ``h0`` > 0 and ``tol`` > 0.
    """
    x0 = float(x0)
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if not (math.isfinite(cap) and cap > abs(x0)):
        raise ValueError(f"cap {cap!r} must be finite and exceed the starting state {x0!r}")
    if not (h0 > 0.0 and tol > 0.0):
        raise ValueError(f"h0 and tol must be positive, got {h0!r} and {tol!r}")

    b0 = field(x0)
    if b0 == 0.0:
        return EscapeEstimate(SURVIVED, horizon, x0, 0)
    sigma = 1.0 if b0 > 0.0 else -1.0
    exp = math.exp
    t = 0.0
    u = x0
    h = None  # the step in the piece's variable; None: the first one covers h0
    steps = trials = 0
    times = []  # time spent in each full piece since x0 or since 0

    while True:
        # the piece from u to end, as u = base + c e^s for s from 0 to s_end
        toward = u != 0.0 and (u > 0.0) != (sigma > 0.0)
        if toward:
            c, end = u, 0.5 * u
        else:
            c, end = u or sigma, u + sigma * max(abs(u), 1.0)
            if abs(end) >= cap:
                end = math.copysign(cap, sigma)
        base = u - c
        s_end = math.log((end - base) / c)
        if h is None:
            h = h0 * abs(b0 / c)
        f0 = c / b0
        s = tau = 0.0
        kept = None  # samples at a quarter and half of a rejected trial
        while s != s_end:
            trials += 1
            if trials > _MAX_TRIALS:
                raise IntegrationError(
                    f"no verdict after {_MAX_TRIALS} trial steps, at t={t!r}, "
                    f"state={u!r}"
                )
            left = abs(s_end - s)
            step = math.copysign(min(h, left), s_end)
            if kept is None:
                w2 = c * exp(s + 0.5 * step)
                u2 = base + w2
                b2 = field(u2)
                if h >= left:
                    w4, u4 = end - base, end
                else:
                    w4 = c * exp(s + step)
                    u4 = base + w4
                b4 = field(u4)
            else:
                # the retry is the first half of the rejected step
                w2, u2, b2, w4, u4, b4 = kept
            w1 = c * exp(s + 0.25 * step)
            u1 = base + w1
            b1 = field(u1)
            w3 = c * exp(s + 0.75 * step)
            u3 = base + w3
            b3 = field(u3)
            if min(sigma * b1, sigma * b2, sigma * b3, sigma * b4) <= 0.0:
                # B has a zero in the step; the trajectory never passes it
                for v, b in ((u1, b1), (u2, b2), (u3, b3), (u4, b4)):
                    if sigma * b <= 0.0:
                        return EscapeEstimate(SURVIVED, horizon, _zero(field, sigma, u, v), steps)
            f1, f2, f3, f4 = w1 / b1, w2 / b2, w3 / b3, w4 / b4
            full = (step / 6.0) * (f0 + 4.0 * f2 + f4)
            half = (step / 12.0) * (f0 + 4.0 * f1 + 2.0 * f2 + 4.0 * f3 + f4)
            err = abs(half - full) / (1.0 + t + half)
            if err <= tol:
                steps += 1
                if t + half >= horizon:
                    # locate the state at the horizon inside this step
                    frac = (horizon - t) / half
                    return EscapeEstimate(SURVIVED, horizon, base + c * exp(s + frac * step), steps)
                t += half
                tau += half
                s = s_end if u4 == end else s + step
                u, b0, f0 = u4, b4, f4
                kept = None
                if err < tol / 64.0:
                    h *= 2.0
                continue
            h = 0.5 * abs(step)
            kept = w1, u1, b1, w2, u2, b2
            if (b1 - b0) * (u1 - u) < 0.0:
                # |B| falls along the motion: look for a zero one doubled
                # Newton step ahead
                ahead = u - 2.0 * b0 * (u1 - u) / (b1 - b0)
                try:
                    bracket = math.isfinite(ahead) and sigma * field(ahead) <= 0.0
                except EvalDomainError:
                    bracket = False  # outside the field's domain
                if bracket:
                    return EscapeEstimate(SURVIVED, horizon, _zero(field, sigma, u, ahead), steps)
            if h < _STEP_FLOOR:
                # 1/B cannot be resolved: B is closing on a zero ahead
                return EscapeEstimate(SURVIVED, horizon, u, steps)

        if abs(end) == cap:
            tail = _geometric_tail(times)
            if tail is not None and t + tail <= horizon:
                return EscapeEstimate(BLEW_UP, t, u, steps)
            return EscapeEstimate(SURVIVED, horizon, u, steps)
        times.append(tau)
        tail = _geometric_tail(times)
        limit = tail is not None and tail <= _TAIL_STOP * t and t + tail <= horizon
        if limit and not toward:
            return EscapeEstimate(BLEW_UP, t, u, steps)
        if toward and (limit or abs(u) < _TINY):
            # the trajectory reaches 0: after the tail stop within 1e-12 t
            # of the time t, after an underflow within about 1e-308 / |B(0)|
            b0 = field(0.0)
            if sigma * b0 <= 0.0:
                return EscapeEstimate(SURVIVED, horizon, 0.0, steps)
            u, h, times = 0.0, None, []


def _geometric_tail(times):
    """tau r / (1 - r), a bound on the time left after the last full piece,
    or None unless each of the last pieces took at most _TAIL_RATIO of the
    time of the one before."""
    recent = times[-_TAIL_PIECES:]
    pairs = list(zip(recent, recent[1:]))
    if not pairs or any(b > _TAIL_RATIO * a for a, b in pairs):
        return None
    # once a piece time is 0 every later one is: those ratios carry nothing
    r = max((b / a for a, b in pairs if a > 0.0), default=0.0)
    return recent[-1] * r / (1.0 - r)


def _zero(field, sigma, lo, hi):
    """The state next to a zero of B between lo and hi, on lo's side:
    bisection, where sigma B(lo) > 0 >= sigma B(hi), down to _STEP_FLOOR
    of the bracket or to adjacent floats."""
    width = abs(hi - lo)
    while abs(hi - lo) > _STEP_FLOOR * width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if sigma * field(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo
