"""Scalar flows u' = B(u) on the half-line, and a numeric escape-time probe.

Three flows with closed forms serve as ground truth:

``sq``        B(x) = x^2        blows up from every x > 0 at time 1/x
``logistic``  B(x) = x(x-1)     global on [0, 1]; blows up from x > 1
``negsq``     B(x) = -x^2       global everywhere on the half-line

Escape times are ``float`` or ``None``; ``None`` means the trajectory never
escapes (it exists for all time).  IEEE infinities never enter arithmetic.

:func:`estimate_escape_time` integrates an arbitrary field numerically with
adaptive classical Runge-Kutta (step doubling) and reports BLEW_UP with the
time the trajectory crosses a large cap, or SURVIVED.  The sign of B at the
starting state picks what it integrates:

- B(x0) > 0: the trajectory rises monotonically, and the probe integrates
  its time as a function of the state, t(u) = int_{x0}^u ds / B(s)
  (Osgood's test read as an ODE), piece by piece over [a, 2a].  It claims
  an escape only when the times of the last pieces shrink geometrically and
  their bounded sum stays inside the horizon; crossing the cap is not
  enough, so x e^t, which crosses any cap in finite time, survives.  A zero
  of B ahead of the state means survival.  Near the Osgood boundary the
  geometric test reads a slowly converging tail as survival: B = x ln(1+x)^2
  blows up, but its piece-time ratio at a cap of 1e8 is about 0.93.
- B(x0) <= 0: the trajectory does not rise, and the probe integrates the
  state as a function of time, u(t), watching for |u| >= cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import EvalDomainError

__all__ = [
    "ClosedFormFlow",
    "SQ",
    "LOGISTIC",
    "NEGSQ",
    "CLOSED_FORM_FLOWS",
    "BLEW_UP",
    "SURVIVED",
    "EscapeEstimate",
    "IntegrationError",
    "estimate_escape_time",
    "sample_eigenfunction",
]


class ClosedFormFlow:
    """A flow with an analytic solution map and escape-time function.

    ``apply(t, x)`` is the solution at time t starting from x; it raises
    ``ValueError`` when t reaches or passes the escape time.
    ``escape_time(x)`` returns a float, or ``None`` when the trajectory
    from x exists for all positive time.
    """

    def __init__(self, flow_id, field_text, field, apply_fn, escape_fn):
        self.flow_id = flow_id
        self.field_text = field_text
        self.field = field
        self._apply = apply_fn
        self._escape = escape_fn

    def apply(self, t: float, x: float) -> float:
        if t < 0.0:
            raise ValueError(f"time must be nonnegative, got {t!r}")
        m = self._escape(x)
        if m is not None and t >= m:
            raise ValueError(
                f"flow {self.flow_id!r} from x={x!r} escapes at time {m!r}; "
                f"cannot evaluate at t={t!r}"
            )
        return self._apply(t, x)

    def escape_time(self, x: float):
        if x < 0.0:
            raise ValueError(f"state must lie on the half-line, got {x!r}")
        return self._escape(x)

    def __repr__(self):
        return f"ClosedFormFlow({self.flow_id!r})"


# --- sq: u' = u^2, u(t) = x / (1 - t x), escapes at 1/x ---------------------

def _sq_apply(t, x):
    return x / (1.0 - t * x)


def _sq_escape(x):
    if x == 0.0:
        return None
    return 1.0 / x


# --- logistic: u' = u(u-1), u(t) = x / (x + e^t (1-x)) ----------------------
#
# States in [0, 1] flow toward 0 and live forever.  States above 1 grow and
# escape at ln(x / (x-1)), where the denominator x + e^t (1-x) hits zero.

def _logistic_apply(t, x):
    return x / (x + math.exp(t) * (1.0 - x))


def _logistic_escape(x):
    if x <= 1.0:
        return None
    return math.log(x / (x - 1.0))


# --- negsq: u' = -u^2, u(t) = x / (1 + t x), never escapes ------------------

def _negsq_apply(t, x):
    return x / (1.0 + t * x)


def _negsq_escape(x):
    return None


SQ = ClosedFormFlow("sq", "x^2", lambda x: x * x, _sq_apply, _sq_escape)
LOGISTIC = ClosedFormFlow(
    "logistic", "x*(x-1)", lambda x: x * (x - 1.0), _logistic_apply, _logistic_escape
)
NEGSQ = ClosedFormFlow("negsq", "-x^2", lambda x: -(x * x), _negsq_apply, _negsq_escape)

CLOSED_FORM_FLOWS = {"sq": SQ, "logistic": LOGISTIC, "negsq": NEGSQ}


def sample_eigenfunction(escape_fn, rate, xs):
    """exp(-rate * escape_time(x)) nodewise, with 0 where the time is infinite.

    ``escape_fn`` maps x to a float escape time or ``None``; the ``None``
    branch is the limit of the exponential, so no infinity is ever formed.
    Returns a list of floats matching ``xs``.
    """
    out = []
    for x in xs:
        m = escape_fn(x)
        out.append(0.0 if m is None else math.exp(-rate * m))
    return out


# --------------------------------------------------------------------------
# numeric escape-time estimation
# --------------------------------------------------------------------------

BLEW_UP = "blew-up"
SURVIVED = "survived"

# Thresholds of the time-of-state path (see estimate_escape_time).
_TAIL_RATIO = 0.9      # a full piece may take at most this share of the time of the one before
_TAIL_PIECES = 4       # how many of the last full pieces the ratio test reads
_TAIL_STOP = 1e-12     # stop early once the tail bound is below this share of t
_STEP_FLOOR = 1e-14    # smallest state step, relative to max(|u|, 1)
_MAX_TRIALS = 100_000  # trial steps one probe may take on that path


class IntegrationError(RuntimeError):
    """The integrator could not resolve the trajectory to the requested accuracy."""


@dataclass
class EscapeEstimate:
    """Outcome of a numeric trajectory probe.

    status      BLEW_UP or SURVIVED
    time        estimated time the trajectory crosses ``cap`` (BLEW_UP), or
                the horizon (SURVIVED)
    final_state trajectory value when the probe stopped
    steps       number of accepted integrator steps: steps in the state
                (of t(u)) when B(x0) > 0, steps in time (of u(t)) otherwise
    """

    status: str
    time: float
    final_state: float
    steps: int

    @property
    def escaped(self) -> bool:
        return self.status == BLEW_UP


def _rk4_step(field, u, h):
    k1 = field(u)
    k2 = field(u + 0.5 * h * k1)
    k3 = field(u + 0.5 * h * k2)
    k4 = field(u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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

    Both paths take classical fourth-order Runge-Kutta steps adapted by
    step doubling: each step is taken once at h and twice at h/2, the
    discrepancy scaled by 1 + |state| is the error estimate, checked
    against ``tol``, and h is halved or (on very clean steps) doubled
    accordingly.  ``h0`` is the first time step.  Which path runs is read
    from the sign of field(x0).

    **B(x0) > 0: time as a function of the state.**  The trajectory rises
    until it meets a zero of B, so its time is t(u) = int_{x0}^u ds/B(s),
    the solution of dt/du = 1/B(u) with t as the state.  The right-hand
    side depends on u alone, so a Runge-Kutta step is Simpson's rule, and
    the full step and its two halves share their five evaluations (four
    new ones per step, two per retry).  The states are cut into pieces
    [a, a + max(|a|, 1)], dyadic once a >= 1, the last one clipped at
    ``cap``.  The probe ends at the first of:

    - t reaches the horizon: SURVIVED, final_state = the state there;
    - B <= 0 at an evaluated state, or the state step falls below 1e-14
      max(|u|, 1): B has a zero ahead that the trajectory never passes.
      SURVIVED, final_state = the last state reached;
    - the state reaches ``cap``: BLEW_UP with time = t(cap) if the times
      of the last four full pieces (at least two) each are at most 0.9 of
      the one before, and t(cap) plus the geometric tail bound
      tau r / (1 - r) stays inside the horizon, where tau is the time of
      the last full piece and r the largest of those ratios.  Otherwise
      SURVIVED, final_state = cap.  At a cap of 1e8 the ratio is 1 for
      B = x, about 0.96 for x ln(1+x), 0.71 for x^1.5 and 0.5 for x^2;
    - after a full piece, the tail bound is below 1e-12 t (and t plus it
      inside the horizon): BLEW_UP with time = t, which is then within
      1e-12 t of t(cap).  exp(x) stops there by u = 128, long before exp
      overflows.

    The ratio test reads a slowly converging tail as survival, so near
    the Osgood boundary a flow that blows up can be reported SURVIVED:
    B = x ln(1+x)^2 escapes (at t = 1.9936 from x0 = 1; the closed form
    1/ln(1+x0) belongs to (1+x) ln(1+x)^2), yet its ratio at a cap of 1e8
    is about 0.93.  B is never evaluated more than one step past the
    state reached.  Evaluation errors of the field propagate, and a probe
    that needs more than 100 000 trial steps raises
    :class:`IntegrationError`.

    **B(x0) <= 0: state as a function of time.**  The trajectory does not
    rise, and u(t) is integrated directly.  A trial step that leaves the
    field's domain or goes non-finite is treated as too big and retried at
    half the step, unless the state is still moderate, in which case the
    field itself is broken and the error propagates.  On crossing ``cap``
    (|u| >= cap) the crossing time is located by linear interpolation
    within the final step.  If the step size collapses to the floor while
    the state's own timescale |u| / |field(u)| has shrunk below 1e-8 of the
    horizon, the remaining time to blow-up is negligible at the reporting
    precision and the current time is returned as the escape time;
    otherwise :class:`IntegrationError` is raised.  Reaching the horizon
    is SURVIVED.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if cap <= abs(x0):
        raise ValueError(f"cap {cap!r} must exceed the starting state {x0!r}")

    x0 = float(x0)
    b0 = field(x0)
    if b0 > 0.0:
        return _integrate_time(field, x0, b0, horizon, cap, h0, tol)
    return _integrate_state(field, x0, horizon, cap, h0, tol)


def _integrate_time(field, x0, b0, horizon, cap, h0, tol):
    """The B(x0) > 0 path of :func:`estimate_escape_time`: dt/du = 1/B(u)."""
    t = 0.0
    u = x0
    f0 = 1.0 / b0
    h = h0 * b0  # the state step that the first time step covers
    steps = trials = 0
    times = []  # time spent in each full piece

    while True:
        end = min(u + max(abs(u), 1.0), cap)
        tau = 0.0
        kept = None  # B at u + step/4 and u + step/2 of a rejected trial
        while u < end:
            trials += 1
            if trials > _MAX_TRIALS:
                raise IntegrationError(
                    f"no verdict after {_MAX_TRIALS} trial steps, at t={t!r}, "
                    f"state={u!r}"
                )
            step = min(h, end - u)
            u4 = end if step == end - u else u + step
            if kept is None:
                b2 = field(u + 0.5 * step)
                b4 = field(u4)
            else:
                b2, b4 = kept  # the retry is the first half of the rejected step
            b1 = field(u + 0.25 * step)
            b3 = field(u + 0.75 * step)
            if min(b1, b2, b3, b4) <= 0.0:
                # B has a zero in (u, u4]; the trajectory never passes it
                return EscapeEstimate(SURVIVED, horizon, u, steps)
            f1, f2, f3, f4 = 1.0 / b1, 1.0 / b2, 1.0 / b3, 1.0 / b4
            full = (step / 6.0) * (f0 + 4.0 * f2 + f4)
            half = (step / 12.0) * (f0 + 4.0 * f1 + 2.0 * f2 + 4.0 * f3 + f4)
            err = abs(half - full) / (1.0 + t + half)
            if err <= tol:
                steps += 1
                if t + half >= horizon:
                    # locate the state at the horizon inside this step
                    frac = (horizon - t) / half
                    return EscapeEstimate(SURVIVED, horizon, u + frac * (u4 - u), steps)
                t += half
                tau += half
                u, f0 = u4, f4
                kept = None
                if err < tol / 64.0:
                    h *= 2.0
                continue
            h = 0.5 * step
            kept = b1, b2
            if h < _STEP_FLOOR * max(abs(u), 1.0):
                # 1/B cannot be resolved: B is closing on a zero ahead
                return EscapeEstimate(SURVIVED, horizon, u, steps)

        if end == cap:
            tail = _geometric_tail(times)
            if tail is not None and t + tail <= horizon:
                return EscapeEstimate(BLEW_UP, t, u, steps)
            return EscapeEstimate(SURVIVED, horizon, u, steps)
        times.append(tau)
        tail = _geometric_tail(times)
        if tail is not None and tail <= _TAIL_STOP * t and t + tail <= horizon:
            return EscapeEstimate(BLEW_UP, t, u, steps)


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


def _integrate_state(field, x0, horizon, cap, h0, tol):
    """The B(x0) <= 0 path of :func:`estimate_escape_time`: u' = B(u)."""
    t = 0.0
    u = x0
    h = min(h0, horizon)
    h_floor = 1e-14 * horizon
    steps = 0

    while t < horizon:
        h = min(h, horizon - t)
        try:
            full = _rk4_step(field, u, h)
            half = _rk4_step(field, _rk4_step(field, u, 0.5 * h), 0.5 * h)
            ok = math.isfinite(full) and math.isfinite(half)
        except EvalDomainError:
            if abs(u) < 1e6:
                raise  # the field is genuinely undefined near the trajectory
            ok = False
            half = full = 0.0

        if ok:
            err = abs(half - full) / (1.0 + abs(half))
            if err <= tol:
                u_new = half
                t_new = t + h
                steps += 1
                if abs(u_new) >= cap:
                    # locate the cap crossing inside this step
                    frac = (cap - abs(u)) / (abs(u_new) - abs(u))
                    return EscapeEstimate(BLEW_UP, t + frac * h, u_new, steps)
                t, u = t_new, u_new
                if err < tol / 64.0:
                    h *= 2.0
                continue

        h *= 0.5
        if h < h_floor:
            speed = abs(field(u))
            if speed > 0.0 and abs(u) / speed <= 1e-8 * horizon:
                # remaining time to blow-up is below reporting precision
                return EscapeEstimate(BLEW_UP, t, u, steps)
            raise IntegrationError(
                f"step size underflow at t={t!r}, state={u!r}: "
                f"trajectory stiff but not provably escaping"
            )

    return EscapeEstimate(SURVIVED, horizon, u, steps)
