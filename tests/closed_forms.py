"""Three flows with closed forms, ground truth for the test suite.

``sq``        B(x) = x^2        blows up from every x > 0 at time 1/x
``logistic``  B(x) = x(x-1)     global on [0, 1]; blows up from x > 1
``negsq``     B(x) = -x^2       global everywhere on the half-line

Escape times are ``float`` or ``None``; ``None`` means the trajectory never
escapes (it exists for all time).  IEEE infinities never enter arithmetic.
"""

import math


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
