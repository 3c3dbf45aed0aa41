"""Reference verdicts and escape times for the benchmark's fields.

Every entry rests on Osgood's test for u' = B(u) on the half-line: a
trajectory from x with B > 0 on [x, oo) blows up in finite time exactly
when the integral  m(x) = int_x^oo du / B(u)  converges, and m(x) is then
its escape time.  The table shares nothing with the program under test:
neither its descent nor its Runge-Kutta probe.  The benchmark judges the
program's outputs against this table only, never against the program's
own cross-check.

A probe of u' = B(u) from x0 that watches for |u| >= cap reports the
time the trajectory crosses the cap, which is m(x0) - m(cap) for a
blow-up flow.  Scoring against that crossing time, not the escape time,
keeps fields with slowly converging tails (x^1.5 leaves 2/sqrt(cap)
beyond the cap) from reading as probe errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

BLOWUP = "blowup"
GLOBAL = "global"


@dataclass(frozen=True)
class Reference:
    """One field: its verdict, why, and its escape time m(x) (None = never)."""

    field: str
    kind: str
    reason: str
    escape_time: Callable[[float], Optional[float]]

    def crossing_time(self, x0: float, cap: float) -> Optional[float]:
        """Closed-form time at which the trajectory from x0 crosses cap."""
        m0 = self.escape_time(x0)
        if m0 is None:
            return None
        return m0 - self.escape_time(cap)


def _never(x):
    return None


def _logistic(x):
    return math.log(x / (x - 1.0)) if x > 1.0 else None


TABLE = {
    ref.field: ref
    for ref in (
        Reference(
            "x^2", BLOWUP,
            "B = u^2 > 0 on (0, oo) and int_x^oo du/u^2 = 1/x converges",
            lambda x: 1.0 / x if x > 0.0 else None,
        ),
        Reference(
            "x*(x-1)", BLOWUP,
            "B > 0 on (1, oo) and int_x^oo du/(u(u-1)) = ln(x/(x-1)) converges; "
            "states in [0, 1] sit between the zeros 0 and 1 and live forever",
            _logistic,
        ),
        Reference(
            "x^3", BLOWUP,
            "int_x^oo du/u^3 = 1/(2x^2) converges",
            lambda x: 0.5 / (x * x) if x > 0.0 else None,
        ),
        Reference(
            "x^1.5", BLOWUP,
            "int_x^oo du/u^1.5 = 2/sqrt(x) converges",
            lambda x: 2.0 / math.sqrt(x) if x > 0.0 else None,
        ),
        Reference(
            "exp(x)", BLOWUP,
            "int_x^oo e^-u du = e^-x converges",
            lambda x: math.exp(-x),
        ),
        Reference(
            "-x^2", GLOBAL,
            "B <= 0 on the half-line, so trajectories never increase; "
            "they decay as x/(1+tx)",
            _never,
        ),
        Reference(
            "x", GLOBAL,
            "int_x^X du/u = ln(X/x) diverges; the flow is x e^t",
            _never,
        ),
        Reference(
            "x*ln(1+x)", GLOBAL,
            "int_x^X du/(u ln(1+u)) grows like ln ln X and diverges",
            _never,
        ),
        Reference(
            "sin(x)", GLOBAL,
            "|B| <= 1 bounds growth by x + t, and no trajectory crosses "
            "a zero of sin",
            _never,
        ),
    )
}

# outcomes of one escape probe judged against the table
FALSE_ESCAPE = "false-escape"
MISSED_ESCAPE = "missed-escape"
TIME_OFF = "time-off"

# outcomes of a whole operation judged against the table
WRONG_VERDICT = "wrong-verdict"  # Local for a global field, Global for a blow-up one
DOMAIN_ERROR = "domain-error"    # the probe raised EvalDomainError


@dataclass(frozen=True)
class KnownDefect:
    """A wrong outcome the program is known to give, and where it gives it.

    Known defects lower ``ok_frac`` and are counted by kind on every run;
    they do not count as failed operations.  Any wrong outcome not listed
    here, or outside the states listed, is a failed operation.
    """

    field: str
    outcome: str
    note: str
    from_x0: float = -math.inf  # the defect shows from this state up


KNOWN_DEFECTS = (
    KnownDefect(
        "x", WRONG_VERDICT,
        "the default sweep calls u' = u Local (ROADMAP, known false Local)",
    ),
    KnownDefect(
        "x", FALSE_ESCAPE,
        "the probe reports the cap crossing of x e^t as an escape (ROADMAP)",
    ),
    KnownDefect(
        "x*ln(1+x)", FALSE_ESCAPE,
        "the probe reports the cap crossing as an escape (ROADMAP)",
    ),
    KnownDefect(
        "exp(x)", DOMAIN_ERROR,
        "the probe's first trial step overflows exp and the probe raises "
        "instead of halving the step; every x0 >= 7.2948 on this build",
        from_x0=7.29,
    ),
)


def known_defect(field: str, outcome: str, x0: Optional[float] = None):
    """The KnownDefect that explains this outcome, or None."""
    for defect in KNOWN_DEFECTS:
        if (defect.field == field and defect.outcome == outcome
                and (x0 is None or x0 >= defect.from_x0)):
            return defect
    return None


# relative tolerance on a probe's crossing time (the repository's own
# acceptance bound for escape-time estimates)
TIME_TOL = 1e-3
# relative tolerance on a normalized eigenfunction profile (the
# repository's own acceptance bound for profile reproduction)
PROFILE_TOL = 0.05
# nodes where the normalized reference profile is below this are not scored
PROFILE_FLOOR = 0.05


def judge_probe(field: str, x0: float, escaped: bool, time, horizon: float, cap: float):
    """Judge one probe outcome; returns (failure or None, relative time error or None).

    The reference expects an escape when the closed-form crossing time of
    the cap falls inside the horizon, and survival otherwise.
    """
    expected = TABLE[field].crossing_time(x0, cap)
    if expected is not None and expected >= horizon:
        expected = None
    if escaped and expected is None:
        return FALSE_ESCAPE, None
    if not escaped and expected is not None:
        return MISSED_ESCAPE, None
    if expected is None:
        return None, None
    err = abs(time - expected) / expected
    return (TIME_OFF if err > TIME_TOL else None), err


def profile_error(field: str, lam: float, xs, g):
    """Largest relative gap between the normalized profile g and the
    normalized closed form exp(-lam m(x)), over nodes where the reference
    exceeds PROFILE_FLOOR.  None when the reference vanishes on the grid."""
    ref = TABLE[field]
    refs = []
    for x in xs:
        m = ref.escape_time(x)
        refs.append(0.0 if m is None else math.exp(-lam * m))
    peak_ref = max(refs)
    peak_g = max(abs(v) for v in g)
    if peak_ref == 0.0 or peak_g == 0.0:
        return None
    worst = 0.0
    for r, v in zip(refs, g):
        r /= peak_ref
        if r > PROFILE_FLOOR:
            worst = max(worst, abs(v / peak_g - r) / r)
    return worst
