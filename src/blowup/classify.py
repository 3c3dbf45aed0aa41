"""Turn descent outcomes into a verdict: Local, Global, or Inconclusive.

A field B generates only a local flow (some trajectory blows up in finite
time) exactly when the generator g |-> B g' has a bounded eigenfunction
with positive eigenvalue.  The descent search surfaces that eigenfunction
as a surviving remnant of the starting vector; if instead the iterates
collapse to zero, no eigenfunction was found at that lam.

Per run the evidence is two numbers: the sup-norm ratio ||g_K|| / ||g_0||
and the relative residual ||lam*g - M g|| / ||g||.  A run is

    Local-evidence   when ratio >= THETA_LOCAL and residual <= RHO_MAX,
    Global-evidence  when ratio <= THETA_GLOBAL,
    Inconclusive     otherwise,

with THETA_LOCAL = 0.1, THETA_GLOBAL = 1e-4 and RHO_MAX = 1e-2.  The
thresholds leave three orders of magnitude of buffer between the two
verdicts, so borderline arithmetic shows up loudly as Inconclusive rather
than silently flipping a verdict.  THETA_GLOBAL sits above the descent's
COLLAPSE_RATIO, where a collapsing run stops, so a collapsed point reads
Global.

A sweep repeats the run over grids of several sizes, truncation points
and eigenvalue candidates, and issues a verdict only on unanimity.
:func:`cross_validate` then checks the verdict against direct numeric
integration of trajectories, a computation that shares nothing with the
descent path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .descent import DescentConfig, run_descent
from .discrete import DiscreteGenerator, FactorizationError, Grid
from .expr import EvalDomainError
from .flows import IntegrationError, estimate_escape_time

__all__ = [
    "LOCAL",
    "GLOBAL",
    "INCONCLUSIVE",
    "Evidence",
    "SweepPlan",
    "Classification",
    "ProbeResult",
    "CrossValidation",
    "classify_once",
    "classify_sweep",
    "cross_validate",
]

LOCAL = "Local"
GLOBAL = "Global"
INCONCLUSIVE = "Inconclusive"

THETA_LOCAL = 0.1
THETA_GLOBAL = 1e-4
RHO_MAX = 1e-2


@dataclass
class Evidence:
    """One sweep point: where it ran, what the descent left behind.

    ``label`` is the point's own verdict.  ``error`` is set (and the label
    forced to Inconclusive) when the point failed to compute at all.
    ``trace`` keeps the descent output for downstream use; it is not part
    of the serialized evidence.
    """

    n: int
    z: float
    lam: float
    norm_ratio: float | None
    rel_residual: float | None
    label: str
    error: str | None = None
    trace: object = field(default=None, repr=False, compare=False)

    def as_dict(self):
        return {
            "n": self.n,
            "z": self.z,
            "lam": self.lam,
            "norm_ratio": self.norm_ratio,
            "rel_residual": self.rel_residual,
            "label": self.label,
            "error": self.error,
        }


@dataclass(frozen=True)
class SweepPlan:
    """Grid sizes, truncation points and eigenvalue candidates."""

    ns: tuple = (200, 400, 800)
    zs: tuple = (10.0, 20.0, 40.0)
    lams: tuple = (0.5, 1.0, 2.0)

    def __post_init__(self):
        if not self.ns or not self.zs or not self.lams:
            raise ValueError("sweep plan needs at least one n, one z and one lam")
        for n in self.ns:
            if not isinstance(n, Integral) or n < 2:
                raise ValueError(f"grid sizes must be integers >= 2, got {n!r}")
        for z in self.zs:
            if not (math.isfinite(z) and z > 0):
                raise ValueError(
                    f"truncation points must be finite and positive, got {z!r}"
                )
        for lam in self.lams:
            if not (math.isfinite(lam) and lam > 0):
                raise ValueError(
                    f"eigenvalue candidates must be finite and positive, got {lam!r}"
                )

    def points(self):
        """All (n, z, lam) combinations, in deterministic sorted order."""
        return sorted(
            (n, z, lam) for n in self.ns for z in self.zs for lam in self.lams
        )


@dataclass
class Classification:
    """Sweep verdict plus the evidence behind it.

    norm_ratio and rel_residual summarize the representative point (the
    finest grid; ties broken toward lam nearest 1).  ``eigenfunction`` is
    that point's final iterate normalized to sup-norm 1, present only for
    a Local verdict.  ``profile`` is the same iterate unnormalized, kept
    for every verdict so the raw descent outcome can be inspected and
    plotted.
    """

    verdict: str
    norm_ratio: float | None
    rel_residual: float | None
    eigenfunction: np.ndarray | None
    evidence: list
    grid: Grid
    lam: float
    profile: np.ndarray


def _label(norm_ratio, rel_residual):
    if (
        norm_ratio >= THETA_LOCAL
        and rel_residual is not None
        and rel_residual <= RHO_MAX
    ):
        return LOCAL
    if norm_ratio <= THETA_GLOBAL:
        return GLOBAL
    return INCONCLUSIVE


def classify_once(
    field_fn,
    grid: Grid,
    lam: float,
    cfg: DescentConfig = DescentConfig(),
) -> Evidence:
    """Run one descent and label the outcome.  Errors propagate."""
    op = DiscreteGenerator.from_field(field_fn, grid, lam)
    trace = run_descent(op, cfg)
    return Evidence(
        n=grid.n,
        z=grid.z,
        lam=lam,
        norm_ratio=trace.norm_ratio,
        rel_residual=trace.rel_residual,
        label=_label(trace.norm_ratio, trace.rel_residual),
        trace=trace,
    )


def _representative(evidence):
    """Finest-grid point (smallest spacing); ties go to lam nearest 1."""
    return min(evidence, key=lambda e: (e.z / e.n, abs(e.lam - 1.0), e.lam))


def classify_sweep(
    field_fn,
    plan: SweepPlan = SweepPlan(),
    cfg: DescentConfig = DescentConfig(),
) -> Classification:
    """Classify at every sweep point and combine by unanimity.

    A point that fails to compute (field undefined at a node, degenerate
    factorization) is recorded with its error and the sweep is
    Inconclusive; invalid arguments still raise.
    """
    evidence = []
    for n, z, lam in plan.points():
        grid = Grid(z, n)
        try:
            ev = classify_once(field_fn, grid, lam, cfg)
        except (EvalDomainError, FactorizationError) as exc:
            ev = Evidence(
                n=n,
                z=z,
                lam=lam,
                norm_ratio=None,
                rel_residual=None,
                label=INCONCLUSIVE,
                error=str(exc),
            )
        evidence.append(ev)

    labels = {ev.label for ev in evidence}
    if labels == {LOCAL}:
        verdict = LOCAL
    elif labels == {GLOBAL}:
        verdict = GLOBAL
    else:
        verdict = INCONCLUSIVE

    computed = [ev for ev in evidence if ev.trace is not None]
    rep = _representative(computed) if computed else evidence[0]
    if rep.trace is not None:
        profile = np.array(rep.trace.g_final, dtype=float)
    else:
        profile = np.zeros(rep.n + 1)
    rep_grid = Grid(rep.z, rep.n)

    eigenfunction = None
    if verdict == LOCAL:
        peak = float(np.max(np.abs(profile)))
        eigenfunction = profile / peak

    return Classification(
        verdict=verdict,
        norm_ratio=rep.norm_ratio,
        rel_residual=rep.rel_residual,
        eigenfunction=eigenfunction,
        evidence=evidence,
        grid=rep_grid,
        lam=rep.lam,
        profile=profile,
    )


# --------------------------------------------------------------------------
# independent check against trajectory integration
# --------------------------------------------------------------------------

PROBE_STATUS_FAILED = "failed"
PROBES = 8
PROBE_HORIZON = 50.0
PROBE_CAP = 1e8


@dataclass
class ProbeResult:
    """Numeric trajectory probe from one starting state.

    status is "blew-up", "survived", or "failed" (integrator gave up);
    escape_time is set only for "blew-up".
    """

    x: float
    status: str
    escape_time: float | None
    error: str | None = None


@dataclass
class CrossValidation:
    """Agreement between the sweep verdict and direct integration.

    agreement is None when the verdict was Inconclusive (nothing to
    check), True/False otherwise.  profile_deviation is the worst
    relative gap between the normalized eigenfunction and the normalized
    exp(-lam * estimated escape time) samples, over probes where both
    normalized values exceed 0.05; set only for Local verdicts with at
    least one comparable probe.
    """

    probes: list
    agreement: bool | None
    profile_deviation: float | None

    def as_dict(self):
        return {
            "probes": [
                {
                    "x": p.x,
                    "status": p.status,
                    "escape_time": p.escape_time,
                    "error": p.error,
                }
                for p in self.probes
            ],
            "agreement": self.agreement,
            "profile_deviation": self.profile_deviation,
        }


def probe_states(z: float):
    """Midpoints of PROBES equal subintervals of [0, z]; avoids both ends."""
    return [z * (2 * k - 1) / (2 * PROBES) for k in range(1, PROBES + 1)]


def cross_validate(field_fn, classification: Classification) -> CrossValidation:
    """Check a verdict against direct integration of sample trajectories.

    Integrates from PROBES probe states spread over the classification
    grid, each until PROBE_HORIZON or until it passes PROBE_CAP.  A Local
    verdict agrees when at least one probe blows up within the horizon; a
    Global verdict agrees when none does.  Disagreements are reported,
    never raised.
    """
    probes = []
    for x in probe_states(classification.grid.z):
        try:
            est = estimate_escape_time(
                field_fn, x, horizon=PROBE_HORIZON, cap=PROBE_CAP
            )
        except (IntegrationError, EvalDomainError) as exc:
            probes.append(ProbeResult(x, PROBE_STATUS_FAILED, None, str(exc)))
            continue
        probes.append(
            ProbeResult(x, est.status, est.time if est.escaped else None)
        )

    blew = [p for p in probes if p.escape_time is not None]
    if classification.verdict == LOCAL:
        agreement = bool(blew)
    elif classification.verdict == GLOBAL:
        agreement = not blew
    else:
        agreement = None

    deviation = None
    if classification.verdict == LOCAL and classification.eigenfunction is not None:
        deviation = _profile_deviation(classification, probes)

    return CrossValidation(
        probes=probes, agreement=agreement, profile_deviation=deviation
    )


def _profile_deviation(classification, probes):
    """Max relative gap, over comparable probes, between the normalized
    eigenfunction and the normalized escape-time exponentials."""
    grid = classification.grid
    lam = classification.lam
    xs, refs = [], []
    for p in probes:
        if p.status == PROBE_STATUS_FAILED:
            continue
        xs.append(p.x)
        refs.append(0.0 if p.escape_time is None else np.exp(-lam * p.escape_time))
    if not xs or max(refs) == 0.0:
        return None

    ours = np.interp(xs, grid.nodes, classification.eigenfunction)
    peak = float(np.max(np.abs(ours)))
    if peak == 0.0:
        return None
    ours = ours / peak
    refs = np.asarray(refs) / max(refs)

    worst = None
    for mine, ref in zip(ours, refs):
        if mine > 0.05 and ref > 0.05:
            gap = abs(mine - ref) / ref
            worst = gap if worst is None else max(worst, gap)
    return worst
