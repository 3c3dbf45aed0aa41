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

A sweep repeats the run over grids of several sizes and truncation
points, and issues a verdict only on unanimity.  It runs at one eigenvalue
candidate: if g is an eigenfunction with eigenvalue lam, then g^(mu/lam)
is one with eigenvalue mu, so one lam decides.
:func:`cross_validate` then checks the verdict against direct numeric
integration of trajectories, a computation that shares nothing with the
descent path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, asdict, dataclass, field, fields

import numpy as np

from .descent import DescentConfig, run_descent
from .discrete import DiscreteGenerator, Grid
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
_EPS = float(np.finfo(float).eps)


@dataclass
class Evidence:
    """One sweep point: where it ran, what the descent left behind.

    ``label`` is the point's own verdict.  ``error`` is set (and the label
    forced to Inconclusive) when the point failed to compute at all, or the
    grid cannot resolve it.
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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}


@dataclass(frozen=True)
class SweepPlan:
    """Grid sizes, truncation points and the eigenvalue candidate; every
    (n, z) pair must make a :class:`Grid`.

    ``lams=(x,)`` is the older spelling of ``lam=x``, kept because
    ``bench/test_bench.py`` still builds its plan that way.
    """

    ns: tuple = (200, 400, 800)
    zs: tuple = (10.0, 20.0, 40.0)
    lam: float = 1.0
    lams: InitVar[tuple | None] = None

    def __post_init__(self, lams):
        if lams is not None:
            if len(lams) != 1:
                raise ValueError(f"a sweep plan takes one lam, got lams={lams!r}")
            object.__setattr__(self, "lam", lams[0])
        if not self.ns or not self.zs:
            raise ValueError("sweep plan needs at least one n and one z")
        for n, z in itertools.product(self.ns, self.zs):
            Grid(z, n)
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(
                f"the eigenvalue candidate must be finite and positive, got {self.lam!r}"
            )

    def points(self):
        """All (n, z, lam) points, in deterministic sorted order."""
        return sorted((n, z, self.lam) for n in self.ns for z in self.zs)


@dataclass
class Classification:
    """Sweep verdict plus the evidence behind it.

    norm_ratio and rel_residual summarize the representative point, the
    finest grid.  ``eigenfunction`` is that point's final iterate
    normalized to sup-norm 1, present only for a Local verdict.
    ``profile`` is the same iterate unnormalized, kept for every verdict so
    the raw descent outcome can be inspected and plotted.
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
    """Sample the field, run one descent and label the outcome; sampling
    errors propagate.

    A point whose relative residual has a rounding floor eps*max|v|/(h*lam)
    above RHO_MAX cannot meet the Local residual test, so it gets no
    descent: it is unresolved, Inconclusive with ``error`` naming the floor.
    """
    op = DiscreteGenerator.from_field(field_fn, grid, lam)
    lam = op.lam
    floor = _EPS * float(np.abs(op.v).max()) / (grid.h * lam)
    if floor > RHO_MAX:
        error = f"unresolved: residual rounding floor {floor:.3g} exceeds RHO_MAX {RHO_MAX:g}"
        return Evidence(grid.n, grid.z, lam, None, None, INCONCLUSIVE, error)
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


def classify_sweep(
    field_fn,
    plan: SweepPlan = SweepPlan(),
    cfg: DescentConfig = DescentConfig(),
) -> Classification:
    """Classify at every grid (n, z) of the plan, at its lam, and combine
    by unanimity.

    Each point is :func:`classify_once`'s.  A grid whose sampling fails
    (field undefined at a node) records the error at its point, and a
    point the grid cannot resolve records why; either counts as
    Inconclusive, so the sweep is Inconclusive.  Invalid arguments still
    raise.
    """
    evidence = []
    for n, z, lam in plan.points():
        try:
            evidence.append(classify_once(field_fn, Grid(z, n), lam, cfg))
        except EvalDomainError as exc:
            evidence.append(Evidence(n, z, lam, None, None, INCONCLUSIVE, str(exc)))

    labels = {ev.label for ev in evidence}
    if labels == {LOCAL}:
        verdict = LOCAL
    elif labels == {GLOBAL}:
        verdict = GLOBAL
    else:
        verdict = INCONCLUSIVE

    computed = [ev for ev in evidence if ev.trace is not None]
    rep = min(computed, key=lambda e: e.z / e.n) if computed else evidence[0]
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

    status is "blew-up", "survived", or "failed" (integrator gave up, or
    the state is not below PROBE_CAP); escape_time is set only for
    "blew-up".
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
        return asdict(self)


def probe_states(z: float):
    """Midpoints of PROBES equal subintervals of [0, z]; avoids both ends."""
    return [z * (2 * k - 1) / (2 * PROBES) for k in range(1, PROBES + 1)]


def cross_validate(field_fn, classification: Classification) -> CrossValidation:
    """Check a verdict against direct integration of sample trajectories.

    Integrates from PROBES probe states spread over the classification
    grid, each until PROBE_HORIZON or until it passes PROBE_CAP; a probe
    state at or past the cap (z >= 16/15 PROBE_CAP) is recorded as failed.
    A Local verdict agrees when at least one probe blows up within the
    horizon; a Global verdict agrees when none does.  Disagreements are
    reported, never raised.
    """
    probes = []
    for x in probe_states(classification.grid.z):
        try:
            est = estimate_escape_time(
                field_fn, x, horizon=PROBE_HORIZON, cap=PROBE_CAP
            )
        except (IntegrationError, EvalDomainError, ValueError) as exc:
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
