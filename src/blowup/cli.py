"""Command-line front end: classify a field and write report artifacts.

    blowup --field "x^2" --z 10 --n 400 --lambda 1

prints the verdict (LOCAL, GLOBAL, or INCONCLUSIVE) and writes
``eigenfunction.csv``, ``report.json`` and ``figure.svg`` into the output
directory.  Exit codes: 0 for a Local or Global verdict, 2 for
Inconclusive, 1 for usage or numeric errors.

Options may come from a flat ``key = value`` config file (same keys as the
long flags, without the dashes); explicit flags win over the file.  With
``--sweep`` the single (z, n) point is widened to three grid sizes
(n/2, n, 2n), three truncation points (z, 2z, 4z) and three eigenvalue
candidates, and the verdict must be unanimous.

All artifacts are deterministic byte-for-byte for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from xml.sax.saxutils import escape as xml_escape

import numpy as np

from . import expr
from .classify import (
    INCONCLUSIVE,
    RHO_MAX,
    THETA_GLOBAL,
    THETA_LOCAL,
    SweepPlan,
    classify_sweep,
    cross_validate,
)
from .descent import DescentConfig
from .flows import IntegrationError

__all__ = ["main", "emit_csv", "emit_svg", "build_report"]

EXIT_VERDICT = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

DEFAULT_Z = 10.0
DEFAULT_N = 400
DEFAULT_LAMS = (1.0,)
SWEEP_LAMS = (0.5, 1.0, 2.0)
EMIT_CHOICES = ("csv", "json", "svg")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2
    for the Inconclusive verdict, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blowup",
        description=(
            "Decide whether the flow u' = B(u) on the half-line is global or "
            "blows up in finite time, by searching for a bounded eigenfunction "
            "of the flow's generator on a truncated grid."
        ),
    )
    parser.add_argument("--field", help="field expression B(x), e.g. 'x^2'")
    parser.add_argument("--z", help="truncation point (default 10)")
    parser.add_argument("--n", help="number of grid cells (default 400)")
    parser.add_argument(
        "--lambda",
        dest="lam",
        metavar="LIST",
        help="comma-separated eigenvalue candidates (default 1)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        default=None,
        help="widen to a 3x3x3 sweep over n, z and lambda",
    )
    parser.add_argument("--init", choices=("ones", "random"), help="starting vector")
    parser.add_argument("--seed", help="seed for --init random (default 0)")
    parser.add_argument("--out", help="output directory (default current)")
    parser.add_argument(
        "--emit",
        metavar="LIST",
        help="comma-separated artifact kinds from csv,json,svg (default all)",
    )
    parser.add_argument("--max-iters", dest="max_iters", help="descent iteration cap")
    parser.add_argument("--config", help="flat key = value config file")
    return parser


# --------------------------------------------------------------------------
# option merging
# --------------------------------------------------------------------------

@dataclass
class RunConfig:
    field_text: str
    z: float
    n: int
    lams: tuple
    sweep: bool
    init: str
    seed: int
    out: str
    emit: tuple
    max_iters: int


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; keys match flags."""
    options = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            options[key.strip()] = value.strip()
    return options


def _parse_lam_list(text: str):
    if not text.strip():
        raise ValueError("lambda list is empty")
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad lambda list {text!r}") from None


def _parse_emit_list(text: str):
    kinds = tuple(part.strip() for part in text.split(",") if part.strip())
    for kind in kinds:
        if kind not in EMIT_CHOICES:
            raise ValueError(f"unknown emit kind {kind!r}; choose from {EMIT_CHOICES}")
    if not kinds:
        raise ValueError("emit list is empty")
    return kinds


def _parse_bool(text) -> bool:
    value = str(text).lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected one of 1/true/yes or 0/false/no, got {text!r}")


def merge_options(args, config: dict) -> RunConfig:
    """Combine flags and config-file values; flags win.

    A flag's value and a config-file value go through the same converter,
    and a value it rejects is reported under its key.
    """
    known = {
        "field", "z", "n", "lambda", "sweep", "init", "seed", "out",
        "emit", "max-iters",
    }
    for key in config:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")

    def pick(flag_value, key, default, convert=str):
        value = config.get(key) if flag_value is None else flag_value
        if value is None:
            return default
        try:
            return convert(value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    field_text = pick(args.field, "field", None)
    if field_text is None:
        raise ValueError("a field expression is required (--field or config)")

    sweep = pick(args.sweep, "sweep", False, _parse_bool)
    lam_default = SWEEP_LAMS if sweep else DEFAULT_LAMS
    return RunConfig(
        field_text=field_text,
        z=pick(args.z, "z", DEFAULT_Z, float),
        n=pick(args.n, "n", DEFAULT_N, int),
        lams=pick(args.lam, "lambda", lam_default, _parse_lam_list),
        sweep=sweep,
        init=pick(args.init, "init", "ones"),
        seed=pick(args.seed, "seed", 0, int),
        out=pick(args.out, "out", "."),
        emit=pick(args.emit, "emit", EMIT_CHOICES, _parse_emit_list),
        max_iters=pick(args.max_iters, "max-iters", 20000, int),
    )


def build_plan(run: RunConfig) -> SweepPlan:
    if run.sweep:
        return SweepPlan(
            ns=(max(2, run.n // 2), run.n, 2 * run.n),
            zs=(run.z, 2 * run.z, 4 * run.z),
            lams=run.lams,
        )
    return SweepPlan(ns=(run.n,), zs=(run.z,), lams=run.lams)


# --------------------------------------------------------------------------
# artifacts
# --------------------------------------------------------------------------

def emit_csv(grid, g, path: str):
    """Two columns x,g; 12 significant digits; LF line endings."""
    rows = "".join(
        "%.12g,%.12g\n" % pair
        for pair in zip(grid.nodes.tolist(), np.asarray(g, dtype=float).tolist())
    )
    with open(path, "w", newline="") as fh:
        fh.write("x,g\n" + rows)


def _svg_document(xs, ys, title: str) -> str:
    width, height, margin = 800, 500, 60
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    x_min, x_max = float(xs[0]), float(xs[-1])
    if x_max <= x_min:
        x_max = x_min + 1.0
    y_min = min(0.0, float(min(ys)))
    y_max = max(float(max(ys)), y_min + 1e-12)

    def px(x):
        return margin + (x - x_min) * plot_w / (x_max - x_min)

    def py(y):
        return height - margin - (y - y_min) * plot_h / (y_max - y_min)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="30" text-anchor="middle" '
        f'font-family="monospace" font-size="16">{xml_escape(title)}</text>',
        # axes
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black" stroke-width="1"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black" stroke-width="1"/>',
    ]

    for i in range(5):
        frac = i / 4.0
        x_val = x_min + frac * (x_max - x_min)
        x_pix = px(x_val)
        lines.append(
            f'<line x1="{x_pix:.2f}" y1="{height - margin}" x2="{x_pix:.2f}" '
            f'y2="{height - margin + 6}" stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x_pix:.2f}" y="{height - margin + 22}" '
            f'text-anchor="middle" font-family="monospace" font-size="12">'
            f"{x_val:.6g}</text>"
        )
        y_val = y_min + frac * (y_max - y_min)
        y_pix = py(y_val)
        lines.append(
            f'<line x1="{margin - 6}" y1="{y_pix:.2f}" x2="{margin}" '
            f'y2="{y_pix:.2f}" stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{margin - 10}" y="{y_pix + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="12">{y_val:.6g}</text>'
        )

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    lines.append(
        f'<polyline points="{points}" fill="none" stroke="#1f4e9c" '
        'stroke-width="1.5"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_svg(grid, g, title: str, path: str):
    """Deterministic standalone plot of (x_j, g_j) with axes and ticks."""
    with open(path, "w", newline="") as fh:
        fh.write(
            _svg_document(grid.nodes.tolist(), np.asarray(g, dtype=float).tolist(), title)
        )


def build_report(run: RunConfig, plan, classification, validation) -> dict:
    return {
        "schema": 1,
        "field": run.field_text,
        "verdict": classification.verdict,
        "norm_ratio": classification.norm_ratio,
        "rel_residual": classification.rel_residual,
        "lam": classification.lam,
        "grid": {"z": classification.grid.z, "n": classification.grid.n},
        "plan": {
            "ns": list(plan.ns),
            "zs": list(plan.zs),
            "lams": list(plan.lams),
            "theta_local": THETA_LOCAL,
            "theta_global": THETA_GLOBAL,
            "rho_max": RHO_MAX,
        },
        "evidence": [ev.as_dict() for ev in classification.evidence],
        "cross_validation": validation.as_dict(),
    }


def emit_json(report: dict, path: str):
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _join_value_flags(argv):
    """Rewrite ``--field -x`` as ``--field=-x`` so field expressions that
    start with a minus sign are not mistaken for option names."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--field", "--lambda") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_value_flags(list(argv)))
    try:
        config = read_config_file(args.config) if args.config else {}
        run = merge_options(args, config)
        field = expr.parse(run.field_text)
        plan = build_plan(run)
        cfg = DescentConfig(max_iters=run.max_iters, init=run.init, seed=run.seed)
        classification = classify_sweep(field, plan, cfg)
        validation = cross_validate(field, classification)
    except (
        expr.ExprSyntaxError,
        expr.EvalDomainError,
        IntegrationError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        os.makedirs(run.out, exist_ok=True)
        written = []
        if "csv" in run.emit:
            path = os.path.join(run.out, "eigenfunction.csv")
            emit_csv(classification.grid, classification.profile, path)
            written.append(path)
        if "json" in run.emit:
            path = os.path.join(run.out, "report.json")
            emit_json(build_report(run, plan, classification, validation), path)
            written.append(path)
        if "svg" in run.emit:
            path = os.path.join(run.out, "figure.svg")
            emit_svg(classification.grid, classification.profile, run.field_text, path)
            written.append(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    print(classification.verdict.upper())
    ratio = classification.norm_ratio
    residual = classification.rel_residual
    print(
        "norm ratio %s, residual %s, lam %g, grid n=%d z=%g"
        % (
            "n/a" if ratio is None else "%.3e" % ratio,
            "n/a" if residual is None else "%.3e" % residual,
            classification.lam,
            classification.grid.n,
            classification.grid.z,
        )
    )
    if validation.agreement is None:
        print("trajectory check: skipped (no verdict)")
    else:
        print(
            "trajectory check: %s"
            % ("agreement" if validation.agreement else "DISAGREEMENT")
        )
    for path in written:
        print(f"wrote {path}")

    return EXIT_INCONCLUSIVE if classification.verdict == INCONCLUSIVE else EXIT_VERDICT
