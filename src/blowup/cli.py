"""Command-line front end: classify a field and write report artifacts.

    blowup --field "x^2" --z 10 --n 400 --lambda 1

prints the verdict (LOCAL, GLOBAL, or INCONCLUSIVE) and writes
``eigenfunction.csv``, ``report.json`` and ``figure.svg`` into the output
directory.  Exit codes: 0 for a Local or Global verdict, 2 for
Inconclusive, 1 for usage or numeric errors; a usage error prints its
reason.

``--config FILE`` reads a flat file of ``key = value`` lines.  The line
``key = value`` is the flag ``--key=value``, read before the command line,
so one parser converts both and a flag beats the file.  With ``--sweep``
the single (z, n) point is widened to three grid sizes (n/2, n, 2n) and
three truncation points (z, 2z, 4z), all at the one ``--lambda``, and the
verdict must be unanimous.

All artifacts are deterministic byte-for-byte for a fixed configuration.
"""

from __future__ import annotations

import argparse
import html
import json
import os
import sys

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

EMIT_CHOICES = ("csv", "json", "svg")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2
    for the Inconclusive verdict, so a usage error is raised as
    ``ValueError`` and ``main`` reports it and exits 1."""

    def error(self, message):
        raise ValueError(message)


def _parse_emit_list(text: str):
    kinds = tuple(part.strip() for part in text.split(",") if part.strip())
    for kind in kinds:
        if kind not in EMIT_CHOICES:
            raise argparse.ArgumentTypeError(
                f"unknown emit kind {kind!r}; choose from {EMIT_CHOICES}"
            )
    if not kinds:
        raise argparse.ArgumentTypeError("emit list is empty")
    return kinds


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(
        f"expected one of 1/true/yes or 0/false/no, got {text!r}"
    )


def build_parser() -> argparse.ArgumentParser:
    """The one parser of flags and config lines: each option's converter and
    default is given here once.  ``allow_abbrev=False`` makes a config key
    name its flag exactly."""
    parser = _Parser(
        prog="blowup",
        allow_abbrev=False,
        description=(
            "Decide whether the flow u' = B(u) on the half-line is global or "
            "blows up in finite time, by searching for a bounded eigenfunction "
            "of the flow's generator on a truncated grid."
        ),
    )
    add = parser.add_argument
    add("--field", help="field expression B(x), e.g. 'x^2' (required)")
    add("--z", type=float, default=10.0, help="truncation point (default 10)")
    add("--n", type=int, default=400, help="number of grid cells (default 400)")
    add(
        "--lambda", dest="lam", metavar="X", type=float, default=SweepPlan.lam,
        help="eigenvalue candidate (default 1)",
    )
    add(
        "--sweep", nargs="?", const=True, default=False, type=_parse_bool,
        metavar="BOOL",
        help="widen to a 3x3 sweep over n and z",
    )
    add("--out", default=".", help="output directory (default current)")
    add(
        "--emit", metavar="LIST", type=_parse_emit_list, default=EMIT_CHOICES,
        help="comma-separated artifact kinds from csv,json,svg (default all)",
    )
    add(
        "--max-iters", dest="max_iters", type=int, default=DescentConfig.max_iters,
        help="descent iteration cap",
    )
    add("--config", help="flat key = value file; a line is the flag --key=value")
    return parser


def read_config_file(path: str) -> list:
    """Flat ``key = value`` lines as the arguments ``--key=value``; '#'
    starts a comment.  A file cannot name another config file."""
    args = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key == "config":
                raise ValueError(f"{path}:{lineno}: a config file cannot set 'config'")
            args.append(f"--{key}={value.strip()}")
    return args


def build_plan(args) -> SweepPlan:
    """The run's grids, at the one lambda."""
    if args.sweep:
        return SweepPlan(
            ns=(max(2, args.n // 2), args.n, 2 * args.n),
            zs=(args.z, 2 * args.z, 4 * args.z),
            lam=args.lam,
        )
    return SweepPlan(ns=(args.n,), zs=(args.z,), lam=args.lam)


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
        f'font-family="monospace" font-size="16">'
        f"{html.escape(title, quote=False)}</text>",
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


def build_report(args, plan, classification, validation) -> dict:
    return {
        "schema": 1,
        "field": args.field,
        "verdict": classification.verdict,
        "norm_ratio": classification.norm_ratio,
        "rel_residual": classification.rel_residual,
        "lam": classification.lam,
        "grid": {"z": classification.grid.z, "n": classification.grid.n},
        "plan": {
            "ns": list(plan.ns),
            "zs": list(plan.zs),
            "lam": plan.lam,
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

def _join_value_flags(parser, argv):
    """Rewrite ``--field -x`` as ``--field=-x``, for every option of the
    parser that takes exactly one value, so a value that starts with a
    minus sign is not mistaken for an option name.  ``--sweep``, whose
    value is optional, is left alone."""
    takes_one = {
        option
        for action in parser._actions
        if action.nargs is None
        for option in action.option_strings
    }
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in takes_one and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_value_flags(parser, sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        # the first pass finds --config; the file's lines go first, so flags win
        if args.config:
            args = parser.parse_args(read_config_file(args.config) + argv)
        if args.field is None:
            raise ValueError("a field expression is required (--field or config)")
        field = expr.parse(args.field)
        plan = build_plan(args)
        classification = classify_sweep(field, plan, DescentConfig(args.max_iters))
        validation = cross_validate(field, classification)
        os.makedirs(args.out, exist_ok=True)
        written = []
        if "csv" in args.emit:
            path = os.path.join(args.out, "eigenfunction.csv")
            emit_csv(classification.grid, classification.profile, path)
            written.append(path)
        if "json" in args.emit:
            path = os.path.join(args.out, "report.json")
            emit_json(build_report(args, plan, classification, validation), path)
            written.append(path)
        if "svg" in args.emit:
            path = os.path.join(args.out, "figure.svg")
            emit_svg(classification.grid, classification.profile, args.field, path)
            written.append(path)
    except (expr.EvalDomainError, IntegrationError, ValueError, OSError) as exc:
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
