"""Command-line interface.

Four subcommands:

* sweep-qmmi       lambda grid of DP1..DP4 and M4 on the example circuit
* sweep-mqmmi      lambda grid of the three interventional witnesses
* sweep-dpi-extra  lambda grid of DP5..DP7 plus the Markov-reference DP5
* verify           randomized worst-case survey of the proven inequalities
                   (--dims D_SYS D_ENV sets the surveyed processes' dimensions,
                   --seed the first sample's seed; the sweeps draw nothing)

Sweeps emit CSV (default) or JSON, to stdout or --output; --svg
additionally writes a minimal line chart next to the output file, and is
refused when the chart path would be the output file itself.  verify
emits a JSON summary (echoing --dims) and exits 0 when every check
passes its threshold, 1 when a genuine violation was found (the
offending sample seed is reported), 2 on configuration or I/O errors and
when a surveyed or checked value is NaN or infinite (the error names the
entry and the sample).  All output is deterministic given the flags and
seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .experiments import (adjoint_identity_check, classical_cmmi_check, extra_dpi_rows,
                          lambda_grid, mi_monotonicity_check, mqmmi_rows,
                          nonmarkov_witness_rows, random_markov_verify)
from .tolerances import (ADJOINT_IDENTITY_CEIL, CLASSICAL_FLOOR, GAP_TOLERANCE,
                         INVARIANT_TOL, SVG_FLAT_RANGE)
from .witnesses import MONOGAMY

# each sweep's grid function (the whole grid as one stacked register) and columns
SWEEPS = {
    "sweep-qmmi": (nonmarkov_witness_rows,
                   ["lambda", "DP1", "DP2", "DP3", "DP4", "M4"]),
    "sweep-mqmmi": (mqmmi_rows, ["lambda", "M4_q1", "M4_q2", "M4_q3"]),
    "sweep-dpi-extra": (extra_dpi_rows,
                        ["lambda", "DP5_markov", "DP5", "DP6", "DP7"]),
}


def _fmt(v: float) -> str:
    return f"{v:.11e}"


def _render_csv(columns: list[str], rows: list[dict[str, float]]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _render_json(columns: list[str], rows: list[dict[str, float]]) -> str:
    payload = {"columns": columns, "rows": [[row[c] for c in columns] for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


_SVG_COLORS = ("#1f6fb2", "#c23b22", "#2e8540", "#8a5ab8", "#b8860b")


def _render_svg(columns: list[str], rows: list[dict[str, float]]) -> str:
    """Minimal self-contained line chart: one polyline per value column."""
    width, height = 640, 400
    left, right, top, bottom = 62, 12, 18, 40
    xs = [row[columns[0]] for row in rows]
    series = columns[1:]
    values = [row[c] for row in rows for c in series]
    lo, hi = min(values), max(values)
    if hi - lo < SVG_FLAT_RANGE:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    x0, x1 = min(xs), max(xs)
    if x1 - x0 < SVG_FLAT_RANGE:
        x0, x1 = x0 - 0.5, x1 + 0.5

    def px(x: float) -> float:
        return left + (x - x0) / (x1 - x0) * (width - left - right)

    def py(v: float) -> float:
        return top + (hi - v) / (hi - lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # axes, ticks, zero line
    ax = 'stroke="#444" stroke-width="1"'
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" {ax}/>')
    parts.append(f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
                 f'y2="{height - bottom}" {ax}/>')
    for i in range(5):
        v = lo + i * (hi - lo) / 4
        y = py(v)
        parts.append(f'<line x1="{left - 4}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" {ax}/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end">{v:.3g}</text>')
    for i in range(5):
        x = x0 + i * (x1 - x0) / 4
        xp = px(x)
        parts.append(f'<line x1="{xp:.2f}" y1="{height - bottom}" x2="{xp:.2f}" '
                     f'y2="{height - bottom + 4}" {ax}/>')
        parts.append(f'<text x="{xp:.2f}" y="{height - bottom + 16}" '
                     f'text-anchor="middle">{x:.3g}</text>')
    parts.append(f'<text x="{(left + width - right) / 2:.2f}" y="{height - 8}" '
                 f'text-anchor="middle">{columns[0]}</text>')
    if lo < 0 < hi:
        y = py(0.0)
        parts.append(f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" y2="{y:.2f}" '
                     f'stroke="#999" stroke-width="1" stroke-dasharray="4 3"/>')
    for idx, name in enumerate(series):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        pts = " ".join(f"{px(row[columns[0]]):.2f},{py(row[name]):.2f}" for row in rows)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        lx = width - right - 120
        ly = top + 14 + 16 * idx
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{lx + 15}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _svg_path(output: str) -> str:
    return os.path.splitext(output)[0] + ".svg"


def _run_sweep(args: argparse.Namespace) -> int:
    rows_fn, columns = SWEEPS[args.command]
    rows = rows_fn(lambda_grid(args.lambda_min, args.lambda_max, args.step))
    render = _render_csv if args.format == "csv" else _render_json
    _emit(render(columns, rows), args.output)
    if args.svg:
        with open(_svg_path(args.output), "w", encoding="utf-8", newline="") as fh:
            fh.write(_render_svg(columns, rows))
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    survey = random_markov_verify(args.steps, args.samples, dims=tuple(args.dims),
                                  seed=args.seed)
    adjoint = adjoint_identity_check(seed=args.seed)
    mono = mi_monotonicity_check(seed=args.seed)
    classical = classical_cmmi_check(seed=args.seed)
    summary = {
        "steps": survey["steps"],
        "samples": survey["samples"],
        "seed": survey["seed"],
        "dims": list(args.dims),
        "witness_minima": survey["witness_minima"],
        "ssa_certificate_min": survey["ssa_certificate_min"],
        "certificate_max_mismatch": survey["certificate_max_mismatch"],
        "adjoint_identity_max_deviation": adjoint["identity_max_deviation"],
        "adjoint_unitality_max_deviation": adjoint["unitality_max_deviation"],
        "cqmi_monotonicity_min": mono["cqmi_monotonicity_min"],
        "mi_monotonicity_min": mono["mi_monotonicity_min"],
        "cmi_min": mono["cmi_min"],
        "classical_cmmi_min": classical["classical_cmmi_min"],
        "counterexample_seed": survey["counterexample_seed"],
    }
    # an adjoint's unitality deviation is its channel's trace-preservation deviation
    passed = (
        min(summary["witness_minima"].values()) >= -GAP_TOLERANCE
        and summary["ssa_certificate_min"] >= -GAP_TOLERANCE
        and summary["certificate_max_mismatch"] <= GAP_TOLERANCE
        and summary["adjoint_identity_max_deviation"] <= ADJOINT_IDENTITY_CEIL
        and summary["adjoint_unitality_max_deviation"] <= INVARIANT_TOL
        and summary["cqmi_monotonicity_min"] >= -GAP_TOLERANCE
        and summary["mi_monotonicity_min"] >= -GAP_TOLERANCE
        and summary["cmi_min"] >= -GAP_TOLERANCE
        and summary["classical_cmmi_min"] >= CLASSICAL_FLOOR
    )
    summary["passed"] = passed
    _emit(json.dumps(summary, indent=2) + "\n", args.output)
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one in the process; parsing fills a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="qmonogamy",
        description="Witnesses for quantum data-processing and monogamy inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default=None, help="write here instead of stdout")

    for name in SWEEPS:
        p = sub.add_parser(name, help=f"lambda sweep ({name.removeprefix('sweep-')})")
        p.add_argument("--lambda-min", type=float, default=0.0)
        p.add_argument("--lambda-max", type=float, default=1.0)
        p.add_argument("--step", type=float, default=0.01)
        p.add_argument("--svg", action="store_true",
                       help="also write a line chart next to --output")
        add_output(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    v = sub.add_parser("verify", help="randomized inequality survey (JSON)")
    v.add_argument("--steps", type=int, choices=tuple(MONOGAMY), default=4)
    v.add_argument("--samples", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--dims", type=int, nargs=2, default=(2, 2), metavar=("D_SYS", "D_ENV"),
                   help="system and environment dimensions of the surveyed processes")
    add_output(v)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.svg and args.output is None:
            raise ValueError("--svg needs --output to derive the chart path")
        if args.svg and os.path.abspath(_svg_path(args.output)) == os.path.abspath(args.output):
            raise ValueError(f"--svg would write its chart to {_svg_path(args.output)}, "
                             f"over the --output file {args.output}")
        return _run_sweep(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
