"""Command-line front end: CSV in, JSON Betti report out.

Exit codes: 0 success, 1 usage error, 2 data error, 3 budget exceeded,
4 verify mismatch, 5 internal consistency check failed, 6 a region job
failed for another reason.  Every flag is checked by the rule in core that
run() applies to the same argument, under the flag's name, before the input
file is read: a bad flag exits 1 even when the file is missing.  --verify
checks the report at its own run's --max-dim and --slack, under --budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .core import (ConsistencyError, PointCloud, require_int, require_prime, require_real,
                   require_scales)
from .engine import BettiReport, JobError, attach_verification, run
from .rips import DEFAULT_BUDGET, BudgetExceededError


class DataFormatError(Exception):
    """Input file is malformed; message carries the line number."""


class UsageError(Exception):
    """Bad flags or configuration."""


def parse_input(path) -> PointCloud:
    """Load a CSV point cloud: one point per line, comma-separated floats.

    A single leading header line is skipped when its first token is not
    numeric; blank lines are ignored; the column count of the first data line
    is enforced on every later line.  Errors carry 1-based line numbers.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc

    rows = []
    width = None
    seen_any = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if not seen_any:
            seen_any = True
            try:
                float(fields[0])
            except ValueError:
                continue  # header line
        try:
            values = [float(f) for f in fields]
        except ValueError:
            bad = next(f for f in fields if not _is_float(f))
            raise DataFormatError(
                f"line {lineno}: non-numeric field {bad!r}"
            ) from None
        if any(not math.isfinite(v) for v in values):
            raise DataFormatError(f"line {lineno}: non-finite coordinate")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DataFormatError(
                f"line {lineno}: expected {width} fields, got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return PointCloud(rows)


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def report_to_dict(report: BettiReport, timings: bool = True) -> dict:
    """JSON-ready dict with fixed key order; timing values zeroed when disabled."""
    tm = report.diagnostics.get("timings_ms", {})
    if not timings:
        tm = _zero_timings(tm)
    out = {
        "epsilon": report.epsilon,
        "field": report.field,
        "grid": list(report.grid),
        "scales": [{"scale": sr.scale, "betti": list(sr.betti)} for sr in report.scales],
        "diagnostics": {
            "leaf_count": report.diagnostics.get("leaf_count", 0),
            "max_leaf_points": report.diagnostics.get("max_leaf_points", 0),
            "ranks_f": report.diagnostics.get("ranks_f", {}),
            "timings_ms": tm,
            "warnings": list(report.diagnostics.get("warnings", [])),
        },
    }
    if report.verify is not None:
        out["verify"] = report.verify
    return out


def _zero_timings(tm):
    if isinstance(tm, dict):
        return {k: _zero_timings(v) for k, v in tm.items()}
    return 0.0


def emit_report(report: BettiReport, path=None, timings: bool = True) -> str:
    """Serialize a report (fixed key order, two-space indent, trailing newline).

    Writes to `path` when given, else returns the text for stdout.
    """
    text = json.dumps(report_to_dict(report, timings=timings), indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="mvbetti",
        description="Betti numbers of a point cloud at chosen scales, computed "
                    "by overlapping-grid decomposition with Mayer-Vietoris "
                    "assembly and optionally checked against a direct "
                    "persistence computation.",
    )
    p.add_argument("input", help="CSV file, one point per line")
    p.add_argument("--epsilon", type=float, required=True,
                   help="top scale; all requested scales must lie in (0, epsilon]")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--scales", type=str, default=None,
                   help="comma-separated list of scales")
    g.add_argument("--scale-steps", type=int, default=None, metavar="M",
                   help="use M evenly spaced scales epsilon*i/M (default 10)")
    p.add_argument("--max-dim", type=int, default=1,
                   help="highest homology dimension to report (default 1)")
    p.add_argument("--field", type=int, default=2,
                   help="prime coefficient field (default 2)")
    p.add_argument("--parallel", type=int, default=None,
                   help="max concurrent jobs; also sets the grid cell count "
                        "unless --grid is given (default: cpu count)")
    p.add_argument("--grid", type=str, default=None,
                   help="per-axis cell counts k1,..,kd (overrides --parallel)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help=f"simplex budget per region (default {DEFAULT_BUDGET})")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the direct global computation")
    p.add_argument("--output", type=str, default=None,
                   help="write the JSON report here instead of stdout")
    p.add_argument("--slack", type=float, default=0.0,
                   help="additive distance tolerance for noisy data (default 0)")
    p.add_argument("--no-timings", action="store_true",
                   help="zero out wall-clock fields for reproducible output")
    return p


def config_from_args(args) -> argparse.Namespace:
    """Check parsed arguments by core's rules, under the flags' names, and
    return them, with args.scales the sorted list of scales and args.grid a
    list of cell counts or None."""
    try:
        eps = require_real("--epsilon", args.epsilon, positive=True)
        require_int("--max-dim", args.max_dim, 0)
        require_real("--slack", args.slack)
        require_int("--budget", args.budget, 1)
        require_prime("--field", args.field)
        if args.scales is not None:
            try:
                scales = [float(s) for s in args.scales.split(",") if s.strip()]
            except ValueError:
                raise UsageError(f"--scales must be comma-separated numbers: "
                                 f"{args.scales!r}") from None
        else:
            m = require_int("--scale-steps",
                            10 if args.scale_steps is None else args.scale_steps, 1)
            scales = [eps * (i / m) for i in range(1, m + 1)]
        args.scales = require_scales("--scales", scales, eps)
        if args.grid is not None:
            try:
                grid = [int(k) for k in args.grid.split(",") if k.strip()]
            except ValueError:
                grid = []
            if not grid:
                raise UsageError(f"--grid must be comma-separated integers: {args.grid!r}")
            args.grid = [require_int("--grid", k, 1) for k in grid]
        if args.parallel is not None:
            require_int("--parallel", args.parallel, 1)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = config_from_args(parser.parse_args(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        cloud = parse_input(args.input)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(
            cloud, args.epsilon, args.scales,
            n_max=args.max_dim, field=args.field,
            workers=args.parallel,
            grid=args.grid, budget=args.budget, slack=args.slack,
        )
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc.__cause__, BudgetExceededError):
            return 3
        if isinstance(exc.__cause__, ConsistencyError):
            return 5
        return 6
    except ConsistencyError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.verify:
        attach_verification(report, cloud, budget=args.budget)

    try:
        text = emit_report(report, path=args.output, timings=not args.no_timings)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    if not args.output:
        sys.stdout.write(text)

    if args.verify:
        if report.verify.get("pass") is None:
            print("verify: oracle infeasible under the simplex budget", file=sys.stderr)
            return 3
        if report.verify["pass"] is False:
            print("verify: MISMATCH against the direct computation", file=sys.stderr)
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
