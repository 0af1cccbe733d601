"""Command-line entry point.

    pcapflow run <config.json> [...] [--out DIR]
    pcapflow list-models [--json] [--verbose]

Exit codes: 0 all checks pass (or are flagged not-guaranteed), 1 at least
one check fails, 2 a solver broke down, 64 malformed config or unreadable
file.  Each config runs on its own: one that breaks prints its error and the
others still write their reports; the exit code is the worst over all
configs.  Only the solver breakdowns of ``SOLVER_ERRORS`` exit 2; any other
exception is a bug and propagates with its traceback.  All artifacts (CSV
tables, report JSON) are written under --out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import geometry, numerics, radial, solver2d, verify

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 64

SOLVER_ERRORS = (
    radial.ShootingError,
    radial.NotOutwardMinimizing,
    radial.CapacityConsistencyError,
    solver2d.Solver2DError,
    solver2d.NonMonotoneRayError,
    numerics.QuadratureError,
    geometry.AvrUndefinedError,
    # a radius outside the model or annulus (the horizon, a cone tip, r0 >= R)
    geometry.DomainError,
    numerics.BracketError,
    solver2d.LevelRangeError,
    np.linalg.LinAlgError,
)


def _load_config(path: str) -> dict:
    if not os.path.isfile(path):
        raise verify.ConfigError(f"no such file: {path}", "config")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise verify.ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", "config"
        ) from exc
    if not isinstance(cfg, dict):
        raise verify.ConfigError("config root must be a JSON object", "config")
    return cfg


def _run_one(path: str, out_dir: str) -> int:
    """Run one config, write its report and return its exit code."""
    try:
        cfg = _load_config(path)
        report = verify.run_experiment(cfg, out_dir)
    except verify.ConfigError as exc:
        print(f"config error: {path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SOLVER_ERRORS as exc:
        print(f"solver error: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    report_path = os.path.join(out_dir, f"{verify.artifact_prefix(cfg)}_report.json")
    report.write(report_path)
    for line in report.summary_lines():
        print(line)
    print(f"report: {report_path}")
    return EXIT_FAIL if report.worst == "fail" else EXIT_PASS


def _cmd_run(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    # the exit codes are ordered by severity: 64 > 2 > 1 > 0
    return max(_run_one(path, args.out) for path in args.config)


def _cmd_list_models(args) -> int:
    rows = []
    for name, entry in geometry.MODELS.items():
        row = {"name": name, "parameters": entry.parameters, "description": entry.description}
        if args.verbose:
            row.update(r_min="-", avr="-")
            if entry.example is not None:
                model = geometry.build_model(name, **entry.example)
                row["r_min"] = f"{model.r_min:.17g}"
                try:
                    row["avr"] = f"{geometry.avr(model):.17g}"
                except geometry.AvrUndefinedError:
                    pass
        rows.append(row)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return EXIT_PASS
    cols = list(rows[0].keys())
    widths = [max(len(c), max(len(str(r[c])) for r in rows)) for c in cols]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in rows:
        print("  ".join(str(r[c]).ljust(w) for c, w in zip(cols, widths)))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcapflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one or more experiment configs")
    runp.add_argument("config", nargs="+", help="experiment config JSON path(s)")
    runp.add_argument("--out", default="out", help="output directory (default: ./out)")
    runp.set_defaults(func=_cmd_run)

    listp = sub.add_parser("list-models", help="list the builtin radial models")
    listp.add_argument("--json", action="store_true", help="machine-readable output")
    listp.add_argument("--verbose", action="store_true", help="include r_min and AVR")
    listp.set_defaults(func=_cmd_list_models)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
