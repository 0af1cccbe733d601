"""Command-line entry point.

    pcapflow run <config.json> [...] [--out DIR]
    pcapflow list-models [--json] [--verbose]

Exit codes: 0 all checks pass (or are flagged not-guaranteed), 1 at least
one check fails, 2 a solver broke down on valid input (a
``numerics.SolverError``), 64 bad input (a ``numerics.ConfigError``, which
names the field at fault) or a table or report that cannot be written (an
``OSError``, such as a file name too long for the platform), 141 (128 +
SIGPIPE) the reader of stdout closed it early.  Any other exception, a
``ValueError`` for a radius the program computed outside its range
included, is a fault of the program and propagates with its traceback.
Each config runs on its own: one that breaks prints its error and the
others still write their reports; the exit code is the worst over all
configs.  A config whose artifact prefix an earlier config of the call
wrote is a config error and writes nothing.  All artifacts (CSV tables,
report JSON) go under --out.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from . import geometry, numerics, verify

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 64
EXIT_PIPE = 141


def _load_config(path: str):
    """The parsed JSON of ``path``; ``run_experiment`` checks its root."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise numerics.ConfigError(f"cannot read {path}: {reason}", "config") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno}, column {exc.colno}"
        raise numerics.ConfigError(f"invalid JSON at {where}: {exc.msg}", "config") from exc


def _run_one(path: str, out_dir: str, written: set) -> int:
    """Run one config, write its report and return its exit code; one whose
    prefix earlier configs of the call have ``written`` writes nothing."""
    try:
        cfg = _load_config(path)
        prefix = verify.artifact_prefix(cfg)
        if prefix in written:
            raise numerics.ConfigError(f"an earlier config of this run wrote the prefix {prefix!r}", "out_prefix")
        report = verify.run_experiment(cfg, out_dir)
        written.add(prefix)
        report_path = os.path.join(out_dir, f"{prefix}_report.json")
        report.write(report_path)
    except numerics.ConfigError as exc:
        print(f"config error: {path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except numerics.SolverError as exc:
        print(f"solver error: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:  # a table or the report could not be written
        print(f"config error: {path}: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    for line in report.summary_lines():
        print(line)
    print(f"report: {report_path}")
    return EXIT_FAIL if report.worst == "fail" else EXIT_PASS


def _cmd_run(args) -> int:
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"config error: --out {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    # the exit codes are ordered by severity: 64 > 2 > 1 > 0
    written = set()
    return max(_run_one(path, args.out, written) for path in args.config)


def _cmd_list_models(args) -> int:
    """One row per catalog model.  Its parameters are its constructor's
    signature, the schema a config's ``model.params`` is checked against,
    and --verbose builds its example as a config would."""
    rows = []
    for name, entry in geometry.MODELS.items():
        sig = inspect.signature(getattr(geometry, entry.constructor), eval_str=True)
        params = str(sig.replace(return_annotation=sig.empty))
        row = {"name": name, "parameters": params, "description": entry.description}
        if args.verbose:
            row.update(r_min="-", avr="-")
            if entry.example is not None:
                model = verify._model(name, entry.example)
                row["r_min"] = f"{model.r_min:.17g}"
                if model.avr is not None:
                    row["avr"] = f"{model.avr:.17g}"
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
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone: point fd 1 at devnull so the flush at exit
        # cannot fail again, and exit as a process killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
