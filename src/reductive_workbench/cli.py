"""Command-line front end.

    analyze <file.json> [...]          analyze space-specification files
    analyze --catalog so4_mod_so2      analyze a named catalog entry
    analyze --list-catalog             list curated catalog names

Inputs are analyzed one after another, in input order, and each report is
written and flushed as soon as its input is analyzed. An input error stops
the batch at that input: the reports written before it stay on stdout, and
one `error:` line goes to stderr. Exit codes: 0 on success, 1 on input errors
(including unreadable paths) or a closed stdout, 2 when a theorem verdict
that should hold fails (for CI gating).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import WorkbenchError
from .report import run_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analyze",
        description="Exact structure analysis of normal homogeneous-space presentations.",
    )
    parser.add_argument("files", nargs="*", help="space specification files (JSON)")
    parser.add_argument(
        "--catalog",
        action="append",
        default=[],
        metavar="NAME",
        help="analyze a named catalog entry (repeatable)",
    )
    parser.add_argument("--json", action="store_true", help="emit the machine-readable report")
    parser.add_argument(
        "--checks",
        choices=["all", "fast"],
        default="all",
        help="fast skips the exhaustive connection consistency sweep",
    )
    parser.add_argument(
        "--numeric-checks",
        action="store_true",
        help="append floating-point lab residuals (catalog entries only)",
    )
    parser.add_argument("--list-catalog", action="store_true", help="list catalog names and exit")
    return parser


def _load_source(kind: str, value: str):
    if kind == "catalog":
        from .catalog import construct

        return construct(value)
    from .specfile import load_space_spec_file

    return load_space_spec_file(value)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_catalog:
        from .catalog import catalog_names

        for name in catalog_names():
            print(name)
        return 0

    inputs = [("file", path) for path in args.files]
    inputs.extend(("catalog", name) for name in args.catalog)
    if not inputs:
        print("nothing to analyze: give files or --catalog NAME", file=sys.stderr)
        return 1

    if args.numeric_checks:
        # the lab's matrices are at most 16x16 (su8_mod_0 and so8so8_mod_diag
        # realize as 16x16): a second BLAS thread only spins
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    exit_code = 0
    try:
        for kind, value in inputs:
            report = run_report(_load_source(kind, value), checks=args.checks, numeric=args.numeric_checks)
            if report.body["input"] == "file":
                report.body["input"] = f"file:{os.path.basename(value)}"
            sys.stdout.write(report.to_json() if args.json else report.to_text())
            sys.stdout.flush()
            exit_code = max(exit_code, report.exit_code)
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so the
        # interpreter's flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (OSError, WorkbenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
