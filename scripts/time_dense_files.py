#!/usr/bin/env python3
"""Time one cold `analyze --json` on the dense-basis file of each catalog entry.

    python3 scripts/time_dense_files.py [--scales] NAME [NAME ...]

Each file is what `write_dense_spec.py NAME --draw 1 --seed 11` prints,
written to a temporary directory; with --scales the flag is passed on, so the
file has a custom metric and `analyze` runs the simple-ideal split. A NAME
that ends in `.json` is the path of an existing spec file, timed as it is
and named by its file name. The command runs in a fresh interpreter
with this checkout's `src` on PYTHONPATH, timed from this process. One line
per name gives dim g / dim m, the wall seconds, the peak RSS of the child and
the md5 of the report bytes, so two checkouts can be compared line by line.
The files are written by their own processes too: a child's peak RSS starts
at the RSS of the process that starts it, so this one stays small.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


def time_cold(path: Path) -> tuple[float, float, int, bytes]:
    """(seconds, peak RSS in MB, exit code, stdout) of one cold `analyze --json path`."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "reductive_workbench", "--json", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=ENV, cwd=REPO,
    )
    with child.stdout:
        out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)  # reaped here, for its rusage
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024, child.returncode, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", metavar="NAME", help="catalog entry, e.g. su8_mod_0, or a spec file path")
    parser.add_argument("--scales", action="store_true", help="custom metric, one scale per simple ideal")
    args = parser.parse_args()
    print(f"{'entry':24s} {'g / m':>7s} {'seconds':>8s} {'rss_mb':>7s} md5")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.names:
            if name.endswith(".json"):
                path, name = Path(name).resolve(), Path(name).name
            else:
                path = Path(tmp) / f"{name}.json"
                with open(path, "wb") as handle:
                    writer = [sys.executable, str(REPO / "scripts" / "write_dense_spec.py"), name, "--draw", "1", "--seed", "11"]
                    writer += ["--scales"] if args.scales else []
                    subprocess.run(writer, stdout=handle, env=ENV, check=True)
            seconds, rss, code, out = time_cold(path)
            if code not in (0, 2):  # 2: a theorem verdict failed, the report is still written
                print(f"{name:24s} analyze exited with {code}")
                return 1
            dims = json.loads(out)["dims"]
            print(
                f"{name:24s} {dims['g']:>3d} / {dims['m']:<2d} {seconds:8.2f} {rss:7.1f} "
                f"{hashlib.md5(out).hexdigest()}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
