#!/usr/bin/env python3
"""Print every metric of every workload, and the pair/report baseline table.

    python3 benchmarks/summary.py [--seed 7] [--seconds 30] [--runs 1]

For each workload this makes RUNS untraced and RUNS traced runs of run.py's
measurement, pools their samples, and prints each end-to-end and per-layer
metric by name with its unit, sample count, median and, when at least eleven
samples allow one, the highest percentile with ten samples beyond it. It
ends with the table of pair time against the rest of the report, with the
three largest stages, for every input. Everything is also written to
_work/summary-seed<SEED>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import BASELINE_HEADER, END_TO_END, baseline_line, measure, metric_line
from workloads import SRC, WORK_DIR, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args()
    if not (SRC / "reductive_workbench" / "cli.py").is_file():
        print(f"summary: no program source under {SRC}", file=sys.stderr)
        return 2
    summary, baseline = {}, []
    for workload in WORKLOADS:
        untraced = [measure(workload, args.seed, args.seconds, False) for _ in range(args.runs)]
        traced = [measure(workload, args.seed, args.seconds, True) for _ in range(args.runs)]
        attempted = sum(r["attempted"] for r in untraced + traced)
        failed = sum(r["failed"] for r in untraced + traced)
        print(f"{workload}: {WORKLOADS[workload]['why']}")
        print(f"  environment: {json.dumps(untraced[0]['environment'])}")
        print(f"  fail_ratio {failed}/{attempted}")
        for problem in (p for r in untraced + traced for p in r["problems"]):
            print(f"  FAILED {problem}")
        pooled = {}
        for key, unit in END_TO_END.items():
            pooled[key] = (unit, [v for r in untraced for v in r["samples"][key]])
        # per-layer values are medians over each run's traced commands
        for name, (_, unit) in (traced[0]["metrics"] or {}).items():
            pooled[name] = (unit, [r["metrics"][name][0] for r in traced if r["metrics"]])
        for name, (unit, values) in pooled.items():
            if values:
                print(metric_line(name, unit, statistics.median(values), len(values), values))
        summary[workload] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"unit": u, "values": v} for k, (u, v) in pooled.items()},
            "runs": untraced + traced,
        }
        baseline += traced[-1]["baseline"] or []
    print("baseline")
    print(BASELINE_HEADER)
    for row in baseline:
        print(baseline_line(row))
    out = WORK_DIR / f"summary-seed{args.seed}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 1 if any(r["problems"] for s in summary.values() for r in s["runs"]) else 0


if __name__ == "__main__":
    sys.exit(main())
