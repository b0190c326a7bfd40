#!/usr/bin/env python3
"""Cold `analyze` benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's `analyze` command in fresh interpreters, one at a time
(a closed loop: the next command starts after the previous one exits), until
another command would end after S seconds; at least one command always runs.
Every report is checked against the frozen references in reference/.

--trace 0 reports the end-to-end metrics: the median of each over the
commands of the run; set-up time also over extra interpreters that only
import the CLI. --trace 1 runs each command twice, untraced and then with
the span wrappers of spans.py installed, requires byte-identical reports, and
reports the per-layer metrics plus the pair/report split of every input.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Details, with the
environment, go to _work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, REPO, SRC, WORK_DIR, WORKLOADS, Reference, command, split_reports
import spans

CHILD = BENCH_DIR / "child.py"
SETUP_SPAWNS = 8  # set-up-only interpreters before and again after the commands
DEADLINE_S = 170  # a run must end well within 180 s

END_TO_END = {
    "setup_s": "s",
    "invocation_s": "s",
    "cpu_s": "s",
    "first_report_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    """The pinned child environment: nothing inherited but PATH.

    REDUCTIVE_WORKBENCH_THREADS stays unset, so the default of one thread applies.
    """
    return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONHASHSEED": "0", "PYTHONPATH": "src"}


def spawn(argv: list[str], timeout: float, trace: bool = False) -> dict:
    """Run one child; returns its measurements, stdout, exit code and trace."""
    result_file = WORK_DIR / "child-result.json"
    trace_file = WORK_DIR / "child-trace.json"
    for path in (result_file, trace_file):
        path.unlink(missing_ok=True)
    args = [str(result_file), str(trace_file) if trace else "-", *argv]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), repr(spawned), *args],
        cwd=REPO,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        stderr += b"\nbenchmark: child killed at its deadline"
    out = {
        "code": proc.returncode,
        "stdout": stdout.decode("utf-8", "replace"),
        "stderr": stderr.decode("utf-8", "replace"),
        "result": None,
        "trace": None,
    }
    if result_file.exists():
        out["result"] = json.loads(result_file.read_text(encoding="utf-8"))
    if trace and trace_file.exists():
        out["trace"] = json.loads(trace_file.read_text(encoding="utf-8"))
    return out


def check(ref: Reference, names: list[str], run: dict) -> list[str]:
    """One problem string per failed report; empty when every report is right."""
    if run["code"] != 0 or run["result"] is None:
        tail = run["stderr"].strip().splitlines()[-1:] or [""]
        return [f"{name}: command exited {run['code']}: {tail[0]}" for name in names]
    try:
        docs = split_reports(run["stdout"])
    except ValueError as exc:
        return [f"{name}: unreadable output: {exc}" for name in names]
    failed = []
    for i, name in enumerate(names):
        if i >= len(docs):
            failed.append(f"{name}: report missing")
            continue
        problems = ref.problems(name, docs[i])
        if problems:
            failed.append("; ".join(problems))
    return failed


def percentile_with_ten_beyond(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    rank = max(1, -(-p * n // 100))
    return p, sorted(values)[rank - 1]


def metric_line(name: str, unit: str, value: float, n: int, samples=()) -> str:
    tail = percentile_with_ten_beyond(list(samples))
    extra = f"  p{tail[0]} {tail[1]:.6g}" if tail else ""
    return f"  {name:52s} {value:14.6g} {unit:10s} n={n}{extra}"


def baseline_line(row: dict) -> str:
    stages = ", ".join(f"{stage} {s:.2f}" for stage, s in row["top_stages"])
    return (
        f"  {row['input']:18s} {row['dim_g']:5d} {row['dim_m']:5d} "
        f"{row['pair_s']:9.2f} {row['report_s']:9.2f}  {stages}"
    )


BASELINE_HEADER = (
    "  pair = homspace.normal_decomposition, report = the rest of report.run_report\n"
    f"  {'input':18s} {'dim g':>5s} {'dim m':>5s} {'pair s':>9s} {'report s':>9s}  largest stages"
)


def git_commit() -> str:
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = REPO / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
        "child_env": {k: v for k, v in child_env().items() if k != "PATH"},
    }


def _median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def layer_metrics(traces: list[dict], pairs: list[tuple[dict, dict]]) -> dict:
    """Per-layer metrics: medians of times over the run's traced commands."""
    metrics = {}
    for name in spans.TIMED:
        rows = [t["functions"][name] for t in traces]
        metrics[f"{name}.s"] = (_median_of(rows, "s"), "s")
        metrics[f"{name}.self_s"] = (_median_of(rows, "self_s"), "s")
        metrics[f"{name}.calls"] = (_median_of(rows, "calls"), "count")
    last = traces[-1]
    for name in spans.COUNTED:
        metrics[f"{name}.calls"] = (last["calls"].get(name, 0), "count")
    for name in ("linalg.rref.cells", "linalg.matmul.mults"):
        metrics[name] = (last["counts"].get(name, 0), "count")
    for name in spans.CACHED:
        metrics[f"{name}.hit_ratio"] = (last["caches"][name]["ratio"], "ratio")
    rref_calls = last["functions"]["linalg.rref"]["calls"]
    metrics["linalg.rref.noop_ratio"] = (
        last["counts"].get("linalg.rref.noop", 0) / rref_calls if rref_calls else 0.0,
        "ratio",
    )
    n_pairs = last["functions"][spans.PAIR]["calls"]
    metrics["liealg.ad_invariance_check.calls_per_pair"] = (
        last["functions"]["liealg.ad_invariance_check"]["calls"] / n_pairs if n_pairs else 0.0,
        "calls/pair",
    )
    metrics["trace.overhead_s"] = (
        statistics.median(
            t["invocation_s"] + t.get("install_s", 0.0) - u["invocation_s"] for u, t in pairs
        ),
        "s",
    )
    metrics["trace.uncovered_share"] = (
        statistics.median(
            1 - tr["root_s"] / t["invocation_s"] for tr, (_, t) in zip(traces, pairs)
        ),
        "ratio",
    )
    return metrics


def baseline_rows(trace: dict, names: list[str], stdout: str) -> list[dict]:
    """Pair time against the rest of the report, and the rest's three largest stages, per input."""
    docs = split_reports(stdout)
    rows = []
    for name, doc, tree in zip(names, docs, trace["inputs"]):
        nodes = {path: (calls, total, own) for path, calls, total, own in tree}
        report = nodes.get("report.run_report", (0, 0.0, 0.0))
        pair = sum(
            total
            for path, (_, total, _) in nodes.items()
            if path.endswith(spans.PAIR) and path.count(spans.PAIR) == 1
        )
        stages = {
            path.split(" > ")[1]: total
            for path, (_, total, _) in nodes.items()
            if path.startswith("report.run_report > ") and path.count(" > ") == 1
            and not path.endswith(spans.PAIR)
        }
        stages["report.run_report (self)"] = report[2]
        top = sorted(stages.items(), key=lambda kv: -kv[1])[:3]
        rows.append(
            {
                "input": name,
                "dim_g": doc["dims"]["g"],
                "dim_m": doc["dims"]["m"],
                "pair_s": pair,
                "report_s": report[1] - pair,
                "top_stages": [[stage, s] for stage, s in top],
            }
        )
    return rows


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about `seconds`; returns samples, metrics and checks."""
    start = time.monotonic()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    argv, names, stats = command(workload, seed)
    ref = Reference(workload)

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    samples = {key: [] for key in END_TO_END}
    problems: list[str] = []  # one per failed report
    errors: list[str] = []  # failures that are not a report's
    attempted = 0

    def set_up_only() -> None:
        for _ in range(SETUP_SPAWNS):
            run = spawn([], left())
            if run["result"] is None:
                errors.append(f"set-up child exited {run['code']}: {run['stderr'].strip()}")
            else:
                samples["setup_s"].append(run["result"]["setup_s"])

    if not trace:
        spawn([], left())  # warm-up: byte-compiles the package on a fresh checkout
        set_up_only()

    durations, traces, pairs, baseline = [], [], [], None
    while True:
        began = time.monotonic()
        run = spawn(argv, left())
        attempted += len(names)
        problems += check(ref, names, run)
        if run["result"] is not None:  # timed to the end, even if a report is wrong
            for key in END_TO_END:
                samples[key].append(run["result"][key])
        if trace:
            traced = spawn(argv, left(), trace=True)
            attempted += len(names)
            problems += check(ref, names, traced)
            if traced["stdout"] != run["stdout"]:
                errors.append("traced reports differ from untraced reports")
            if traced["trace"] is not None and run["result"] and traced["result"]:
                traces.append(traced["trace"])
                pairs.append((run["result"], traced["result"]))
                baseline = baseline_rows(traced["trace"], names, traced["stdout"])
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(durations) > min(seconds, DEADLINE_S):
            break
    if not trace:
        set_up_only()  # a second batch, apart from the first, samples another stretch of load

    metrics = {}
    if trace:
        if traces:
            metrics = layer_metrics(traces, pairs)
    elif all(samples.values()):
        metrics = {key: (statistics.median(vals), END_TO_END[key]) for key, vals in samples.items()}
    return {
        "workload": workload,
        "why": WORKLOADS[workload]["why"],
        "trace": int(trace),
        "command": ["analyze", *argv],
        "environment": environment(seed),
        "dense_inputs": stats,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems + errors,
        "commands": len(durations),
        "samples": samples,
        "metrics": metrics,
        "baseline": baseline,
        "spans": traces[-1] if traces else None,  # span tree per input, counts, caches
        "wall_s": time.monotonic() - start,
    }


def print_human(res: dict) -> None:
    print(f"workload {res['workload']} (trace {res['trace']}): {res['why']}")
    print("environment: " + json.dumps(res["environment"]))
    if res["dense_inputs"]:
        for name, st in res["dense_inputs"].items():
            print(f"  input {name}: {json.dumps(st)}")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    print(f"  fail_ratio {res['failed']}/{res['attempted']}")
    for name, (value, unit) in res["metrics"].items():
        samples = res["samples"].get(name, ())
        print(metric_line(name, unit, value, len(samples) or res["commands"], samples))
    if res["baseline"]:
        print(BASELINE_HEADER)
        for row in res["baseline"]:
            print(baseline_line(row))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "reductive_workbench" / "cli.py").is_file():
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        return 2
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (WORK_DIR / "results").mkdir(parents=True, exist_ok=True)
    out = WORK_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    print_human(res)
    if not res["metrics"]:
        print("benchmark: no complete measurement", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": not res["problems"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
