"""One cold `analyze` invocation, measured from inside the fresh interpreter.

    python3 child.py SPAWN_TIME RESULT_FILE TRACE_FILE|- [analyze args ...]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is system-wide, so the difference to the moment
`reductive_workbench.cli` is imported is the set-up time. With no analyze
args the child only sets up. With a TRACE_FILE the span wrappers are
installed before the invocation and the span data is written there.
"""

import json
import resource
import sys
import time


class _FirstWrite:
    """Pass-through stdout that records when the first report byte is written."""

    def __init__(self, stream):
        self._stream = stream
        self.first = None

    def write(self, text):
        if self.first is None and text:
            self.first = time.monotonic()
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spawn = float(sys.argv[1])
    result_file, trace_file, argv = sys.argv[2], sys.argv[3], sys.argv[4:]
    from reductive_workbench import cli

    result = {"setup_s": time.monotonic() - spawn}
    if argv:
        tracer = None
        if trace_file != "-":
            import spans

            start = time.monotonic()
            tracer = spans.Tracer()
            tracer.install()
            result["install_s"] = time.monotonic() - start
        out = sys.stdout = _FirstWrite(sys.stdout)
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.monotonic()
        code = cli.main(argv)
        end = time.monotonic()
        sys.stdout = out._stream
        sys.stdout.flush()
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update(
            exit_code=code,
            invocation_s=end - start,
            first_report_s=(out.first if out.first is not None else end) - start,
            cpu_s=_cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
            peak_rss_mb=max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        )
        if tracer is not None:
            with open(trace_file, "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
    with open(result_file, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
