"""One benchmark repetition in a fresh interpreter.

Usage: child.py SPEC_JSON, where SPEC_JSON is
{"invocations": [[argv...], ...], "trace": bool}.  The script imports the
CLI, notes the monotonic time at which the import finished (the parent
subtracts its spawn time to get set-up time), runs each invocation through
`primegaps.cli.main` one after another, and prints one JSON line: per
invocation its exit code and wall time, the process's peak RSS and, when
traced, the per-layer metrics.
"""

# Set-up time ends when the CLI module is imported, so nothing else is
# imported before it.
import time

import primegaps.cli

READY = time.monotonic()

import json
import resource
import sys
import traceback


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    VmHWM belongs to the process image started by exec; ru_maxrss would
    also carry the peak of the parent that forked this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    runs = []
    for argv in spec["invocations"]:
        t0 = time.perf_counter()
        try:
            code = primegaps.cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a dead run
            traceback.print_exc()
            code = "exception"
        runs.append({"exit": code, "wall_s": time.perf_counter() - t0})
    out = {
        "ready": READY,
        "module": primegaps.cli.__file__,
        "runs": runs,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
