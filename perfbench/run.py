"""Benchmark of the primegaps command line, end to end and by layer.

    python3 perfbench/run.py --workload pair-scan [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --workload all       # every workload in turn

Paths are taken relative to this file, so any working directory will do.
Each repetition is a fresh interpreter (`child.py`) that imports
`primegaps.cli` from `src/` and runs the workload's invocations one after
another in a single process, writing each result with `--out ...
--no-timing`.  `gate.py` checks every result.  Repetitions continue while
the next one is expected to end within `--seconds` (at least MIN_REPS).

With `--trace 0` the end-to-end metrics are reported: `wall_s` (median time
of the workload's `cli.main` calls, imports excluded), `setup_s` (median of
interpreter start plus `import primegaps.cli`, over every spawn) and
`peak_rss_mb` (median peak RSS of a repetition's process).  With `--trace 1`
every other repetition runs with the wrappers of `spans.py` installed, and
the per-layer metrics are the medians over the traced repetitions;
`trace.overhead_s` is the traced minus the untraced median wall time.

Per workload, human-readable lines (median, quartiles and sample count of
each metric, and the error rate: failed / attempted invocations) come
first, then one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Exit code 2, with no result, when `src/primegaps` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPS = 3
SETUP_SPAWNS = 5        # import-only spawns per run, on top of one per rep
CHILD_TIMEOUT_S = 150


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # numpy's BLAS would otherwise start a thread per core at import
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argvs: list, trace: bool, env: dict) -> dict:
    """Run child.py once; its result plus `setup_s`, measured from spawn."""
    spec = json.dumps({"invocations": argvs, "trace": trace})
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), spec], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not Path(res["module"]).resolve().is_relative_to(SRC):
        sys.exit(f"primegaps imported from {res['module']}, not from {SRC}")
    res["setup_s"] = res["ready"] - t0
    return res


def summary(values: list) -> tuple:
    """(median, first quartile, third quartile, sample count)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric == "report.bytes_out":
        return "bytes"
    return "s" if metric.endswith("_s") else "count"


class Tally:
    """Samples and gate outcomes gathered over one run of a workload."""

    def __init__(self):
        self.samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": [],
                        "trace.wall_s": []}
        self.layers: list = []
        self.attempted = 0
        self.failed = 0


def measure(name: str, seed: int, seconds: float, trace: bool) -> Tally:
    r, invs = workloads.invocations(name, seed)
    print(f"# workload {name}, seed {seed}: "
          + "; ".join(" ".join(inv.argv) + f" --format {inv.fmt}"
                      for inv in invs))
    work = ROOT / f".perfbench_work_{os.getpid()}"
    work.mkdir(exist_ok=True)
    outs = [work / f"{i}.out" for i in range(len(invs))]
    argvs = [[*inv.argv, "--format", inv.fmt, "--out", str(out), "--no-timing"]
             for inv, out in zip(invs, outs)]
    env = child_env()
    tally = Tally()
    try:
        spawn([], False, env)  # warm-up: bytecode compiled, files cached
        for _ in range(SETUP_SPAWNS):
            tally.samples["setup_s"].append(spawn([], False, env)["setup_s"])
        start = time.monotonic()
        longest = 0.0
        rep = 0
        while rep < MIN_REPS or time.monotonic() - start + longest <= seconds:
            t0 = time.monotonic()
            traced = trace and rep % 2 == 1
            tally.attempted += len(invs)
            try:
                res = spawn(argvs, traced, env)
            except ChildFailed as exc:
                print(f"rep {rep}: child failed: {exc}", file=sys.stderr)
                tally.failed += len(invs)
            else:
                for inv, out, run in zip(invs, outs, res["runs"]):
                    try:
                        errors = gate.check(inv, r, seed, run["exit"],
                                            str(out))
                    except Exception as exc:  # a gate crash fails the check
                        errors = [f"gate raised {exc!r}"]
                    if errors:
                        tally.failed += 1
                        print(f"rep {rep} {inv.kind}: "
                              + "; ".join(errors[:5]), file=sys.stderr)
                    out.unlink(missing_ok=True)
                wall = sum(run["wall_s"] for run in res["runs"])
                tally.samples["setup_s"].append(res["setup_s"])
                if traced:
                    tally.samples["trace.wall_s"].append(wall)
                    tally.layers.append(res["layers"])
                else:
                    tally.samples["wall_s"].append(wall)
                    tally.samples["peak_rss_mb"].append(res["peak_rss_mb"])
            longest = max(longest, time.monotonic() - t0)
            rep += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return tally


def result(tally: Tally, trace: bool) -> dict:
    """Print the human-readable lines; return the result object."""
    samples = tally.samples
    for metric, values in samples.items():
        if values:
            med, q1, q3, n = summary(values)
            print(f"{metric:38s} {med:14.6f} {unit_of(metric):5s} "
                  f"(q1 {q1:.6f}, q3 {q3:.6f}, n={n})")
    print(f"{'error_rate':38s} {tally.failed / tally.attempted:14.6f} ratio "
          f"({tally.failed} failed of {tally.attempted} invocations)")
    metrics = {}
    if not trace:
        metrics = {k: statistics.median(v) for k, v in samples.items()
                   if v and k != "trace.wall_s"}
    elif tally.layers and samples["wall_s"]:
        layers = tally.layers
        # median_low keeps counts whole; they repeat exactly anyway
        metrics = {k: (statistics.median_low if isinstance(v, int)
                       else statistics.median)([layer[k] for layer in layers])
                   for k, v in layers[0].items() if k != "trace.self_sum_s"}
        traced_wall = statistics.median(samples["trace.wall_s"])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = (traced_wall
                                       - statistics.median(samples["wall_s"]))
        for k, v in metrics.items():
            if k == "trace.wall_s":  # already in the table above
                continue
            print(f"{k:38s} {v:14.6f} {unit_of(k)}" if isinstance(v, float)
                  else f"{k:38s} {v:14d} {unit_of(k)}")
        self_sum = statistics.median(layer["trace.self_sum_s"]
                                     for layer in layers)
        print(f"# spans' self times sum to {self_sum:.4f} s of the "
              f"{traced_wall:.4f} s traced wall time")
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }


def environment() -> str:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"# environment: nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"mpmath={mpmath.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "primegaps" / "cli.py").is_file():
        print(f"error: {SRC / 'primegaps'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    print(environment())
    names = ([args.workload] if args.workload != "all"
             else list(workloads.WORKLOADS))
    for name in names:
        tally = measure(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result(tally, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
