"""Benchmark of the blowup toolkit: one command for every workload.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src``.  Each workload runs in fresh interpreters
(``workload.py``) with BLAS and OpenMP pinned to one thread.  With
--trace 0 it prints every end-to-end metric by name with its unit; with
--trace 1 it prints the per-layer totals of a traced run.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  Any
failure to run exits non-zero without that line.

setup_s is the median over SETUP_REPEATS fresh processes of the wall time
from process start to exit after set-up (import blowup.cli, generate and
write the seeded inputs, one warm-up op).  The other figures come from the
timed passes of one further process, each op's latency being its mean
over the passes (see workload.py); peak_rss_mb is read at the end of the
timed phase, before the output checks.  Workloads, metric units and the
predicted effect of each layer are in BENCHMARK.json and predictions.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from inputs import WORKLOADS  # noqa: E402
from workload import THREAD_VARS  # noqa: E402

ROOT = HERE.parent
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # per workload; a single-workload run must end in 180 s
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms",
         "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child(args, workload, deadline, setup_only=False):
    """Run workload.py to completion; its last stdout line as JSON."""
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before %s" % workload)
    try:
        # run() kills the child on timeout and waits for it to end.
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in time" % workload) from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("%s exited with code %d" % (workload, done.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError("%s printed no result" % workload) from None


def run_workload(args, workload, deadline):
    """(attempted, failed, metrics by name) for one workload."""
    metrics = {}
    setups = []

    def set_up(times):
        for _ in range(times):
            start = time.perf_counter()
            if not child(args, workload, deadline, setup_only=True)["ok"]:
                raise BenchError("%s warm-up op gave a wrong result" % workload)
            setups.append(time.perf_counter() - start)

    # Half the set-ups run before the timed process and half after it, so
    # their median is not taken from a single few-second stretch of a host
    # whose speed changes from one such stretch to the next.
    if not args.trace:
        set_up(SETUP_REPEATS // 2)
    report = child(args, workload, deadline)
    if not args.trace:
        set_up(SETUP_REPEATS - SETUP_REPEATS // 2)
        metrics["setup_s"] = (statistics.median(setups), "s")
    if args.trace:
        from tracing import per_layer_spec
        units = {name: unit for name, unit, _ in per_layer_spec()}
        metrics.update((name, (value, units[name]))
                       for name, value in report["per_layer"].items())
    else:
        metrics.update((name, (value, UNITS[name]))
                       for name, value in report["end_to_end"].items())
    print("%s seed %d: env %s" % (workload, args.seed, json.dumps(report["env"])))
    print("%s: %d ops attempted, %d failed%s" % (
        workload, report["attempted"], report["failed"],
        " (%s)" % ", ".join(report["failed_kinds"]) if report["failed"] else ""))
    print("  %-44s %14.6g %s" % ("fail_frac", report["failed"] / report["attempted"], "ratio"))
    for name, (value, unit) in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    if args.trace:
        print("  spans written to %s" % report["spans_file"])
        for violation in zero_prediction_violations(workload, report["per_layer"]):
            print("  prediction not met: %s is nonzero on %s" % (violation, workload))
    return report["attempted"], report["failed"], metrics


def zero_prediction_violations(workload, layers):
    """Per-layer metrics that predictions.json says are zero here but are not."""
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    bad = []
    for rule in predictions["zero"]:
        if workload in rule["workloads"]:
            bad += [name for name, value in layers.items()
                    if name.startswith(tuple(rule["metrics"])) and value != 0]
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "blowup" / "__init__.py").is_file():
        print("error: no blowup sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in names:
            deadline = time.monotonic() + DEADLINE_S
            ran, bad, found = run_workload(args, workload, deadline)
            attempted, failed = attempted + ran, failed + bad
            prefix = "" if len(names) == 1 else workload + "."
            metrics.update((prefix + name, {"value": value, "unit": unit})
                           for name, (value, unit) in found.items())
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
