"""One benchmark workload, run in a fresh interpreter.

Set-up imports ``blowup.cli`` from the checkout's ``src``, generates the
seeded inputs, writes the manifests to a temporary directory and runs one
warm-up op.  The timed phase then runs the fixed op lists, one pass after
another, as one closed loop: each op starts when the one before it has
returned.  CLI ops call ``blowup.cli.main(argv)`` in-process with stdout
captured; mc ops call the ``blowup.quadrature`` functions directly.
Outputs are checked only after timing, outside any span.

Op i has the same shape in every pass (``inputs.py``), and its latency is
the mean over the passes.  p50_ms and p90_ms are quantiles of these
per-op means, and ops_per_s is all ops over the wall time of all passes.
The host this was built on is shared, and for seconds to minutes at a time
runs code 1.1 to 1.8 times slower than at its quietest.  A quantile of
single latencies jumps between those speeds as the busy share of a run
crosses the quantile's level; a quantile of means over passes seconds
apart moves only in proportion to that share, and the passes also average
out the cost differences between the inputs drawn for one op shape.

With --setup-only the process exits after set-up, so the caller can time
set-up from process start to exit.  With --trace 1 the first pass runs once
untraced and once under ``tracing.Tracer``, and the per-layer totals of
the traced pass are reported instead of the end-to-end figures.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import inputs
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_program():
    """Import blowup from this checkout's src, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import blowup.cli
    if not Path(blowup.cli.__file__).resolve().is_relative_to(src):
        raise ImportError("blowup was not imported from %s" % src)
    return blowup


class Runner:
    """Runs ops against one manifest directory and keeps their raw outputs."""

    def __init__(self, blowup, workdir):
        self.blowup = blowup
        self.workdir = workdir

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.blowup.cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv this way
                code = exc.code
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}

    def mc(self, op):
        b = self.blowup
        h = b.LocalHamiltonian(weights=op["weights"], c=op["c"])
        params = b.LocalModelParams(n=op["n"], rho=op["rho"], delta=op["delta"], r=op["r"])
        if op["kind"] == "integrate":
            got = b.integrate_ball(h, params.rho, params.n, scheme="monte-carlo",
                                   seed=op["seed"])
            return {"value": got.value, "stderr": got.error_estimate}
        got = b.verify_annulus_pushforward(h, params, scheme="monte-carlo",
                                           seed=op["seed"])
        return {"left": got.left.value, "left_err": got.left.error_estimate,
                "right": got.right.value, "right_err": got.right.error_estimate}

    def argv(self, op):
        path = str(self.workdir / op["manifest"])
        if op["kind"] == "rank":
            return ["rank", path]
        if op["kind"] == "verify":
            return ["verify", path, "--check", "all"]
        argv = [op["kind"], path, "--loop", op["loop"]]
        if op["kind"] == "eval":
            argv += ["--rho", repr(op["rho"])]
        return argv

    def run(self, op):
        """Raw output of one op; an exception is an output too."""
        try:
            if op["kind"] in ("integrate", "pushforward"):
                return self.mc(op)
            return self.cli(self.argv(op))
        except Exception as exc:  # counted as a failed op, never re-raised
            return {"exception": "%s: %s" % (type(exc).__name__, exc)}


def check(op, result, manifests):
    """True when the oracle accepts the op's output."""
    if "exception" in result:
        return False
    kind = op["kind"]
    if kind == "integrate":
        return oracles.check_mc_ball(result["value"], result["stderr"], op)
    if kind == "pushforward":
        return oracles.check_mc_pushforward(result["left"], result["left_err"],
                                            result["right"], result["right_err"])
    manifest = manifests[op["manifest"]]
    if kind == "verify":
        return oracles.check_verify(result["code"], result["out"], manifest)
    if result["code"] != 0:
        return False
    if kind == "rank":
        return oracles.check_rank(result["out"], manifest)
    if kind == "lift":
        return oracles.check_lift(result["out"], manifest, op["loop"])
    if kind == "order":
        return oracles.check_order(result["out"], manifest, op["loop"])
    return oracles.check_eval(result["out"], manifest, op["loop"], op["rho"])


def environment():
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def timed_phase(runner, ops, wrap=None):
    """Run every op in order; (wall seconds, per-op ms, raw outputs)."""
    latencies, results = [], []
    begin = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        results.append(runner.run(op) if wrap is None else wrap(runner.run, op))
        latencies.append((time.perf_counter() - start) * 1e3)
    return time.perf_counter() - begin, latencies, results


def write_spans(tracer, workload, seed):
    import numpy as np
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / ("spans-%s.npz" % workload)  # one file per workload, overwritten
    np.savez_compressed(path, seed=seed, **tracer.arrays())
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # -- set-up: import, inputs, manifests, one warm-up op ----------------
    blowup = import_program()
    manifests, passes, warmup = inputs.generate(args.workload, args.seed, args.seconds,
                                                blowup.LocalModelParams)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for name, data in manifests.items():
            (workdir / name).write_text(json.dumps(data), encoding="utf-8")
        runner = Runner(blowup, workdir)
        warm = runner.run(warmup)
        if args.setup_only:
            # The oracle would import sympy, so only the exit status counts here.
            ok = "exception" not in warm and warm.get("code", 0) == 0
            print(json.dumps({"ok": ok}))
            return 0 if ok else 1

        # -- timed phase, untraced ----------------------------------------
        if args.trace:
            passes = passes[:1]
        timed = [timed_phase(runner, ops) for ops in passes]
        # Peak RSS before the oracles run, so sympy does not count.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report = {"env": environment(), "attempted": sum(map(len, passes))}
        checked = [pair for ops, (_, _, results) in zip(passes, timed)
                   for pair in zip(ops, results)]
        if args.trace:
            import tracing
            with tracing.Tracer() as tracer:
                traced_wall, _, traced = timed_phase(runner, passes[0], tracer.op)
            layers = tracer.metrics()
            layers["trace_overhead_frac"] = traced_wall / timed[0][0] - 1.0
            report["per_layer"] = layers
            report["spans_file"] = str(write_spans(tracer, args.workload, args.seed))
            report["attempted"] += len(passes[0])
            checked += list(zip(passes[0], traced))
        else:
            per_op = [statistics.fmean(times)
                      for times in zip(*(lat for _, lat, _ in timed))]
            report["end_to_end"] = {
                "ops_per_s": report["attempted"] / sum(wall for wall, _, _ in timed),
                "p50_ms": statistics.median(per_op),
                "p90_ms": statistics.quantiles(per_op, n=10)[-1],
                "peak_rss_mb": rss_mb,
            }
        # -- oracles, after timing ----------------------------------------
        failures = [op for op, result in checked if not check(op, result, manifests)]
        report["failed"] = len(failures)
        report["failed_kinds"] = sorted({op["kind"] for op in failures})
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()


if __name__ == "__main__":
    sys.exit(main())
