"""Closed-loop runner for one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S
                                --scratch DIR [--trace --spans CSV]

A single client calls `pycnolab.cli.main` with `--threads 1`, starting each
experiment only after the previous one returned, until the next call
would end past the time budget (at least one call always runs). Every
call is gated: exit code 0 and `pass: true` in its `<id>_summary.json`.
Only passing calls contribute timings. With --trace one more call runs
under `tracer.Tracer` for the per-module breakdown.

Without --trace the worker first times SETUP_SAMPLES fresh interpreters
that only import pycnolab.cli.

The result is one JSON object on the last line of standard output; the
experiments' own printing goes to a buffer.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time

from tracer import Tracer

# name -> (subcommand, summary file); the sweeps ignore the seed except
# for stamping it into their artifacts, check-all draws its state points
# from it
WORKLOADS = {
    "eps-sweep": ("sweep-epsilon", "sweep_epsilon_summary.json"),
    "kappa-sweep": ("sweep-kappa", "sweep_kappa_summary.json"),
    "check-all": ("check-all", "check_all_summary.json"),
}
SETUP_SAMPLES = 5


def time_setup(samples):
    """Wall times of fresh interpreters that only import pycnolab.cli."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pycnolab.cli"],
                       check=True, timeout=10)
        times.append(time.perf_counter() - t0)
    return times


def run_once(main, workload, seed, out_dir):
    """One gated cli.main call: (seconds, summary, error or None)."""
    command, summary_name = WORKLOADS[workload]
    # the experiments take non-negative seeds
    argv = [command, "--seed", str(seed % 2 ** 32), "--threads", "1",
            "--out", out_dir]
    error = None
    code = None
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception as err:  # a raising call counts as failed
            error = f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - t0
    summary = None
    if error is None:
        try:
            with open(os.path.join(out_dir, summary_name),
                      encoding="utf-8") as f:
                summary = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            error = f"summary unreadable: {err}"
    if error is None and code != 0:
        error = f"exit code {code}"
    if error is None and summary.get("pass") is not True:
        error = "summary reports pass = false"
    shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, summary, error


def closed_loop(main, workload, seed, seconds, scratch):
    """Run gated calls until the next one would overrun the budget."""
    walls, errors, fits = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        out_dir = os.path.join(scratch, f"call{attempted}")
        elapsed, summary, error = run_once(main, workload, seed, out_dir)
        attempted += 1
        if error is None:
            walls.append(elapsed)
            if summary.get("slope") is not None:
                fits.append({"slope": summary["slope"],
                             "interval": summary["interval"]})
        else:
            errors.append(error)
        spent = time.perf_counter() - start
        typical = sorted(walls)[len(walls) // 2] if walls else elapsed
        if spent + typical > seconds:
            return {"walls": walls, "attempted": attempted,
                    "failed": len(errors), "errors": errors, "fits": fits}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="CSV file for the traced call's spans")
    args = parser.parse_args()

    import numpy
    import scipy
    from pycnolab import cli

    setups = [] if args.trace else time_setup(SETUP_SAMPLES)
    result = closed_loop(cli.main, args.workload, args.seed, args.seconds,
                         args.scratch)
    result["setups"] = setups
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            elapsed, _, error = run_once(
                cli.main, args.workload, args.seed,
                os.path.join(args.scratch, "traced"))
        finally:
            tracer.remove()
        rows, mismatches = tracer.step_check()
        result["trace"] = {
            "wall_s": elapsed, "passed": error is None, "error": error,
            "metrics": tracer.metrics(), "absent": tracer.absent,
            "step_check": rows, "mismatches": mismatches,
            "spans": len(tracer.span_label),
        }
        if args.spans:
            tracer.write_spans(args.spans)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
