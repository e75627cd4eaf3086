"""pycnolab benchmark: wall time to a gated experiment verdict.

    python3 perfbench/run.py --workload {eps-sweep,kappa-sweep,check-all,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. Each workload is one closed loop of
`pycnolab.cli.main` calls with `--threads 1` in a fresh interpreter
(perfbench/worker.py), with BLAS/OpenMP threads capped at one.
Artifacts, span files and reports go under .bench_out/.

--trace 0 reports the end-to-end metrics, measured untraced:
  wall_s       median wall time of one passing cli.main call
  setup_s      median time for a fresh interpreter to import pycnolab.cli
  peak_rss_mb  peak resident memory of the process that ran the workload
--trace 1 runs the same loop, then one call with every module's public
functions wrapped (perfbench/tracer.py), and reports calls and self time
per function, computed FFT volume, artifact bytes, step counts and
trace_overhead_s (traced call minus the untraced median).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
same numbers for people, with quartiles, sample counts, fail_share, the
fitted slopes and the machine and code stamp. --workload all runs every
workload in turn and ends with one JSON object keyed by workload.

BENCHMARK.json declares eps-sweep and check-all. kappa-sweep runs here on
request only: on a shared 2-core machine its ten-seed wall_s spread
reached 0.18, and dropping it left the time for six check-all calls per
run; its layers are all exercised by the other two workloads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
# One BLAS/OpenMP thread: a second OpenBLAS thread left eps-sweep no
# faster on 2 cores, doubled its CPU time by spin-waiting and widened the
# run-to-run spread on a shared machine.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 160
OUT_DIR = ".bench_out"


def child_env(root):
    env = dict(os.environ)
    cap = str(BLAS_THREADS)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        env[name] = cap
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def git_sha(root):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += sum(1 for _ in f)
    return total


def timing(values):
    """Median, quartiles (statistics.quantiles) and count of samples."""
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_worker(env, workload, seed, seconds, trace, out):
    scratch = os.path.join(out, f"work-{workload}-{seed}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scratch", scratch]
    if trace:
        cmd += ["--trace", "--spans",
                os.path.join(out, f"spans-{workload}-{seed}.csv")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_per_layer(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


def measure(root, workload, seed, seconds, trace):
    """Run one workload; returns (result line dict, report dict)."""
    out = os.path.join(root, OUT_DIR)
    os.makedirs(out, exist_ok=True)
    env = child_env(root)
    loop = run_worker(env, workload, seed, seconds, trace, out)
    walls = loop["walls"]
    attempted, failed = loop["attempted"], loop["failed"]
    correct = failed == 0 and bool(walls)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "attempted": attempted, "failed": failed,
        "fail_share": failed / attempted, "errors": loop["errors"],
        "fits": loop["fits"],
        "stamp": {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
                  **loop["versions"],
                  "git_sha": git_sha(root), "src_lines": src_lines(root)},
    }
    if walls:
        report["wall_s"] = timing(walls)

    if not trace:
        report["setup_s"] = timing(loop["setups"])
        report["peak_rss_mb"] = loop["peak_rss_mb"]
        metrics = {
            "wall_s": (report["wall_s"]["median"] if walls else None, "s"),
            "setup_s": (report["setup_s"]["median"], "s"),
            "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
        }
    else:
        traced = loop["trace"]
        metrics = {name: tuple(v) for name, v in traced["metrics"].items()}
        metrics["trace_overhead_s"] = (
            traced["wall_s"] - report["wall_s"]["median"] if walls else None,
            "s")
        attempted += 1
        if not traced["passed"]:
            failed += 1
            report["errors"].append(f"traced call: {traced['error']}")
        report.update(
            traced_wall_s=traced["wall_s"], absent=traced["absent"],
            step_check=traced["step_check"],
            mismatches=traced["mismatches"], spans=traced["spans"])
        report["errors"].extend(traced["mismatches"])
        undeclared = set(declared_per_layer(root)) ^ set(metrics)
        if undeclared:
            report["errors"].append(
                f"per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(undeclared)}")
        correct = correct and traced["passed"] and not traced["mismatches"] \
            and not undeclared
    report.update(attempted=attempted, failed=failed,
                  fail_share=failed / attempted, correct=correct)
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    with open(os.path.join(out, f"report-{workload}-{seed}-trace{int(trace)}"
                           ".json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": report["metrics"]}
    return line, report


def describe(report):
    """Human-readable lines for one workload's report."""
    lines = [f"== {report['workload']} seed={report['seed']} "
             f"trace={int(report['trace'])}"]
    stamp = report["stamp"]
    lines.append("   stamp " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for name in ("wall_s", "setup_s"):
        if name in report:
            r = report[name]
            lines.append(f"   {name:<12} {r['median']:.4f} s  "
                         f"(q1 {r['q1']:.4f}, q3 {r['q3']:.4f}, n={r['n']})")
    if "peak_rss_mb" in report:
        lines.append(f"   {'peak_rss_mb':<12} {report['peak_rss_mb']:.1f} MB")
    lines.append(f"   {'fail_share':<12} {report['fail_share']:.4f} "
                 f"({report['failed']}/{report['attempted']} runs)")
    if report["fits"]:
        fit = report["fits"][0]
        lines.append(f"   fitted slope {fit['slope']:.6f} "
                     f"+- {fit['interval']:.6f}")
    for error in report["errors"]:
        lines.append(f"   FAILED: {error}")
    if report["trace"]:
        absent = set(report["absent"])
        for name, m in report["metrics"].items():
            label = name.rsplit(".", 1)[0]
            note = " absent" if label in absent else ""
            if name.startswith(("core.fft_rows", "core.fft_bytes")):
                note = " (computed from argument shapes)"
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            lines.append(f"   {name:<42} {value} {m['unit']}{note}")
        for step, calls, want in report["step_check"]:
            lines.append(f"   check {step}.calls={calls} "
                         f"trajectory n_steps={want}")
        lines.append(f"   spans recorded: {report['spans']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pycnolab", "cli.py")):
        print("run from the repository root: src/pycnolab/cli.py not found",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        try:
            line, report = measure(root, name, args.seed, args.seconds,
                                   bool(args.trace))
        except (RuntimeError, OSError, ValueError, KeyError,
                subprocess.SubprocessError) as err:
            print(f"{name}: benchmark could not run: {err}", file=sys.stderr)
            return 1
        print("\n".join(describe(report)))
        lines[name] = line
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
