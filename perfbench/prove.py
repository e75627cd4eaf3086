"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/prove.py [--runs 10] [--seed-start 1]
                               [--workloads eps-sweep,check-all]
                               [--traced] [--out perfbench/baseline.json]

Run from the repository root. Runs `perfbench/run.py --trace 0` once per
seed and workload, taking the workloads in turn, and prints for every
end-to-end metric the median, the quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median and the metric's bound from
BENCHMARK.json. A spread above a third of the bound marks the metric
unsteady.
--traced adds one traced run per workload at the first seed.
--out writes everything, with the machine and code stamp, as JSON; that
is how perfbench/baseline.json was made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bench_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(".bench_out", f"report-{workload}-{seed}-trace"
                           f"{trace}.json"), encoding="utf-8") as f:
        report = json.load(f)
    return line, report


def main(argv=None):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-start", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    seeds = list(range(args.seed_start, args.seed_start + args.runs))
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in bench["end_to_end"]}
    values = {w: {name: [] for name in bounds} for w in workloads}
    failed = {w: [0, 0] for w in workloads}
    fits = {}
    stamp = None
    for seed in seeds:
        for w in workloads:
            line, report = bench_run(w, seed, args.seconds, 0)
            stamp = report["stamp"]
            failed[w][0] += line["failed"]
            failed[w][1] += line["attempted"]
            if report["fits"]:
                fits[w] = report["fits"][0]
            if not line["correct"]:
                print(f"{w} seed {seed}: incorrect: {report['errors']}")
            for name in bounds:
                values[w][name].append(line["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={line['metrics'][n]['value']:.4f}" for n in bounds),
                flush=True)

    steady = True
    summary = {}
    for w in workloads:
        summary[w] = {"fail_share": failed[w][0] / failed[w][1],
                      "attempted": failed[w][1], "fit": fits.get(w)}
        for name, (bound, unit) in bounds.items():
            vals = values[w][name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3.0 or name == "setup_s"
            steady = steady and ok
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "bound": bound,
                                "unit": unit, "values": vals}
            print(f"{w:<12} {name:<12} median {med:10.4f} {unit:<3} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:.4f} "
                  f"(bound {bound}) {'ok' if ok else 'UNSTEADY'}")
        print(f"{w:<12} fail_share {summary[w]['fail_share']:.4f} "
              f"({failed[w][0]}/{failed[w][1]} runs)")
        if w in fits:
            print(f"{w:<12} fitted slope {fits[w]['slope']:.6f} "
                  f"+- {fits[w]['interval']:.6f}")

    traced = {}
    if args.traced:
        for w in workloads:
            line, report = bench_run(w, seeds[0], args.seconds, 1)
            traced[w] = {"seed": seeds[0], "correct": line["correct"],
                         "absent": report["absent"],
                         "step_check": report["step_check"],
                         "metrics": {k: v["value"]
                                     for k, v in line["metrics"].items()}}
            print(f"{w} traced: correct={line['correct']} trace_overhead_s="
                  f"{line['metrics']['trace_overhead_s']['value']:.3f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"stamp": stamp, "run_seconds": args.seconds,
                       "seeds": seeds, "end_to_end": summary,
                       "traced": traced}, f, indent=2)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
