#!/usr/bin/env python3
"""Steadiness record for the serve-path benchmark.

Runs perfbench/run.py once per (workload, seed), keeps every run's
result line, calibration reading and wall time, and summarizes each
end-to-end metric per workload as its median, quartiles and spread
(quartile distance over the median, as statistics.quantiles(n=4)
gives them). Checks each spread against the bound in BENCHMARK.json;
with --against, also checks that no median is worse than that earlier
record's by more than the bound.

Usage (from the repository root):
  python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--out FILE]
                              [--against EARLIER_FILE]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="write the record here as JSON")
    ap.add_argument("--against", help="an earlier --out record of the same code")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}

    runs = []
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            context = next((json.loads(l[len("context "):]) for l in lines
                            if l.startswith("context ")), {})
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "elapsed_s": round(time.time() - t0, 2), "context": context,
                         "result": result})
            values = ({k: round(v["value"], 6) for k, v in result["metrics"].items()}
                      if result else None)
            print(workload, seed, proc.returncode, runs[-1]["elapsed_s"], "s",
                  context.get("calibration_ms"), values, flush=True)

    summary, worst = {}, {}
    for workload in args.workloads.split(","):
        ok = [r["result"] for r in runs
              if r["workload"] == workload and r["result"] and r["result"]["correct"]]
        if len(ok) < 4:
            continue
        summary[workload] = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in ok]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "bound": bounds[name]}
            if name != "setup_s":
                worst[name] = max(worst.get(name, 0.0), spread / bounds[name])
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            flag = "" if name == "setup_s" or s["spread"] <= s["bound"] / 3 else (
                "  <-- over a third of the bound" if s["spread"] <= s["bound"]
                else "  <-- OVER THE BOUND")
            print("%-16s %-22s median %-12.6g spread %.4f bound %.2f%s"
                  % (workload, name, s["median"], s["spread"], s["bound"], flag))
    against = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["summary"]
        for workload, metrics in summary.items():
            for name, s in metrics.items():
                if name not in earlier.get(workload, {}):
                    continue
                first, second = earlier[workload][name]["median"], s["median"]
                worse = (second - first if lower_is_better[name] else first - second) / first
                against.setdefault(workload, {})[name] = {
                    "first_median": first, "second_median": second,
                    "second_worse_by": worse, "bound": bounds[name]}
                print("%-16s %-22s median %-12.6g against %-12.6g worse by %+.4f%s"
                      % (workload, name, second, first, worse,
                         "  <-- OVER THE BOUND" if worse > bounds[name] else ""))
                worst["against:" + name] = max(worst.get("against:" + name, 0.0),
                                               worse / bounds[name])
    record = {"nproc": os.cpu_count(), "build_type": "Release",
              "run_seconds": bench["run_seconds"], "runs": runs, "summary": summary,
              "worst_spread_over_bound": worst, "against": against}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if all(v <= 1.0 for v in worst.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
