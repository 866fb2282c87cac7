"""Run-to-run spread of the benchmark: one run per seed, then per metric the
median and the interquartile distance as a share of the median.

    python3 pipebench/spread.py --workloads pair_tour,deep_cli --seeds 1-10

Runs are sequential, untraced subprocesses of run.py from the checkout root,
each measuring for BENCHMARK.json's run_seconds. Raw results go to
.pipebench_out/spread-<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["reps"] = [json.loads(line[4:]) for line in lines
                      if line.startswith("rep ")]
    return result


def table(results):
    """name -> (median, quartile distance / median, values)"""
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[name] = (med, (q3 - q1) / med if med else float("nan"), vals)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    out_dir = os.path.join(ROOT, ".pipebench_out")
    os.makedirs(out_dir, exist_ok=True)
    for w in args.workloads.split(","):
        results = []
        for s in args.seeds:
            results.append(run_one(w, s, seconds))
            print(f"{w} seed {s} done", file=sys.stderr, flush=True)
        with open(os.path.join(out_dir, f"spread-{w}.json"), "w") as fh:
            json.dump(results, fh)
        bad = [r for r in results if not r["correct"]]
        print(f"## {w}: {len(results)} runs, {len(bad)} with failed checks")
        for name, (med, spread, vals) in table(results).items():
            print(f"{name:32s} median {med:12.6g}  spread {spread:7.2%}  "
                  f"min {min(vals):.6g} max {max(vals):.6g}")


if __name__ == "__main__":
    main()
