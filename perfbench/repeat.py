"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload table-suites --seeds 1-10 --seconds 20
    python3 perfbench/repeat.py --workload graph-maps --seeds 1-10 --seconds 20 \\
        --record perfbench/record.json

Every run is its own process, started after the previous one has ended.
For every metric this prints the median, the quartiles that
statistics.quantiles(values, n=4) gives, and the spread (Q3 - Q1) / median.
--record merges the summary, the run environment, each run's sample
counts and each seed's first-round output digest into a JSON file.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGEST = re.compile(r"first-round output sha256 ([0-9a-f]{64})")
ROUNDS = re.compile(r"(\d+) ops per round, (\d+) rounds")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("seed %d exited %d:\n%s"
                         % (seed, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["digest"] = DIGEST.search(proc.stdout).group(1)
    rounds = ROUNDS.search(proc.stdout)
    if rounds:
        result["slots"], result["rounds"] = map(int, rounds.groups())
    return result, proc.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="PATH")
    args = parser.parse_args(argv)

    values = {}
    runs = []
    for seed in seed_list(args.seeds):
        result, stderr = run_once(args.workload, seed, args.seconds,
                                  args.trace)
        runs.append({key: result[key] for key in
                     ("attempted", "failed", "correct", "digest", "slots",
                      "rounds") if key in result})
        runs[-1]["seed"] = seed
        print("seed %d: correct %s, %d ops, %d failed; %s %s"
              % (seed, result["correct"], result["attempted"],
                 result["failed"],
                 " ".join("%s=%.4g" % (k, m["value"])
                          for k, m in result["metrics"].items()),
                 stderr.strip()[:2000]), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])

    summary = {}
    print("%-40s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3",
                                         "spread"))
    for name, (vals, unit) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                         "spread": spread}
        print("%-40s %12.5g %12.5g %12.5g %8.4f" % (name, med, q1, q3, spread))

    if args.record:
        path = Path(args.record)
        record = json.loads(path.read_text()) if path.exists() else {}
        record["environment"] = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        }
        record.setdefault("workloads", {}).setdefault(args.workload, {})[
            "trace%d seeds %s" % (args.trace, args.seeds)] = {
                "seconds": args.seconds, "runs": runs, "metrics": summary}
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
