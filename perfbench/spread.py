"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload long_orbit --seeds 1-10

Each run measures for ``run_seconds`` of BENCHMARK.json.  Runs are made
one after another (never in parallel, so they do not compete for the
cores).  For every metric it prints the median, the quartiles and the
distance between the quartiles as a share of the median, which is how a
bound is checked; a summary with every run's values goes to
``.perfbench_out/spread-<workload>[-trace].json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"
BENCHMARK_PATH = HERE.parent / "BENCHMARK.json"


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, share


def parse_seeds(text: str) -> list[int]:
    """'1-5,9' -> [1, 2, 3, 4, 5, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seconds = json.loads(BENCHMARK_PATH.read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) >= 2 and None not in values:
            median, q1, q3, share = quartile_spread(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "iqr_share": share, "values": values}
            print(f"{name:34s} median {median:<12.6g} iqr/median {share:.4f}")
    failed_shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share(s): {failed_shares}; all correct: "
          f"{all(r['correct'] for r in runs)}")
    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (OUT_DIR / f"spread-{args.workload}{suffix}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
