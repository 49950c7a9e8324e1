"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 1-10 --trace 0 --out perfbench/baseline.json
    python3 perfbench/collect.py --seeds 1-3 --trace 1 --out perfbench/baseline.json

For each workload and seed this runs ``run.py`` once, untraced or traced;
it prints each run's metrics and, per workload and metric, the median,
the quartiles and the quartile spread as a share of the median.  ``--out``
merges that summary into a JSON file, which is the form of
``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("score-screen", "score-pages", "dataset")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=HERE.parent)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))["run_seconds"]
    seeds = seed_list(args.seeds)
    kind = "per_layer" if args.trace else "end_to_end"
    summary = json.loads(args.out.read_text("utf-8")) if args.out and args.out.exists() else {}
    summary["run_seconds"] = seconds
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            run = one_run(workload, seed, seconds, args.trace)
            runs.append(run)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in run["metrics"].items())
            print(f"{workload} seed {seed} attempted {run['attempted']} failed {run['failed']}: "
                  f"{values}", flush=True)
        entry = summarise(runs)
        summary.setdefault("workloads", {}).setdefault(workload, {})[kind] = {
            "seeds": seeds, "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs), "metrics": entry}
        for name, row in entry.items():
            print(f"{workload:13s} {name:32s} median {row['median']:12.6g} {row['unit']:6s} "
                  f"spread {row['spread']:.4f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
