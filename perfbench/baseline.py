"""Repeated runs of every workload, summarised per metric.

Runs ``run.py`` once per (seed, workload), round-robin over the workloads
so that a slow spell of the host lands on all of them rather than on one,
then one traced run per workload.  Writes every run's result and host
context, and per workload and end-to-end metric the median, the quartiles
and the spread (distance between the quartiles over the median).  Run
from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    *_, context, result = proc.stdout.strip().splitlines()
    return {"seed": seed, **json.loads(context), **json.loads(result)}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            result = run(workload, seed, args.seconds, 0)
            runs[workload].append(result)
            shown = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
            print(workload, seed, result["correct"], shown, flush=True)
    traced = {w: run(w, 0, args.seconds, 1) for w in workloads}

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[workload]]
            metrics[metric["name"]] = {"unit": metric["unit"], "bound": metric["bound"],
                                       **summary(values)}
            print(workload, metric["name"], {k: round(v, 4) for k, v in metrics[metric["name"]].items()
                                             if isinstance(v, float)})
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs[workload]),
            "end_to_end": metrics,
            "runs": runs[workload],
            "traced": traced[workload],
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
