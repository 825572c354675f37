"""Spread of the end-to-end metrics between seeds, as the bounds are judged.

    python3 bench/spread.py --seeds 1-10 --out bench/records/spread-a.json

Runs ``bench/run.py --trace 0`` for ``run_seconds`` once per workload and
seed, one run at a time, from the root of a source checkout.  For each
workload and metric it reports the median of the runs and the spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
JSON record keeps every run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload in BENCHMARK.json")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    record = {"seconds": seconds, "seeds": [first, last], "runs": {}, "summary": {}}
    for wl in workloads:
        runs = record["runs"][wl] = []
        for seed in range(first, last + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "result": result})
            print(wl, seed, result["correct"], result["attempted"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        summary = record["summary"][wl] = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bounds[name]}
            print(f"  {wl} {name}: median={summary[name]['median']:.6g} "
                  f"spread={summary[name]['spread']:.4f} bound={bounds[name]}", flush=True)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
