#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one BENCH_*.json summary.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/BENCH_0.json

Runs are sequential, one process at a time. For every workload: one
untraced run per seed, each end-to-end metric and quality figure
summarised over the seeds by its median, quartiles and quartile spread
(IQR / median), the same for the measured seconds before their rescaling
to the reference core, then one traced run on the first seed for the
per-layer metrics and the layer table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = ROOT / ".bench_work" / "results"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    summary: dict = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        row = {
            "environment": runs[0][1]["environment"],
            "correct": all(r["correct"] for r, _ in runs),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "input_sha256": {rec["environment"]["seed"]: rec["input_sha256"] for _, rec in runs},
            "end_to_end": {m["name"]: summarise([r["metrics"][m["name"]]["value"] for r, _ in runs])
                           for m in spec["end_to_end"]},
            "unscaled": {k: summarise([statistics.median(rec[f"raw_{k}"]) for _, rec in runs])
                         for k in ("setup_s", "rep_wall_s")},
            "figures": {k: summarise([statistics.median(f[k] for f in rec["figures"])
                                      for _, rec in runs])
                        for k in runs[0][1]["figures"][0]},
        }
        for name, s in row["end_to_end"].items():
            print(f"{workload:24s} {name:10s} median {s['median']:10.4f}  "
                  f"spread {s['spread']:.4f}", flush=True)
        result, record = run_once(workload, seeds[0], seconds, 1)
        row["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        row["traced"] = {"seed": seeds[0], "correct": result["correct"],
                         "rep_wall_s": record["rep_wall_s"],
                         "traced_rep_wall_s": record["traced_rep_wall_s"],
                         "computed": record["computed"]}
        layers_csv = RESULTS / f"{workload}-seed{seeds[0]}-trace" / "layers.csv"
        row["layers_csv"] = layers_csv.read_text()
        summary["workloads"][workload] = row
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
