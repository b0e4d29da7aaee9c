"""Measure the baseline recorded in ``baseline.json``.

Run from the root of a checkout:

    python3 vppbench/baseline.py --seeds 10

Each workload in BENCHMARK.json runs once per seed 0..N-1 with tracing
off, every run in a fresh process as ``run.py``'s command line performs
it; the file keeps every value with the median and quartiles of each
end-to-end metric and the spread (q3 - q1) / median. One more run per
workload at seed 0 with tracing on records every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Result line and environment record of one run."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    env = next(json.loads(line.split(":", 1)[1]) for line in lines
               if line.startswith("environment:"))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return result, env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    doc = {"run_seconds": spec["run_seconds"], "seeds": list(range(args.seeds)),
           "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench_run(spec, workload, seed, 0) for seed in range(args.seeds)]
        doc["environment"] = {k: v for k, v in runs[0][1].items() if k != "seed"}
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r, _ in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": values}
            print(f"{workload} {metric['name']}: median {median:.4f} "
                  f"spread {(q3 - q1) / median:.4f}", flush=True)
        traced, _ = bench_run(spec, workload, 0, 1)
        doc["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()}}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
