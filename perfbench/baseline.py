"""Record a baseline: ten untraced runs per workload, one traced run each.

    python3 perfbench/baseline.py --out perfbench/baseline.json
    python3 perfbench/baseline.py --first-seed 11 --out perfbench/baseline_seeds11-20.json

Each run is a separate `perfbench/run.py` process with its own seed
(first-seed, first-seed + 1, ...), one at a time.  For every end-to-end
metric the file holds the per-run values, their median and quartiles
(`statistics.quantiles(values, n=4)`), and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound.  The
traced run uses the default seed.  Environment lines of every run are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return env, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for name in names:
        record = {"env": [], "attempted": 0, "failed": 0, "end_to_end": {}}
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            env, result = run_once(name, seed, spec["run_seconds"], 0)
            record["env"].append({"seed": seed, **env})
            record["attempted"] += result["attempted"]
            record["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        for metric, vals in values.items():
            record["end_to_end"][metric] = {**spread(vals), "bound": bounds[metric]}
            s = record["end_to_end"][metric]
            print(f"{name} {metric}: median {s['median']:.4f} spread {s['spread']:.4f} "
                  f"(bound {bounds[metric]})", flush=True)
        env, result = run_once(name, 0, spec["run_seconds"], 1)
        record["traced"] = {"env": env, "correct": result["correct"],
                            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
        out["workloads"][name] = record
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
