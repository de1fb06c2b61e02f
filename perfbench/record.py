"""Run the benchmark over several seeds and write one trajectory point.

    python3 perfbench/record.py --out perfbench/results/<label>.json

For each workload, runs the command in ``BENCHMARK.json`` untraced once
per seed in ``SEEDS`` and reports, for every end-to-end metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, which is the distance between the quartiles as a share of the
median.  It then makes two traced runs on ``TRACE_SEED`` and checks that
every count repeats exactly.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {out.returncode}")
    info = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        try:
            info[key] = json.loads(rest)
        except json.JSONDecodeError:
            pass  # a metric line ("name value unit") or a message
    return {"seed": seed, "wall_s": wall, "info": info, **json.loads(lines[-1])}


def summarize(values: list, bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, workload, seed, 0) for seed in SEEDS]
        report.setdefault("env", runs[0]["info"].get("env"))
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            summary[metric["name"]] = summarize(values, metric["bound"])
            row = summary[metric["name"]]
            print(f"{workload:22s} {metric['name']:18s} median {row['median']:.6g} "
                  f"{metric['unit']:8s} spread {row['spread']:.4f} bound {metric['bound']}",
                  flush=True)
        entry = {"runs": runs, "summary": summary,
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs)}
        traced = [run_once(spec, workload, TRACE_SEED, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"}
                  for t in traced]
        entry["traced"] = traced
        entry["traced_counts_repeat"] = counts[0] == counts[1]
        print(f"{workload:22s} traced counts repeat: {counts[0] == counts[1]}", flush=True)
        report["workloads"][workload] = entry
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
