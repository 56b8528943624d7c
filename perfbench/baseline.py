"""Run the benchmark twice over several seeds and summarise both sets.

Usage (from the root of a source checkout)::

    python3 perfbench/baseline.py --runs 10 [--workload NAME ...] [--traced 1] [--out FILE]

Makes two sets of runs, one after the other, each run at BENCHMARK.json's
``run_seconds``. In each set, every workload runs untraced once per seed
(seeds ``0 .. runs - 1``); the first set also makes ``--traced`` traced
runs per workload. For each set it prints, per end-to-end metric, the
median, the quartiles and the spread (interquartile distance over the
median) next to the metric's bound, and then how far the second set's
median is worse than the first's. With ``--out`` it writes every run's
result and the summaries as JSON: the first set under ``workloads``,
the second under ``second_set``. Exits non-zero if any run fails or
reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result\n{done.stderr}")
    result["environment"] = json.loads(lines[-2])["environment"]
    if trace == 0:
        result["measured"] = json.loads(lines[-3])["measured"]
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else 0.0}


def one_set(spec: dict, workloads: list[str], runs: int, traced: int) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    document = {"run_seconds": seconds, "workloads": {}}
    for workload in workloads:
        untraced = [one_run(workload, seed, seconds, 0) for seed in range(runs)]
        traced_runs = [one_run(workload, seed, seconds, 1) for seed in range(traced)]
        summary = {}
        print(f"{workload}: {runs} untraced runs, {traced} traced", flush=True)
        for name, bound in bounds.items():
            summary[name] = s = spread([r["metrics"][name]["value"] for r in untraced])
            flag = "  over a third of the bound" if s["spread"] > bound / 3 else ""
            print(f"  {name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bound}){flag}")
        layers = {}
        for name in (m["name"] for m in spec["per_layer"]):
            values = [r["metrics"][name]["value"] for r in traced_runs]
            if values:
                layers[name] = statistics.median(values)
                print(f"  {name:<48} {layers[name]:.6g}")
        document["workloads"][workload] = {
            "end_to_end": summary, "per_layer": layers,
            "runs": untraced + traced_runs,
        }
        document["environment"] = untraced[0]["environment"]
    return document


def compare(spec: dict, first: dict, second: dict) -> None:
    """Print by how much each median of the second set is worse."""
    print("second set against the first (share by which the median is worse):")
    for workload, summary in first["workloads"].items():
        for metric in spec["end_to_end"]:
            a = summary["end_to_end"][metric["name"]]["median"]
            b = second["workloads"][workload]["end_to_end"][metric["name"]]["median"]
            worse = (b - a if metric["better"] == "lower" else a - b) / abs(a) if a else 0.0
            flag = "  over the bound" if worse > metric["bound"] else ""
            print(f"  {workload:<14} {metric['name']:<14} {worse:+.4f} "
                  f"(bound {metric['bound']}){flag}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    workloads = args.workload or names
    print("first set")
    document = one_set(spec, workloads, args.runs, args.traced)
    print("second set")
    document["second_set"] = one_set(spec, workloads, args.runs, 0)
    compare(spec, document, document["second_set"])
    if args.out:
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
