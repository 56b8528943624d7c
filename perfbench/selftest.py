"""Smoke test of the benchmark itself.

Usage (from the root of a source checkout)::

    python3 perfbench/selftest.py

Runs every workload at minimal length, untraced and traced, and checks
that each run is correct, that it emits exactly the metrics named in
BENCHMARK.json with their units, and that the traced layers below the
entry points account for the measured step time. Then checks that the
benchmark refuses to run, without printing a result, when the package
sources are missing. Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Share of the measured step time that the traced layers below the entry
# points (the solve call, `cli.main`) account for. The solver's own loop
# body keeps about 15 % on the solve workloads; a missed layer such as
# SVT (about 40 % of a ref-cartesian step) or validation (about 10 %)
# takes the share below the floor. It cannot exceed the step time.
ACCOUNTED_PCT = (75.0, 101.0)


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    done = run_benchmark(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{label}: exit code {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{label}: not correct\n{done.stderr}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, "
                        f"units {[n for n in wanted if n in got and got[n] != wanted[n]]}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
    if trace:
        accounted = result["metrics"]["trace.accounted_pct"]["value"]
        if not ACCOUNTED_PCT[0] <= accounted <= ACCOUNTED_PCT[1]:
            problems.append(f"{label}: traced layers account for {accounted:.2f}% "
                            f"of step time, outside {ACCOUNTED_PCT}")
    return problems


def check_refuses_without_sources(workload: str) -> list[str]:
    bare = ROOT / ".bench_work" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_benchmark(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # still in use by another run
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["benchmark printed a result without the package sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    problems += check_refuses_without_sources(spec["workloads"][0]["name"])
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
