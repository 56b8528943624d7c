"""rdledm benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload ref-cartesian --seed 0 --seconds 40 --trace 0

The package is imported from ``src/`` of the checkout the script sits in,
never from an installed copy. With ``--trace 0`` the run measures the
end-to-end metrics with tracing off, timing a frozen copy of the
package beside the program (see FROZEN). With ``--trace 1`` it measures half
of ``--seconds`` untraced and half traced, and reports the per-layer
metrics, including the tracing overhead. Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import environment
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

# A frozen copy of the package as it was when the benchmark was made.
# The speed of the shared machines the benchmark runs on drifts by
# 10-30 % over minutes, and longer runs do not average that away; the
# same code run side by side drifts alike. Every untraced run therefore
# takes the frozen copy's set-up in turn with the program's and, on a
# workload whose operations are short enough to pair (``paired``), runs
# the frozen copy's operations in turn with the program's. Each time the
# copy also measured is reported as the program's time, multiplied by
# NOMINAL (the copy's time on the machine the baseline was recorded on)
# over the copy's time in the same run: the program's time at that
# machine's speed. The copy never changes, so a change to the program
# moves only the program's side.
FROZEN = "frozen_rdledm"
# Medians of the unchanged package over twenty 40-s runs per workload on
# that machine (2 vCPUs, x86_64; perfbench/README.md).
NOMINAL = {
    "ref-cartesian": {"setup_s": 0.043},
    "large-radial": {"op_s": 4.58, "step_ms_p50": 91.2, "step_ms_p90": 101.4,
                     "setup_s": 0.113},
    "cli-pipeline": {"op_s": 0.316, "step_ms_p50": 314.0, "step_ms_p90": 364.0,
                     "setup_s": 0.034},
}

# Set-up samples per side of an untraced run, spread over the run.
SETUP_REPEATS = 25
KERNEL_REPEATS = 15
STEP_WINDOWS = 8
# Isolated SVT timings: (metric, frames, rows, cols), i.e. a Casorati
# matrix of (rows*cols) x frames.
SVT_KERNELS = (
    ("operators.svt.t8_ms", 8, 64, 64),
    ("operators.svt.t20_ms", 20, 128, 128),
    ("operators.svt.t60_ms", 60, 64, 64),
)

END_TO_END = {
    "op_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "steps": "count",
    "psnr_db": "dB",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_ITER_SELF = (
    "operators.svt", "operators.dft2_forward", "operators.dft2_adjoint",
    "operators.grad_forward", "operators.grad_adjoint", "operators.project_linf_ball",
    "sequence.as_sequence", "sampling.as_mask", "sampling.forward_op",
    "sampling.adjoint_op", "metrics.psnr", "metrics.rmse", "solver.relative_error",
)
PER_ITER_CALLS = ("operators.svt", "sequence.as_sequence", "sampling.as_mask")
PER_CALL_MS = (
    "phantom.generate_phantom", "sampling.make_mask.radial",
    "sampling.make_mask.cartesian", "sampling.make_mask.random2d", "sampling.measure",
    "sequence.read_sequence", "sequence.write_sequence", "sampling.read_mask",
    "sampling.write_mask", "experiment.write_pgm_frames",
)
SOLVE_ROOTS = ("solver.rdledm_solve", "solver.baseline_tvnn_solve")
# The spans an operation enters the package through; their self time is
# time outside every traced layer below them.
ENTRY_POINTS = SOLVE_ROOTS + ("cli.main",)

PER_LAYER = {
    **{f"{name}.calls_per_iter": "count" for name in PER_ITER_CALLS},
    **{f"{name}.self_ms_per_iter": "ms" for name in PER_ITER_SELF},
    "operators.svt.useful_ratio": "ratio",
    "solver.loop_self_ms_per_iter": "ms",
    **{f"{name}.ms": "ms" for name in PER_CALL_MS},
    "experiment.run_reconstruction.self_ms": "ms",
    **{name: "ms" for name, *_ in SVT_KERNELS},
    "trace.overhead_pct": "%",
    "trace.accounted_pct": "%",
}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)
        return not problems


def fresh_import(name: str, directory: Path):
    """Import package ``name`` and its CLI afresh from ``directory``.

    Any earlier import is dropped first, so every call pays the full
    import of the package (NumPy stays imported).
    """
    for module in [n for n in sys.modules if n == name or n.startswith(name + ".")]:
        del sys.modules[module]
    package = importlib.import_module(name)
    importlib.import_module(name + ".cli")
    if Path(package.__file__).resolve().parent != directory / name:
        raise SystemExit(f"imported {name} from {package.__file__}, not from {directory}")
    return package


def import_package():
    return fresh_import("rdledm", SRC)


def import_frozen():
    return fresh_import(FROZEN, HERE)


class Side:
    """One copy of the package under measurement: its import, inputs and timings."""

    def __init__(self, label, workload, importer, reference, tally):
        self.label = label
        self.workload = workload
        self.importer = importer
        self.reference = reference
        self.tally = tally
        self.setup_samples: list[float] = []
        self.durations: list[float] = []
        self.outcomes = []
        self.rd = None
        self.ctx, self.built_for = None, None

    def set_up(self, instance):
        """Import the package afresh and build ``instance``'s inputs, timed."""
        # A dropped import leaves reference cycles (modules, classes,
        # functions). Collect them untimed, so that neither peak memory
        # nor a later timing depends on when the collector would run.
        self.ctx = None
        gc.collect()
        start = perf_counter()
        self.rd = self.importer()
        self.ctx = self.workload.build(self.rd, instance)
        self.setup_samples.append(perf_counter() - start)
        self.built_for = instance

    def operate(self, instance):
        """One timed operation on ``instance``; inputs built untimed if needed."""
        if self.built_for != instance:
            self.ctx = None
            self.ctx, self.built_for = self.workload.build(self.rd, instance), instance
        start = perf_counter()
        try:
            outcome = self.workload.run(self.rd, self.ctx)
            problems = workloads.check(outcome, self.reference[instance.index])
        except Exception as exc:  # any raise is a failed operation
            problems = [f"raised {type(exc).__name__}: {exc}"]
        self.durations.append(perf_counter() - start)
        label = f"{self.label} op {len(self.durations)} (instance {instance.index})"
        if self.tally.count(label, problems):
            self.outcomes.append(outcome)


def measure(sides, instances, seconds, set_up=()):
    """Run rounds of operations back to back for about ``seconds``; at least one.

    In round k every side in ``sides`` runs one operation on
    ``instances[k % len(instances)]``, in turn, the order reversed every
    other round. A new round starts only if a round of median operations
    would still end within the budget. Failed operations count in the
    sides' tally and are left out of their outcomes.

    The set-ups of the sides in ``set_up`` are repeated, in turn, until
    each has SETUP_REPEATS samples: before each round, as many as the
    share of the budget used so far, and the rest after the last round.
    The samples so come from the same stretch of time as the
    operations', not from one moment at the start of the run, and the
    sides' samples from the same moments.
    """
    start = perf_counter()
    for k in itertools.count():
        instance = instances[k % len(instances)]
        used = min(1.0, (perf_counter() - start) / seconds)
        set_up_to(set_up, SETUP_REPEATS * used, instance)
        for side in sides if k % 2 == 0 else sides[::-1]:
            side.operate(instance)
        rest = seconds - (perf_counter() - start)
        if sum(statistics.median(side.durations) for side in sides) > rest:
            break
    set_up_to(set_up, SETUP_REPEATS, instances[(k + 1) % len(instances)])


def set_up_to(sides, count, instance):
    """Repeat the sides' set-ups in turn until each has ``count`` samples."""
    while any(len(side.setup_samples) < count for side in sides):
        for side in sides:
            if len(side.setup_samples) < count:
                side.set_up(instance)


def step_percentiles(outcomes) -> tuple[float, float]:
    """Median and 90th percentile of step time, as the median over windows.

    The run's steps, in order, are cut into STEP_WINDOWS windows of
    consecutive steps; each percentile is taken per window and the
    median window is reported. A burst of load from outside the process
    then moves the windows it falls in, not the run's figure, while a
    slow step the program repeats shows in every window.
    """
    steps = np.concatenate([o.step_ms for o in outcomes])
    windows = np.array_split(steps, min(STEP_WINDOWS, len(steps)))
    p50, p90 = np.median([np.percentile(w, [50, 90]) for w in windows], axis=0)
    return float(p50), float(p90)


def times(side) -> dict:
    """The side's time metrics, as measured; set-up only if it ran no operation."""
    measured = {"setup_s": statistics.median(side.setup_samples)}
    if side.outcomes:
        p50, p90 = step_percentiles(side.outcomes)
        measured.update(op_s=statistics.median(o.seconds for o in side.outcomes),
                        step_ms_p50=p50, step_ms_p90=p90)
    return measured


def end_to_end(program, frozen, peak_rss_mb) -> tuple[dict, dict]:
    """End-to-end metrics, and the measured times they come from.

    A time the frozen copy also measured is the program's, multiplied
    by the copy's nominal time over its time in the same run (see
    FROZEN); the others are reported as measured.
    """
    measured = {"program": times(program), "frozen": times(frozen)}
    nominal = NOMINAL[program.workload.name]
    outcomes = program.outcomes
    metrics = {
        **{name: value * nominal[name] / measured["frozen"][name] if name in nominal
           else value for name, value in measured["program"].items()},
        "steps": len(outcomes[0].step_ms),
        "psnr_db": statistics.median(o.fingerprint["psnr_db"] for o in outcomes),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: metrics[name] for name in END_TO_END}, measured


def svt_kernels(rd, seed, tally) -> dict:
    """Median time of ``operators.svt`` alone at three Casorati shapes.

    The threshold is the median singular value, so half of them survive.
    Each output is checked against a direct SVD of the same matrix.
    """
    rng = np.random.default_rng(seed)
    results = {}
    for name, frames, rows, cols in SVT_KERNELS:
        shape = (frames, rows, cols)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        casorati = x.reshape(frames, -1).T
        u, s, vh = np.linalg.svd(casorati, full_matrices=False)
        threshold = float(np.median(s))
        expected = ((u * np.maximum(s - threshold, 0.0)) @ vh).T.reshape(shape)
        samples = []
        for _ in range(KERNEL_REPEATS):
            start = perf_counter()
            out = rd.operators.svt(x, threshold)
            samples.append(perf_counter() - start)
        error = float(np.max(np.abs(out - expected)))
        tally.count(name, [] if error <= 1e-8 * s[0] else [f"max error {error:.3e}"])
        results[name] = statistics.median(samples) * 1e3
    return results


def per_layer(op_stats, setup_stats, outcomes, untraced_p50, traced_p50) -> dict:
    iterations = sum(o.iterations for o in outcomes)

    def per_iter(value):
        return value / iterations if iterations else 0.0

    def stat(name):
        return op_stats.get(name) or spans.LayerStats()

    metrics = {}
    for name in PER_ITER_CALLS:
        metrics[f"{name}.calls_per_iter"] = per_iter(stat(name).calls)
    for name in PER_ITER_SELF:
        metrics[f"{name}.self_ms_per_iter"] = per_iter(stat(name).self_time * 1e3)
    svt = stat("operators.svt")
    metrics["operators.svt.useful_ratio"] = svt.nonzero / svt.calls if svt.calls else 0.0
    metrics["solver.loop_self_ms_per_iter"] = per_iter(
        sum(stat(name).self_time for name in SOLVE_ROOTS) * 1e3)
    for name in PER_CALL_MS:
        durations = stat(name).durations + (setup_stats.get(name) or spans.LayerStats()).durations
        metrics[f"{name}.ms"] = statistics.median(durations) * 1e3 if durations else 0.0
    recon = stat("experiment.run_reconstruction")
    metrics["experiment.run_reconstruction.self_ms"] = (
        recon.self_time / recon.calls * 1e3 if recon.calls else 0.0)
    metrics["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0
    # The share of the independently measured step time spent inside the
    # traced layers: self time of every span except the entry points
    # (whose self time is the loop body or CLI glue) and the tracer's
    # own SVT check. A layer the tracer misses lowers it.
    step_seconds = sum(sum(o.step_ms) for o in outcomes) / 1e3
    layers = sum(rec.self_time for name, rec in op_stats.items()
                 if name not in ENTRY_POINTS and name != spans.SVT_CHECK)
    metrics["trace.accounted_pct"] = layers / step_seconds * 100.0
    return metrics


def summary(workload, metrics, units, tally, samples) -> list[str]:
    aliases = workload.aliases if units is END_TO_END else {}
    lines = []
    for name, value in metrics.items():
        shown = aliases.get(name, name)
        suffix = f"  ({name})" if shown != name else ""
        lines.append(f"  {shown:<48} {value:>14.6g} {units[name]}{suffix}")
    rate = tally.failed / tally.attempted
    lines.append(f"  {'error_rate':<48} {rate:>14.6g} ratio  "
                 f"({tally.failed} failed of {tally.attempted})")
    lines.append(f"  {samples}")
    return [f"workload {workload.name}:"] + lines


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    retains = environment.retain_freed_memory()
    work_root = WORK_ROOT / str(os.getpid())
    available = workloads.make_workloads(work_root)
    args = parse_args(argv, sorted(available))
    if not (SRC / "rdledm" / "__init__.py").is_file():
        print(f"error: no rdledm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = available[args.workload]
    instances = workloads.run_instances(args.seed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][workload.name]
    tally = Tally()
    try:
        program = Side("program", workload, import_package, reference, tally)
        program.set_up(instances[0])
        workload.warm_up(program.rd, program.ctx)
        # Taken before the frozen copy runs, so the peak is the
        # program's own. ru_maxrss is in KiB on Linux.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace == 0:
            frozen = Side("frozen", workload, import_frozen, reference, tally)
            frozen.set_up(instances[0])
            workload.warm_up(frozen.rd, frozen.ctx)
            sides = [program, frozen] if workload.paired else [program]
            measure(sides, instances, args.seconds, set_up=[program, frozen])
            if not all(side.outcomes for side in sides):
                print("error: every operation of a side failed", file=sys.stderr)
                return 1
            metrics, measured = end_to_end(program, frozen, peak_rss_mb)
            units = END_TO_END
            outcomes = program.outcomes
        else:
            half = args.seconds / 2.0
            measure([program], instances, half)
            traced = Side("traced", workload, import_package, reference, tally)
            traced.rd = program.rd
            with spans.Tracer(program.rd) as tracer:
                for i in range(SETUP_REPEATS):
                    workload.build(program.rd, instances[i % len(instances)])
                setup_stats = tracer.take()
                measure([traced], instances, half)
                op_stats = tracer.take()
            if not (program.outcomes and traced.outcomes):
                print("error: every operation failed", file=sys.stderr)
                return 1
            metrics = per_layer(op_stats, setup_stats, traced.outcomes,
                                step_percentiles(program.outcomes)[0],
                                step_percentiles(traced.outcomes)[0])
            metrics.update(svt_kernels(program.rd, args.seed, tally))
            metrics = {name: metrics[name] for name in PER_LAYER}
            units = PER_LAYER
            outcomes = program.outcomes + traced.outcomes
            measured = None
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # absent, or another run is still using it

    samples = (f"{len(outcomes)} operations, "
               f"{sum(len(o.step_ms) for o in outcomes)} step samples")
    print("\n".join(summary(workload, metrics, units, tally, samples)))
    if measured is not None:
        print(json.dumps({"measured": measured}))
    print(json.dumps({"environment": environment.describe(retains)}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
