"""The benchmark's workloads: how each builds its inputs, runs, and is checked.

Every workload is driven through the same three calls:

``build(rd, instance)``
    Set-up: everything before the first timed operation (inputs, work
    directory, config file). Returns a context object.
``warm_up(rd, ctx)``
    One short untimed operation, so lazy set-up is done before timing.
``run(rd, ctx)``
    One timed operation. Returns an :class:`Outcome`.

:func:`check` then compares the outcome's fingerprint with the values
recorded from the unmodified package for the same instance, and adds
the invariants the operation itself found broken.

``rd`` is the imported ``rdledm`` package. Functions are looked up on
its modules at call time, so a tracer installed on those modules sees
every call. The checks call nothing in the package, so they add no
spans.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import ClassVar

import numpy as np

# Inputs come from POOL problem instances; a run cycles through all of
# them in an order drawn from its seed. Reference outputs for each
# instance are recorded in reference.json.
POOL = 16
SIGMA = 0.05
RATIO = 0.25
# Mask pattern of the pipeline's `reconstruct` step.
RECON_PATTERN = "radial"
# Final PSNR must match the recorded value this closely. It admits
# round-off from a reordered but equivalent computation, not a change
# in what the solver computes.
PSNR_TOLERANCE_DB = 1e-6


@dataclass(frozen=True)
class Instance:
    index: int
    mask_seed: int
    noise_seed: int


def instance_for(index: int) -> Instance:
    mask_seed, noise_seed = (int(s) for s in np.random.SeedSequence(index).generate_state(2))
    return Instance(index, mask_seed, noise_seed)


def run_instances(seed: int) -> list[Instance]:
    """The instances a run cycles through: the pool, in an order drawn from ``seed``.

    Operations on different instances cost different amounts (the
    radial spoke search takes more or fewer steps), by up to 14 % for a
    cli-pipeline chain. A run that covered one instance would carry that
    into its figure; cycling makes a run's median cover the same mix of
    instances whatever the seed, while the seed still decides the order
    and so which instances a short run reaches.
    """
    return [instance_for(int(i)) for i in np.random.default_rng(seed).permutation(POOL)]


@dataclass
class Outcome:
    seconds: float
    step_ms: list[float]
    iterations: int
    # Values that must equal the recorded reference, final PSNR included.
    fingerprint: dict = field(default_factory=dict)
    # Invariants the operation found broken.
    problems: list[str] = field(default_factory=list)


def psnr_db(truth, estimate) -> float:
    """PSNR of magnitudes, peak = reference peak (the package's default)."""
    reference, magnitude = np.abs(truth), np.abs(estimate)
    mse = float(np.mean((reference - magnitude) ** 2))
    return 10.0 * math.log10(float(reference.max()) ** 2 / mse)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(outcome: Outcome, reference: dict) -> list[str]:
    problems = list(outcome.problems)
    for key, expected in reference.items():
        actual = outcome.fingerprint.get(key)
        if key == "psnr_db":
            ok = actual is not None and abs(actual - expected) <= PSNR_TOLERANCE_DB
        else:
            ok = actual == expected
        if not ok:
            problems.append(f"{key}: got {actual!r}, recorded {expected!r}")
    return problems


@dataclass(frozen=True)
class SolveContext:
    truth: np.ndarray
    mask: np.ndarray
    data: np.ndarray


@dataclass(frozen=True)
class SolveWorkload:
    """One solver call on a cine-like phantom, timed per iteration."""

    # Names the summary shows for the generic metrics on this workload.
    aliases: ClassVar[dict] = {"op_s": "solve_s", "step_ms_p50": "iter_ms_p50",
                               "step_ms_p90": "iter_ms_p90", "steps": "iterations"}

    name: str
    size: int
    frames: int
    pattern: str
    solver: str
    max_iters: int | None
    with_reference: bool
    # Whether a run pairs each solve with one of the frozen copy (run.py).
    paired: bool

    def build(self, rd, instance: Instance) -> SolveContext:
        spec = rd.phantom.phantom_preset("cine-like", self.size, self.frames)
        truth = rd.phantom.generate_phantom(spec)
        mask = rd.sampling.make_mask(self.pattern, spec.frames, spec.rows, spec.cols,
                                     RATIO, instance.mask_seed)
        data = rd.sampling.measure(truth, mask, SIGMA, instance.noise_seed)
        return SolveContext(truth, mask, data)

    def _config(self, rd, max_iters):
        if max_iters is None:
            return rd.solver.SolverConfig()
        return rd.solver.SolverConfig(max_iters=max_iters)

    def warm_up(self, rd, ctx: SolveContext) -> None:
        getattr(rd.solver, self.solver)(ctx.data, ctx.mask, self._config(rd, 2))

    def run(self, rd, ctx: SolveContext) -> Outcome:
        config = self._config(rd, self.max_iters)
        solve = getattr(rd.solver, self.solver)
        stamps = []
        start = perf_counter()
        report = solve(ctx.data, ctx.mask, config,
                       reference=ctx.truth if self.with_reference else None,
                       on_iteration=lambda *_: stamps.append(perf_counter()))
        seconds = perf_counter() - start
        # Iteration n runs from the (n-1)-th callback, or the call itself
        # for n = 1, to the n-th callback.
        step_ms = np.diff([start, *stamps]) * 1e3
        psnr = psnr_db(ctx.truth, report.reconstruction)
        return Outcome(
            seconds=seconds,
            step_ms=step_ms.tolist(),
            iterations=report.iterations,
            fingerprint={
                "iterations": report.iterations,
                "terminated_by": report.terminated_by,
                "psnr_db": psnr,
            },
            problems=[] if np.isfinite(report.reconstruction).all()
            else ["reconstruction has non-finite entries"],
        )


@dataclass(frozen=True)
class PipelineContext:
    chain: Path
    argvs: list[list[str]]


@dataclass(frozen=True)
class PipelineWorkload:
    """An in-process ``rdledm.cli.main`` chain with every file read back."""

    aliases: ClassVar[dict] = {"op_s": "pipeline_s", "step_ms_p50": "pipeline_ms_p50",
                               "step_ms_p90": "pipeline_ms_p90"}
    paired: ClassVar[bool] = True

    name: str
    size: int
    work_root: Path

    def build(self, rd, instance: Instance) -> PipelineContext:
        work = self.work_root / self.name
        work.mkdir(parents=True, exist_ok=True)
        chain = work / "chain"
        frames = rd.phantom.PRESET_FRAMES["cine-like"]
        config = {
            "phantom": {"preset": "cine-like", "size": self.size},
            "mask": {"pattern": RECON_PATTERN, "ratio": RATIO,
                     "seed": instance.mask_seed},
            "noise": {"sigma": SIGMA, "seed": instance.noise_seed},
            "solver": {"method": "zerofill"},
            "output": {"directory": str(chain / "run"), "export_pgm": True,
                       "export_series": True},
        }
        config_path = work / "reconstruct.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        size = str(self.size)
        argvs = [["phantom", "--preset", "cine-like", "--size", size,
                  "--out", str(chain / "truth.dseq")]]
        for pattern in rd.sampling.MASK_PATTERNS:
            argvs.append(["mask", "--pattern", pattern, "--rows", size, "--cols", size,
                          "--frames", str(frames), "--ratio", str(RATIO),
                          "--seed", str(instance.mask_seed),
                          "--out", str(chain / f"{pattern}.mask")])
        argvs.append(["measure", "--seq", str(chain / "truth.dseq"),
                      "--mask", str(chain / f"{RECON_PATTERN}.mask"),
                      "--sigma", str(SIGMA), "--seed", str(instance.noise_seed),
                      "--out", str(chain / "kspace.dseq")])
        argvs.append(["reconstruct", "--config", str(config_path)])
        argvs.append(["export", "--seq", str(chain / "run" / "recon.dseq"),
                      "--out-dir", str(chain / "export")])
        return PipelineContext(chain, argvs)

    def warm_up(self, rd, ctx: PipelineContext) -> None:
        self.run(rd, ctx)

    def run(self, rd, ctx: PipelineContext) -> Outcome:
        if ctx.chain.exists():
            shutil.rmtree(ctx.chain)
        ctx.chain.mkdir()
        with redirect_stdout(io.StringIO()):
            start = perf_counter()
            codes = [rd.cli.main(argv) for argv in ctx.argvs]
            sequences = {p: rd.sequence.read_sequence(p)
                         for p in sorted(ctx.chain.rglob("*.dseq"))}
            masks = {p: rd.sampling.read_mask(p) for p in sorted(ctx.chain.rglob("*.mask"))}
            seconds = perf_counter() - start
        return self._outcome(ctx.chain, codes, seconds, sequences, masks)

    def _outcome(self, chain, codes, seconds, sequences, masks) -> Outcome:
        run = chain / "run"
        problems = [f"step {i + 1} exited with {code}"
                    for i, code in enumerate(codes) if code != 0]
        fingerprint = {}
        for name in ("truth.dseq", "mask.mask", "kspace.dseq", "recon.dseq"):
            fingerprint[f"sha256:{name}"] = _sha256(run / name)
        for path in sorted(chain.glob("*.mask")):
            fingerprint[f"sha256:{path.name}"] = _sha256(path)
        frames = sorted((run / "frames").glob("*.pgm"))
        digest = hashlib.sha256()
        for path in frames:
            digest.update(path.read_bytes())
        fingerprint["sha256:frames"] = digest.hexdigest()
        fingerprint["read_back"] = [len(sequences), len(masks)]
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        fingerprint["psnr_db"] = psnr = manifest["results"]["psnr"]

        # The CLI's own steps must agree with what `reconstruct` wrote.
        for a, b in (("truth.dseq", "truth.dseq"), ("kspace.dseq", "kspace.dseq"),
                     (f"{RECON_PATTERN}.mask", "mask.mask")):
            if (chain / a).read_bytes() != (run / b).read_bytes():
                problems.append(f"{a} from the CLI steps differs from run/{b}")
        exported = sorted((chain / "export").glob("*.pgm"))
        if [p.read_bytes() for p in exported] != [p.read_bytes() for p in frames]:
            problems.append("`export` frames differ from the frames `reconstruct` wrote")
        recomputed = psnr_db(sequences[run / "truth.dseq"], sequences[run / "recon.dseq"])
        if abs(recomputed - psnr) > PSNR_TOLERANCE_DB:
            problems.append(f"PSNR of the files read back is {recomputed!r}, "
                            f"manifest says {psnr!r}")
        # The chain is the unit of work: one step per operation.
        return Outcome(seconds=seconds, step_ms=[seconds * 1e3], iterations=0,
                       fingerprint=fingerprint, problems=problems)


def make_workloads(work_root: Path) -> dict:
    workloads = [
        # The reference problem. The arrays are small, so the three SVTs
        # (one of them the eps branch), per-call validation and the
        # per-iteration PSNR/RMSE dominate an iteration.
        SolveWorkload(
            name="ref-cartesian",
            size=64, frames=8, pattern="cartesian", solver="rdledm_solve",
            max_iters=None, with_reference=True,
            # A solve takes 15-19 s, so a run holds one pair at most, and
            # two solves run a quarter of a minute apart drift apart: a
            # first set of ten paired runs spread 0.18 (op_s) against
            # 0.04-0.10 for unpaired runs. Its times are reported as
            # measured; only its set-up is scaled.
            paired=False,
        ),
        # Ten times the voxels and the baseline solver without a reference:
        # one SVT per iteration, no eps branch, no metric tracking, so the
        # FFT pair, the gradient pair and the dual projection dominate. The
        # iteration cap keeps one solve near five seconds.
        SolveWorkload(
            name="large-radial",
            size=128, frames=20, pattern="radial", solver="baseline_tvnn_solve",
            max_iters=50, with_reference=False, paired=True,
        ),
        # Bypasses the solver: phantom rendering, the radial spoke search,
        # acquisition, the DSEQ1/MASK1 readers and writers and the export
        # do the work.
        PipelineWorkload(
            name="cli-pipeline",
            size=128, work_root=work_root,
        ),
    ]
    return {w.name: w for w in workloads}
