"""Experiment orchestration: JSON configs, pipeline runs, artifact export.

An experiment is described by one JSON document with exactly five
sections (phantom, mask, noise, solver, output). Parsing is strict:
unknown keys anywhere are rejected and missing required keys are
reported by their dotted name, so a typo in a weight name cannot
silently run with defaults.

A reconstruction run writes, into the output directory: the rendered
ground truth (truth.dseq), the sampling mask (mask.mask), the simulated
acquisition (kspace.dseq), the reconstruction (recon.dseq), optionally a
per-iteration metric CSV (series.csv) and per-frame PGM images
(frames/), plus manifest.json recording every resolved parameter, seeds,
package versions, and timings. Everything except the manifest (which
carries wall-clock timings) is bit-reproducible from the config alone,
and the manifest embeds the full resolved config so a run can be
replayed from it exactly.
"""

from __future__ import annotations

import csv
import io
import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .metrics import MetricSeries, format_float, psnr, psnr_rmse_sweep, rmse, series_to_csv
from .phantom import generate_phantom, phantom_preset
from .sampling import make_mask, measure, write_mask, zero_fill
from .sequence import as_sequence, write_sequence
from .solver import SolverConfig, baseline_tvnn_solve, rdledm_solve

SOLVER_METHODS = ("rdledm", "baseline", "zerofill")

_SOLVER_FIELDS = (
    "lambda1", "lambda2", "tau", "t1", "t2", "epsilon_threshold",
    "max_iters", "tol_re", "record_metrics", "eps_residual_order",
)


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    size: int
    frames: int | None
    mask_pattern: str
    mask_ratio: float
    mask_seed: int
    static_mask: bool
    noise_sigma: float
    noise_seed: int
    method: str
    solver: SolverConfig
    out_dir: str
    export_pgm: bool
    export_series: bool

    def __post_init__(self):
        if self.method not in SOLVER_METHODS:
            raise ConfigError(
                f"solver.method must be one of {SOLVER_METHODS}, got {self.method!r}"
            )


def _section(doc: dict, name: str, required: tuple[str, ...],
             optional: dict) -> dict:
    if name not in doc:
        raise ConfigError(f"missing config section {name!r}")
    raw = doc[name]
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = sorted(set(raw) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {unknown}")
    missing = sorted(set(required) - set(raw))
    if missing:
        raise ConfigError(f"missing required key {name}.{missing[0]!r}")
    merged = dict(optional)
    merged.update(raw)
    return merged


def experiment_config_from_json(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("experiment config must be a JSON object")
    sections = ("phantom", "mask", "noise", "solver", "output")
    unknown = sorted(set(doc) - set(sections))
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {unknown}")

    phantom = _section(doc, "phantom", ("preset", "size"), {"frames": None})
    mask = _section(doc, "mask", ("pattern", "ratio", "seed"), {"static": False})
    noise = _section(doc, "noise", ("sigma", "seed"), {})
    solver = _section(doc, "solver", ("method",), {k: None for k in _SOLVER_FIELDS})
    output = _section(doc, "output", ("directory",),
                      {"export_pgm": False, "export_series": True})

    overrides = {k: solver[k] for k in _SOLVER_FIELDS if solver[k] is not None}
    try:
        solver_config = SolverConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc

    return ExperimentConfig(
        preset=phantom["preset"],
        size=int(phantom["size"]),
        frames=None if phantom["frames"] is None else int(phantom["frames"]),
        mask_pattern=mask["pattern"],
        mask_ratio=float(mask["ratio"]),
        mask_seed=int(mask["seed"]),
        static_mask=bool(mask["static"]),
        noise_sigma=float(noise["sigma"]),
        noise_seed=int(noise["seed"]),
        method=solver["method"],
        solver=solver_config,
        out_dir=str(output["directory"]),
        export_pgm=bool(output["export_pgm"]),
        export_series=bool(output["export_series"]),
    )


def experiment_config_to_json(config: ExperimentConfig) -> dict:
    """Fully resolved JSON form; parsing it back reproduces the config."""
    solver = {"method": config.method}
    for key in _SOLVER_FIELDS:
        solver[key] = getattr(config.solver, key)
    return {
        "phantom": {"preset": config.preset, "size": config.size,
                    "frames": config.frames},
        "mask": {"pattern": config.mask_pattern, "ratio": config.mask_ratio,
                 "seed": config.mask_seed, "static": config.static_mask},
        "noise": {"sigma": config.noise_sigma, "seed": config.noise_seed},
        "solver": solver,
        "output": {"directory": config.out_dir, "export_pgm": config.export_pgm,
                   "export_series": config.export_series},
    }


def load_experiment_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return experiment_config_from_json(doc)


def config_from_manifest(manifest: dict, directory: str | None = None) -> ExperimentConfig:
    """Rebuild the config embedded in a run manifest, optionally redirected."""
    if "config" not in manifest:
        raise ConfigError("manifest has no embedded config")
    doc = json.loads(json.dumps(manifest["config"]))
    if directory is not None:
        doc.setdefault("output", {})["directory"] = directory
    return experiment_config_from_json(doc)


def write_pgm_frames(x, directory) -> list[str]:
    """One 8-bit binary PGM per frame of the magnitude sequence.

    Magnitudes are min-max scaled over the whole stack so frames share
    one gray scale; a zero-range stack maps to all-black frames.
    """
    x = as_sequence(x)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    magnitudes = np.abs(x)
    low = float(magnitudes.min())
    high = float(magnitudes.max())
    if high > low:
        scaled = np.rint((magnitudes - low) * (255.0 / (high - low))).astype(np.uint8)
    else:
        scaled = np.zeros(magnitudes.shape, dtype=np.uint8)
    names = []
    rows, cols = x.shape[1:]
    for t in range(x.shape[0]):
        name = f"frame_{t:04d}.pgm"
        with open(directory / name, "wb") as handle:
            handle.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
            handle.write(scaled[t].tobytes())
        names.append(name)
    return names


def _versions() -> dict:
    return {
        "rdledm": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_reconstruction(config: ExperimentConfig) -> dict:
    """Execute one phantom -> mask -> measure -> solve -> export run.

    Returns the manifest dict (also written to manifest.json).
    """
    started = time.perf_counter()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    spec = phantom_preset(config.preset, config.size, config.frames)
    truth = generate_phantom(spec)
    mask = make_mask(config.mask_pattern, spec.frames, spec.rows, spec.cols,
                     config.mask_ratio, config.mask_seed, static=config.static_mask)
    data = measure(truth, mask, config.noise_sigma, config.noise_seed)

    write_sequence(truth, out_dir / "truth.dseq")
    write_mask(mask, out_dir / "mask.mask")
    write_sequence(data, out_dir / "kspace.dseq")

    artifacts = ["truth.dseq", "mask.mask", "kspace.dseq", "recon.dseq"]
    results: dict = {"method": config.method}
    report = None

    solve_started = time.perf_counter()
    if config.method == "zerofill":
        recon = zero_fill(data, mask)
        results["iterations"] = 0
    else:
        solve = rdledm_solve if config.method == "rdledm" else baseline_tvnn_solve
        report = solve(data, mask, config.solver, reference=truth)
        recon = report.reconstruction
        results["iterations"] = report.iterations
        results["terminated_by"] = report.terminated_by
        results["final_re"] = report.re_series[-1]
    solve_seconds = time.perf_counter() - solve_started

    write_sequence(recon, out_dir / "recon.dseq")
    results["psnr"] = psnr(truth, recon)
    results["rmse"] = rmse(truth, recon)

    if config.export_series and report is not None:
        indices = [float(n) for n in range(1, report.iterations + 1)]
        columns = [MetricSeries("re", tuple(zip(indices, report.re_series)))]
        if report.psnr_series is not None:
            columns.append(MetricSeries("psnr", tuple(zip(indices, report.psnr_series))))
            columns.append(MetricSeries("rmse", tuple(zip(indices, report.rmse_series))))
        with open(out_dir / "series.csv", "w", encoding="utf-8", newline="") as handle:
            handle.write(series_to_csv(*columns))
        artifacts.append("series.csv")

    if config.export_pgm:
        artifacts.extend(
            f"frames/{name}" for name in write_pgm_frames(recon, out_dir / "frames")
        )

    manifest = {
        "kind": "reconstruction",
        "config": experiment_config_to_json(config),
        "versions": _versions(),
        "results": results,
        "timings": {
            "solve_seconds": solve_seconds,
            "total_seconds": time.perf_counter() - started,
        },
        "artifacts": artifacts,
    }
    _write_json(manifest, out_dir / "manifest.json")
    return manifest


def _cell_seed(base: int, pattern_index: int, ratio_index: int) -> int:
    seq = np.random.SeedSequence((base, pattern_index, ratio_index))
    return int(seq.generate_state(1, np.uint64)[0])


def run_sweep(config: ExperimentConfig, ratios: list[float],
              patterns: tuple[str, ...] = ("cartesian", "radial", "random2d")) -> dict:
    """Reconstruct at every (pattern, ratio) cell and tabulate PSNR/RMSE.

    Cell seeds are derived from the config seeds and the cell position,
    so the whole matrix is reproducible and no cell consumes RNG state
    from another.
    """
    if not ratios:
        raise ConfigError("sweep needs at least one ratio")
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        raise ConfigError("sweep ratios must strictly increase")
    started = time.perf_counter()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    spec = phantom_preset(config.preset, config.size, config.frames)
    truth = generate_phantom(spec)

    rows = []
    series = {}
    for p_index, pattern in enumerate(patterns):
        cells = []
        for r_index, ratio in enumerate(ratios):
            mask = make_mask(pattern, spec.frames, spec.rows, spec.cols, ratio,
                             _cell_seed(config.mask_seed, p_index, r_index),
                             static=config.static_mask)
            data = measure(truth, mask, config.noise_sigma,
                           _cell_seed(config.noise_seed, p_index, r_index))
            if config.method == "zerofill":
                recon = zero_fill(data, mask)
            else:
                solve = rdledm_solve if config.method == "rdledm" else baseline_tvnn_solve
                recon = solve(data, mask, config.solver).reconstruction
            cells.append((ratio, recon, truth))
        psnr_series, rmse_series = psnr_rmse_sweep(cells)
        series[pattern] = (psnr_series, rmse_series)
        for (ratio, p_val), (_, r_val) in zip(psnr_series.points, rmse_series.points):
            rows.append((pattern, ratio, p_val, r_val))

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["pattern", "ratio", "psnr", "rmse"])
    for pattern, ratio, p_val, r_val in rows:
        writer.writerow([pattern, format_float(ratio), format_float(p_val),
                         format_float(r_val)])
    csv_text = buffer.getvalue()
    with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="") as handle:
        handle.write(csv_text)

    manifest = {
        "kind": "sweep",
        "config": experiment_config_to_json(config),
        "ratios": list(ratios),
        "patterns": list(patterns),
        "versions": _versions(),
        "timings": {"total_seconds": time.perf_counter() - started},
        "artifacts": ["sweep.csv"],
    }
    _write_json(manifest, out_dir / "sweep_manifest.json")
    return {"manifest": manifest, "rows": rows, "series": series, "csv": csv_text}
