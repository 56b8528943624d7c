"""Experiment orchestration: JSON configs, pipeline runs, artifact export.

An experiment is described by one JSON document with exactly five
sections (phantom, mask, noise, solver, output). Parsing is strict:
unknown keys anywhere are rejected, and missing required keys and values
of the wrong JSON type are reported by their dotted name, so a typo in a
weight name cannot silently run with defaults.

A reconstruction run writes, into the output directory: the rendered
ground truth (truth.dseq), the sampling mask (mask.mask), the simulated
acquisition (kspace.dseq), the reconstruction (recon.dseq), optionally a
per-iteration metric CSV (series.csv) and per-frame PGM images
(frames/), plus manifest.json recording every resolved parameter, seeds,
package versions, and timings. Every result is computed before the
first file is written, so a run that fails writes none of them.
Everything except the manifest (which carries wall-clock timings) is
bit-reproducible from the config alone, and the manifest embeds the full
resolved config so a run can be replayed from it exactly.
"""

from __future__ import annotations

import csv
import json
import math
import platform
import sys
import time
from dataclasses import MISSING, dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .metrics import _score, format_float
from .phantom import generate_phantom, phantom_preset
from .sampling import make_mask, measure, write_mask, zero_fill
from .sequence import _largest_part, _rescaled, as_sequence, write_sequence
from .solver import SolverConfig, baseline_tvnn_solve, rdledm_solve

SOLVER_METHODS = ("rdledm", "baseline", "zerofill")

# The config schema, one row per key: (section, key, attribute, JSON
# type, default). ``attribute`` names the ExperimentConfig field, or
# "solver.<name>" the SolverConfig field, that holds the value; MISSING
# marks a required key, and null is accepted only where the default is
# null. Solver rows are typed by their defaults (epsilon_threshold, the
# one null default, is a float).
_FIELDS = (
    ("phantom", "preset", "preset", str, MISSING),
    ("phantom", "size", "size", int, MISSING),
    ("phantom", "frames", "frames", int, None),
    ("mask", "pattern", "mask_pattern", str, MISSING),
    ("mask", "ratio", "mask_ratio", float, MISSING),
    ("mask", "seed", "mask_seed", int, MISSING),
    ("mask", "static", "static_mask", bool, False),
    ("noise", "sigma", "noise_sigma", float, MISSING),
    ("noise", "seed", "noise_seed", int, MISSING),
    ("solver", "method", "method", str, MISSING),
    *(("solver", f.name, f"solver.{f.name}",
       float if f.default is None else type(f.default), f.default)
      for f in fields(SolverConfig)),
    ("output", "directory", "out_dir", str, MISSING),
    ("output", "export_pgm", "export_pgm", bool, False),
    ("output", "export_series", "export_series", bool, True),
)
_SECTIONS = tuple(dict.fromkeys(row[0] for row in _FIELDS))
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a finite number",
               bool: "true or false"}


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
        for key, seed in (("mask.seed", self.mask_seed), ("noise.seed", self.noise_seed)):
            if seed < 0:
                raise ConfigError(f"{key} must be a non-negative integer, got {seed}")
        _check_ratio("mask.ratio", self.mask_ratio)


def _check_ratio(name: str, ratio: float) -> None:
    # make_mask's range, checked before any output directory is made.
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"{name} must lie in (0, 1], got {ratio}")


def _typed(name: str, value, kind: type, default):
    """``value`` checked against its row's JSON type; an int stands for a float.

    A JSON number is finite: the NaN and Infinity literals that
    ``json.load`` accepts are not numbers, and an int beyond the float
    range has no float value. Bools are not numbers.
    """
    if value is None and default is None:
        return None
    if kind is float:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and -sys.float_info.max <= value <= sys.float_info.max)
    else:
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if not ok:
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def experiment_config_from_json(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("experiment config must be a JSON object")
    unknown = sorted(set(doc) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {unknown}")
    for section in _SECTIONS:
        if section not in doc:
            raise ConfigError(f"missing config section {section!r}")
        if not isinstance(doc[section], dict):
            raise ConfigError(f"config section {section!r} must be an object")
        unknown = sorted(set(doc[section]) - {row[1] for row in _FIELDS if row[0] == section})
        if unknown:
            raise ConfigError(f"unknown keys in section {section!r}: {unknown}")

    values: dict = {}
    solver: dict = {}
    for section, key, attribute, kind, default in _FIELDS:
        raw = doc[section]
        if key not in raw and default is MISSING:
            raise ConfigError(f"missing required key {section}.{key!r}")
        owner, _, name = attribute.rpartition(".")
        (solver if owner else values)[name] = _typed(
            f"{section}.{key}", raw.get(key, default), kind, default
        )
    try:
        solver_config = SolverConfig(**solver)
    except ValueError as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc
    return ExperimentConfig(solver=solver_config, **values)


def experiment_config_to_json(config: ExperimentConfig) -> dict:
    """Fully resolved JSON form; parsing it back reproduces the config."""
    doc: dict = {section: {} for section in _SECTIONS}
    for section, key, attribute, _, _ in _FIELDS:
        doc[section][key] = attrgetter(attribute)(config)
    return doc


def load_experiment_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError(f"{path}: not valid JSON: nested too deeply") from None
    return experiment_config_from_json(doc)


def config_from_manifest(manifest: dict, directory: str | None = None) -> ExperimentConfig:
    """Rebuild the config embedded in a run manifest, optionally redirected."""
    if not isinstance(manifest, dict):
        raise ConfigError("manifest must be a JSON object")
    if "config" not in manifest:
        raise ConfigError("manifest has no embedded config")
    doc = json.loads(json.dumps(manifest["config"]))
    # A config or output section that is not an object is left for
    # experiment_config_from_json to reject.
    if directory is not None and isinstance(doc, dict):
        output = doc.setdefault("output", {})
        if isinstance(output, dict):
            output["directory"] = directory
    return experiment_config_from_json(doc)


def _gray_levels(x: np.ndarray) -> np.ndarray:
    # |x| min-max scaled to 0..255 over the whole stack, all 0 for a zero
    # range. |x| overflows to inf above about 1.8e308, and the gain
    # 255 / (high - low) once the range falls below about 1.4e-306. Such a
    # stack is scaled by the power of two that brings its largest real or
    # imaginary part into [1/2, 1), where neither can happen; any other
    # stack keeps the plain formula.
    magnitudes = np.abs(x)
    low = float(magnitudes.min())
    high = float(magnitudes.max())
    gain = 255.0 / (high - low) if high > low else 0.0
    if not (math.isfinite(high) and math.isfinite(gain)):
        return _gray_levels(_rescaled(x, _largest_part(x))[0])
    return np.rint((magnitudes - low) * gain).astype(np.uint8)


def write_pgm_frames(x, directory) -> list[str]:
    """One 8-bit binary PGM per frame of the magnitude sequence.

    Magnitudes are min-max scaled over the whole stack so frames share
    one gray scale; a zero-range stack maps to all-black frames. Any
    finite stack is scaled without overflow, however large or small its
    entries.
    """
    x = as_sequence(x)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    scaled = _gray_levels(x)
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


def _standard_json(value):
    # Standard JSON has no infinities or NaN: such floats are written as
    # strings, the way format_float writes them in the CSVs.
    if isinstance(value, float):
        return value if math.isfinite(value) else format_float(value)
    if isinstance(value, dict):
        return {key: _standard_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_standard_json(item) for item in value]
    return value


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_standard_json(doc), handle, indent=2, sort_keys=True,
                  allow_nan=False)
        handle.write("\n")


def _write_csv(path, header, rows) -> None:
    """A header row, then ``rows``; floats are rendered by format_float."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_float(v) if isinstance(v, float) else v for v in row])


def _reconstruct(config: ExperimentConfig, data, mask, reference=None):
    """Solve by ``config.method``: (reconstruction, SolveReport or None)."""
    if config.method == "zerofill":
        return zero_fill(data, mask), None
    solve = rdledm_solve if config.method == "rdledm" else baseline_tvnn_solve
    report = solve(data, mask, config.solver, reference=reference)
    return report.reconstruction, report


def run_reconstruction(config: ExperimentConfig) -> dict:
    """Execute one phantom -> mask -> measure -> solve -> export run.

    Returns the manifest dict (also written to manifest.json, where an
    infinite PSNR, RMSE or relative error reads "inf" or "-inf"). Nothing is
    written until every result is computed, so a failed run leaves no
    files. Per-iteration PSNR/RMSE are tracked only when series.csv is
    exported.
    """
    started = time.perf_counter()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    spec = phantom_preset(config.preset, config.size, config.frames)
    truth = generate_phantom(spec)
    mask = make_mask(config.mask_pattern, spec.frames, spec.rows, spec.cols,
                     config.mask_ratio, config.mask_seed, static=config.static_mask)
    data = measure(truth, mask, config.noise_sigma, config.noise_seed)

    solve_started = time.perf_counter()
    recon, report = _reconstruct(config, data, mask,
                                 reference=truth if config.export_series else None)
    solve_seconds = time.perf_counter() - solve_started

    results: dict = {"method": config.method}
    if report is None:
        results["iterations"] = 0
    else:
        results["iterations"] = report.iterations
        results["terminated_by"] = report.terminated_by
        results["final_re"] = report.re_series[-1]
    results["psnr"], results["rmse"] = _score(truth, recon)
    series = None
    if config.export_series and report is not None:
        series = list(zip(range(1, report.iterations + 1), report.re_series,
                          report.psnr_series, report.rmse_series))

    write_sequence(truth, out_dir / "truth.dseq")
    write_mask(mask, out_dir / "mask.mask")
    write_sequence(data, out_dir / "kspace.dseq")
    write_sequence(recon, out_dir / "recon.dseq")
    artifacts = ["truth.dseq", "mask.mask", "kspace.dseq", "recon.dseq"]
    if series is not None:
        _write_csv(out_dir / "series.csv", ("index", "re", "psnr", "rmse"), series)
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


def _sweep_cell(config: ExperimentConfig, truth, pattern: str, ratio: float,
                p_index: int, r_index: int) -> tuple:
    """Reconstruct one sweep cell and score it: (pattern, ratio, psnr, rmse)."""
    frames, rows, cols = truth.shape
    mask = make_mask(pattern, frames, rows, cols, ratio,
                     _cell_seed(config.mask_seed, p_index, r_index),
                     static=config.static_mask)
    data = measure(truth, mask, config.noise_sigma,
                   _cell_seed(config.noise_seed, p_index, r_index))
    recon, _ = _reconstruct(config, data, mask)
    return (pattern, float(ratio), *_score(truth, recon))


def run_sweep(config: ExperimentConfig, ratios: list[float],
              patterns: tuple[str, ...] = ("cartesian", "radial", "random2d")) -> dict:
    """Reconstruct at every (pattern, ratio) cell and tabulate PSNR/RMSE.

    Cell seeds are derived from the config seeds and the cell position,
    so the whole matrix is reproducible and no cell consumes RNG state
    from another. Returns the manifest and the sweep.csv rows, pattern
    by pattern in increasing ratio.
    """
    if not ratios:
        raise ConfigError("sweep needs at least one ratio")
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        raise ConfigError("sweep ratios must strictly increase")
    for ratio in ratios:
        _check_ratio("sweep ratio", ratio)
    started = time.perf_counter()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    truth = generate_phantom(phantom_preset(config.preset, config.size, config.frames))
    rows = [
        _sweep_cell(config, truth, pattern, ratio, p_index, r_index)
        for p_index, pattern in enumerate(patterns)
        for r_index, ratio in enumerate(ratios)
    ]
    _write_csv(out_dir / "sweep.csv", ("pattern", "ratio", "psnr", "rmse"), rows)

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
    return {"manifest": manifest, "rows": rows}
