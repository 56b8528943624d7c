"""Command line interface.

Subcommands compose the pipeline stages: phantom, mask, measure,
reconstruct, sweep, export. Exit codes: 0 success, 2 validation or
configuration error (sizes too large to allocate included), 3 numerical
divergence, 4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    ConfigError,
    DivergenceError,
    FileFormatError,
    NumericalError,
    RdledmError,
)
from .experiment import load_experiment_config, run_reconstruction, run_sweep, write_pgm_frames
from .metrics import format_float
from .phantom import PRESET_FRAMES, PRESET_SIZES, generate_phantom, phantom_preset
from .sampling import MASK_PATTERNS, achieved_ratio, make_mask, measure, read_mask, write_mask
from .sequence import read_sequence, write_sequence

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


def cmd_phantom(preset: str, size: int, frames: int | None, out: str) -> int:
    spec = phantom_preset(preset, size, frames)
    write_sequence(generate_phantom(spec), out)
    print(f"wrote {out}: {spec.frames} frames of {spec.rows}x{spec.cols} ({spec.name})")
    return EXIT_OK


def cmd_mask(pattern: str, frames: int, rows: int, cols: int, ratio: float,
             seed: int, static: bool, out: str) -> int:
    mask = make_mask(pattern, frames, rows, cols, ratio, seed, static=static)
    write_mask(mask, out)
    print(f"wrote {out}: {pattern} {frames}x{rows}x{cols}, "
          f"achieved ratio {achieved_ratio(mask):.4f}")
    return EXIT_OK


def cmd_measure(seq: str, mask: str, sigma: float, seed: int, out: str) -> int:
    data = measure(read_sequence(seq), read_mask(mask), sigma, seed)
    write_sequence(data, out)
    print(f"wrote {out}: simulated acquisition, sigma={sigma}")
    return EXIT_OK


def cmd_reconstruct(config: str) -> int:
    manifest = run_reconstruction(load_experiment_config(config))
    results = manifest["results"]
    summary = f"{results['method']}: psnr={format_float(results['psnr'])} dB, " \
              f"rmse={format_float(results['rmse'])}"
    if results["iterations"]:
        summary += f", iterations={results['iterations']} ({results['terminated_by']})"
    print(summary)
    print(f"artifacts in {manifest['config']['output']['directory']}")
    return EXIT_OK


def cmd_sweep(config: str, ratios: list[float]) -> int:
    outcome = run_sweep(load_experiment_config(config), ratios)
    for pattern, ratio, psnr_value, rmse_value in outcome["rows"]:
        print(f"{pattern} @ {ratio:g}: psnr={psnr_value:.3f} dB, rmse={rmse_value:.5f}")
    print(f"wrote {outcome['manifest']['artifacts'][0]} in "
          f"{outcome['manifest']['config']['output']['directory']}")
    return EXIT_OK


def cmd_export(seq: str, out_dir: str) -> int:
    names = write_pgm_frames(read_sequence(seq), out_dir)
    print(f"wrote {len(names)} frames to {out_dir}")
    return EXIT_OK


def _parse_ratios(text: str) -> list[float]:
    try:
        ratios = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --ratios value {text!r}: {exc}") from exc
    if not ratios:
        raise ConfigError("--ratios must list at least one value")
    return ratios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdledm",
        description="Dynamic-MRI compressed sensing: phantoms, masks, "
                    "acquisition simulation, and primal-dual reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="render a dynamic phantom to a sequence file")
    p.add_argument("--preset", required=True, choices=sorted(PRESET_FRAMES))
    p.add_argument("--size", type=int, default=128, choices=PRESET_SIZES)
    p.add_argument("--frames", type=int, default=None,
                   help="override the preset frame count")
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_phantom(a.preset, a.size, a.frames, a.out))

    p = sub.add_parser("mask", help="generate a sampling mask file")
    p.add_argument("--pattern", required=True, choices=MASK_PATTERNS)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--static-mask", action="store_true",
                   help="repeat frame 0 instead of redrawing per frame")
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_mask(a.pattern, a.frames, a.rows, a.cols,
                                          a.ratio, a.seed, a.static_mask, a.out))

    p = sub.add_parser("measure", help="simulate noisy undersampled k-space")
    p.add_argument("--seq", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_measure(a.seq, a.mask, a.sigma, a.seed, a.out))

    p = sub.add_parser("reconstruct", help="run a full experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(run=lambda a: cmd_reconstruct(a.config))

    p = sub.add_parser("sweep", help="reconstruct over a pattern x ratio matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--ratios", required=True,
                   help="comma-separated sampling ratios, e.g. 0.2,0.35,0.5")
    p.set_defaults(run=lambda a: cmd_sweep(a.config, _parse_ratios(a.ratios)))

    p = sub.add_parser("export", help="write per-frame PGM magnitude images")
    p.add_argument("--seq", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(run=lambda a: cmd_export(a.seq, a.out_dir))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DivergenceError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (RdledmError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
