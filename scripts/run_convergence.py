#!/usr/bin/env python3
"""Run one reconstruction and report its convergence behavior.

Builds a phantom experiment from CLI flags (no JSON needed), solves it
with per-iteration tracking, and leaves the usual artifact set plus
series.csv (the per-iteration trajectory) in the output directory.
Prints the iteration count, final RE, PSNR/RMSE and solve time, so
step-size experiments can be compared from the terminal.
"""

import argparse
import sys

from rdledm.experiment import experiment_config_from_json, run_reconstruction
from rdledm.metrics import format_float


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="cine-like")
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--frames", type=int, default=8)
    parser.add_argument("--pattern", default="cartesian")
    parser.add_argument("--ratio", type=float, default=0.25)
    parser.add_argument("--sigma", type=float, default=0.05)
    parser.add_argument("--mask-seed", type=int, default=11)
    parser.add_argument("--noise-seed", type=int, default=13)
    parser.add_argument("--method", default="rdledm",
                        choices=("rdledm", "baseline"))
    parser.add_argument("--max-iters", type=int, default=1000)
    parser.add_argument("--tau", type=float, default=None,
                        help="override the error-coupling weight")
    parser.add_argument("--out-dir", required=True)
    return parser.parse_args()


def main():
    args = parse_args()
    solver = {"method": args.method, "max_iters": args.max_iters}
    if args.tau is not None:
        solver["tau"] = args.tau
    config = experiment_config_from_json({
        "phantom": {"preset": args.preset, "size": args.size,
                    "frames": args.frames},
        "mask": {"pattern": args.pattern, "ratio": args.ratio,
                 "seed": args.mask_seed},
        "noise": {"sigma": args.sigma, "seed": args.noise_seed},
        "solver": solver,
        "output": {"directory": args.out_dir},
    })
    manifest = run_reconstruction(config)
    results = manifest["results"]
    print(f"{results['method']}: {results['iterations']} iterations "
          f"({results['terminated_by']}), final RE {format_float(results['final_re'])}")
    print(f"psnr {results['psnr']:.3f} dB, rmse {results['rmse']:.6f}, "
          f"solve {manifest['timings']['solve_seconds']:.1f}s")
    print(f"series: {args.out_dir}/series.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
