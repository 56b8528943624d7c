"""Smoke tests: the scripts in scripts/ run end to end on a tiny problem.

Both scripts build their config documents by hand, so these catch a
script that the config parser no longer accepts.
"""

import os
import subprocess
import sys
from pathlib import Path

import rdledm

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TINY = ["--size", "32", "--frames", "4", "--max-iters", "2"]


def run_script(name, *args):
    env = dict(os.environ)
    package_root = str(Path(rdledm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *TINY, *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_run_convergence(tmp_path):
    out = tmp_path / "conv"
    result = run_script("run_convergence.py", "--out-dir", str(out))
    assert result.returncode == 0, result.stderr
    assert "2 iterations (max-iters)" in result.stdout
    assert sorted(p.name for p in out.iterdir()) == [
        "kspace.dseq", "manifest.json", "mask.mask", "recon.dseq", "series.csv", "truth.dseq",
    ]
    assert len((out / "series.csv").read_text().splitlines()) == 1 + 2


def test_run_sweep(tmp_path):
    out = tmp_path / "sweep"
    result = run_script("run_sweep.py", "--ratios", "0.3,0.5", "--out-dir", str(out))
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in out.iterdir()) == ["sweep.csv", "sweep_manifest.json"]
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "pattern,ratio,psnr,rmse"
    cells = [line.split(",") for line in lines[1:]]
    assert [(pattern, float(ratio)) for pattern, ratio, _, _ in cells] == [
        (pattern, ratio) for pattern in ("cartesian", "radial", "random2d") for ratio in (0.3, 0.5)
    ]
