import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdledm import cli, experiment
from rdledm.cli import build_parser, main
from rdledm.errors import ConfigError
from rdledm.experiment import (
    config_from_manifest,
    experiment_config_from_json,
    experiment_config_to_json,
    load_experiment_config,
    run_reconstruction,
    run_sweep,
    write_pgm_frames,
)
from rdledm.sampling import read_mask
from rdledm.sequence import read_sequence, write_sequence
from rdledm.solver import SolverConfig

from conftest import random_sequence


def config_doc(out_dir, **sections):
    doc = {
        "phantom": {"preset": "cine-like", "size": 32, "frames": 4},
        "mask": {"pattern": "cartesian", "ratio": 0.4, "seed": 3},
        "noise": {"sigma": 0.02, "seed": 5},
        "solver": {"method": "rdledm", "max_iters": 25, "tol_re": 1e-300},
        "output": {"directory": str(out_dir)},
    }
    for name, extra in sections.items():
        doc[name] = {**doc[name], **extra}
    return doc


def write_config(tmp_path, **sections):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_doc(tmp_path / "run", **sections)))
    return path


def run_module(args, **kwargs):
    """Run ``python -m rdledm args`` in a child that imports the package
    under test, installed or not."""
    package_root = str(Path(experiment.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "rdledm", *args],
                          capture_output=True, text=True, timeout=60, env=env, **kwargs)


def read_strict_json(path):
    # standard JSON: no NaN, Infinity or -Infinity tokens
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


VALID_DOC = config_doc("run")
# every settable key, including those the document leaves at their defaults
CONFIG_PATHS = [(section,) for section in VALID_DOC] + [
    (section, key)
    for section, values in experiment_config_to_json(
        experiment_config_from_json(VALID_DOC)).items()
    for key in values
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=6,
)


class TestConfigParsing:
    def test_defaults_fill_in(self, tmp_path):
        config = experiment_config_from_json(config_doc(tmp_path))
        assert config.static_mask is False
        assert config.export_pgm is False
        assert config.export_series is True
        assert config.solver.max_iters == 25
        assert config.solver.lambda1 == SolverConfig().lambda1

    def test_missing_section(self, tmp_path):
        doc = config_doc(tmp_path)
        del doc["noise"]
        with pytest.raises(ConfigError, match="noise"):
            experiment_config_from_json(doc)

    def test_missing_required_key_named_with_dots(self, tmp_path):
        doc = config_doc(tmp_path)
        del doc["phantom"]["preset"]
        with pytest.raises(ConfigError, match="phantom.'preset'"):
            experiment_config_from_json(doc)

    def test_unknown_section_key(self, tmp_path):
        doc = config_doc(tmp_path)
        doc["mask"]["lines"] = 12
        with pytest.raises(ConfigError, match="lines"):
            experiment_config_from_json(doc)

    def test_unknown_top_level_key(self, tmp_path):
        doc = config_doc(tmp_path)
        doc["extra"] = {}
        with pytest.raises(ConfigError, match="extra"):
            experiment_config_from_json(doc)

    def test_bad_solver_value(self, tmp_path):
        doc = config_doc(tmp_path, solver={"lambda1": -1.0})
        with pytest.raises(ConfigError, match="solver"):
            experiment_config_from_json(doc)

    def test_bad_method(self, tmp_path):
        doc = config_doc(tmp_path, solver={"method": "cg"})
        with pytest.raises(ConfigError, match="method"):
            experiment_config_from_json(doc)

    @pytest.mark.parametrize("section", ["mask", "noise"])
    def test_negative_seed(self, tmp_path, section):
        doc = config_doc(tmp_path, **{section: {"seed": -1}})
        with pytest.raises(ConfigError, match=f"{section}.seed must be a non-negative"):
            experiment_config_from_json(doc)

    def test_json_round_trip(self, tmp_path):
        config = experiment_config_from_json(config_doc(tmp_path))
        assert experiment_config_from_json(experiment_config_to_json(config)) == config

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_experiment_config(path)

    def test_manifest_round_trip_with_redirect(self, tmp_path):
        config = experiment_config_from_json(config_doc(tmp_path / "a"))
        manifest = {"config": experiment_config_to_json(config)}
        rebuilt = config_from_manifest(manifest, directory=str(tmp_path / "b"))
        assert rebuilt.out_dir == str(tmp_path / "b")
        assert rebuilt.solver == config.solver

    @pytest.mark.parametrize("manifest,directory", [
        ({"results": {}}, None),
        (["config"], None),
        (5, None),
        ({"config": []}, "x"),
        ({"config": {"output": []}}, "x"),
        ({"config": 5}, "x"),
    ], ids=["no-config", "list-manifest", "number-manifest", "list-config",
            "list-output", "number-config"])
    def test_manifest_without_config(self, manifest, directory):
        with pytest.raises(ConfigError):
            config_from_manifest(manifest, directory=directory)

    @settings(max_examples=300)
    @given(path=st.sampled_from(CONFIG_PATHS)
           | st.text().map(lambda key: (key,))
           | st.tuples(st.sampled_from(sorted(VALID_DOC)), st.text()),
           value=JSON_VALUES)
    def test_any_value_is_rejected_or_round_trips(self, path, value):
        doc = copy.deepcopy(VALID_DOC)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        try:
            config = experiment_config_from_json(doc)
        except ConfigError:
            return
        assert experiment_config_from_json(experiment_config_to_json(config)) == config


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    doc = config_doc(out, output={"export_pgm": True})
    manifest = run_reconstruction(experiment_config_from_json(doc))
    return out, manifest


class TestRunReconstruction:
    def test_artifacts_on_disk(self, run):
        out, manifest = run
        for name in ("truth.dseq", "kspace.dseq", "recon.dseq", "mask.mask",
                     "series.csv", "manifest.json"):
            assert (out / name).exists()
        assert sorted(p.name for p in (out / "frames").iterdir()) == [
            f"frame_{t:04d}.pgm" for t in range(4)
        ]
        assert set(manifest["artifacts"]) == {
            "truth.dseq", "kspace.dseq", "recon.dseq", "mask.mask", "series.csv",
            *(f"frames/frame_{t:04d}.pgm" for t in range(4)),
        }

    def test_artifacts_are_readable_and_consistent(self, run):
        out, _ = run
        truth = read_sequence(out / "truth.dseq")
        mask = read_mask(out / "mask.mask")
        data = read_sequence(out / "kspace.dseq")
        recon = read_sequence(out / "recon.dseq")
        assert truth.shape == mask.shape == data.shape == recon.shape
        assert np.array_equal(data[mask == 0], np.zeros((mask == 0).sum()))

    def test_manifest_records_run(self, run):
        _, manifest = run
        assert manifest["kind"] == "reconstruction"
        results = manifest["results"]
        assert results["method"] == "rdledm"
        assert results["iterations"] == 25
        assert results["terminated_by"] == "max-iters"
        assert results["final_re"] > 0
        assert results["psnr"] > 0 and results["rmse"] > 0
        assert set(manifest["versions"]) == {"rdledm", "numpy", "python"}
        assert manifest["timings"]["solve_seconds"] > 0
        assert manifest["timings"]["total_seconds"] >= manifest["timings"]["solve_seconds"]

    def test_manifest_on_disk_matches_return(self, run):
        out, manifest = run
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["results"] == manifest["results"]
        assert on_disk["config"] == manifest["config"]

    def test_series_csv_layout(self, run):
        out, _ = run
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "index,re,psnr,rmse"
        assert len(lines) == 1 + 25

    def test_zerofill_skips_solver(self, tmp_path):
        doc = config_doc(tmp_path / "zf", solver={"method": "zerofill"})
        manifest = run_reconstruction(experiment_config_from_json(doc))
        assert manifest["results"]["iterations"] == 0
        assert "series.csv" not in manifest["artifacts"]
        assert not (tmp_path / "zf" / "series.csv").exists()

    def test_baseline_method(self, tmp_path):
        doc = config_doc(tmp_path / "bl",
                         solver={"method": "baseline", "max_iters": 8})
        manifest = run_reconstruction(experiment_config_from_json(doc))
        assert manifest["results"]["method"] == "baseline"
        assert manifest["results"]["iterations"] == 8

    def test_series_export_can_be_disabled(self, tmp_path, monkeypatch):
        # without series.csv the solver is given no reference to track
        references = []
        original = experiment._reconstruct

        def recording(config, data, mask, reference=None):
            references.append(reference)
            return original(config, data, mask, reference)

        monkeypatch.setattr(experiment, "_reconstruct", recording)
        doc = config_doc(tmp_path / "nos", output={"export_series": False},
                         solver={"max_iters": 4})
        manifest = run_reconstruction(experiment_config_from_json(doc))
        assert "series.csv" not in manifest["artifacts"]
        assert references == [None]

    def test_failure_after_solve_leaves_no_files(self, tmp_path, monkeypatch):
        def failing(truth, recon):
            raise ValueError("scoring failed")

        monkeypatch.setattr(experiment, "_score", failing)
        doc = config_doc(tmp_path / "fail", solver={"max_iters": 2})
        with pytest.raises(ValueError):
            run_reconstruction(experiment_config_from_json(doc))
        assert list((tmp_path / "fail").iterdir()) == []

    def test_bit_reproducible_and_replayable(self, run, tmp_path):
        out, manifest = run
        replay_dir = tmp_path / "replay"
        config = config_from_manifest(manifest, directory=str(replay_dir))
        run_reconstruction(config)
        names = [a for a in manifest["artifacts"]] + ["series.csv"]
        for name in sorted(set(names)):
            assert (replay_dir / name).read_bytes() == (out / name).read_bytes(), name


class TestRunSweep:
    def test_rejects_bad_ratios(self, tmp_path):
        config = experiment_config_from_json(config_doc(tmp_path))
        with pytest.raises(ConfigError):
            run_sweep(config, [])
        with pytest.raises(ConfigError):
            run_sweep(config, [0.4, 0.3])

    def test_small_matrix(self, tmp_path):
        out = tmp_path / "sweep"
        doc = config_doc(out, solver={"method": "zerofill"})
        config = experiment_config_from_json(doc)
        outcome = run_sweep(config, [0.3, 0.5], patterns=("cartesian", "random2d"))
        assert [(p, r) for p, r, _, _ in outcome["rows"]] == [
            ("cartesian", 0.3), ("cartesian", 0.5),
            ("random2d", 0.3), ("random2d", 0.5),
        ]
        assert set(outcome) == {"manifest", "rows"}
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "pattern,ratio,psnr,rmse"
        assert len(lines) == 5
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert manifest["kind"] == "sweep"
        assert manifest["ratios"] == [0.3, 0.5]

    def test_reproducible(self, tmp_path):
        doc_a = config_doc(tmp_path / "a", solver={"method": "zerofill"})
        doc_b = config_doc(tmp_path / "b", solver={"method": "zerofill"})
        rows_a = run_sweep(experiment_config_from_json(doc_a), [0.3, 0.5])["rows"]
        rows_b = run_sweep(experiment_config_from_json(doc_b), [0.3, 0.5])["rows"]
        assert rows_a == rows_b


class TestPgmExport:
    def test_header_and_payload(self, tmp_path, rng):
        x = random_sequence(rng, 2, 3, 5)
        names = write_pgm_frames(x, tmp_path)
        assert names == ["frame_0000.pgm", "frame_0001.pgm"]
        blob = (tmp_path / names[0]).read_bytes()
        assert blob.startswith(b"P5\n5 3\n255\n")
        assert len(blob) == len(b"P5\n5 3\n255\n") + 15

    def test_min_max_scaling(self, tmp_path):
        x = np.zeros((1, 1, 3), dtype=complex)
        x[0, 0] = [1.0, 2.0, 3.0]
        write_pgm_frames(x, tmp_path)
        payload = (tmp_path / "frame_0000.pgm").read_bytes()[len(b"P5\n3 1\n255\n"):]
        assert list(payload) == [0, 128, 255]

    def test_constant_stack_is_black(self, tmp_path):
        x = np.full((1, 2, 2), 7.0 + 0j)
        write_pgm_frames(x, tmp_path)
        payload = (tmp_path / "frame_0000.pgm").read_bytes()[len(b"P5\n2 2\n255\n"):]
        assert list(payload) == [0, 0, 0, 0]

    @pytest.mark.parametrize("entries,levels", [
        # |x| overflows float64
        ([1.5e308 + 1.5e308j, 1.0, 0.0, 0.0], [255, 0, 0, 0]),
        # 255 / (high - low) overflows
        ([0.0, 0.0, 0.0, 1e-310], [0, 0, 0, 255]),
    ])
    def test_extreme_scales(self, tmp_path, entries, levels):
        x = np.array(entries, dtype=complex).reshape(1, 2, 2)
        write_pgm_frames(x, tmp_path / "direct")
        seq = tmp_path / "x.dseq"
        write_sequence(x, seq)
        assert main(["export", "--seq", str(seq), "--out-dir", str(tmp_path / "cli")]) == 0
        for directory in ("direct", "cli"):
            payload = (tmp_path / directory / "frame_0000.pgm").read_bytes()
            assert list(payload[len(b"P5\n2 2\n255\n"):]) == levels


class TestCliCommands:
    def test_phantom_command(self, tmp_path, capsys):
        out = tmp_path / "p.dseq"
        code = main(["phantom", "--preset", "cine-like", "--size", "64",
                     "--frames", "2", "--out", str(out)])
        assert code == 0
        assert read_sequence(out).shape == (2, 64, 64)
        assert str(out) in capsys.readouterr().out

    def test_mask_command(self, tmp_path, capsys):
        out = tmp_path / "m.mask"
        code = main(["mask", "--pattern", "radial", "--rows", "64", "--cols", "64",
                     "--frames", "3", "--ratio", "0.25", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        assert read_mask(out).shape == (3, 64, 64)
        assert "achieved ratio" in capsys.readouterr().out

    def test_measure_and_export_commands(self, tmp_path, capsys):
        seq = tmp_path / "p.dseq"
        mask = tmp_path / "m.mask"
        main(["phantom", "--preset", "cine-like", "--size", "64", "--frames", "2",
              "--out", str(seq)])
        main(["mask", "--pattern", "cartesian", "--rows", "64", "--cols", "64",
              "--frames", "2", "--ratio", "0.3", "--out", str(mask)])
        out = tmp_path / "k.dseq"
        assert main(["measure", "--seq", str(seq), "--mask", str(mask),
                     "--sigma", "0.01", "--seed", "1", "--out", str(out)]) == 0
        frames_dir = tmp_path / "frames"
        assert main(["export", "--seq", str(seq), "--out-dir", str(frames_dir)]) == 0
        assert sorted(p.name for p in frames_dir.iterdir()) == [
            "frame_0000.pgm", "frame_0001.pgm",
        ]

    def test_reconstruct_command(self, tmp_path, capsys):
        config = write_config(tmp_path, solver={"max_iters": 10})
        assert main(["reconstruct", "--config", str(config)]) == 0
        output = capsys.readouterr().out
        assert "psnr=" in output and "iterations=10" in output
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_sweep_command(self, tmp_path, capsys):
        config = write_config(tmp_path, solver={"method": "zerofill"})
        assert main(["sweep", "--config", str(config), "--ratios", "0.3,0.5"]) == 0
        output = capsys.readouterr().out
        assert "cartesian @ 0.3" in output
        assert (tmp_path / "run" / "sweep.csv").exists()

    def test_module_entry_point(self):
        result = run_module(["--help"])
        assert result.returncode == 0
        assert "reconstruct" in result.stdout

    def test_main_builds_its_parser_once(self, tmp_path, monkeypatch, capsys):
        built = []

        def counting():
            built.append(1)
            return build_parser()

        def mask_args(name):
            return ["mask", "--pattern", "cartesian", "--rows", "16", "--cols", "16",
                    "--ratio", "0.5", "--out", str(tmp_path / name)]

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            assert main(mask_args("a.mask")) == 0
            assert main(mask_args("b.mask")) == 0
            # the reused parser calls the cmd_* function current at call time
            calls = []
            monkeypatch.setattr(cli, "cmd_mask", lambda *args: calls.append(args) or 0)
            assert main(mask_args("c.mask")) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert len(calls) == 1 and not (tmp_path / "c.mask").exists()
        assert read_mask(tmp_path / "a.mask").tobytes() == read_mask(tmp_path / "b.mask").tobytes()
        assert build_parser() is not build_parser()


BAD_FIELDS = [
    ("solver", "lambda1", math.nan), ("solver", "lambda2", math.inf),
    ("solver", "tau", -math.inf), ("solver", "t1", math.nan), ("solver", "t2", math.inf),
    ("solver", "tol_re", math.nan), ("solver", "max_iters", 2.5),
    ("solver", "max_iters", True),
    ("mask", "static", "false"), ("mask", "seed", True), ("mask", "pattern", ["cartesian"]),
    ("phantom", "size", 33.9), ("phantom", "preset", 3), ("noise", "sigma", math.nan),
    ("output", "export_pgm", "no"), ("noise", "seed", None),
]


class TestExitCodes:
    def test_validation_errors_exit_2(self, tmp_path, capsys):
        assert main(["phantom", "--preset", "cine-like", "--size", "64",
                     "--frames", "0", "--out", str(tmp_path / "x.dseq")]) == 2
        assert main(["mask", "--pattern", "cartesian", "--rows", "64",
                     "--cols", "64", "--ratio", "1.7",
                     "--out", str(tmp_path / "m.mask")]) == 2
        assert main(["mask", "--pattern", "radial", "--rows", "16", "--cols", "16",
                     "--ratio", "0.01", "--out", str(tmp_path / "m.mask")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["reconstruct", "--config", "{config}"],
        ["phantom", "--preset", "cine-like", "--frames", "4000000000", "--out", "{out}"],
        ["mask", "--pattern", "cartesian", "--rows", "2000000", "--cols", "2000000",
         "--frames", "4", "--ratio", "0.25", "--out", "{out}"],
    ], ids=["reconstruct", "phantom", "mask"])
    def test_unallocatable_size_exits_2(self, tmp_path, command):
        # Each asks for 14.6 TiB or more. The child's address space is
        # capped at 4 GiB, so the allocation fails without being made.
        resource = pytest.importorskip("resource")
        limit = 4 << 30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        config = write_config(tmp_path, phantom={"preset": "cine-like", "size": 32,
                                                 "frames": 4_000_000_000})
        args = [arg.format(config=config, out=tmp_path / "out") for arg in command]
        result = run_module(args, preexec_fn=cap_address_space)
        assert result.returncode == 2
        assert result.stderr.startswith("error: Unable to allocate")
        assert result.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"phantom": {}}))
        assert main(["reconstruct", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command", [["reconstruct"], ["sweep", "--ratios", "0.3"]],
                             ids=["reconstruct", "sweep"])
    def test_deeply_nested_config_exits_2(self, tmp_path, capsys, command):
        # deeper than the recursion limit: the JSON reader raises RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 3000 + "]" * 3000)
        assert main([*command, "--config", str(deep)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {deep}: not valid JSON: nested too deeply\n"

    # ids leave the section out, so the solver cases keep their names
    @pytest.mark.parametrize("section,key,value", BAD_FIELDS,
                             ids=[f"{key}-{value}" for _, key, value in BAD_FIELDS])
    def test_bad_solver_field_exits_2(self, tmp_path, capsys, section, key, value):
        # json writes NaN and Infinity literals, which its reader accepts
        config = write_config(tmp_path, **{section: {key: value}})
        assert main(["reconstruct", "--config", str(config)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,message", [
        (["reconstruct", "--config", "{mask_seed}"], "mask.seed must be"),
        (["reconstruct", "--config", "{noise_seed}"], "noise.seed must be"),
        (["sweep", "--ratios", "0.3", "--config", "{mask_seed}"], "mask.seed must be"),
        (["mask", "--pattern", "radial", "--rows", "16", "--cols", "16", "--ratio", "0.3",
          "--seed", "-1", "--out", "{out}"], "seed must be"),
        (["measure", "--seq", "{seq}", "--mask", "{mask}", "--seed", "-1",
          "--out", "{out}"], "seed must be"),
    ], ids=["reconstruct-mask", "reconstruct-noise", "sweep", "mask", "measure"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, message):
        # rejected before anything is written: {out} is the run directory
        # of a config and the output file of mask and measure
        seq, mask = tmp_path / "p.dseq", tmp_path / "m.mask"
        write_sequence(np.zeros((1, 4, 4), dtype=complex), seq)
        (tmp_path / "m.mask").write_bytes(b"MASK1\n1 4 4\n" + bytes([1] * 16))
        names = {"seq": seq, "mask": mask, "out": tmp_path / "out"}
        for section in ("mask", "noise"):
            path = tmp_path / f"{section}_seed.json"
            path.write_text(json.dumps(config_doc(tmp_path / "out", **{section: {"seed": -1}})))
            names[f"{section}_seed"] = path
        assert main([arg.format(**names) for arg in command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert "non-negative integer, got -1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,message", [
        (["sweep", "--ratios", "0.2,0.5,nan", "--config", "{config}"], "sweep ratio"),
        (["sweep", "--ratios", "0.2,1.5", "--config", "{config}"], "sweep ratio"),
        (["sweep", "--ratios", "0.3,inf", "--config", "{config}"], "sweep ratio"),
        (["sweep", "--ratios", "0,0.3", "--config", "{config}"], "sweep ratio"),
        (["reconstruct", "--config", "{ratio_config}"], "mask.ratio"),
        (["sweep", "--ratios", ",", "--config", "{config}"], "at least one value"),
    ], ids=["sweep-nan", "sweep-1.5", "sweep-inf", "sweep-0", "reconstruct-1.5",
            "sweep-empty"])
    def test_bad_ratio_exits_2_before_any_output(self, tmp_path, capsys, command, message):
        # rejected before any cell runs or the run directory is made
        names = {"config": tmp_path / "config.json", "ratio_config": tmp_path / "ratio.json"}
        names["config"].write_text(json.dumps(config_doc(tmp_path / "out")))
        names["ratio_config"].write_text(
            json.dumps(config_doc(tmp_path / "out", mask={"ratio": 1.5})))
        assert main([arg.format(**names) for arg in command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_huge_header_exits_4(self, tmp_path, capsys):
        # 27 bytes whose header claims a 1.6e18-byte payload
        huge_seq = tmp_path / "huge.dseq"
        huge_seq.write_bytes(b"DSEQ1\n1000000 1000000 100000\n")
        assert main(["export", "--seq", str(huge_seq), "--out-dir", str(tmp_path / "f")]) == 4
        seq = tmp_path / "small.dseq"
        write_sequence(np.zeros((1, 2, 2), dtype=complex), seq)
        huge_mask = tmp_path / "huge.mask"
        huge_mask.write_bytes(b"MASK1\n1000000 1000000 100000\n\x01")
        assert main(["measure", "--seq", str(seq), "--mask", str(huge_mask),
                     "--out", str(tmp_path / "k.dseq")]) == 4
        assert capsys.readouterr().err.count("payload truncated") == 2

    def test_bad_ratio_list_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["sweep", "--config", str(config), "--ratios", "0.3,abc"]) == 2

    def test_divergence_exits_3(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            solver={"tau": 1e150, "epsilon_threshold": 0.0, "max_iters": 30},
        )
        assert main(["reconstruct", "--config", str(config)]) == 3
        assert "error:" in capsys.readouterr().err
        assert list((tmp_path / "run").iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_overflowing_noise_exits_0(self, tmp_path, capsys):
        # a finite sigma whose squared errors overflow: PSNR -inf, RMSE +inf,
        # handled without a warning and written as standard JSON
        config = write_config(tmp_path, noise={"sigma": 1e160})
        assert main(["reconstruct", "--config", str(config)]) == 0
        manifest = read_strict_json(tmp_path / "run" / "manifest.json")
        for name in manifest["artifacts"]:
            assert (tmp_path / "run" / name).exists()
        header, *rows = (tmp_path / "run" / "series.csv").read_text().splitlines()
        assert header == "index,re,psnr,rmse"
        assert rows and all(row.endswith(",-inf,inf") for row in rows)
        assert (manifest["results"]["psnr"], manifest["results"]["rmse"]) == ("-inf", "inf")
        assert "Warning" not in capsys.readouterr().err

    def test_exact_match_manifest_is_standard_json(self, tmp_path, monkeypatch, capsys):
        # PSNR +inf is written as "inf", the way series.csv writes it
        monkeypatch.setattr(experiment, "_reconstruct",
                            lambda config, data, mask, reference=None: (reference, None))
        config = write_config(tmp_path, solver={"method": "zerofill"})
        assert main(["reconstruct", "--config", str(config)]) == 0
        results = read_strict_json(tmp_path / "run" / "manifest.json")["results"]
        assert (results["psnr"], results["rmse"]) == ("inf", 0.0)
        assert "psnr=inf dB" in capsys.readouterr().out

    def test_missing_file_exits_4(self, tmp_path, capsys):
        assert main(["export", "--seq", str(tmp_path / "nope.dseq"),
                     "--out-dir", str(tmp_path)]) == 4

    def test_corrupt_file_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.dseq"
        bad.write_bytes(b"JUNK!\n1 1 1\n" + b"\0" * 16)
        assert main(["export", "--seq", str(bad), "--out-dir", str(tmp_path)]) == 4
        truncated = tmp_path / "short.dseq"
        truncated.write_bytes(b"DSEQ1\n1 2 2\n" + b"\0" * 16)
        assert main(["export", "--seq", str(truncated), "--out-dir", str(tmp_path)]) == 4

    def test_non_finite_payload_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "nan.dseq"
        bad.write_bytes(b"DSEQ1\n1 1 1\n" + np.array([np.nan, 0.0], "<f8").tobytes())
        assert main(["export", "--seq", str(bad), "--out-dir", str(tmp_path / "f")]) == 4
        assert "NaN or Inf" in capsys.readouterr().err

    def test_underscore_header_exits_4(self, tmp_path, capsys):
        # int() would read "1_0" as 10 frames
        bad = tmp_path / "underscore.dseq"
        bad.write_bytes(b"DSEQ1\n1_0 1 1\n" + b"\0" * 160)
        assert main(["export", "--seq", str(bad), "--out-dir", str(tmp_path / "f")]) == 4
        assert not (tmp_path / "f").exists()

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2
