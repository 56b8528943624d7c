"""The benchmark's cli-pipeline chain reproduces its recorded fingerprints.

perfbench/workloads.py is loaded read-only (no bytecode is written next
to it), and its cli-pipeline workload runs on two pool instances. Every
file the chain writes must hash to the value in perfbench/reference.json,
so byte drift in the acquisition and file path fails here, before any
benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import rdledm
import rdledm.cli  # noqa: F401  (the workload calls rd.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("index", [0, 1])
def test_cli_pipeline_matches_reference(tmp_path, workloads, index):
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    workload = workloads.make_workloads(tmp_path)["cli-pipeline"]
    ctx = workload.build(rdledm, workloads.instance_for(index))
    outcome = workload.run(rdledm, ctx)
    assert workloads.check(outcome, reference["workloads"]["cli-pipeline"][index]) == []
