"""The benchmark's correctness gate, replayed in the unit suite.

``perfbench/workloads.py`` defines each workload's seeded pool of CLI calls
and the oracle that checks a call's artifacts; ``perfbench/reference.json``
pins the results of calls 1-4 of the seed-1 pools.  Replaying those calls
through ``cli.main`` here makes a change that moves an optimum, a simulated
click table or a reconstruction fail in the tests, not first in a benchmark
run.  The workload module is imported from
its file as it is.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from catproj import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE_SEED = 1  # the seed whose pools reference.json records


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["sweep", "reconstruct", "campaign"])
def test_seed_one_reference_calls(workloads, name, tmp_path):
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))[name]
    workload = workloads.WORKLOADS[name]()
    calls = [call for call in workload.pool(REFERENCE_SEED, tmp_path) if str(call.index) in reference]
    assert [str(call.index) for call in calls] == sorted(reference, key=int)
    for call in calls:
        rc, _, err = workloads.execute(call, cli)
        assert rc == 0, err
        workload.compare(workload.check(call), reference[str(call.index)])
