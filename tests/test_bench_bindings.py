"""Every name the benchmark binds in tacsense still resolves.

perfbench traces layers by replacing the functions it lists in
`tracing.WRAPPED`, and reports a name that no longer exists as absent
instead of failing. A clean-up that renames or deletes one of them would
silently blank a traced layer, so this test pins the list of absentees.
The benchmark modules are only imported, never installed or run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from tacsense import recon

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# core.surface_grid was deleted: every coordinate array now broadcasts the
# 1-D core.surface_axis, so no module binds surface_grid any more.
ALLOWED_ABSENT = ["core.surface_grid", "recon.surface_grid", "sim.surface_grid",
                  "calib.surface_grid"]


@pytest.fixture
def load(monkeypatch):
    """Import a perfbench module by file name, undone after the test."""
    # workloads imports its sibling hostspeed as a top-level module.
    monkeypatch.syspath_prepend(str(PERFBENCH))

    def load_module(name: str):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules.
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module
    return load_module


def test_every_wrapped_name_resolves(load):
    tracing = load("tracing")
    absent = [f"{owner}.{attr}" for owner, attr, _ in tracing.WRAPPED
              if not callable(getattr(tracing._resolve(owner), attr, None))]
    assert absent == ALLOWED_ABSENT


def test_every_declared_workload_imports(load):
    workloads = load("workloads")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


def test_live_track_cap_is_the_rim_cloud_cap(load):
    # A rim cloud within the cap reaches pose.icp with its depth-map normals;
    # were live_track to restride it, ICP would fall back to SVD steps.
    assert load("workloads").MAX_TRACK_POINTS == recon.MAX_ICP_POINTS
