"""The package's imports point one way: every layer builds on `core`.

Each module is imported in a fresh interpreter, which reports the modules
that import loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_import(module: str, report: str = "sorted(sys.modules)"):
    """`report`, evaluated after `import module` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = f"import json, sys\nimport {module}\nprint(json.dumps({report}))"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def tacsense_modules(loaded) -> set[str]:
    return {m for m in loaded if m == "tacsense" or m.startswith("tacsense.")}


@pytest.mark.parametrize("module", ["tacsense.core", "tacsense.fileio",
                                    "tacsense.sim"])
def test_loads_no_scipy(module):
    loaded = fresh_import(module)
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


@pytest.mark.parametrize("module", ["tacsense.recon", "tacsense.pose"])
def test_loads_no_layer_but_core(module):
    assert tacsense_modules(fresh_import(module)) == {"tacsense", "tacsense.core",
                                                      module}


def test_cli_loads_every_layer():
    # perfbench binds functions in every layer through the modules cli loads.
    layers = {"tacsense", *(f"tacsense.{name}" for name in (
        "core", "fileio", "sim", "calib", "recon", "pose", "cli"))}
    assert tacsense_modules(fresh_import("tacsense.cli")) == layers


def test_package_root_holds_only_the_version():
    public = fresh_import("tacsense", "[n for n in dir(tacsense) if n[0] != '_']")
    assert public == []
    assert tacsense_modules(fresh_import("tacsense")) == {"tacsense"}
