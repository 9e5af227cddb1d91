import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_tracking_demo.py"), *args],
        env=env, capture_output=True, text=True, timeout=300)


def test_tracking_demo_prints_one_row_per_frame():
    done = run_demo("--frames", "3")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.strip().splitlines()
    assert header.split()[0] == "frame"
    assert [int(row.split()[0]) for row in rows] == [0, 1, 2]


def test_tracking_demo_takes_every_object_kind():
    done = run_demo("--object", "set_screw", "--frames", "2")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.strip().splitlines()) == 3
