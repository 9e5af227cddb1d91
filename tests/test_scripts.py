import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args) -> subprocess.CompletedProcess:
    """scripts/<name> run with this checkout's src/ first on the import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_bench_record_writes_one_record_per_tree(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--pr", "0",
         "--workload", "calib_eval", "--seeds", "1", "--heldout", "2",
         "--seconds", "0.5", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert record["pr"] == 0 and record["settings"]["seeds"] == [1]
    assert record["settings"]["heldout_seeds"] == [2]
    (tree,) = record["records"]
    assert tree["label"] == "checkout" and tree["nproc"] >= 1
    assert {"python", "numpy", "scipy", "commit", "uncommitted"} <= set(tree)
    # Each command's every fresh-process wall time, and the best of them.
    commands = ["--help", "simulate --object hex_nut", "calibrate --method regression",
                "reconstruct", "track", "evaluate --noise 0", "evaluate --noise 1"]
    assert list(tree["cli_runs_s"]) == list(tree["cli_wall_s"]) == commands
    for name in commands:
        assert len(tree["cli_runs_s"][name]) == record["settings"]["cli_runs"] >= 3
        assert tree["cli_wall_s"][name] == min(tree["cli_runs_s"][name]) > 0
    entry = tree["workloads"]["calib_eval"]
    assert set(entry["median"]) == {"frames_per_s_norm", "depth_mae_mm",
                                    "peak_rss_mb", "setup_s"}
    assert [run["seed"] for run in entry["runs"]] == [1]
    assert [run["seed"] for run in entry["heldout_runs"]] == [2]
    assert entry["heldout_runs"][0]["correct"]
    assert entry["runs"][0]["correct"] and entry["layers"]["correct"]
    assert "calib.detect_contact_circle.ms" in entry["layers"]["metrics"]
    # Several traced runs, and each layer's median over them.
    traced = entry["traced_runs"]
    assert len(traced) == record["settings"]["traced_runs"] >= 3
    assert all(run["correct"] for run in traced)
    assert entry["layers"]["attempted"] == sum(run["attempted"] for run in traced)
    for name, value in entry["layers"]["metrics"].items():
        assert value == statistics.median(run["metrics"][name] for run in traced)
    assert entry["runs"][0]["figures"]["regression_mae_mm"] > 0
    assert record["units"]["regression_mae_mm"] == "mm"


def load_script(name):
    """scripts/<name> imported as a module."""
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"),
                                                  ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_runs_the_tracking_tail(tmp_path, monkeypatch):
    """With live_track, each tree's record holds its tail pass: the worst
    tracking error of each seed of TAIL_SEEDS, shrunk here to two, as the
    tree's own workload tracks its held-out input."""
    bench_record = load_script("bench_record.py")
    assert bench_record.TAIL_SEEDS == tuple(range(701, 801))
    monkeypatch.setattr(bench_record, "TAIL_SEEDS", (701, 759))
    monkeypatch.setattr(bench_record, "TRACED_RUNS", 1)
    monkeypatch.setattr(bench_record, "CLI_INPUTS", {})
    monkeypatch.setattr(bench_record, "CLI_COMMANDS", {})
    assert bench_record.main(["--pr", "0", "--workload", "live_track", "--seeds", "1",
                              "--seconds", "0.5", "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert record["settings"]["tail_seeds"] == [701, 759]
    assert record["settings"]["tail_frames"] == 48
    (tree,) = record["records"]
    tail = tree["workloads"]["live_track"]["tail"]
    assert [run["seed"] for run in tail] == [701, 759]
    # Every frame tracks within live_track's 2 degree check.
    assert all(0 < run["track_err_deg_max"] <= 2.0 for run in tail)
    assert tail == bench_record.track_tail(ROOT, (701, 759))


def test_bench_compare_prints_the_tracking_tail(tmp_path):
    """Median, p90 and max of the tail over the seeds both records ran, how
    many kept their error, and each seed whose error rose past 0.1 degrees."""
    payload = json.loads((ROOT / "BENCH_21.json").read_text())
    old = {701: 0.05, 702: 0.09, 703: 0.12, 704: 0.04, 705: 0.06}
    new = {701: 0.05, 702: 0.11, 703: 0.13, 704: 0.04, 706: 0.3}
    for entry, worst in zip(payload["records"], (old, new)):
        entry["workloads"]["live_track"]["tail"] = [
            {"seed": seed, "track_err_deg_max": value} for seed, value in worst.items()]
    record = tmp_path / "BENCH_21.json"
    record.write_text(json.dumps(payload))
    done = run_script("bench_compare.py", str(record))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    start = lines.index("  tracking tail, worst error per held-out seed over 4 seeds:")
    assert lines[start + 1:start + 3] == [
        "    median 0.07 -> 0.08, p90 0.111 -> 0.124, max 0.12 -> 0.13 deg",
        "    identical on 2 of 4 seeds; rose past 0.1 deg: 702 (0.09 -> 0.11), "
        "703 (0.12 -> 0.13)"]
    assert lines[start + 3] == "  traced layers, seed 11:"
    # No tail in one record, no tail lines.
    del payload["records"][0]["workloads"]["live_track"]["tail"]
    record.write_text(json.dumps(payload))
    assert "tracking tail" not in run_script("bench_compare.py", str(record)).stdout


def test_bench_compare_reads_the_committed_record():
    done = run_script("bench_compare.py", str(ROOT / "BENCH_21.json"))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["BENCH_21.json: parent c0af674 -> change 5025bbe",
                         "live_track: 10 -> 10 runs, failed 0 of 6207 -> 0 of 7263"]
    norm, spread, raw, *rest = lines[2:11]
    assert norm.split() == ["frames_per_s_norm", "49.36", "->", "77.11", "1/s",
                            "+56.2%", "inside", "the", "bound", "of", "25%",
                            "(higher", "is", "better)"]
    assert spread.split() == ["parent", "quartiles", "48.55", "to", "50.42", "1/s",
                              "change", "better", "in", "10", "of", "10", "seed",
                              "pairs"]
    assert raw.split()[:6] == ["raw", "frames_per_s", "55.21", "->", "85.67", "1/s"]
    assert [line.split()[0] for line in rest[::2]] == ["depth_mae_mm", "peak_rss_mb",
                                                       "setup_s"]
    assert all(" inside the bound of " in line for line in rest[::2])
    assert all(line.split()[:2] == ["parent", "quartiles"] for line in rest[1::2])
    assert "change better in 2 of 10 seed pairs" in rest[3]  # peak_rss_mb


def test_bench_compare_prints_the_traced_layers(tmp_path):
    """Every traced per-layer metric of both records follows the end-to-end
    rows as old -> new; one a record lacks reads "-"."""
    payload = json.loads((ROOT / "BENCH_21.json").read_text())
    del payload["records"][1]["workloads"]["live_track"]["layers"]["metrics"]["cli.self_ms"]
    record = tmp_path / "BENCH_21.json"
    record.write_text(json.dumps(payload))
    done = run_script("bench_compare.py", str(record))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    start = lines.index("  traced layers, seed 11:")
    layers = {line.split()[0]: line.split()[1:] for line in lines[start + 1:]}
    assert len(layers) == 29
    assert layers["pose.icp.iterations_per_frame"] == ["3.729", "->", "3.729", "count"]
    assert layers["pose.icp.ms"] == ["8.389", "->", "8.072", "ms"]
    assert layers["recon.gaussian_denoise.ms"] == ["7.396", "->", "1.41", "ms"]
    assert layers["cli.self_ms"] == ["0", "->", "-", "ms"]


def test_bench_compare_prints_accuracy_old_to_new():
    """Each accuracy figure's median and worst run, old -> new, over the
    seeded runs and on its own line over the held-out runs, before the
    traced layers; batch_reconstruct has no such figure."""
    done = run_script("bench_compare.py", str(ROOT / "BENCH_25.json"))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    starts = [i for i, line in enumerate(lines) if line == "  accuracy over the runs:"]
    workloads = [next(line for line in reversed(lines[:i]) if not line.startswith(" "))
                 for i in starts]
    assert [line.split(":")[0] for line in workloads] == ["live_track", "calib_eval"]
    track, calib = (lines[i + 1:lines.index("  traced layers, seed 11:", i)]
                    for i in starts)
    assert [line.split() for line in track] == [
        ["track_err_deg_max", "seeded", "median", "0.04733", "->", "0.04329,",
         "worst", "0.06441", "->", "0.06439", "deg"],
        ["track_err_deg_max", "held-out", "median", "0.06486", "->", "0.05379,",
         "worst", "0.0692", "->", "0.05515", "deg"]]
    assert [line.split()[:2] for line in calib] == [
        ["single_mae_mm", "seeded"], ["single_mae_mm", "held-out"],
        ["regression_mae_mm", "seeded"], ["regression_mae_mm", "held-out"]]
    assert calib[0].split()[2:] == ["median", "0.004877", "->", "0.004877,", "worst",
                                    "0.02229", "->", "0.02229", "mm"]


def test_bench_compare_splits_setup_into_import_and_body():
    """Under each workload's setup_s, its two parts' medians, old -> new."""
    done = run_script("bench_compare.py", str(ROOT / "BENCH_26.json"))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    starts = [i for i, line in enumerate(lines) if line.split()[:1] == ["setup_s"]]
    assert len(starts) == 3
    parts = [[line.split() for line in lines[i + 2:i + 4]] for i in starts]
    assert parts[1] == [["import_s", "0.6513", "->", "0.5868", "s", "-9.9%"],
                        ["setup_body_s", "0.8632", "->", "0.8205", "s", "-4.9%"]]
    assert [[part[0] for part in split] for split in parts] == [
        ["import_s", "setup_body_s"]] * 3


def test_bench_compare_prints_cli_wall_times_last(tmp_path):
    """Each command both records timed, old -> new; none when one record
    lacks them, as every record before the timings did."""
    payload = json.loads((ROOT / "BENCH_21.json").read_text())
    payload["settings"]["cli_runs"] = 3
    for record, walls in zip(payload["records"], ({"evaluate --noise 0": 4.0,
                                                   "evaluate --noise 1": 5.0},
                                                  {"evaluate --noise 0": 3.0,
                                                   "evaluate --noise 1": 5.5})):
        record["cli_wall_s"] = walls
    record = tmp_path / "BENCH_21.json"
    record.write_text(json.dumps(payload))
    done = run_script("bench_compare.py", str(record))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-3:] == [
        "tacsense wall time, best of 3 fresh processes:",
        "  evaluate --noise 0   4.000 -> 3.000 s  -25.0%",
        "  evaluate --noise 1   5.000 -> 5.500 s  +10.0%"]
    # A name longer than 20 characters widens the column.
    for entry, seconds in zip(payload["records"], (0.6, 0.5)):
        entry["cli_wall_s"]["calibrate --method regression"] = seconds
    record.write_text(json.dumps(payload))
    done = run_script("bench_compare.py", str(record))
    assert done.stdout.splitlines()[-3:] == [
        "  evaluate --noise 0            4.000 -> 3.000 s  -25.0%",
        "  evaluate --noise 1            5.000 -> 5.500 s  +10.0%",
        "  calibrate --method regression 0.600 -> 0.500 s  -16.7%"]
    del payload["records"][0]["cli_wall_s"]
    record.write_text(json.dumps(payload))
    done = run_script("bench_compare.py", str(record))
    assert done.returncode == 0, done.stderr
    assert "wall time" not in done.stdout


def test_bench_compare_flags_a_change_outside_the_bound():
    """Swapping the records turns live_track's gain into a 36% loss."""
    done = run_script("bench_compare.py", str(ROOT / "BENCH_21.json"),
                      "--old", "change", "--new", "parent")
    assert done.returncode == 0, done.stderr
    norm = done.stdout.splitlines()[2]
    assert "77.11 -> 49.36" in norm and "-36.0%  OUTSIDE the bound of 25%" in norm
    done = run_script("bench_compare.py", str(ROOT / "BENCH_21.json"), "--new", "x")
    assert done.returncode == 1
    assert "no record labelled 'x'" in done.stderr


def test_fingerprint_matches_the_committed_file(tmp_path):
    committed = json.loads((ROOT / "FINGERPRINT.json").read_text())
    # The ASCII model holds the binary one's contact points, so its rim cut
    # keeps the same points in the same order, and the two track alike.
    files = committed["files"]
    assert (files["track/nut_ascii/track_report.json"]
            == files["track/nut_ply/track_report.json"])
    out = tmp_path / "FINGERPRINT.json"
    done = run_script("fingerprint.py", "--out", str(out))
    assert done.returncode == 0, done.stderr
    fresh = json.loads(out.read_text())
    if fresh["versions"] != committed["versions"]:
        pytest.skip(f"FINGERPRINT.json was made with {committed['versions']}, "
                    f"this is {fresh['versions']}")
    assert out.read_bytes() == (ROOT / "FINGERPRINT.json").read_bytes()
