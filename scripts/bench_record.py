#!/usr/bin/env python3
"""Record the benchmark of one or more source trees in BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr <n> --tree parent=HEAD~1 --tree change=. \\
        --seeds 11 12 13 --seconds 30

Each tree is a directory holding a checkout, or a git revision of this
repository, which is exported with ``git archive`` into a temporary
directory first; the default is this checkout. For every seed, every
workload of ``BENCHMARK.json`` runs through the tree's own
``perfbench/run.py`` untraced; the trees take turns running first from one
seed to the next. Each ``--heldout`` seed then runs the same way on the
held-out input stream (``perfbench/run.py --heldout``). Then each workload
runs ``TRACED_RUNS`` times traced on the first seed, the trees again taking
turns to run first, so that a change of the host's speed during the record
reaches both trees' per-layer figures alike. Last, each command of
``CLI_COMMANDS`` runs ``CLI_RUNS`` times per tree as ``tacsense`` in a fresh
process, the trees again taking turns to run first. The commands read the
inputs of ``CLI_INPUTS``, which each tree's own ``simulate`` and
``calibrate`` make first, untimed. When live_track is among the workloads,
each tree then runs live_track's loop untimed, through its own
``perfbench/workloads.py``, over the held-out input stream of each seed of
``TAIL_SEEDS``, ``TAIL_FRAMES`` frames a seed: the tracking tail pass. When
calib_eval is among them, each tree runs one study of calib_eval untimed on
the held-out input of each seed of ``EVAL_TAIL_SEEDS``: its accuracy tail.

The file holds one record per tree: its commit (and whether the checkout
had uncommitted changes), ``nproc``, the Python, numpy and scipy versions,
and per workload the median of each gated end-to-end metric over the
seeds, every run's metrics, figures and failure counts (held-out runs
apart, outside the medians), every traced run (``traced_runs``) and, in
``layers``, the median of each of their metrics and figures, with their
failure counts summed. ``units`` gives the unit of each metric and figure.
Each record's ``cli_wall_s`` holds each command's best wall time, import
included, and ``cli_runs_s`` every one of them. The tail pass gives
live_track's ``tail``: the worst tracking error of each of its seeds; the
accuracy tail gives calib_eval's ``tail``: each seed's regression MAE.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3  # per tree and workload; their median rejects one outlier
CLI_RUNS = 3  # per tree and command; the best is recorded
# The inputs of the timed commands, made in this order: name -> arguments,
# where "{<name>}" stands for the input's directory in the tree's scratch.
CLI_INPUTS = {"run": ("simulate", "--presses", "30", "--placement", "random",
                      "--noise", "1", "--out", "{run}"),
              "calib": ("calibrate", "--run", "{run}", "--out", "{calib}"),
              "sequence": ("simulate", "--object", "hex_nut", "--out", "{sequence}")}
# The tacsense commands timed whole: name -> arguments, where "{out}" stands
# for a fresh output directory and each other field for an input above.
CLI_COMMANDS = {"--help": ("--help",),
                "simulate --object hex_nut": ("simulate", "--object", "hex_nut",
                                              "--out", "{out}"),
                "calibrate --method regression": ("calibrate", "--method", "regression",
                                                  "--run", "{run}", "--out", "{out}"),
                "reconstruct": ("reconstruct", "--run", "{sequence}",
                                "--calib", "{calib}/calibration.json", "--out", "{out}"),
                "track": ("track", "--run", "{sequence}",
                          "--calib", "{calib}/calibration.json", "--out", "{out}"),
                "evaluate --noise 0": ("evaluate", "--noise", "0", "--out", "{out}"),
                "evaluate --noise 1": ("evaluate", "--noise", "1", "--out", "{out}")}
# The tracking tail pass: live_track's held-out seeds and frames per seed (two
# passes over its sequence). A gain bought with accuracy shows on this tail
# first, and a pose that any change moves shows as a changed seed.
TAIL_SEEDS = tuple(range(701, 801))
TAIL_FRAMES = 48
# The accuracy tail pass of calib_eval: its held-out seeds, one study each,
# whose regression MAE is recorded. A figure, not a gate.
EVAL_TAIL_SEEDS = tuple(range(701, 801))
# Run from a tree's root with its src/ and perfbench/ on the import path:
# prints {seed: largest value of a tallied figure} for the seeds in argv, over
# a number of operations of a workload, each seed on its held-out input.
TAIL_PROBE = """
import json, sys, tempfile
from pathlib import Path
from run import input_seeds
from workloads import WORKLOADS, Tally
workload, ops, key, worst = WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3], {}
for seed in map(int, sys.argv[4:]):
    tally = Tally()
    with tempfile.TemporaryDirectory() as work:
        state = workload.setup(input_seeds(seed, True), Path(work))
        for k in range(ops):
            workload.check(state, k, workload.op(state, k), tally)
    worst[seed] = max(tally.values[key])
print(json.dumps(worst))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output file name BENCH_<pr>.json")
    parser.add_argument("--tree", action="append", metavar="LABEL=SOURCE",
                        help="a checkout directory or a git revision "
                             "(default: this checkout, labelled 'checkout')")
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: every workload)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13])
    parser.add_argument("--heldout", type=int, nargs="+", default=[], metavar="SEED",
                        help="seeds also run on the held-out input stream")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of each untraced run")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    trees = []
    for spec in args.tree or [f"checkout={ROOT}"]:
        label, sep, source = spec.partition("=")
        if not (sep and label and source):
            parser.error(f"argument --tree: expected LABEL=SOURCE, got {spec!r}")
        trees.append((label, source))
    if len({label for label, _ in trees}) != len(trees):
        parser.error("argument --tree: labels must differ")
    args.trees = trees
    return args


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def prepare(source: str, scratch: Path) -> tuple[Path, str | None, bool]:
    """(tree directory, commit, whether it has uncommitted changes)."""
    path = Path(source)
    if path.is_dir():
        try:
            commit = git("rev-parse", "HEAD", cwd=path)
            dirty = bool(git("status", "--porcelain", cwd=path))
        except (subprocess.CalledProcessError, OSError):
            commit, dirty = None, False
        return path.resolve(), commit, dirty
    commit = git("rev-parse", "--verify", f"{source}^{{commit}}")
    tree = scratch / commit
    tree.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree, commit, False


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              trace: int, heldout: bool = False) -> tuple[dict, dict]:
    """(result line, environment) of one perfbench run in `tree`.

    Beside the result line's metrics, the result holds the run's figures in
    the same form, {name: {"value": ..., "unit": ...}}.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            *(["--heldout"] if heldout else [])]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_record: {' '.join(argv[1:])} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    # "figure <name> = <value> <unit> (<better> is better)"
    result["figures"] = {name: {"value": float(value), "unit": unit}
                         for name, _, value, unit, *_ in
                         (line[7:].split() for line in lines if line.startswith("figure "))}
    return result, env


def time_cli(tree: Path, argv: tuple[str, ...], **paths: Path) -> float:
    """Wall seconds of ``tacsense <argv>`` from `tree`'s source in a fresh
    process, with one BLAS thread as in perfbench; `paths` fill the argv's
    fields, such as "{out}"."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    argv = tuple(arg.format(**paths) for arg in argv)
    command = [sys.executable, "-m", "tacsense.cli", *argv]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"bench_record: tacsense {' '.join(argv)} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return seconds


def probe_tail(tree: Path, workload: str, ops: int, key: str, seeds) -> dict:
    """{seed: the largest `key` figure} of `workload`'s `ops` operations on
    each seed's held-out input in `tree`, untimed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"),
                                                       str(tree / "perfbench")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    argv = [sys.executable, "-c", TAIL_PROBE, workload, str(ops), key, *map(str, seeds)]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_record: the {workload} tail pass in {tree} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return {int(seed): value for seed, value in json.loads(done.stdout).items()}


def track_tail(tree: Path, seeds) -> list[dict]:
    """The tail pass of `tree`: per seed, the worst tracking error in degrees
    over TAIL_FRAMES frames of live_track's held-out input, untimed."""
    worst = probe_tail(tree, "live_track", TAIL_FRAMES, "track_err_deg", seeds)
    return [{"seed": seed, "track_err_deg_max": worst[seed]} for seed in seeds]


def eval_tail(tree: Path, seeds) -> list[dict]:
    """calib_eval's tail pass of `tree`: per seed, the regression MAE in mm of
    one study on its held-out input, untimed."""
    mae = probe_tail(tree, "calib_eval", 1, "regression_mae_mm", seeds)
    return [{"seed": seed, "regression_mae_mm": mae[seed]} for seed in seeds]


def flat(result: dict, units: dict) -> dict:
    """One run's record; `units` gathers the unit of each metric and figure."""
    record = {"correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"]}
    for kind in ("metrics", "figures"):
        units.update((k, v["unit"]) for k, v in result[kind].items())
        record[kind] = {k: v["value"] for k, v in result[kind].items()}
    return record


def medians(runs: list[dict]) -> dict:
    """One record of several runs' records: each metric's and figure's median,
    and the failure counts summed."""
    record = {"correct": all(run["correct"] for run in runs),
              "attempted": sum(run["attempted"] for run in runs),
              "failed": sum(run["failed"] for run in runs)}
    for kind in ("metrics", "figures"):
        record[kind] = {name: statistics.median(run[kind][name] for run in runs)
                        for name in runs[0][kind]}
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    gated = [m["name"] for m in spec["end_to_end"]]
    units = {}
    with tempfile.TemporaryDirectory(prefix="bench-trees-") as scratch:
        trees = [(label, *prepare(source, Path(scratch)))
                 for label, source in args.trees]
        records = {label: {"label": label, "commit": commit, "uncommitted": dirty,
                           "workloads": {w: {"runs": [], "heldout_runs": []}
                                         for w in workloads},
                           "cli_runs_s": {name: [] for name in CLI_COMMANDS}}
                   for label, _, commit, dirty in trees}
        pairs = ([(seed, False) for seed in args.seeds]
                 + [(seed, True) for seed in args.heldout])
        for i, (seed, heldout) in enumerate(pairs):
            order = trees if i % 2 == 0 else trees[::-1]
            for workload in workloads:
                for label, tree, _, _ in order:
                    result, env = run_bench(tree, workload, seed, args.seconds, 0,
                                            heldout)
                    records[label].update(nproc=env["nproc"], python=env["python"],
                                          numpy=env["numpy"], scipy=env["scipy"])
                    runs = "heldout_runs" if heldout else "runs"
                    records[label]["workloads"][workload][runs].append(
                        {"seed": seed, **flat(result, units)})
                    print(f"{label} {workload} {'held-out ' * heldout}seed {seed}: "
                          + ", ".join(f"{k} {v['value']:.6g}"
                                      for k, v in result["metrics"].items()),
                          flush=True)
        if "live_track" in workloads:
            for label, tree, _, _ in trees:
                tail = track_tail(tree, TAIL_SEEDS)
                records[label]["workloads"]["live_track"]["tail"] = tail
                print(f"{label} live_track tail: worst "
                      f"{max(s['track_err_deg_max'] for s in tail):.4g} deg over "
                      f"{len(tail)} held-out seeds", flush=True)
        if "calib_eval" in workloads:
            for label, tree, _, _ in trees:
                tail = eval_tail(tree, EVAL_TAIL_SEEDS)
                records[label]["workloads"]["calib_eval"]["tail"] = tail
                print(f"{label} calib_eval tail: worst regression MAE "
                      f"{max(s['regression_mae_mm'] for s in tail):.4g} mm over "
                      f"{len(tail)} held-out seeds", flush=True)
        for workload in workloads:
            traced = {label: [] for label, *_ in trees}
            for i in range(TRACED_RUNS):
                for label, tree, _, _ in (trees if i % 2 == 0 else trees[::-1]):
                    result, _ = run_bench(tree, workload, args.seeds[0], args.seconds, 1)
                    traced[label].append(flat(result, units))
                    print(f"{label} {workload} traced run {i + 1} of {TRACED_RUNS}",
                          flush=True)
            for label, runs in traced.items():
                entry = records[label]["workloads"][workload]
                entry.update(traced_runs=runs, layers=medians(runs))
        inputs = {label: {name: Path(tempfile.mkdtemp(dir=scratch)) / name
                          for name in CLI_INPUTS} for label, *_ in trees}
        for label, tree, _, _ in trees:
            for argv in CLI_INPUTS.values():
                time_cli(tree, argv, **inputs[label])  # untimed
        for i in range(CLI_RUNS):
            for name, argv in CLI_COMMANDS.items():
                for label, tree, _, _ in (trees if i % 2 == 0 else trees[::-1]):
                    out = Path(tempfile.mkdtemp(dir=scratch))
                    seconds = time_cli(tree, argv, out=out / "out", **inputs[label])
                    shutil.rmtree(out)  # a reconstruct writes ~60 MB
                    records[label]["cli_runs_s"][name].append(seconds)
                    print(f"{label} tacsense {name}: {seconds:.3f} s", flush=True)
    for record in records.values():
        record["cli_wall_s"] = {name: min(times)
                                for name, times in record["cli_runs_s"].items()}
        for workload, entry in record["workloads"].items():
            entry["median"] = {
                name: statistics.median(run["metrics"][name] for run in entry["runs"])
                for name in gated}
            print(f"{record['label']} {workload} median: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in entry["median"].items()))
    payload = {"format": "tacsense-bench-record-v1", "pr": args.pr,
               "settings": {"seeds": args.seeds, "heldout_seeds": args.heldout,
                            "seconds": args.seconds,
                            "trace_seed": args.seeds[0], "traced_runs": TRACED_RUNS,
                            "cli_runs": CLI_RUNS,
                            "tail_seeds": list(TAIL_SEEDS), "tail_frames": TAIL_FRAMES,
                            "eval_tail_seeds": list(EVAL_TAIL_SEEDS),
                            "workloads": workloads},
               "units": units, "records": list(records.values())}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
