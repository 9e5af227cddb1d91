#!/usr/bin/env python3
"""tacsense benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload live_track --seed 3 --seconds 25 --trace 0

The workloads are described in ``workloads.py``. ``BENCHMARK.json`` names
the metrics, their units and which direction is better; this script prints
each of them, then an environment record, then as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The full record
(figures, counters, per-span summary) goes to ``.bench_out/``.

``--trace 0`` gives the end-to-end metrics, measured untraced: set-up runs
three times and reports the median (plus the median import time of
``tacsense`` in three fresh interpreters), then one warm-up operation runs
untimed and operations repeat for ``--seconds`` (``workloads.py`` says how
their timings are summarised). ``--trace 1`` gives the per-layer metrics:
it runs a fixed number of operations per workload, untraced and then
traced, and reports the difference in wall time as the tracing overhead.
Because the number of operations is fixed, the counts in
the per-layer metrics, computed from the trace, repeat exactly for a seed.

``--heldout`` derives the inputs from a second seed stream, so a claim can be
re-checked on inputs not used while a change was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import tacsense.cli; "
                "print(time.perf_counter() - t)")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true",
                        help="derive inputs from the held-out seed stream")
    return parser.parse_args(argv)


def input_seeds(seed: int, heldout: bool, count: int = 16) -> list[int]:
    """Integer seeds for the inputs; stream 1 is the held-out stream."""
    import numpy as np
    state = np.random.SeedSequence([seed, int(heldout)]).generate_state(count)
    return [int(s) for s in state]


def import_seconds() -> float:
    """Median time to import tacsense in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=60)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args, seeds) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "threads": len(os.listdir("/proc/self/task")),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "heldout": args.heldout,
        "input_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_loop(workload, state, seconds: float, tally, max_ops=None,
               tracer=None, warmup: int = 0, probe=None) -> tuple[float, int]:
    """Closed loop of operations for `seconds` (or `max_ops`).

    The first `warmup` operations run and are checked before the clock
    starts; their timings are not kept. With a `probe`, the host probe runs
    before the first timed operation and after each one, and each operation
    gets the mean of the probe times on either side. Returns the wall time
    and the number of operations started after the warm-up.
    """
    def fail(label: str) -> None:
        tally.attempted += workload.units_per_op
        tally.failed += workload.units_per_op
        tally.problems.append(f"{label}: {traceback.format_exc(limit=3)}")

    for j in range(warmup):
        try:
            op = workload.op(state, j)
            tally.frames += op.frames
            workload.check(state, j, op, tally)
        except Exception:
            fail(f"warm-up op {j}")
    probe_before = probe.seconds() if probe else math.nan
    start = time.perf_counter()
    j = warmup
    while (j - warmup < max_ops if max_ops is not None
           else j == warmup or time.perf_counter() - start < seconds):
        # A failed operation or check is counted and the run goes on.
        try:
            with tracer.span("bench.op") if tracer else nullcontext():
                op = workload.op(state, j)
        except Exception:
            fail(f"op {j}")
        else:
            if probe:
                probe_after = probe.seconds()
                op.probe_s = (probe_before + probe_after) / 2
                probe_before = probe_after
            tally.frames += op.frames
            tally.ops.append(op)
            with tracer.paused() if tracer else nullcontext():
                try:
                    workload.check(state, j, op, tally)
                except Exception:
                    fail(f"op {j} check")
            op.outputs = None  # only the timings are kept
        j += 1
    return time.perf_counter() - start, j - warmup


def measure(workload, seeds, args, work: Path, record: dict):
    from hostspeed import HostProbe
    from workloads import Tally
    import_s = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up's inputs first
        target = fresh(work / "setup")
        t0 = time.perf_counter()
        state = workload.setup(seeds, target)
        setups.append(time.perf_counter() - t0)
    tally = Tally()
    timed_loop(workload, state, args.seconds, tally, warmup=1,
               probe=HostProbe())
    metrics, figures = workload.summarize(tally)
    figures["host_probe_ms"] = (
        1e3 * statistics.median(op.probe_s for op in tally.ops), "ms", "lower")
    metrics["setup_s"] = import_s + statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    figures["import_s"] = (import_s, "s", "lower")
    figures["setup_body_s"] = (statistics.median(setups), "s", "lower")
    figures["error_ratio"] = (tally.failed / max(tally.attempted, 1), "ratio",
                              "lower")
    record["figures"] = figures
    return tally, metrics


def trace(workload, seeds, args, work: Path, record: dict):
    from tracing import Tracer, span_cost_ns
    from workloads import Tally
    untraced = Tally()
    t0 = time.perf_counter()
    state = workload.setup(seeds, fresh(work / "setup"))
    untraced_wall = time.perf_counter() - t0
    ops = workload.trace_ops
    untraced_wall += timed_loop(workload, state, 0, untraced, max_ops=ops)[0]
    state = None

    tracer = Tracer()
    tally = Tally()
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            state = workload.setup(seeds, fresh(work / "setup"))
        tracer.phase = "run"
        timed_loop(workload, state, 0, tally, max_ops=ops, tracer=tracer)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    metrics = tracer.layer_metrics(tally.frames)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    spans_path = OUT / f"{run_tag(args)}.spans.jsonl"
    tracer.write(spans_path)
    top_level = sum(s.ms for s in tracer.spans if s.parent is None) / 1e3
    record["trace"] = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "absent": tracer.absent,
        "wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "overhead_s": traced_wall - untraced_wall,
        "overhead_from_span_cost_s": len(tracer.spans) * span_cost_ns() / 1e9,
        "self_time_sum_s": sum(tracer.self_times_ns()) / 1e9,
        "harness_s": traced_wall - top_level,
        "ops": ops,
        "frames": tally.frames,
        "by_span": tracer.summary(),
    }
    # Both passes were checked; their failures all count.
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.problems += untraced.problems
    return tally, metrics


def run_tag(args) -> str:
    held = "-heldout" if args.heldout else ""
    return f"{args.workload}-s{args.seed}{held}-t{args.trace}"


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "tacsense" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no tacsense sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2
    # One process and one BLAS thread: the program's matrices are small, and
    # idle BLAS workers spinning on the other core of a shared host only add
    # noise.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    # workloads imports numpy and tacsense, so only now.
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seeds = input_seeds(args.seed, args.heldout)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    record: dict = {}
    try:
        if args.trace:
            tally, values = trace(workload, seeds, args, work, record)
            wanted = spec["per_layer"]
        else:
            tally, values = measure(workload, seeds, args, work, record)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: workload produced no value for {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    for m in wanted:
        kind = "computed count, " if m["unit"] == "count" else ""
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']} "
              f"({kind}{m['better']} is better)")
    for name, (value, unit, better) in record.get("figures", {}).items():
        print(f"figure {name} = {value:.6g} {unit} ({better} is better)")
    if args.trace:
        t = record["trace"]
        print(f"trace: {t['spans']} spans; span self times "
              f"{t['self_time_sum_s']:.3f} s + harness {t['harness_s']:.3f} s "
              f"of traced wall {t['wall_s']:.3f} s; tracing overhead "
              f"{t['overhead_s']:.3f} s measured, "
              f"{t['overhead_from_span_cost_s']:.4f} s from span cost; "
              f"absent: {t['absent'] or 'none'}")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    env = environment(args, seeds)
    print("env " + json.dumps(env))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record.update(env=env, result=result, problems=tally.problems)
    (OUT / f"{run_tag(args)}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
