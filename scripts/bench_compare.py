#!/usr/bin/env python3
"""Compare two records of one BENCH_<pr>.json against BENCHMARK.json's bounds.

    python3 scripts/bench_compare.py BENCH_21.json [--old parent] [--new change]

For each workload both records ran, and each end-to-end metric of
``BENCHMARK.json``, it prints the two medians over the runs, the relative
change, and whether the change is inside the metric's bound: a change in the
metric's "better" direction always is, a change the other way is inside
while it is no larger than the bound. Under each metric it prints the
baseline's quartiles (``statistics.quantiles(values, n=4)``) and how many
seed-matched pairs of runs the compared record won in the "better"
direction, ties counting for neither: a gain is claimed only when the
change wins nine in ten pairs and the medians differ by more than the
distance between those quartiles. Under some metrics it prints the median
figures that make them up, old -> new (``PARTS``): the raw ``frames_per_s``
under ``frames_per_s_norm``, since the two can rank trees oppositely, and
``import_s`` and ``setup_body_s`` under ``setup_s``, their sum, since import
time alone moves by up to a third on unchanged code. Held-out runs are left
out, as they are of the record's medians.
Then it prints each accuracy figure of ``ACCURACY`` as old -> new: its median
and its worst (largest) value over the seeded runs, and on a line of their
own over the held-out runs, so that a gain bought with accuracy shows,
although no gated metric measures it. Under live_track it prints the
tracking tail pass of both records (``tail``, see ``bench_record.py``) over
the seeds both ran: the median, p90 and max of the worst error per seed,
old -> new, how many seeds kept their error to the bit, and every seed whose
error rose past ``TAIL_LIMIT_DEG``. Last, per workload, it prints every
per-layer metric of the two records' traced runs (``layers``) as old -> new,
so that a gain can be placed in the layer that made it; a metric one record
lacks reads ``-``. At the end it prints each command's best CLI wall time
(``cli_wall_s``) as old -> new, where both records hold it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The figures, all errors, that say how well each workload's outputs match
# the simulator's truth.
ACCURACY = {"live_track": ("track_err_deg_max",),
            "calib_eval": ("single_mae_mm", "regression_mae_mm")}
# The tracking bound of the pose tests; the tail report names every seed
# whose worst error rose past it.
TAIL_LIMIT_DEG = 0.1
# The figures printed under an end-to-end metric: (label, figure).
PARTS = {"frames_per_s_norm": (("raw frames_per_s", "frames_per_s"),),
         "setup_s": (("import_s", "import_s"), ("setup_body_s", "setup_body_s"))}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("record", type=Path, help="a BENCH_<pr>.json file")
    parser.add_argument("--old", default="parent", help="label of the baseline record")
    parser.add_argument("--new", default="change", help="label of the compared record")
    return parser.parse_args(argv)


def median(runs: list[dict], kind: str, name: str) -> float | None:
    """Median of one metric or figure over the runs, or None if they lack it
    (BENCH_14.json holds no figures)."""
    values = [run[kind][name] for run in runs if name in run.get(kind, {})]
    return statistics.median(values) if values else None


def spread(runs: tuple[list[dict], list[dict]], metric: dict
           ) -> tuple[float, float, int, int]:
    """(lower and upper quartile of the baseline runs, pairs the compared
    runs won, pairs) for one end-to-end metric; runs pair up by seed."""
    name = metric["name"]
    values = [run["metrics"][name] for run in runs[0]]
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    old = {run["seed"]: run["metrics"][name] for run in runs[0]}
    pairs = [(old[run["seed"]], run["metrics"][name]) for run in runs[1]
             if run["seed"] in old]
    sign = 1 if metric["better"] == "higher" else -1
    return q1, q3, sum(sign * (b - a) > 0 for a, b in pairs), len(pairs)


def accuracy(entries: tuple[dict, dict], workload: str, units: dict) -> list[str]:
    """Median and worst of each accuracy figure, old -> new, over the seeded
    runs and then the held-out runs, where both records hold it."""
    lines = []
    for name in ACCURACY.get(workload, ()):
        for label, kind in (("seeded", "runs"), ("held-out", "heldout_runs")):
            values = [[run["figures"][name] for run in entry.get(kind, [])
                       if name in run.get("figures", {})] for entry in entries]
            if all(values):
                a, b = ((statistics.median(v), max(v)) for v in values)
                lines.append(f"    {name:<18} {label:<8}  median {a[0]:.4g} -> "
                             f"{b[0]:.4g}, worst {a[1]:.4g} -> {b[1]:.4g} "
                             f"{units.get(name, '')}")
    return ["  accuracy over the runs:", *lines] if lines else []


def tail(entries: tuple[dict, dict]) -> list[str]:
    """The tracking tail pass, old -> new, over the seeds both records ran."""
    worst = [{run["seed"]: run["track_err_deg_max"] for run in entry.get("tail", [])}
             for entry in entries]
    seeds = [seed for seed in worst[0] if seed in worst[1]]
    if not seeds:
        return []
    old, new = ([w[seed] for seed in seeds] for w in worst)

    def summary(values):
        p90 = (statistics.quantiles(values, n=10, method="inclusive")[-1]
               if len(values) > 1 else values[0])
        return statistics.median(values), p90, max(values)

    (a_med, a_p90, a_max), (b_med, b_p90, b_max) = summary(old), summary(new)
    rose = [f"{seed} ({a:.4g} -> {b:.4g})" for seed, a, b in zip(seeds, old, new)
            if b > a and b > TAIL_LIMIT_DEG]
    return [f"  tracking tail, worst error per held-out seed over {len(seeds)} seeds:",
            f"    median {a_med:.4g} -> {b_med:.4g}, p90 {a_p90:.4g} -> {b_p90:.4g}, "
            f"max {a_max:.4g} -> {b_max:.4g} deg",
            f"    identical on {sum(a == b for a, b in zip(old, new))} of {len(seeds)} "
            f"seeds; rose past {TAIL_LIMIT_DEG} deg: {', '.join(rose) or 'none'}"]


def compare(payload: dict, spec: dict, old: str, new: str) -> list[str]:
    """The report's lines; SystemExit if a record label is missing."""
    records = {record["label"]: record for record in payload["records"]}
    for label in (old, new):
        if label not in records:
            raise SystemExit(f"bench_compare: no record labelled {label!r}; "
                             f"the file has {sorted(records)}")
    before, after = records[old], records[new]
    units = payload.get("units", {})
    lines = [f"{old} {str(before.get('commit'))[:7]} -> "
             f"{new} {str(after.get('commit'))[:7]}"]
    for workload, entry in before["workloads"].items():
        if workload not in after["workloads"]:
            continue
        runs = (entry["runs"], after["workloads"][workload]["runs"])
        failed = [f"{sum(r['failed'] for r in rs)} of {sum(r['attempted'] for r in rs)}"
                  for rs in runs]
        lines.append(f"{workload}: {len(runs[0])} -> {len(runs[1])} runs, "
                     f"failed {failed[0]} -> {failed[1]}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = (median(rs, "metrics", name) for rs in runs)
            change = (b - a) / a
            worse = -change if metric["better"] == "higher" else change
            verdict = "inside" if worse <= metric["bound"] else "OUTSIDE"
            lines.append(f"  {name:<18} {a:.4g} -> {b:.4g} {metric['unit']}  "
                         f"{change:+.1%}  {verdict} the bound of "
                         f"{metric['bound']:.0%} ({metric['better']} is better)")
            q1, q3, won, pairs = spread(runs, metric)
            lines.append(f"  {'  ' + old + ' quartiles':<18} {q1:.4g} to {q3:.4g} "
                         f"{metric['unit']}  {new} better in {won} of {pairs} seed pairs")
            for label, figure in PARTS.get(name, ()):
                a, b = (median(rs, "figures", figure) for rs in runs)
                if a is not None and b is not None:
                    lines.append(f"  {'  ' + label:<18} {a:.4g} -> {b:.4g} "
                                 f"{units.get(figure, '')}  {(b - a) / a:+.1%}")
        lines += accuracy((entry, after["workloads"][workload]), workload, units)
        lines += tail((entry, after["workloads"][workload]))
        layers = [record["workloads"][workload].get("layers", {}).get("metrics", {})
                  for record in (before, after)]
        lines.append(f"  traced layers, seed {payload['settings'].get('trace_seed')}:")
        for name in dict.fromkeys([*layers[0], *layers[1]]):
            a, b = (f"{m[name]:.4g}" if name in m else "-" for m in layers)
            lines.append(f"    {name:<36} {a} -> {b} {units.get(name, '')}")
    walls = [record.get("cli_wall_s", {}) for record in (before, after)]
    names = [name for name in walls[0] if name in walls[1]]
    if names:
        lines.append(f"tacsense wall time, best of {payload['settings']['cli_runs']} "
                     f"fresh processes:")
    width = max([20, *map(len, names)])
    for name in names:
        a, b = walls[0][name], walls[1][name]
        lines.append(f"  {name:<{width}} {a:.3f} -> {b:.3f} s  {(b - a) / a:+.1%}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    payload = json.loads(args.record.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    header, *lines = compare(payload, spec, args.old, args.new)
    print(f"{args.record.name}: {header}", *lines, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
