#!/usr/bin/env python3
"""Compares two sets of midas_bench results, parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--agree]

Each directory holds the saved standard output of midas_bench runs, one
file per run (any name). The workload, seed and trace setting come from the
run's "info workload=... seed=... trace=..." line and the result from its
last line. A parent run is paired with the change run of the same workload,
trace setting and seed, so run the two commits alternately on the same
seeds (see README.md). A seed that only one side has is reported and
counts as a problem: the run that should pair with it failed or is absent.

For every workload and end-to-end metric in BENCHMARK.json, over the
untraced (trace=0) pairs, this applies the rule the benchmark's guide sets
for a claimed gain:
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regression  the change median is worse than the parent median by more
              than the metric's bound;
  unresolved  the spread (interquartile range over median) of either side
              exceeds the bound, unless every change run beats every
              parent run;
  same        none of these.
A gain is withdrawn when the change fails more operations than the parent.
Per-layer metrics, from the traced (trace=1) pairs, are listed as medians
only.

With --agree the two directories are two sets of runs of one commit: they
agree when no metric reads as gain, regression or unresolved. The exit
status is 1 when they do not agree (with --agree) or when any metric
regressed or is unresolved (without it).
"""

import argparse
import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load_runs(directory):
    """Returns {(workload, trace): {seed: result}} and the problems found:
    a seed saved twice for one workload and trace setting."""
    runs, problems = defaultdict(dict), []
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        header = next((l for l in lines if l.startswith("info workload=")), None)
        if header is None:
            continue  # a run that printed no result
        fields = dict(re.findall(r"(\w+)=(\S+)", header))
        key = (fields["workload"], int(fields["trace"]))
        seed = int(fields["seed"])
        if seed in runs[key]:
            problems.append(f"{directory}: {key[0]} trace={key[1]} seed {seed} "
                            f"appears twice; {path.name} ignored")
            continue
        runs[key][seed] = json.loads(lines[-1])
    return runs, problems


def pair(key, parent_runs, change_runs, notes):
    """The results of the seeds both sides ran, in seed order. Seeds only
    one side ran go to `notes`."""
    parent, change = parent_runs.get(key, {}), change_runs.get(key, {})
    for side, runs in (("parent", parent), ("change", change)):
        missing = sorted((parent.keys() | change.keys()) - runs.keys())
        if missing:
            notes.append(f"trace={key[1]}: {side} lacks seed(s) "
                         f"{', '.join(map(str, missing))}")
    seeds = sorted(parent.keys() & change.keys())
    return [parent[s] for s in seeds], [change[s] for s in seeds]


def spread(values):
    if len(values) < 2:
        return 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1, (q3 - q1) / statistics.median(values)


def verdict(metric, parent, change, extra_failures):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr, p_spread = spread(parent)
    _, c_spread = spread(change)
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_by = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    all_better = all(better(c, p) for c in change for p in parent)
    if worse_by > bound:
        kind = "regression"
    elif max(p_spread, c_spread) > bound and not all_better:
        kind = "unresolved"
    elif (wins >= 0.9 * len(parent) and better(c_med, p_med)
          and abs(c_med - p_med) > p_iqr and not extra_failures):
        kind = "gain"
    else:
        kind = "same"
    return kind, (f"{metric['name']} {kind}: {p_med:.6g} -> {c_med:.6g} "
                  f"{metric['unit']} ({(c_med - p_med) / p_med:+.1%}, "
                  f"wins {wins}/{len(parent)}, spread {p_spread:.1%}/"
                  f"{c_spread:.1%}, bound {bound:.0%})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--agree", action="store_true",
                        help="both directories are runs of one commit")
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    parent_runs, parent_problems = load_runs(args.parent)
    change_runs, change_problems = load_runs(args.change)
    for problem in parent_problems + change_problems:
        print(problem)
    problems = len(parent_problems) + len(change_problems)

    for workload in [w["name"] for w in spec["workloads"]]:
        notes = []
        parent, change = pair((workload, 0), parent_runs, change_runs, notes)
        traced = pair((workload, 1), parent_runs, change_runs, notes)
        problems += len(notes)
        if not parent and not traced[0]:
            print(f"{workload}: no pairs" + "".join(f"; {n}" for n in notes))
            continue
        everything = parent + change + traced[0] + traced[1]
        failed = [sum(r["failed"] for r in side)
                  for side in (parent + traced[0], change + traced[1])]
        wrong = sum(not r["correct"] for r in everything)
        if parent and len(parent) < MIN_PAIRS:
            notes.append(f"only {len(parent)} untraced pairs (need {MIN_PAIRS})")
        if wrong:
            notes.append(f"{wrong} incorrect run(s)")
            problems += 1
        cells = []
        for metric in spec["end_to_end"] if parent else []:
            name = metric["name"]
            kind, text = verdict(
                metric, [r["metrics"][name]["value"] for r in parent],
                [r["metrics"][name]["value"] for r in change],
                failed[1] > failed[0])
            cells.append(text)
            if kind in ("regression", "unresolved") or (
                    args.agree and kind == "gain"):
                problems += 1
        for metric in spec["per_layer"] if traced[0] else []:
            name = metric["name"]
            p = statistics.median(r["metrics"][name]["value"] for r in traced[0])
            c = statistics.median(r["metrics"][name]["value"] for r in traced[1])
            cells.append(f"{name}: {p:.6g} -> {c:.6g} {metric['unit']}")
        print(f"{workload} ({len(parent)} pairs, {len(traced[0])} traced "
              f"pairs, failed ops {failed[0]} -> {failed[1]}"
              f"{'; ' + '; '.join(notes) if notes else ''})")
        for cell in cells:
            print(f"  {cell}")
    if args.agree:
        print("agree" if problems == 0 else f"disagree ({problems} problem(s))")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
