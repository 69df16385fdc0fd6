#!/usr/bin/env python3
"""Paired parent/change timing runs of one bench binary.

Runs BINARY from two build trees in N alternating pairs (the parent goes
first in even pairs, the change in odd ones, so drift on a shared host
hits both sides alike) and prints, per row: both medians, the parent's
interquartile range (its run-to-run spread), the change/parent ratio and
on how many pairs the change won. A row is flagged WORSE when the change's
median is worse than the parent's by more than the parent's IQR.

Rows: google-benchmark binaries report each benchmark's real_time (lower
wins). Other binaries are read from the BENCH_*.json files they write to
their working directory (each run gets a fresh temporary one): every
numeric field whose name ends in per_sec is a row (higher wins). The
filter selects rows by regex in both cases.

Usage:
  bench/paired_runs.py PARENT_BUILD CHANGE_BUILD BINARY \\
      [--benchmark_filter REGEX] [--pairs N]
Standard library only.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import tempfile


def flatten(node, prefix, rows):
    if isinstance(node, dict):
        for key, val in node.items():
            flatten(val, prefix + "." + key, rows)
    elif isinstance(node, (int, float)) and prefix.endswith("per_sec"):
        rows[prefix] = float(node)


def run_once(build, binary, filt):
    """One run: {row: (value, lower_is_better)}."""
    exe = os.path.join(os.path.abspath(build), "bench", binary)
    with tempfile.TemporaryDirectory() as cwd:
        out = subprocess.run(
            [exe, "--benchmark_filter=" + filt, "--benchmark_format=json"],
            cwd=cwd, check=True, capture_output=True, text=True).stdout
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            rows = {}
            for name in sorted(os.listdir(cwd)):
                if name.startswith("BENCH_") and name.endswith(".json"):
                    with open(os.path.join(cwd, name)) as f:
                        flatten(json.load(f), name[6:-5], rows)
            return {k: (v, False) for k, v in rows.items()
                    if re.search(filt, k)}
    return {b["name"]: (float(b["real_time"]), True)
            for b in doc["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_build")
    ap.add_argument("change_build")
    ap.add_argument("binary")
    ap.add_argument("--benchmark_filter", default=".")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            build = args.parent_build if side == "parent" else args.change_build
            runs[side].append(run_once(build, args.binary,
                                       args.benchmark_filter))

    print(f"{args.binary}, {args.pairs} pairs")
    print(f"{'row':48} {'parent_med':>12} {'change_med':>12} "
          f"{'parent_iqr':>11} {'ratio':>6} {'wins':>6}")
    for row in runs["parent"][0]:
        lower = runs["parent"][0][row][1]
        par = [r[row][0] for r in runs["parent"]]
        chg = [r[row][0] for r in runs["change"]]
        pm, cm = statistics.median(par), statistics.median(chg)
        q = statistics.quantiles(par, n=4) if len(par) > 1 else [pm, pm, pm]
        iqr = q[2] - q[0]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        worse = (cm - pm if lower else pm - cm) > iqr
        print(f"{row:48} {pm:12.4g} {cm:12.4g} {iqr:11.3g} "
              f"{cm / pm:6.3f} {wins:3d}/{len(par):<2d}"
              + ("  WORSE" if worse else ""))


if __name__ == "__main__":
    main()
