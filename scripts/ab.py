#!/usr/bin/env python3
"""Interleaved A/B of the benchmark between a base revision and this checkout.

    python3 scripts/ab.py BASE_REV --workload megafleet-1m --pairs 10

Exports BASE_REV with `git archive` into a temporary directory; the change
side is this checkout's working tree, which must not be edited while the
script runs. Builds both `simbench` packages up front, then runs N pairs of
``simbench/run.py --trace 0`` with run.py's own seed and run length,
alternating which side goes first in each pair so that drift on a shared
host falls on both sides alike. A run that fails a world or misses its
digests stops the script: its numbers would describe a different
simulation.

For every end-to-end metric of BENCHMARK.json it prints both sides'
medians, the parent's quartiles, the median and quartiles of the per-pair
change/parent ratio, and how many pairs the change won. The last stdout
line is the same table as one JSON object.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(msg):
    print(f"ab: {msg}", file=sys.stderr)
    sys.exit(2)


def export(rev, dest):
    """Extracts the tree of `rev` into `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    if archive.returncode != 0:
        fail(f"git archive {rev} failed")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def build(tree):
    """Builds `tree`'s simbench package. run.py would build it too, but on
    the first pair, where the build time would land in that pair's run."""
    manifest = tree / "simbench" / "Cargo.toml"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    if subprocess.run(cmd).returncode != 0:
        fail(f"build of {tree} failed")


def run_once(tree, workload):
    """One `run.py --trace 0` invocation; returns its result object, or
    fails if any world failed or missed its digests."""
    cmd = [sys.executable, str(tree / "simbench" / "run.py"), "--workload", workload, "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"run.py in {tree} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if result["failed"] or not result["correct"]:
        fail(f"run.py in {tree}: {result['failed']} of {result['attempted']} world runs failed, "
             f"correct={result['correct']}")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_rev")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json names {', '.join(workloads)}")
    metrics = bench["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        base = tmp / "base"
        export(args.base_rev, base)
        change = ROOT
        for tree in (base, change):
            build(tree)

        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = [("parent", base), ("change", change)]
            if i % 2:
                order.reverse()
            for side, tree in order:
                runs[side].append(run_once(tree, args.workload))
            print(f"pair {i + 1}/{args.pairs} done ({order[0][0]} first)", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    table = {}
    print(f"{args.workload}, {args.pairs} pairs, run.py's default seed and run length")
    print(f"  {'metric':14} {'parent':>12} {'change':>12} {'parent q1..q3':>25} "
          f"{'ratio':>7} {'ratio q1..q3':>15} {'wins':>6}")
    for m in metrics:
        name = m["name"]
        par = [r["metrics"][name]["value"] for r in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"]]
        ratios = [c / p if p else float("inf") for p, c in zip(par, chg)]
        higher = m["better"] == "higher"
        wins = sum(1 for p, c in zip(par, chg) if (c > p if higher else c < p))
        pq1, pq3 = quartiles(par)
        rq1, rq3 = quartiles(ratios)
        row = {
            "parent_median": statistics.median(par),
            "change_median": statistics.median(chg),
            "parent_q1": pq1,
            "parent_q3": pq3,
            "ratio_median": statistics.median(ratios),
            "ratio_q1": rq1,
            "ratio_q3": rq3,
            "wins": wins,
            "better": m["better"],
        }
        table[name] = row
        print(f"  {name:14} {row['parent_median']:>12.6g} {row['change_median']:>12.6g} "
              f"{pq1:>12.6g}..{pq3:<12.6g} {row['ratio_median']:>7.4f} {rq1:>7.4f}..{rq3:<7.4f} "
              f"{wins:>3}/{args.pairs}")
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"  {side}: {attempted} world runs, none failed, digests matched")
        table[f"{side}_attempted"] = attempted
    print(json.dumps({"workload": args.workload, "pairs": args.pairs, "metrics": table}))


if __name__ == "__main__":
    main()
