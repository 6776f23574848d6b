#!/usr/bin/env python3
"""Interleaved A/B of the benchmark between a base revision and this checkout.

    python3 scripts/ab.py BASE_REV --workload megafleet-1m --pairs 10 [--seed N]
    python3 scripts/ab.py BASE_REV --exhibit megafleet --pairs 5 [--jobs 1]
    python3 scripts/ab.py BASE_REV --exhibit figures --pairs 3
    python3 scripts/ab.py BASE_REV --exhibit fleet --pairs 5
    python3 scripts/ab.py BASE_REV --exhibit transport --pairs 5
    python3 scripts/ab.py BASE_REV --exhibit qos --pairs 3
    python3 scripts/ab.py BASE_REV --exhibit netqos --pairs 3
    python3 scripts/ab.py BASE_REV --exhibit cawl --pairs 3

Exports BASE_REV with `git archive` into a temporary directory; the change
side is this checkout's working tree, which must not be edited while the
script runs. Builds both `simbench` packages up front, then runs N pairs of
``simbench/run.py --trace 0`` with run.py's own run length, alternating
which side goes first in each pair so that drift on a shared host falls on
both sides alike. The seed is run.py's default unless ``--seed`` names
another, so that a claim can also be checked on a seed not used while
writing the change. A run that fails a world or misses its digests stops
the script: its numbers would describe a different simulation. At a
non-default seed run.py has no digests to match, but it still checks each
world's conservation laws and that its counters repeat.

Setup time drifts between batches of processes (placement, page cache), so
``setup_s`` does not come from the two run.py invocations. Inside each pair
the script alternates the two trees' built ``simbench setup`` binaries
process by process, with the run's seed and run.py's per-workload
(processes, repeat) sampling, and reports each side's median of those samples.

Each pair's progress line on stderr gives every end-to-end metric of that
pair, parent -> change. For every end-to-end metric of BENCHMARK.json it
prints both sides' medians, the parent's quartiles, the median and quartiles of the per-pair
change/parent ratio, and how many pairs the change won. The last stdout
line is the same table as one JSON object.

``--exhibit NAME`` measures a committed exhibit end to end instead: it
builds both trees' ``nfsperf`` binaries and runs the exhibit's full
command (``nfsperf megafleet``; ``nfsperf figures`` for the paper's nine
figure and table CSVs; ``nfsperf fleet``, ``transport``, ``qos``,
``netqos`` or ``cawl``), each with ``--jobs 2`` unless ``--jobs N`` names
another worker count, once per side per pair, alternating which side
goes first, timing each process's wall clock and reading its peak
resident set (``ru_maxrss``) from ``os.wait4``. A process's peak depends
on which of its cells overlap, so ``--jobs 1``, one cell at a time, is
the setting that resolves a change in per-cell memory. Each run writes
into its own temporary ``--out``, and every file it writes must equal
its own tree's committed ``results/<name>`` byte for byte, with none
missing, or the script stops; the header names any file whose committed
copies differ between the trees. For ``wall_s`` and ``max_rss_mib`` it
prints each side's median, the parent's quartiles, the change/parent
ratio's median and quartiles, and the pairs the change won, then the
same as one JSON line.
"""

import argparse
import importlib.util
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

# Each tree builds into and runs from its own target directories.
ENV = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}

# Exhibit name: (the `results/` files its `nfsperf` subcommand of the same
# name regenerates, whether its `--out` names a directory rather than the
# one CSV).
EXHIBITS = {
    "megafleet": (["megafleet.csv"], False),
    "figures": ([f"figure{i}.csv" for i in range(1, 8)] + ["table1.csv", "slow_server.csv"], True),
    "fleet": (["fleet.csv"], False),
    "transport": (["transport.csv"], False),
    "qos": (["qos.csv"], False),
    "netqos": (["netqos.csv"], False),
    "cawl": (["cawl.csv"], False),
}

# Workers of an exhibit run unless `--jobs` names another count.
EXHIBIT_JOBS = 2


def run_py_constants():
    """run.py's default seed and setup sampling table, read from this
    checkout's copy so the two never drift apart."""
    spec = importlib.util.spec_from_file_location("simbench_run", ROOT / "simbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DEFAULT_SEED, module.SETUP_SAMPLING


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
    if subprocess.run(cmd, env=ENV).returncode != 0:
        fail(f"build of {tree} failed")


def run_once(tree, workload, seed):
    """One `run.py --trace 0` invocation at `seed`; returns its result
    object, or fails if any world failed or missed its digests."""
    cmd = [sys.executable, str(tree / "simbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=ENV)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"run.py in {tree} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if result["failed"] or not result["correct"]:
        fail(f"run.py in {tree}: {result['failed']} of {result['attempted']} world runs failed, "
             f"correct={result['correct']}")
    return result


def setup_once(tree, workload, seed, repeat):
    """One `simbench setup` process of `tree`'s built binary; returns its
    setup times in seconds."""
    binary = tree / "simbench" / "target" / "release" / "simbench"
    cmd = [str(binary), "setup", "--workload", workload, "--seed", str(seed), "--repeat", str(repeat)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=ENV)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"simbench setup in {tree} exited {proc.returncode}")
    return json.loads(lines[-1])["setups_s"]


def build_nfsperf(tree):
    """Builds `tree`'s `nfsperf` binary and returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "nfsperf",
           "--manifest-path", str(tree / "Cargo.toml")]
    if subprocess.run(cmd, env=ENV).returncode != 0:
        fail(f"build of nfsperf in {tree} failed")
    return tree / "target" / "release" / "nfsperf"


def run_measured(cmd, cwd):
    """Runs `cmd` in `cwd` with stdout discarded; returns its exit code,
    wall-clock seconds and peak resident set in MiB."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL, env=ENV)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return proc.returncode, wall, usage.ru_maxrss / 1024


def exhibit_ab(base_rev, exhibit, pairs, jobs):
    """Interleaves both trees' full `exhibit` run at `jobs` workers process
    by process and prints the wall-clock and peak-RSS table."""
    names, out_is_dir = EXHIBITS[exhibit]
    args = [exhibit, "--jobs", str(jobs)]
    walls = {"parent": [], "change": []}
    rss = {"parent": [], "change": []}
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        base = tmp / "base"
        export(base_rev, base)
        binaries = {"parent": (base, build_nfsperf(base)), "change": (ROOT, build_nfsperf(ROOT))}
        committed = {side: {name: (tree / "results" / name).read_bytes() for name in names}
                     for side, (tree, _) in binaries.items()}
        moved = [name for name in names if committed["parent"][name] != committed["change"][name]]
        for i in range(pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                tree, binary = binaries[side]
                out = tmp / f"{side}-{i}" if out_is_dir else tmp / f"{side}-{i}.csv"
                code, wall, max_rss = run_measured([str(binary), *args, "--out", str(out)], tree)
                walls[side].append(wall)
                rss[side].append(max_rss)
                if code != 0:
                    fail(f"nfsperf {' '.join(args)} in {tree} exited {code}")
                written = sorted(out.iterdir()) if out_is_dir else [out]
                if len(written) != len(names):
                    fail(f"the {side} tree's {exhibit} wrote {len(written)} files, not {len(names)}")
                for path in written:
                    name = path.name if out_is_dir else names[0]
                    if path.read_bytes() != committed[side].get(name):
                        fail(f"the {side} tree's {path.name} differs from its committed results/{name}")
            print(f"pair {i + 1}/{pairs} done ({order[0]} first): "
                  f"wall_s {walls['parent'][-1]:.6g} -> {walls['change'][-1]:.6g}, "
                  f"max_rss_mib {rss['parent'][-1]:.6g} -> {rss['change'][-1]:.6g}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"exhibit {exhibit} (nfsperf {' '.join(args)}), {pairs} pairs; every file equal to "
          f"its own tree's committed copy in results/ ({', '.join(names)}); committed copies "
          f"that differ between the trees: {', '.join(moved) or 'none'}")
    print(HEADER)
    rows = {
        "wall_s": compare("wall_s", walls["parent"], walls["change"], "lower", pairs),
        "max_rss_mib": compare("max_rss_mib", rss["parent"], rss["change"], "lower", pairs),
    }
    print(json.dumps({"exhibit": exhibit, "pairs": pairs, "metrics": rows}))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


HEADER = (f"  {'metric':14} {'parent':>12} {'change':>12} {'parent q1..q3':>25} "
          f"{'ratio':>7} {'ratio q1..q3':>15} {'wins':>6}")


def compare(name, par, chg, better, pairs):
    """Prints one metric's row of the table and returns it as a dict."""
    ratios = [c / p if p else float("inf") for p, c in zip(par, chg)]
    higher = better == "higher"
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
        "better": better,
    }
    print(f"  {name:14} {row['parent_median']:>12.6g} {row['change_median']:>12.6g} "
          f"{pq1:>12.6g}..{pq3:<12.6g} {row['ratio_median']:>7.4f} {rq1:>7.4f}..{rq3:<7.4f} "
          f"{wins:>3}/{pairs}")
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_rev")
    target = ap.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--exhibit", choices=sorted(EXHIBITS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=None, help="world seed (default: run.py's)")
    ap.add_argument("--jobs", type=int, default=None,
                    help=f"exhibit worker count (default: {EXHIBIT_JOBS})")
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    if args.exhibit:
        if args.seed is not None:
            fail("--seed applies to --workload runs only")
        jobs = EXHIBIT_JOBS if args.jobs is None else args.jobs
        if jobs < 1:
            fail("--jobs must be at least 1")
        exhibit_ab(args.base_rev, args.exhibit, args.pairs, jobs)
        return
    if args.jobs is not None:
        fail("--jobs applies to --exhibit runs only")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json names {', '.join(workloads)}")
    metrics = bench["end_to_end"]
    default_seed, sampling = run_py_constants()
    seed = default_seed if args.seed is None else args.seed
    processes, repeat = sampling[args.workload]
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
                runs[side].append(run_once(tree, args.workload, seed))
            setups = {"parent": [], "change": []}
            for k in range(processes):
                for side, tree in (order if k % 2 == 0 else order[::-1]):
                    setups[side] += setup_once(tree, args.workload, seed, repeat)
            for side in setups:
                runs[side][-1]["metrics"]["setup_s"]["value"] = statistics.median(setups[side])
            values = ", ".join(
                f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.6g}"
                f" -> {runs['change'][-1]['metrics'][m['name']]['value']:.6g}" for m in metrics)
            print(f"pair {i + 1}/{args.pairs} done ({order[0][0]} first): {values}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    table = {}
    seed_note = "run.py's default seed" if seed == default_seed else f"seed {seed} (no digests)"
    print(f"{args.workload}, {args.pairs} pairs, {seed_note} and run.py's run length; "
          f"setup_s from {processes} interleaved `simbench setup` processes per side per pair")
    print(HEADER)
    for m in metrics:
        name = m["name"]
        par = [r["metrics"][name]["value"] for r in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"]]
        table[name] = compare(name, par, chg, m["better"], args.pairs)
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        checked = "digests matched" if seed == default_seed else "counters repeated"
        print(f"  {side}: {attempted} world runs, none failed, {checked}")
        table[f"{side}_attempted"] = attempted
    print(json.dumps({"workload": args.workload, "pairs": args.pairs, "seed": seed, "metrics": table}))


if __name__ == "__main__":
    main()
