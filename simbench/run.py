#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 simbench/run.py --workload paper-1g --seed 501 --seconds 20 --trace 0

Builds the `simbench` package (release, offline) from the checkout's
sources, then drives its binaries, one world per process:

* ``--trace 0`` measures the end-to-end metrics, untraced: `simbench once`
  runs until the measured run phases add up to ``--seconds`` (at least one
  world), then `simbench setup` collects extra setup-time samples.
* ``--trace 1`` runs one untraced reference world and one world under
  `simbench-traced`, which also replays each layer's hot operation at the
  shapes the world produced, and reports the per-layer metrics.

Every world's conservation checks must pass, its model counters must repeat
across the invocation's worlds, and for the default seed they must equal
the digest in ``digests.json``. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exits non-zero, printing
no result, when the program cannot be built or the arguments are wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-1g", "megafleet-1m", "fleet-tcp-drr")
DEFAULT_SEED = 0x1F5

# Extra setup samples: (`simbench setup` processes, setups per process).
# Setup time shifts with process placement, so samples are spread over
# several processes. A megafleet world is ~0.6 GB: one setup per process.
SETUP_SAMPLING = {"paper-1g": (9, 25), "megafleet-1m": (5, 1), "fleet-tcp-drr": (9, 25)}


def fail(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(2)


def declared_units():
    """Metric names and units as BENCHMARK.json declares them:
    (end-to-end, per-layer)."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer"))


def build():
    """Builds both binaries; returns the release directory."""
    manifest = HERE / "Cargo.toml"
    if not manifest.is_file():
        fail(f"missing {manifest}")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        fail("build failed")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "release"


class Runner:
    """Runs binaries one world per process and keeps the verdicts."""

    def __init__(self, bindir, workload, seed):
        self.bindir = bindir
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counters = None
        digests = json.loads((HERE / "digests.json").read_text())
        self.digest = digests[workload] if seed == DEFAULT_SEED else None

    def call(self, binary, mode, *extra):
        cmd = [str(self.bindir / binary), mode, "--workload", self.workload, "--seed", str(self.seed), *extra]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None

    def world(self, binary, mode):
        """One full world run; returns its report, or None if it failed."""
        self.attempted += 1
        report = self.call(binary, mode)
        problems = []
        if report is None:
            problems.append(f"{binary} {mode} crashed")
        else:
            problems += report["failures"]
            counters = report["counters"]
            if self.counters is None:
                self.counters = counters
            elif counters != self.counters:
                problems.append("model counters differ between runs of one seed")
            if self.digest is not None and counters != self.digest:
                diff = {k: (v, self.digest.get(k)) for k, v in counters.items() if self.digest.get(k) != v}
                problems.append(f"model counters differ from digests.json: {diff}")
        if problems:
            self.failed += 1
            self.problems += problems
            return None
        return report


def rate(report):
    return report["rpcs"] / (report["run_s"] + report["teardown_s"])


def end_to_end(runner, seconds):
    rates, setups, peaks = [], [], []
    measured = 0.0
    while measured < seconds or runner.attempted == 0:
        report = runner.world("simbench", "once")
        if report is None:
            break
        measured += report["run_s"] + report["teardown_s"]
        rates.append(rate(report))
        setups.append(report["setup_s"])
        peaks.append(report["vm_hwm_mib"])
    processes, repeat = SETUP_SAMPLING[runner.workload]
    for _ in range(processes if rates else 0):
        report = runner.call("simbench", "setup", "--repeat", str(repeat))
        if report is None:
            runner.problems.append("setup crashed")
            break
        setups += report["setups_s"]
    if not rates:
        return {}
    print(f"{runner.workload} seed {runner.seed}: {len(rates)} world runs, {len(setups)} setups")
    return {
        "rpcs_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(peaks),
    }


def per_layer(runner, units):
    reference = runner.world("simbench", "once")
    traced = runner.world("simbench-traced", "traced")
    if reference is None or traced is None:
        return {}
    metrics = dict(traced["per_layer"])
    metrics["host.tracing_overhead"] = rate(reference) / rate(traced) - 1.0
    missing = set(units) ^ set(metrics)
    if missing:
        runner.problems.append(f"per-layer rows do not match the declared list: {sorted(missing)}")
        return {}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    runner = Runner(build(), args.workload, args.seed)
    end_to_end_units, per_layer_units = declared_units()
    if args.trace:
        values, units = per_layer(runner, per_layer_units), per_layer_units
    else:
        values, units = end_to_end(runner, args.seconds), end_to_end_units
    for problem in runner.problems:
        print(f"FAILED: {problem}")
    fail_frac = runner.failed / max(runner.attempted, 1)
    if not values:
        # Every world failed: report zeros so the failure is visible.
        values = {name: 0.0 for name in units}
    for name, value in values.items():
        print(f"  {name:32} {value:>18.6g} {units[name]}")
    print(f"  {'fail_frac':32} {fail_frac:>18.6g} share ({runner.failed} of {runner.attempted} world runs)")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
