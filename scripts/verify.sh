#!/usr/bin/env bash
# Hermetic verification: build, test, lint and smoke-run the workspace
# with networking disabled. The workspace has zero external dependencies
# (rng/proptest/bench harness are all in-tree), so every step must pass
# with --offline against an empty cargo registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

echo "==> cargo fmt --all --check"
# rustfmt's default style over the workspace (the simbench workspace is
# outside it): a change that leaves unformatted lines fails here.
cargo fmt --all --check

echo "==> cargo clippy --all-targets --workspace --offline -- -D warnings"
cargo clippy --all-targets --workspace --offline -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --offline"
# Intra-doc links must resolve, and public docs must not link private
# items: a rename that leaves a dangling link fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> workspace unit tests and tests/properties.rs under AddressSanitizer, leaks on (nightly)"
# A simulated world is a reference cycle: its tasks and handlers hold
# clones of its `Sim` handle, and the world holds them. Only the drop of
# the handle `Sim::new` returned breaks it, so a world that outlives its
# owner stays allocated until the process exits. LeakSanitizer fails a
# test binary that exits with any allocation unreachable, and
# AddressSanitizer fails any invalid access in the engine's unsafe code.
# The step passes only with no report from either. The instrumented
# build goes to its own target dir.
asan_log="$(mktemp)"
asan_test() {
    RUSTFLAGS="-Zsanitizer=address" ASAN_OPTIONS="detect_leaks=1" \
        cargo +nightly test -q --offline --target x86_64-unknown-linux-gnu \
        --target-dir target/asan "$@" >> "$asan_log" 2>&1
}
if ! asan_test --workspace --lib || ! asan_test --test properties \
    || grep -qE "ERROR: (AddressSanitizer|LeakSanitizer)" "$asan_log"; then
    grep -E "ERROR: |SUMMARY: |error: |panicked" "$asan_log" || tail -n 40 "$asan_log"
    echo "FAIL: sanitizer report or test failure under AddressSanitizer"
    exit 1
fi
rm -f "$asan_log"

echo "==> zero-alloc steady state smoke (counting global allocator, release)"
# The flyweight engine must retire RPCs without touching the heap once
# warm: the counting allocator asserts two disjoint steady-state windows
# allocate identically (and near zero). Run it in release so the test
# exercises the same codegen as the benchmarks.
cargo test -q --release --offline -p nfsperf-fleet --test zero_alloc

echo "==> timer wheel vs reference heap, 5,000 cases per property (release)"
# The wheel stores no sequence number: equal deadlines fire in push order
# only because every slot chain is FIFO (pushes append at the tail, a
# cascade walks the oldest block first). The workspace tests run these
# heap-reference properties at the default 256 cases; this step runs
# each at 5,000, about 4 s in release.
NFSPERF_PROPTEST_CASES=5000 cargo test -q --release --offline --test properties timer_wheel

echo "==> flyweight world heap high-water per client (counting global allocator, release)"
# The CSV's bytes_per_client counts only the per-client slab; this gate
# counts the whole world's heap peak, in-flight RPC state included, over
# 65,280 clients that all have a WRITE in flight at once.
cargo test -q --release --offline -p nfsperf-fleet --test resident_bytes

echo "==> faithful WRITE allocation budget (counting global allocator, release)"
# A faithful UDP WRITE round trip allocates for its requests and tasks,
# but its wire buffers come from the payload pool: two steady-state
# windows of different lengths must grow by no more than the committed
# per-WRITE budget.
cargo test -q --release --offline -p nfsperf-bonnie --test write_alloc_budget

echo "==> queued WRITE heap bytes (peak-tracking global allocator, release)"
# A Bonnie close queues every dirty batch as a WRITE task behind the
# 16-entry RPC slot table; over 10,000 of them wait at once here. The
# heap growth per queued WRITE must stay within the committed budget:
# a task that holds its whole RPC state machine while it waits lands
# at four times the budget.
cargo test -q --release --offline -p nfsperf-bonnie --test queued_write_bytes

echo "==> TCP/DRR fleet heap high-water (peak-tracking global allocator, release)"
# Eight 100bT clients write 16 MiB each over TCP into a DRR knfsd. The
# heap's peak per client must stay within the committed budget: a NIC
# that logs every departure for the whole run, or a TCP segment that
# pins a WRITE-sized pool buffer, lands above it.
cargo test -q --release --offline -p nfsperf-bonnie --test tcp_drr_heap_peak

echo "==> benchmark world equivalence (simbench worlds vs the experiment runners)"
# simbench is its own workspace, so the workspace tests above skip it.
# Its suite holds each hand-built benchmark world to the same simulated
# outputs as run_bonnie / run_megafleet / run_fleet, so a changed client
# or server constructor cannot silently break the benchmark worlds.
cargo test -q --release --offline --manifest-path simbench/Cargo.toml

echo "==> quickstart smoke run"
out="$(cargo run -q --release --offline --example quickstart)"
echo "$out"
# The example prints "  write throughput :    <mbps> MB/s"; require > 0.
echo "$out" | awk '
    /write throughput/ {
        seen = 1
        if ($4 + 0 <= 0) { print "FAIL: zero write throughput"; exit 1 }
    }
    END {
        if (!seen) { print "FAIL: no throughput line in quickstart output"; exit 1 }
    }'

echo "==> quickstart smoke run over TCP"
out="$(cargo run -q --release --offline --example quickstart -- --transport tcp)"
echo "$out"
echo "$out" | awk '
    /write throughput/ {
        seen = 1
        if ($4 + 0 <= 0) { print "FAIL: zero write throughput over TCP"; exit 1 }
    }
    /RPC transport/ {
        if ($3 != "(tcp):") { print "FAIL: quickstart did not mount over TCP"; exit 1 }
    }
    END {
        if (!seen) { print "FAIL: no throughput line in TCP quickstart output"; exit 1 }
    }'

echo "==> fleet smoke run (small N, --jobs 4 vs --jobs 1 bit-identical)"
out="$(cargo run -q --release --offline --bin nfsperf -- fleet --quick --jobs 4 --out results/fleet-quick.csv)"
echo "$out"
cargo run -q --release --offline --bin nfsperf -- fleet --quick --jobs 1 --out results/fleet-quick-serial.csv > /dev/null
cmp results/fleet-quick.csv results/fleet-quick-serial.csv \
    || { echo "FAIL: fleet sweep differs between --jobs 4 and --jobs 1"; exit 1; }
rm -f results/fleet-quick-serial.csv
# Every data row ends in a Jain index; fairness must hold even at small N.
awk -F, 'NR > 1 {
        rows++
        if ($4 + 0 <= 0) { print "FAIL: zero aggregate throughput: " $0; exit 1 }
        if ($7 + 0 < 0.9) { print "FAIL: unfair fleet (jain < 0.9): " $0; exit 1 }
    }
    END {
        if (rows == 0) { print "FAIL: empty fleet-quick.csv"; exit 1 }
    }' results/fleet-quick.csv
rm -f results/fleet-quick.csv

echo "==> qos smoke run (quick, --jobs 4 vs --jobs 1 bit-identical)"
out="$(cargo run -q --release --offline --bin nfsperf -- qos --quick --jobs 4 --out results/qos-quick.csv)"
echo "$out"
cargo run -q --release --offline --bin nfsperf -- qos --quick --jobs 1 --out results/qos-quick-2.csv > /dev/null
cmp results/qos-quick.csv results/qos-quick-2.csv \
    || { echo "FAIL: qos sweep differs between --jobs 4 and --jobs 1"; exit 1; }
rm -f results/qos-quick-2.csv
# FIFO must show the hog starving victims; DRR rows must restore fairness.
awk -F, 'NR > 1 {
        rows++
        if ($2 == "fifo" && $7 + 0 >= 0.6) { print "FAIL: no starvation under fifo: " $0; exit 1 }
        if ($2 != "fifo" && $7 + 0 < 0.95) { print "FAIL: unfair under " $2 ": " $0; exit 1 }
    }
    END {
        if (rows == 0) { print "FAIL: empty qos-quick.csv"; exit 1 }
    }' results/qos-quick.csv
rm -f results/qos-quick.csv

echo "==> qos sweep (full, --jobs 2 vs committed results/qos.csv)"
# The committed CSV is the qos sweep's reference: every (server, sched)
# row pairs a hog-free baseline cell with a hog cell, so a change that
# moves either half of any row fails here. Well under a second.
cargo run -q --release --offline --bin nfsperf -- qos --jobs 2 --out results/qos-2.csv > /dev/null
cmp results/qos-2.csv results/qos.csv \
    || { echo "FAIL: qos sweep differs from the committed results/qos.csv"; exit 1; }
rm -f results/qos-2.csv

echo "==> megafleet smoke run (10k flyweights, --jobs 4 vs --jobs 1 vs committed results/megafleet-smoke.csv)"
# The committed file is the reference for the flyweight tier: its
# `events` column pins the simulated event count of every cell, so a
# change to the tier's event schedule fails here even when throughput
# and latency columns happen to match.
out="$(cargo run -q --release --offline --bin nfsperf -- megafleet --quick --counts 10000 --jobs 4 --out results/megafleet-smoke-4.csv)"
echo "$out"
cargo run -q --release --offline --bin nfsperf -- megafleet --quick --counts 10000 --jobs 1 --out results/megafleet-smoke-1.csv > /dev/null
cmp results/megafleet-smoke-4.csv results/megafleet-smoke-1.csv \
    || { echo "FAIL: megafleet sweep differs between --jobs 4 and --jobs 1"; exit 1; }
cmp results/megafleet-smoke-1.csv results/megafleet-smoke.csv \
    || { echo "FAIL: megafleet sweep differs from the committed results/megafleet-smoke.csv"; exit 1; }
rm -f results/megafleet-smoke-4.csv
# Every cell must move bytes, keep the faithful tier fair, and hold the
# flyweight slab budget (column 12: the per-client slab only; the
# whole-heap gate is the resident_bytes test above).
awk -F, 'NR == 1 {
        if ($13 != "at_knee") { print "FAIL: megafleet CSV missing at_knee column"; exit 1 }
    }
    NR > 1 {
        rows++
        if ($4 + 0 <= 0) { print "FAIL: zero aggregate throughput: " $0; exit 1 }
        if ($8 + 0 < 0.9) { print "FAIL: unfair faithful tier (jain < 0.9): " $0; exit 1 }
        if ($12 + 0 > 256) { print "FAIL: flyweight over 256 B/client: " $0; exit 1 }
        if ($11 + 0 <= 0) { print "FAIL: zero simulated events: " $0; exit 1 }
    }
    END {
        if (rows == 0) { print "FAIL: empty megafleet-smoke.csv"; exit 1 }
    }' results/megafleet-smoke-1.csv
rm -f results/megafleet-smoke-1.csv

echo "==> cawl smoke run (quick, --jobs 4 vs --jobs 1 bit-identical)"
out="$(cargo run -q --release --offline --bin nfsperf -- cawl --quick --jobs 4 --out results/cawl-quick.csv)"
echo "$out"
cargo run -q --release --offline --bin nfsperf -- cawl --quick --jobs 1 --out results/cawl-quick-2.csv > /dev/null
cmp results/cawl-quick.csv results/cawl-quick-2.csv \
    || { echo "FAIL: cawl sweep differs between --jobs 4 and --jobs 1"; exit 1; }
rm -f results/cawl-quick-2.csv
# Both regimes must appear; a file under the dirty ratio never throttles;
# a throttled cell pins exactly at the hard limit (the knee); every cell
# moves data.
awk -F, '
    NR > 1 {
        rows++
        if ($11 == "cache-fit") fit++
        if ($11 == "writeback-bound") bound++
        if ($4 + 0 == 0.5 && $7 + 0 != 0) { print "FAIL: sub-ratio cell throttled: " $0; exit 1 }
        if ($7 + 0 > 0 && $9 != $10) { print "FAIL: throttled cell not pinned at hard limit: " $0; exit 1 }
        if ($5 + 0 <= 0) { print "FAIL: zero app throughput: " $0; exit 1 }
    }
    END {
        if (rows == 0) { print "FAIL: empty cawl-quick.csv"; exit 1 }
        if (!fit || !bound) { print "FAIL: cawl sweep must show both regimes"; exit 1 }
    }' results/cawl-quick.csv
rm -f results/cawl-quick.csv

echo "==> netqos smoke run (quick, --jobs 4 vs --jobs 1 bit-identical)"
out="$(cargo run -q --release --offline --bin nfsperf -- netqos --quick --jobs 4 --out results/netqos-quick.csv)"
echo "$out"
cargo run -q --release --offline --bin nfsperf -- netqos --quick --jobs 1 --out results/netqos-quick-2.csv > /dev/null
cmp results/netqos-quick.csv results/netqos-quick-2.csv \
    || { echo "FAIL: netqos sweep differs between --jobs 4 and --jobs 1"; exit 1; }
rm -f results/netqos-quick-2.csv
# The port scheduler, not the server, decides who wins the uplink: FIFO
# must let the incast mix collapse fairness among the victims (column 11,
# Jain over victims only) while any fair policy holds it at >= 0.9 and
# every cell still moves victim bytes.
awk -F, 'NR > 1 {
        rows++
        if ($2 == "port-fifo" && $3 == "incast") {
            fifo_incast++
            if ($11 + 0 >= 0.6) { print "FAIL: port-fifo did not starve meek victims: " $0; exit 1 }
        }
        if ($2 != "port-fifo" && $11 + 0 < 0.9) { print "FAIL: unfair victims under " $2 ": " $0; exit 1 }
        if ($6 + 0 <= 0) { print "FAIL: zero victim throughput: " $0; exit 1 }
    }
    END {
        if (rows == 0) { print "FAIL: empty netqos-quick.csv"; exit 1 }
        if (!fifo_incast) { print "FAIL: netqos sweep missing the port-fifo incast cell"; exit 1 }
    }' results/netqos-quick.csv
rm -f results/netqos-quick.csv

echo "==> transport sweep (full, --jobs 2 vs --jobs 1 vs committed results/transport.csv)"
# The only exhibit whose TCP cells lose packets, so the only one that
# drives retransmission and out-of-order reassembly through the TCP
# byte path. The full sweep takes well under a second.
cargo run -q --release --offline --bin nfsperf -- transport --jobs 2 --out results/transport-2.csv > /dev/null
cargo run -q --release --offline --bin nfsperf -- transport --jobs 1 --out results/transport-1.csv > /dev/null
cmp results/transport-2.csv results/transport-1.csv \
    || { echo "FAIL: transport sweep differs between --jobs 2 and --jobs 1"; exit 1; }
cmp results/transport-1.csv results/transport.csv \
    || { echo "FAIL: transport sweep differs from the committed results/transport.csv"; exit 1; }
rm -f results/transport-1.csv results/transport-2.csv

echo "==> fleet sweep (full, --jobs 2 vs committed results/fleet.csv)"
# The one exhibit whose every cell runs the shared fleet machine and
# writer over both transports: a change to either, or to anything under
# them, that moves a byte of the committed sweep fails here. About 4 s.
cargo run -q --release --offline --bin nfsperf -- fleet --jobs 2 --out results/fleet-2.csv > /dev/null
cmp results/fleet-2.csv results/fleet.csv \
    || { echo "FAIL: fleet sweep differs from the committed results/fleet.csv"; exit 1; }
rm -f results/fleet-2.csv

echo "==> paper exhibits (full, --jobs 2 vs committed results/, one summary section each)"
# `nfsperf figures` is the one entry point for the paper's seven figures,
# Table 1 and the section 3.5 slow-server comparison: every CSV it writes
# must equal the committed copy, and the measured-vs-paper summary it
# prints must hold one section titled with each CSV's name. About 7 s
# at --jobs 2 on a 2-vCPU VM.
figdir="$(mktemp -d)"
out="$(cargo run -q --release --offline --bin nfsperf -- figures --jobs 2 --out "$figdir")"
echo "$out"
for csv in figure1 figure2 figure3 figure4 figure5 figure6 figure7 table1 slow_server; do
    cmp "$figdir/$csv.csv" "results/$csv.csv" \
        || { echo "FAIL: $csv.csv differs from the committed results/$csv.csv"; exit 1; }
    echo "$out" | grep -qF "($csv.csv): " \
        || { echo "FAIL: the figures summary has no $csv.csv section"; exit 1; }
done
[ "$(ls "$figdir" | wc -l)" -eq 9 ] \
    || { echo "FAIL: figures wrote $(ls "$figdir" | wc -l) files, expected 9"; exit 1; }
rm -rf "$figdir"

echo "==> benchmark worlds at the committed seed (model counters vs simbench/digests.json)"
# One run of each benchmark world at run.py's default seed. run.py checks
# every world's conservation laws and, at that seed, requires every model
# counter (sim.events, client.write_rpcs, server.writes, the p99s, ...)
# to equal simbench/digests.json, so a change to the simulated event
# schedule fails here by exact count, whatever the host's speed.
for workload in paper-1g fleet-tcp-drr megafleet-1m; do
    out="$(python3 simbench/run.py --workload "$workload" --seconds 0)"
    echo "$out"
    echo "$out" | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
if not r["correct"] or r["failed"] != 0:
    sys.exit("FAIL: %s: correct=%s, %d failed" % (sys.argv[1], r["correct"], r["failed"]))
' "$workload"
done

echo "==> no external dependencies"
if grep -rn "^rand\|^proptest\|^criterion" Cargo.toml crates/*/Cargo.toml; then
    echo "FAIL: external dependency lines found above"
    exit 1
fi

echo "verify: all checks passed"
