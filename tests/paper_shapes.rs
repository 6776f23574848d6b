//! End-to-end shape tests: every qualitative claim of the paper's
//! evaluation, asserted against the full simulated stack.
//!
//! These use reduced file sizes so that debug-mode `cargo test` stays
//! fast; `nfsperf figures` runs paper-scale parameters.

use nfsperf_client::ClientTuning;
use nfsperf_experiments::{figures, run_bonnie, run_local, Scenario, ServerKind};
use nfsperf_sim::SimDuration;

/// Figure 1 claim: with the stock client, local writes run at memory
/// speed while NFS writes are pinned to network/server speed.
#[test]
fn fig1_stock_nfs_is_network_bound_local_is_memory_bound() {
    let size = 20 << 20;
    let local = run_local(size, false).write_mbps();
    let nfs = run_bonnie(
        &Scenario::new(ClientTuning::linux_2_4_4(), ServerKind::Filer),
        size,
    )
    .report
    .write_mbps();
    assert!(
        local > 150.0,
        "local ext2 should top 150 MB/s, got {local:.1}"
    );
    assert!(nfs < 60.0, "stock NFS should be server-bound, got {nfs:.1}");
    assert!(local / nfs > 3.0, "the paper's >3x gap must appear");
}

/// Figure 2 claims: periodic spikes every ~80-100 calls, ~19 ms each, a
/// small percentage of calls, inflating the mean several-fold.
#[test]
fn fig2_stock_client_latency_spikes() {
    let out = run_bonnie(
        &Scenario::new(ClientTuning::linux_2_4_4(), ServerKind::Filer),
        10 << 20,
    );
    let ms1 = SimDuration::from_millis(1);
    let lat = &out.report.latencies;
    let spikes: Vec<usize> = lat
        .iter()
        .enumerate()
        .filter(|(_, l)| **l > ms1)
        .map(|(i, _)| i)
        .collect();
    assert!(
        spikes.len() >= 5,
        "expected many spikes, got {}",
        spikes.len()
    );
    // Periodicity: spikes are regularly spaced (soft limit / 2 pages).
    let periods: Vec<usize> = spikes.windows(2).map(|w| w[1] - w[0]).collect();
    let mean_period = periods.iter().sum::<usize>() as f64 / periods.len() as f64;
    assert!(
        (60.0..=140.0).contains(&mean_period),
        "spike period should be ~96 calls, got {mean_period:.0}"
    );
    // Magnitude: median spike in the many-millisecond range.
    let mut sizes: Vec<SimDuration> = lat.iter().filter(|l| **l > ms1).copied().collect();
    sizes.sort();
    let median = sizes[sizes.len() / 2];
    assert!(
        median >= SimDuration::from_millis(5) && median <= SimDuration::from_millis(60),
        "median spike should be ~19 ms, got {median}"
    );
    // The mean is inflated several-fold by a small minority of calls.
    let mean = out.report.mean_latency();
    let excl = out.report.mean_latency_excluding(ms1);
    assert!(
        mean.as_nanos() > excl.as_nanos() * 3,
        "spikes should inflate the mean >3x: {mean} vs {excl}"
    );
    assert!(spikes.len() * 20 < lat.len(), "spikes are a small minority");
}

/// Figure 2 side-claim: the latency spikes do not appear on the wire —
/// WRITE RPCs keep flowing while the writer stalls.
#[test]
fn fig2_spikes_are_client_side_only() {
    let out = run_bonnie(
        &Scenario::new(ClientTuning::linux_2_4_4(), ServerKind::Filer),
        10 << 20,
    );
    // Every byte written reached the server as ordinary WRITEs.
    assert_eq!(out.server_stats.write_bytes, 10 << 20);
    assert!(out.xprt_stats.retransmits == 0, "no wire anomalies");
}

/// Figure 3 claims: removing the flush logic kills the spikes but
/// latency grows as the request list lengthens.
#[test]
fn fig3_no_flush_growth() {
    let out = run_bonnie(
        &Scenario::new(ClientTuning::no_flush(), ServerKind::Filer),
        20 << 20,
    );
    assert_eq!(out.mount_stats.soft_limit_flushes, 0);
    assert_eq!(
        out.report.spikes(SimDuration::from_millis(5)),
        0,
        "no flush spikes"
    );
    let ratio = nfsperf_bonnie::trend_ratio(&out.report.latencies);
    assert!(
        ratio > 1.3,
        "latency should grow over the run, ratio {ratio:.2}"
    );
    // And the profiler blames the list scans, as the paper's §3.4 found.
    let scans = out
        .profile
        .iter()
        .filter(|r| {
            r.label == "nfs_find_request"
                || r.label == "nfs_update_request"
                || r.label == "nfs_scan_list"
        })
        .map(|r| r.time.as_nanos())
        .sum::<u64>();
    let copies = out
        .profile
        .iter()
        .find(|r| r.label == "generic_file_write")
        .map(|r| r.time.as_nanos())
        .unwrap_or(0);
    assert!(
        scans > copies,
        "index walks should out-cost data copies: {scans} vs {copies}"
    );
}

/// Figure 4 claims: the hash table keeps latency flat at roughly the
/// spike-free baseline, and memory write throughput approaches the
/// paper's ~115 MB/s.
#[test]
fn fig4_hash_table_flat_and_fast() {
    let out = run_bonnie(
        &Scenario::new(ClientTuning::hash_table(), ServerKind::Filer),
        20 << 20,
    );
    let ratio = nfsperf_bonnie::trend_ratio(&out.report.latencies);
    assert!(
        ratio < 1.3,
        "hash table must keep latency flat, ratio {ratio:.2}"
    );
    let mbps = out.report.write_mbps();
    assert!(
        (70.0..=170.0).contains(&mbps),
        "memory write throughput should be ~100-130 MB/s, got {mbps:.1}"
    );
}

/// Figures 5/6 claims: with the BKL held the faster server produces
/// *slower and jitterier* client writes; releasing the lock around
/// sock_sendmsg shrinks mean and max while the minimum barely moves.
#[test]
fn fig5_fig6_lock_contention_shapes() {
    let size = 10 << 20;
    let held_filer = run_bonnie(
        &Scenario::new(ClientTuning::hash_table(), ServerKind::Filer),
        size,
    );
    let held_knfsd = run_bonnie(
        &Scenario::new(ClientTuning::hash_table(), ServerKind::Knfsd),
        size,
    );
    let free_filer = run_bonnie(
        &Scenario::new(ClientTuning::full_patch(), ServerKind::Filer),
        size,
    );
    let free_knfsd = run_bonnie(
        &Scenario::new(ClientTuning::full_patch(), ServerKind::Knfsd),
        size,
    );
    let mean = |o: &nfsperf_experiments::RunOutput| nfsperf_bonnie::mean(&o.report.latencies[1..]);
    let min =
        |o: &nfsperf_experiments::RunOutput| o.report.latencies[1..].iter().copied().min().unwrap();

    // Fig 5: faster server -> slower client memory writes.
    assert!(
        mean(&held_filer) > mean(&held_knfsd),
        "filer run should have higher mean latency: {} vs {}",
        mean(&held_filer),
        mean(&held_knfsd)
    );
    // Fig 6: with the lock released the faster server still does not
    // give faster client writes (paper: filer 127 us, linux 105 us).
    assert!(
        mean(&free_filer) >= mean(&free_knfsd),
        "lock released: filer {} vs linux {}",
        mean(&free_filer),
        mean(&free_knfsd)
    );
    // Fig 6: the lock fix reduces mean latency against the filer.
    assert!(
        mean(&free_filer) < mean(&held_filer),
        "lock release should cut mean latency: {} vs {}",
        mean(&free_filer),
        mean(&held_filer)
    );
    // Minimum latency barely changes: the variation was lock waiting,
    // not code path length.
    let (a, b) = (
        min(&held_filer).as_nanos() as f64,
        min(&free_filer).as_nanos() as f64,
    );
    assert!(
        (a - b).abs() / a < 0.25,
        "minimum latency should be roughly unchanged: {a}ns vs {b}ns"
    );
}

/// Table 1 claims: both rows improve with the lock fix; under the stock
/// lock the slower server wins; after the fix the gap narrows.
#[test]
fn table1_shape() {
    let t = figures::table1();
    assert!(
        t.filer_no_lock > t.filer_normal,
        "filer row improves: {t:?}"
    );
    assert!(
        t.linux_no_lock > t.linux_normal,
        "linux row improves: {t:?}"
    );
    assert!(
        t.linux_normal > t.filer_normal,
        "BKL held: slower server allows faster writes: {t:?}"
    );
    let gap_before = t.linux_normal - t.filer_normal;
    let gap_after = (t.linux_no_lock - t.filer_no_lock).abs();
    assert!(
        gap_after < gap_before,
        "the lock fix should bring the servers into the same ballpark: {t:?}"
    );
    // Rough magnitude: the filer improvement is the larger one (paper:
    // +22% vs +7%).
    let filer_gain = t.filer_no_lock / t.filer_normal;
    let linux_gain = t.linux_no_lock / t.linux_normal;
    assert!(
        filer_gain > linux_gain,
        "lock removal helps the fast-server case more: {t:?}"
    );
}

/// §3.5 claims: sock_sendmsg accounts for ~90% of writer lock waits, and
/// a 100 Mb/s server allows the fastest memory writes of all.
#[test]
fn slow_server_inversion_and_sendmsg_blame() {
    let cmp = figures::slow_server_comparison();
    assert!(
        cmp.slow_mbps > cmp.knfsd_mbps && cmp.knfsd_mbps > cmp.filer_mbps,
        "throughput must invert with server speed: filer {:.1} / linux {:.1} / slow {:.1}",
        cmp.filer_mbps,
        cmp.knfsd_mbps,
        cmp.slow_mbps
    );
    assert!(
        cmp.xmit_wait_fraction > 0.6,
        "sendmsg should dominate lock waits (paper ~90%), got {:.0}%",
        100.0 * cmp.xmit_wait_fraction
    );
}

/// §3.5 on SMP: the lock-holding RPC layer makes the writer wait on the
/// kernel lock, and a second client CPU relieves that wait.
#[test]
fn second_cpu_relieves_lock_waits() {
    let a = nfsperf_experiments::cpu_ablation();
    assert!(
        a.one_cpu_wait_ns > a.two_cpu_wait_ns,
        "a second CPU must relieve lock waiting: {} ns vs {} ns per call",
        a.one_cpu_wait_ns,
        a.two_cpu_wait_ns
    );
}

/// Figure 7 claims: the patched client writes at memory speed while RAM
/// lasts; past RAM the filer sustains more than the Linux server, which
/// sustains more than the local IDE disk.
#[test]
fn fig7_patched_shapes() {
    // In-RAM point.
    let filer_small = run_bonnie(
        &Scenario::new(ClientTuning::full_patch(), ServerKind::Filer),
        20 << 20,
    )
    .report
    .write_mbps();
    assert!(
        filer_small > 80.0,
        "in-RAM NFS should be memory speed, got {filer_small:.1}"
    );

    // Past-RAM point on a scaled-down machine (64 MB RAM, 96 MB file):
    // the same mechanism as the paper's 256 MB / 280 MB point at a
    // fraction of the event count, so debug-mode tests stay fast.
    // `nfsperf figures` runs the full scale.
    let ram = 64 << 20;
    let size = 96 << 20;
    let local = nfsperf_experiments::run_local_with_ram(size, ram, false).write_mbps();
    let filer = {
        let mut s = Scenario::new(ClientTuning::full_patch(), ServerKind::Filer);
        s.ram_bytes = ram;
        s.record_latencies = false;
        run_bonnie(&s, size).report.write_mbps()
    };
    let knfsd = {
        let mut s = Scenario::new(ClientTuning::full_patch(), ServerKind::Knfsd);
        s.ram_bytes = ram;
        s.record_latencies = false;
        run_bonnie(&s, size).report.write_mbps()
    };
    // The paper: local and Linux-server throughput "immediately trail
    // off" past RAM while the filer "sustains high data throughput
    // longer" (NVRAM as page-cache extension).
    assert!(
        filer > 2.0 * local && filer > 2.0 * knfsd,
        "past RAM the filer must sustain: filer {filer:.1} vs linux {knfsd:.1} / local {local:.1}"
    );
    assert!(
        local < 80.0 && knfsd < 80.0,
        "local and linux must have trailed off: linux {knfsd:.1}, local {local:.1}"
    );
}

/// The enhancement story end to end: full patch vs stock client on the
/// same workload improves memory write throughput by more than 3x (the
/// abstract's headline).
#[test]
fn headline_improvement_exceeds_3x() {
    let size = 20 << 20;
    let stock = run_bonnie(
        &Scenario::new(ClientTuning::linux_2_4_4(), ServerKind::Filer),
        size,
    )
    .report
    .write_mbps();
    let patched = run_bonnie(
        &Scenario::new(ClientTuning::full_patch(), ServerKind::Filer),
        size,
    )
    .report
    .write_mbps();
    assert!(
        patched / stock > 3.0,
        "memory write throughput should improve >3x: {stock:.1} -> {patched:.1}"
    );
}

/// Figure 2's wire observation, checked with the NIC's departure log:
/// while the writer suffers ~19 ms stalls, WRITE datagrams keep leaving
/// the client with much smaller gaps — the spikes are a client-side
/// artifact, invisible to a packet capture.
#[test]
fn fig2_wire_stays_smooth_through_spikes() {
    let out = run_bonnie(
        &Scenario::new(ClientTuning::linux_2_4_4(), ServerKind::Filer),
        10 << 20,
    );
    let max_spike = *out.report.latencies.iter().max().unwrap();
    let max_gap = out.max_wire_gap.expect("WRITEs were sent");
    // Wire silence is bounded by the write-behind daemon's cadence (~10
    // ms), not by the writer's stalls: the spikes are strictly larger
    // than anything a packet capture would show.
    assert!(
        max_gap < max_spike,
        "wire gaps ({max_gap}) must be smaller than writer spikes ({max_spike})"
    );
    assert!(
        max_gap <= SimDuration::from_millis(12),
        "wire gaps are bounded by the flushd interval, got {max_gap}"
    );
}
