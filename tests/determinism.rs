//! Determinism and sensitivity: identical scenarios reproduce to the
//! nanosecond; distinct configurations actually differ.
//!
//! Determinism is what makes this reproduction *more* usable than the
//! paper's test bed — §2.2 laments that Linux benchmark runs vary so
//! much that only single-run shapes can be reported. Here the shape is a
//! pure function of the scenario and seed.

use nfsperf_client::ClientTuning;
use nfsperf_experiments::{figures, run_bonnie, Scenario, ServerKind};

#[test]
fn identical_scenarios_reproduce_exactly() {
    let scenario = Scenario::new(ClientTuning::linux_2_4_4(), ServerKind::Filer);
    let a = run_bonnie(&scenario, 5 << 20);
    let b = run_bonnie(&scenario, 5 << 20);
    assert_eq!(a.report.latencies, b.report.latencies);
    assert_eq!(a.report.write_elapsed, b.report.write_elapsed);
    assert_eq!(a.report.flush_elapsed, b.report.flush_elapsed);
    assert_eq!(a.xprt_stats, b.xprt_stats);
    assert_eq!(a.server_stats, b.server_stats);
    assert_eq!(a.mount_stats, b.mount_stats);
    assert_eq!(a.lock_stats.total_wait, b.lock_stats.total_wait);
}

#[test]
fn table1_is_reproducible() {
    let a = figures::table1();
    let b = figures::table1();
    assert_eq!(a, b);
}

#[test]
fn each_tuning_produces_a_distinct_run() {
    let size = 5 << 20;
    let reports: Vec<_> = [
        ClientTuning::linux_2_4_4(),
        ClientTuning::no_flush(),
        ClientTuning::hash_table(),
        ClientTuning::full_patch(),
    ]
    .into_iter()
    .map(|t| run_bonnie(&Scenario::new(t, ServerKind::Filer), size).report)
    .collect();
    // The paper's benchmark unit: the fully patched client writes the 5 MB
    // file in 640 8 KB calls at a sub-millisecond mean.
    let patched = &reports[3];
    assert_eq!(patched.latencies.len(), 640);
    assert!(patched.mean_latency() < nfsperf_sim::SimDuration::from_millis(1));
    let runs: Vec<_> = reports.iter().map(|r| r.write_elapsed).collect();
    for i in 0..runs.len() {
        for j in i + 1..runs.len() {
            assert_ne!(
                runs[i], runs[j],
                "tunings {i} and {j} should not behave identically"
            );
        }
    }
}

#[test]
fn each_server_produces_a_distinct_run() {
    let size = 2 << 20;
    let t = ClientTuning::full_patch();
    let filer = run_bonnie(&Scenario::new(t, ServerKind::Filer), size)
        .report
        .flush_elapsed;
    let knfsd = run_bonnie(&Scenario::new(t, ServerKind::Knfsd), size)
        .report
        .flush_elapsed;
    let slow = run_bonnie(&Scenario::new(t, ServerKind::Slow100), size)
        .report
        .flush_elapsed;
    assert!(filer < knfsd, "filer flushes faster than knfsd");
    assert!(knfsd < slow, "knfsd flushes faster than the 100bT server");
}

#[test]
fn seed_changes_jitter_but_not_shape() {
    let base = Scenario::new(ClientTuning::linux_2_4_4(), ServerKind::Filer);
    let other = Scenario {
        seed: 0xABCD,
        ..base.clone()
    };
    let a = run_bonnie(&base, 5 << 20);
    let b = run_bonnie(&other, 5 << 20);
    assert_ne!(a.report.latencies, b.report.latencies, "jitter differs");
    // But the paper-level shape is seed-independent: similar spike counts
    // and similar throughput.
    let ms1 = nfsperf_sim::SimDuration::from_millis(1);
    let (sa, sb) = (a.report.spikes(ms1) as f64, b.report.spikes(ms1) as f64);
    assert!(
        (sa - sb).abs() / sa < 0.5,
        "spike counts comparable: {sa} vs {sb}"
    );
    let (ta, tb) = (a.report.write_mbps(), b.report.write_mbps());
    assert!(
        (ta - tb).abs() / ta < 0.2,
        "throughput comparable: {ta:.1} vs {tb:.1}"
    );
}
