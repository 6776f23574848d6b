//! QoS regression: one hog must not starve the well-behaved clients.
//!
//! The unfair workload — a gigabit hog with a 64-deep slot table and
//! periodic COMMIT backlog against seven patched 100bT victims — is the
//! world `results/qos.csv` publishes. These tests pin both halves of
//! that exhibit: under FIFO the hog collapses victim throughput and
//! blows up their server-side tail; under classed DRR the victims get a
//! fair share back and their p99 stays within 2x of the hog-free
//! baseline.

use nfsperf_experiments::{qos_sweep, run_qos, QosConfig, ServerKind};
use nfsperf_server::SchedPolicy;

/// The published cell: netapp-filer, 7 victims, 2 MB each.
fn sweep_cells() -> (
    nfsperf_experiments::QosCell,
    nfsperf_experiments::QosCell,
    nfsperf_experiments::QosCell,
) {
    let scheds = [
        SchedPolicy::Fifo,
        SchedPolicy::drr(),
        SchedPolicy::classed_drr(),
    ];
    let sweep = qos_sweep(&[ServerKind::Filer], &scheds, 7, 2 << 20, 1);
    let mut rows = sweep.rows.into_iter();
    let fifo = rows.next().expect("fifo row");
    let drr = rows.next().expect("drr row");
    let classed = rows.next().expect("classed-drr row");
    (fifo, drr, classed)
}

#[test]
fn fifo_lets_the_hog_starve_victims() {
    let (fifo, _, classed) = sweep_cells();
    assert!(
        fifo.jain_all < 0.6,
        "FIFO should let the hog take an outsized share: jain = {:.3}",
        fifo.jain_all
    );
    assert!(
        fifo.hog_mbps > 2.0 * fifo.victim_mean_mbps,
        "the hog should outrun every victim under FIFO: hog {:.2} vs victim {:.2} MB/s",
        fifo.hog_mbps,
        fifo.victim_mean_mbps
    );
    assert!(
        fifo.p99_ratio > 2.0,
        "FIFO should inflate the victim tail well past the hog-free baseline: {:.2}x",
        fifo.p99_ratio
    );
    assert!(
        fifo.victim_mean_mbps < 0.75 * classed.victim_mean_mbps,
        "FIFO victims ({:.2} MB/s) should be visibly starved relative to \
         classed DRR ({:.2} MB/s)",
        fifo.victim_mean_mbps,
        classed.victim_mean_mbps
    );
}

#[test]
fn classed_drr_restores_fairness_and_tail() {
    let (_, drr, classed) = sweep_cells();
    for (cell, label) in [(&drr, "drr"), (&classed, "classed-drr")] {
        assert!(
            cell.victim_jain >= 0.95,
            "{label}: victims should share equally, jain = {:.4}",
            cell.victim_jain
        );
        assert!(
            cell.jain_all >= 0.95,
            "{label}: even counting the hog the split should be fair, jain = {:.4}",
            cell.jain_all
        );
        assert!(
            cell.p99_ratio <= 2.0,
            "{label}: victim p99 should stay within 2x of the hog-free \
             baseline, got {:.2}x",
            cell.p99_ratio
        );
    }
}

#[test]
fn hog_bytes_are_accounted_at_the_server() {
    // knfsd, not the filer: the filer's NVRAM answers every WRITE
    // FILE_SYNC, so only the Linux server ever sees the hog's COMMIT
    // backlog. Short victim runs: tighten the fsync cadence so the
    // COMMIT traffic shows up before the victims finish.
    let mut config = QosConfig::new(ServerKind::Knfsd, SchedPolicy::classed_drr(), 3, 1 << 20);
    config.hog_fsync_every = 256 << 10;
    let run = run_qos(&config);
    // Victims in order, hog last.
    assert_eq!(run.per_client_server.len(), 4);
    for (i, c) in run.per_client_server[..3].iter().enumerate() {
        assert_eq!(c.write_bytes, 1 << 20, "victim {i} bytes all arrived");
    }
    let hog = &run.per_client_server[3];
    assert!(
        hog.write_bytes > 0,
        "the hog's stream must reach the server"
    );
    assert!(
        hog.commits > 0,
        "the hog's periodic fsync must send COMMITs"
    );
    // The baseline world has no hog at all.
    let base = run_qos(&config.baseline());
    assert_eq!(base.per_client_server.len(), 3);
    assert_eq!(base.hog_mbps, 0.0);
}

#[test]
fn qos_sweep_is_bit_deterministic() {
    // Serial vs parallel: the CSV must not depend on --jobs.
    let scheds = [SchedPolicy::Fifo, SchedPolicy::classed_drr()];
    let a = qos_sweep(&[ServerKind::Filer], &scheds, 4, 1 << 20, 1);
    let b = qos_sweep(&[ServerKind::Filer], &scheds, 4, 1 << 20, 4);
    assert_eq!(a.to_csv(), b.to_csv(), "qos CSV must be bit-identical");
}
