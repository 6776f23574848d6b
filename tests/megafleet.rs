//! Acceptance tests for the megafleet pipeline: the calibrated
//! flyweight model reproduces the faithful client's wire behavior, the
//! mixed fleet treats both tiers fairly, and the whole sweep is
//! deterministic down to the CSV bytes.

use nfsperf_experiments::{
    megafleet_sweep, run_fleet, run_megafleet, write_csv, FleetConfig, MegaConfig, ServerKind,
};
use nfsperf_fleet::{calibrate, BehaviorModel, CalibrationConfig, GAP_QUANTILES};
use nfsperf_sim::SimDuration;
use nfsperf_sunrpc::Transport;

/// Parses the golden-trace fixture checked in under `tests/golden/`.
fn golden_filer_model() -> BehaviorModel {
    let text = include_str!("golden/filer_calibration.txt");
    let mut fields = std::collections::HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (k, v) = line.split_once('=').expect("fixture line is key=value");
        fields.insert(k.to_owned(), v.to_owned());
    }
    let quantiles: Vec<u64> = fields["gap_quantiles"]
        .split(',')
        .map(|s| s.parse().expect("quantile"))
        .collect();
    assert_eq!(quantiles.len(), GAP_QUANTILES, "fixture quantile count");
    let mut gap_quantiles = [SimDuration::ZERO; GAP_QUANTILES];
    for (q, v) in gap_quantiles.iter_mut().zip(&quantiles) {
        *q = SimDuration(*v);
    }
    BehaviorModel {
        gap_quantiles,
        write_wire_bytes: fields["write_wire_bytes"].parse().unwrap(),
        commit_wire_bytes: fields["commit_wire_bytes"].parse().unwrap(),
        write_payload: fields["write_payload"].parse().unwrap(),
        writes_per_commit: fields["writes_per_commit"].parse().unwrap(),
        window: fields["window"].parse().unwrap(),
    }
}

#[test]
fn calibration_matches_the_golden_faithful_trace() {
    let cal = calibrate(&CalibrationConfig::new(
        ServerKind::Filer.server_config(),
        ServerKind::Filer.nic_spec(),
    ));
    assert_eq!(
        cal.model,
        golden_filer_model(),
        "calibrated model drifted from tests/golden/filer_calibration.txt — \
         the faithful write path changed; re-derive the fixture if intended"
    );
}

#[test]
fn flyweight_gap_distribution_matches_the_measured_trace() {
    // The same seed derivation the tier uses for its clients must draw
    // inter-arrival gaps inside the measured trace's range with a mean
    // within tolerance — the flyweight's arrival process *is* the
    // faithful client's.
    let cal = calibrate(&CalibrationConfig::new(
        ServerKind::Filer.server_config(),
        ServerKind::Filer.nic_spec(),
    ));
    let measured_min = cal.gaps.first().unwrap().0;
    let measured_max = cal.gaps.last().unwrap().0;
    let measured_mean = cal.gaps.iter().map(|g| g.0).sum::<u64>() as f64 / cal.gaps.len() as f64;

    let mut state = 0x1f5u64.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let n = 10_000;
    let mut sum = 0u64;
    for _ in 0..n {
        let g = cal.model.sample_gap(&mut state).0;
        assert!(
            g >= measured_min && g <= measured_max,
            "sampled gap {g} ns outside measured [{measured_min}, {measured_max}]"
        );
        sum += g;
    }
    let sampled_mean = sum as f64 / n as f64;
    let err = (sampled_mean - measured_mean).abs() / measured_mean;
    assert!(
        err < 0.10,
        "sampled mean gap {sampled_mean:.0} ns vs measured {measured_mean:.0} ns ({:.1}% off)",
        err * 100.0
    );

    // Size distribution: the replayed datagrams are the measured ones.
    assert!(cal.model.write_wire_bytes > 8192);
    assert!(cal.model.commit_wire_bytes < 8192);
}

#[test]
fn mixed_fleet_faithful_throughput_matches_the_pure_fleet() {
    // Acceptance: embed 4 faithful clients among 28 flyweights at the
    // same per-client load as the 32-client fleet sweep — the faithful
    // clients' mean throughput must stay within 5% of the pure fleet's.
    let bytes = 1u64 << 20;
    let pure = run_fleet(&FleetConfig::new(
        ServerKind::Filer,
        Transport::Udp,
        32,
        bytes,
    ));
    let pure_mean = pure.per_client_mbps.iter().sum::<f64>() / pure.per_client_mbps.len() as f64;

    let mixed = run_megafleet(&MegaConfig::new(ServerKind::Filer, 28, bytes));
    let mixed_mean = mixed.faithful_mbps.iter().sum::<f64>() / mixed.faithful_mbps.len() as f64;

    let err = (mixed_mean - pure_mean).abs() / pure_mean;
    assert!(
        err < 0.05,
        "mixed-fleet faithful mean {mixed_mean:.3} MB/s vs pure fleet {pure_mean:.3} MB/s \
         ({:.1}% apart)",
        err * 100.0
    );

    // And the flyweights compete as equals, not as background noise.
    let fly_mean = mixed.fly_mbps.iter().sum::<f64>() / mixed.fly_mbps.len() as f64;
    let tier_gap = (fly_mean - mixed_mean).abs() / mixed_mean;
    assert!(
        tier_gap < 0.10,
        "flyweight mean {fly_mean:.3} vs faithful mean {mixed_mean:.3} ({:.1}% apart)",
        tier_gap * 100.0
    );
}

#[test]
fn megafleet_csv_is_bit_identical_across_jobs_and_runs() {
    // jobs = 1 vs jobs = 4, plus a repeat: the parallel runner must
    // reproduce the serial CSV byte for byte, and the same input must
    // reproduce itself.
    let run = |jobs| {
        megafleet_sweep(
            &[16, 64],
            &[ServerKind::Filer, ServerKind::Knfsd],
            true,
            jobs,
        )
    };
    let first = run(1);
    let second = run(4);
    let third = run(4);
    assert_eq!(
        first.to_csv(),
        second.to_csv(),
        "same input must reproduce megafleet.csv byte for byte at any --jobs"
    );
    assert_eq!(second.to_csv(), third.to_csv(), "repeated runs must agree");

    let dir = std::env::temp_dir().join("nfsperf-megafleet-determinism");
    let pa = dir.join("a.csv");
    let pb = dir.join("b.csv");
    write_csv(&pa, &first.to_csv()).unwrap();
    write_csv(&pb, &second.to_csv()).unwrap();
    let (ba, bb) = (std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
    assert!(!ba.is_empty());
    assert_eq!(ba, bb, "written CSV files must be bit-identical");
}

#[test]
fn megafleet_reports_flyweight_memory_within_budget() {
    let run = run_megafleet(&MegaConfig::new(ServerKind::Filer, 10_000, 16 << 10));
    assert!(
        run.bytes_per_client <= 256,
        "flyweight tier costs {} resident bytes per client",
        run.bytes_per_client
    );
    assert_eq!(run.slim_stats.clients, 10_000);
    assert_eq!(run.slim_stats.write_bytes, 10_000 * (16 << 10));
    // Both tiers' bytes land in the shared server counters. The faithful
    // tier may exceed its payload: under 10k-client queueing its UDP
    // RPCs time out and retransmit, and the server counts the duplicate
    // WRITEs it serves.
    let faithful_bytes = run.server_stats.write_bytes - run.slim_stats.write_bytes;
    assert!(
        faithful_bytes >= 4 * (16 << 10),
        "faithful tier bytes {faithful_bytes} below its payload"
    );
    assert!(
        faithful_bytes <= 4 * (16 << 10) * 2,
        "faithful tier bytes {faithful_bytes} — too many duplicates to be retransmits"
    );
}
