//! Acceptance tests for the fleet scaling sweep: aggregate throughput
//! grows until the shared ceiling saturates, the plateau divides fairly,
//! and the whole pipeline is deterministic down to the CSV bytes.

use nfsperf_experiments::{fleet_sweep, run_fleet, write_csv, FleetConfig, ServerKind};
use nfsperf_sunrpc::Transport;

const MB: u64 = 1 << 20;

#[test]
fn filer_aggregate_grows_to_knee_then_ceiling_bounds() {
    // 1 MB per client keeps every run shorter than the filer's first
    // checkpoint, so the curve shows the pure fan-in shape.
    let counts = [1usize, 2, 4, 8, 16];
    let sweep = fleet_sweep(&counts, &[ServerKind::Filer], &[Transport::Udp], MB, 1);
    let curve = sweep.series(ServerKind::Filer, Transport::Udp);
    let knee = sweep
        .knee(ServerKind::Filer, Transport::Udp)
        .expect("fast-ethernet clients must saturate the filer within the sweep");
    assert!(
        knee > 1,
        "one 100bT client cannot saturate the filer; knee = {knee}"
    );

    // Up to the knee, each doubling of the fleet buys real aggregate
    // throughput (100bT clients: close to linear).
    for pair in curve.windows(2) {
        let ((_, prev), (clients, agg)) = (pair[0], pair[1]);
        if clients <= knee {
            assert!(
                agg > prev * 1.5,
                "{clients} clients should out-write half the fleet: {agg:.1} vs {prev:.1} MB/s"
            );
        }
    }

    // Past the knee the server ceiling, not client count, bounds the
    // fleet: aggregate neither keeps scaling with N nor collapses.
    let at_knee = curve.iter().find(|(n, _)| *n == knee).unwrap().1;
    for (clients, agg) in curve.iter().filter(|(n, _)| *n > knee) {
        assert!(
            *agg < at_knee * 1.3,
            "{clients} clients should not scale past the ceiling: {agg:.1} vs {at_knee:.1} MB/s"
        );
        assert!(
            *agg > at_knee * 0.6,
            "{clients} clients should hold the ceiling, not collapse: {agg:.1} vs {at_knee:.1} MB/s"
        );
    }

    // The plateau divides fairly among identical clients.
    for cell in sweep.rows.iter().filter(|r| r.clients >= knee) {
        assert!(
            cell.jain >= 0.9,
            "{} clients at the plateau should share fairly, jain = {:.3}",
            cell.clients,
            cell.jain
        );
    }
}

#[test]
fn knfsd_fleet_holds_its_ceiling() {
    // The knfsd saturates early (bus-limited NIC + COMMIT disk flushes);
    // the regression this guards: concurrent COMMITs re-flushing the
    // shared dirty pool made aggregate throughput *fall* as clients were
    // added.
    let sweep = fleet_sweep(
        &[1, 2, 4, 8],
        &[ServerKind::Knfsd],
        &[Transport::Udp],
        MB,
        1,
    );
    let curve = sweep.series(ServerKind::Knfsd, Transport::Udp);
    let peak = curve.iter().map(|(_, a)| *a).fold(0.0, f64::max);
    for (clients, agg) in &curve {
        assert!(
            *agg > peak * 0.55,
            "{clients} clients must not drag aggregate below the ceiling: {agg:.1} vs peak {peak:.1} MB/s"
        );
    }
    assert!(
        curve.last().unwrap().1 > curve[0].1,
        "a second client should still add throughput over one 100bT client"
    );
    for cell in &sweep.rows {
        assert!(cell.jain >= 0.9, "jain = {:.3}", cell.jain);
    }
}

#[test]
fn fleet_runs_deterministically_across_transports() {
    for transport in [Transport::Udp, Transport::Tcp] {
        let config = FleetConfig::new(ServerKind::Filer, transport, 3, MB);
        let a = run_fleet(&config);
        let b = run_fleet(&config);
        assert_eq!(a.per_client_mbps, b.per_client_mbps);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.server_stats, b.server_stats);
        assert_eq!(a.per_client_server, b.per_client_server);
    }
}

#[test]
fn a_short_last_write_reaches_the_server_over_udp_and_tcp() {
    // 100,000 bytes is twelve 8 KiB writes and a 1,696-byte tail: the
    // one length here that is not a multiple of the writer's call size.
    const BYTES: u64 = 100_000;
    for transport in [Transport::Udp, Transport::Tcp] {
        let run = run_fleet(&FleetConfig::new(ServerKind::Filer, transport, 2, BYTES));
        assert_eq!(run.per_client_server.len(), 2);
        for (i, c) in run.per_client_server.iter().enumerate() {
            assert_eq!(c.write_bytes, BYTES, "{transport:?} client {i}");
        }
    }
}

#[test]
fn fleet_csv_is_bit_identical_for_the_same_seed() {
    // jobs = 1 vs jobs = 4: the parallel runner must reproduce the
    // serial CSV byte for byte, not just the same seed twice.
    let run = |jobs| {
        fleet_sweep(
            &[1, 2],
            &[ServerKind::Filer, ServerKind::Knfsd],
            &[Transport::Udp, Transport::Tcp],
            MB,
            jobs,
        )
    };
    let first = run(1);
    let second = run(4);
    assert_eq!(
        first.to_csv(),
        second.to_csv(),
        "same seed must reproduce fleet.csv byte for byte at any --jobs"
    );

    let dir = std::env::temp_dir().join("nfsperf-fleet-determinism");
    let pa = dir.join("a.csv");
    let pb = dir.join("b.csv");
    write_csv(&pa, &first.to_csv()).unwrap();
    write_csv(&pb, &second.to_csv()).unwrap();
    let (ba, bb) = (std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
    assert!(!ba.is_empty());
    assert_eq!(ba, bb, "written CSV files must be bit-identical");
}
