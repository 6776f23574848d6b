//! Megafleet: 10k–1M flyweight clients plus an embedded faithful core.
//!
//! The fleet sweep ([`crate::fleet`]) answers "where does one server
//! saturate" for tens of full-fidelity clients. This module asks the
//! million-client version of the same question using the flyweight tier
//! (`nfsperf-fleet`): each cell calibrates a behavioral model from one
//! faithful probe against the target server, embeds a handful of real
//! clients among the flyweights for fidelity, and drives everything
//! through a two-tier switch fabric ([`nfsperf_net::Fabric`]) into one
//! server. Reported per cell: aggregate MB/s, per-tier Jain fairness,
//! the flyweights' client-observed WRITE p99, the faithful tier's
//! server-side service p99, deterministic event counts, and the
//! flyweight tier's resident bytes per client.

use std::rc::Rc;

use nfsperf_client::{ClientTuning, MountConfig};
use nfsperf_fleet::{
    calibrate, mount_client, write_all, CalibrationConfig, FlyTier, FlyTierConfig,
};
use nfsperf_net::{Fabric, FabricConfig, NicSpec};
use nfsperf_server::SlimTierStats;
use nfsperf_server::{NfsServer, PerClientStats, ServerStats};
use nfsperf_sim::{mbps, runner, Sim, SimDuration};
use nfsperf_sunrpc::Transport;

use crate::fleet::jain_index;
use crate::render::ascii_table;
use crate::scenario::ServerKind;

/// The full sweep's flyweight counts: 1k → 1M, a decade per step.
pub const MEGAFLEET_COUNTS: &[u32] = &[1_000, 10_000, 100_000, 1_000_000];

/// The quick sweep's counts (still covers the required 100k cell).
pub const MEGAFLEET_QUICK_COUNTS: &[u32] = &[1_000, 10_000, 100_000];

/// Faithful clients embedded in every mixed fleet.
pub const MEGAFLEET_FAITHFUL: usize = 4;

/// Bytes each client (both tiers) writes at a given fleet size. Scaled
/// down as the fleet grows so cell cost stays bounded while the offered
/// load still exceeds every server's capacity.
pub fn bytes_for_count(clients: u32, quick: bool) -> u64 {
    if quick {
        match clients {
            0..=1_000 => 128 << 10,
            1_001..=10_000 => 32 << 10,
            _ => 16 << 10,
        }
    } else {
        match clients {
            0..=1_000 => 512 << 10,
            1_001..=10_000 => 128 << 10,
            10_001..=100_000 => 32 << 10,
            _ => 8 << 10,
        }
    }
}

/// One megafleet measurement's parameters.
#[derive(Debug, Clone)]
pub struct MegaConfig {
    /// Server under test.
    pub server: ServerKind,
    /// Flyweight clients.
    pub flyweights: u32,
    /// Faithful clients embedded among them (attached first).
    pub faithful: usize,
    /// Sequential bytes every client — faithful and flyweight — writes.
    pub bytes_per_client: u64,
    /// Each client machine's NIC (both tiers).
    pub client_nic: NicSpec,
    /// Base RNG seed.
    pub seed: u64,
}

impl MegaConfig {
    /// A mixed fleet with the standard four faithful clients and the
    /// fleet sweep's client NIC and seed.
    pub fn new(server: ServerKind, flyweights: u32, bytes_per_client: u64) -> MegaConfig {
        MegaConfig {
            server,
            flyweights,
            faithful: MEGAFLEET_FAITHFUL,
            bytes_per_client,
            client_nic: NicSpec::fast_ethernet(),
            seed: 0x1f5,
        }
    }
}

/// Everything measured in one megafleet run.
#[derive(Debug, Clone)]
pub struct MegaRun {
    /// Flyweight count (echoed).
    pub flyweights: u32,
    /// Faithful count (echoed).
    pub faithful: usize,
    /// Total payload over the span from start to the last completion in
    /// either tier, MB/s.
    pub aggregate_mbps: f64,
    /// Each faithful client's throughput, MB/s.
    pub faithful_mbps: Vec<f64>,
    /// Each flyweight's throughput, MB/s.
    pub fly_mbps: Vec<f64>,
    /// Flyweights' client-observed WRITE RPC p99, ms.
    pub fly_rpc_p99_ms: f64,
    /// Worst faithful client's server-side service p99, ms.
    pub faithful_svc_p99_ms: f64,
    /// Deterministic retired-event count of the cell's simulation.
    pub events: u64,
    /// Flyweight tier resident bytes per client: the client slab and
    /// shared state only (`FlyTier::bytes_per_client`), not the state
    /// of each client's in-flight RPC.
    pub bytes_per_client: usize,
    /// Wall time until both tiers finished.
    pub elapsed: SimDuration,
    /// Aggregate server counters.
    pub server_stats: ServerStats,
    /// Flyweight-tier shared server counters.
    pub slim_stats: SlimTierStats,
    /// Per-faithful-client server counters.
    pub faithful_server: Vec<PerClientStats>,
}

/// Runs one megafleet cell: calibrate a behavioral model against the
/// target server, build the fabric world with `faithful` real clients
/// attached first, launch the flyweight tier, and drive both tiers to
/// completion. Deterministic for a given config.
pub fn run_megafleet(config: &MegaConfig) -> MegaRun {
    assert!(config.flyweights > 0, "a megafleet needs flyweights");
    let server_config = config.server.server_config();
    let server_nic = config.server.nic_spec();

    // Calibration probe: its own world, one faithful client solo against
    // an identical server. The probe is fleet machine 0 — same seed
    // spread — so the model replays exactly the client the mixed fleet
    // embeds.
    let calibration = calibrate(&CalibrationConfig {
        client_nic: config.client_nic,
        seed: config.seed,
        ..CalibrationConfig::new(server_config.clone(), server_nic)
    });

    let sim = Sim::new();
    let fabric = Rc::new(Fabric::new(&sim, FabricConfig::new(server_nic)));
    let server = NfsServer::new(&sim, server_config);

    // Faithful clients attach first: fabric ids and server client ids
    // 0..faithful, so the flyweight ranges start right after them.
    let mounts: Vec<_> = (0..config.faithful)
        .map(|i| {
            let attach = |cnic: &_, spec| {
                let (_id, to_server, port_rx) = fabric.attach(cnic, spec);
                (to_server, port_rx)
            };
            let mount = MountConfig {
                tuning: ClientTuning::full_patch(),
                transport: Transport::Udp,
                ..MountConfig::default()
            };
            mount_client(
                &sim,
                &server,
                config.seed,
                i,
                config.client_nic,
                attach,
                mount,
            )
            .1
        })
        .collect();

    let writes_per_fly = (config.bytes_per_client / calibration.model.write_payload).max(1) as u32;
    let tier = FlyTier::launch(
        &sim,
        &server,
        &fabric,
        calibration.model.clone(),
        FlyTierConfig {
            client_nic: config.client_nic,
            seed: config.seed ^ 0x666c_7977_6569_6768, // distinct flyweight stream
            ..FlyTierConfig::new(config.flyweights, writes_per_fly, config.client_nic)
        },
    );

    let bytes = config.bytes_per_client;
    let s2 = sim.clone();
    let t2 = Rc::clone(&tier);
    let (elapsed, per_faithful) = sim.run_until(async move {
        let t0 = s2.now();
        let per = write_all(&s2, &mounts, bytes, |i| format!("mega{i}.scratch")).await;
        t2.wait_done().await;
        (s2.now().since(t0), per)
    });

    let faithful_mbps: Vec<f64> = per_faithful.iter().map(|e| mbps(bytes, *e)).collect();
    let fly_mbps = tier.per_client_mbps();
    let faithful_server = server.per_client_stats();
    let faithful_svc_p99_ms = faithful_server
        .iter()
        .map(|c| c.service.p99.as_nanos() as f64 / 1e6)
        .fold(0.0, f64::max);
    let total_bytes = server.stats().write_bytes;
    MegaRun {
        flyweights: config.flyweights,
        faithful: config.faithful,
        aggregate_mbps: mbps(total_bytes, elapsed),
        faithful_mbps,
        fly_rpc_p99_ms: tier.rpc_latency().p99.as_nanos() as f64 / 1e6,
        faithful_svc_p99_ms,
        fly_mbps,
        events: sim.events(),
        bytes_per_client: tier.bytes_per_client(),
        elapsed,
        server_stats: server.stats(),
        slim_stats: server.slim_stats(),
        faithful_server,
    }
}

/// One row of the megafleet scaling sweep.
#[derive(Debug, Clone)]
pub struct MegaCell {
    /// Server under test.
    pub server: ServerKind,
    /// Flyweight count.
    pub flyweights: u32,
    /// Faithful count.
    pub faithful: usize,
    /// Aggregate throughput, MB/s.
    pub aggregate_mbps: f64,
    /// Mean flyweight throughput, MB/s.
    pub fly_mean_mbps: f64,
    /// Jain fairness across the flyweight tier.
    pub fly_jain: f64,
    /// Mean faithful throughput, MB/s.
    pub faithful_mean_mbps: f64,
    /// Jain fairness across the faithful tier.
    pub faithful_jain: f64,
    /// Flyweights' client-observed WRITE RPC p99, ms.
    pub fly_rpc_p99_ms: f64,
    /// Worst faithful client's service p99, ms.
    pub faithful_svc_p99_ms: f64,
    /// Deterministic event count of the cell.
    pub events: u64,
    /// Flyweight resident bytes per client, slab and shared state only
    /// (see [`MegaRun::bytes_per_client`]).
    pub bytes_per_client: usize,
}

/// The megafleet scaling sweep: flyweight counts × servers.
#[derive(Debug, Clone)]
pub struct MegaSweep {
    /// All cells, in (server, flyweights) order.
    pub rows: Vec<MegaCell>,
    /// Whether the quick byte scaling was used.
    pub quick: bool,
}

/// Builds the sweep's work-list: one cell per (server, count) pair.
pub fn megafleet_cells(
    counts: &[u32],
    servers: &[ServerKind],
    quick: bool,
) -> Vec<runner::Cell<MegaCell>> {
    let mut cells = Vec::new();
    for &server in servers {
        for &flyweights in counts {
            cells.push(runner::Cell::new(move || {
                let bytes = bytes_for_count(flyweights, quick);
                let run = run_megafleet(&MegaConfig::new(server, flyweights, bytes));
                MegaCell {
                    server,
                    flyweights,
                    faithful: run.faithful,
                    aggregate_mbps: run.aggregate_mbps,
                    fly_mean_mbps: run.fly_mbps.iter().sum::<f64>()
                        / run.fly_mbps.len().max(1) as f64,
                    fly_jain: jain_index(&run.fly_mbps),
                    faithful_mean_mbps: run.faithful_mbps.iter().sum::<f64>()
                        / run.faithful_mbps.len().max(1) as f64,
                    faithful_jain: jain_index(&run.faithful_mbps),
                    fly_rpc_p99_ms: run.fly_rpc_p99_ms,
                    faithful_svc_p99_ms: run.faithful_svc_p99_ms,
                    events: run.events,
                    bytes_per_client: run.bytes_per_client,
                }
            }));
        }
    }
    cells
}

/// Runs the sweep on up to `jobs` workers; rows (and the CSV) are
/// bit-identical at any `jobs` value.
pub fn megafleet_sweep(
    counts: &[u32],
    servers: &[ServerKind],
    quick: bool,
    jobs: usize,
) -> MegaSweep {
    MegaSweep {
        rows: runner::run_cells(jobs, megafleet_cells(counts, servers, quick)),
        quick,
    }
}

impl MegaSweep {
    /// The `(flyweights, aggregate MB/s)` curve for one server.
    pub fn series(&self, server: ServerKind) -> Vec<(u32, f64)> {
        self.rows
            .iter()
            .filter(|r| r.server == server)
            .map(|r| (r.flyweights, r.aggregate_mbps))
            .collect()
    }

    /// The saturation knee of one server's curve: the largest fleet size
    /// that still bought ≥ 10% more aggregate throughput.
    pub fn knee(&self, server: ServerKind) -> Option<u32> {
        let curve = self.series(server);
        curve
            .windows(2)
            .find(|w| w[1].1 < w[0].1 * 1.10)
            .map(|w| w[0].0)
    }

    /// The sweep as CSV. `at_knee` marks each curve's knee row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "server,flyweights,faithful,aggregate_mbps,fly_mean_mbps,fly_jain,faithful_mean_mbps,faithful_jain,fly_rpc_p99_ms,faithful_svc_p99_ms,events,bytes_per_client,at_knee\n",
        );
        for r in &self.rows {
            let at_knee = self.knee(r.server) == Some(r.flyweights);
            out.push_str(&format!(
                "{},{},{},{:.3},{:.6},{:.4},{:.3},{:.4},{:.3},{:.3},{},{},{}\n",
                r.server.label(),
                r.flyweights,
                r.faithful,
                r.aggregate_mbps,
                r.fly_mean_mbps,
                r.fly_jain,
                r.faithful_mean_mbps,
                r.faithful_jain,
                r.fly_rpc_p99_ms,
                r.faithful_svc_p99_ms,
                r.events,
                r.bytes_per_client,
                if at_knee { "yes" } else { "" },
            ));
        }
        out
    }

    /// Renders an ASCII table plus per-server knees.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.server.label().to_owned(),
                    r.flyweights.to_string(),
                    format!("{:.1}", r.aggregate_mbps),
                    format!("{:.6}", r.fly_mean_mbps),
                    format!("{:.3}", r.fly_jain),
                    format!("{:.2}", r.faithful_mean_mbps),
                    format!("{:.3}", r.faithful_jain),
                    format!("{:.2}", r.fly_rpc_p99_ms),
                    format!("{:.2}", r.faithful_svc_p99_ms),
                    r.bytes_per_client.to_string(),
                ]
            })
            .collect();
        let mut out = ascii_table(
            &[
                "server",
                "flyweights",
                "aggregate MB/s",
                "fly mean",
                "fly jain",
                "faithful mean",
                "faithful jain",
                "fly p99 ms",
                "svc p99 ms",
                "B/client",
            ],
            &rows,
        );
        let mut servers: Vec<ServerKind> = Vec::new();
        for r in &self.rows {
            if !servers.contains(&r.server) {
                servers.push(r.server);
            }
        }
        for server in servers {
            match self.knee(server) {
                Some(knee) => out.push_str(&format!(
                    "{}: saturates at {} flyweight(s)\n",
                    server.label(),
                    knee
                )),
                None => out.push_str(&format!(
                    "{}: still scaling at the sweep's edge\n",
                    server.label()
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_megafleet_completes_and_accounts_both_tiers() {
        let run = run_megafleet(&MegaConfig::new(ServerKind::Filer, 64, 64 << 10));
        assert_eq!(run.faithful_mbps.len(), MEGAFLEET_FAITHFUL);
        assert_eq!(run.fly_mbps.len(), 64);
        assert!(run.aggregate_mbps > 0.0);
        assert!(run.fly_mbps.iter().all(|m| *m > 0.0));
        assert_eq!(run.slim_stats.clients, 64);
        assert_eq!(run.slim_stats.write_bytes, 64 * (64 << 10));
        // Every byte either tier wrote reached the server's counters.
        assert_eq!(
            run.server_stats.write_bytes,
            64 * (64 << 10) + MEGAFLEET_FAITHFUL as u64 * (64 << 10)
        );
        assert_eq!(run.faithful_server.len(), MEGAFLEET_FAITHFUL);
        // The ≤ 256 B/client bound amortizes shared state over the tier;
        // it is asserted at 10k clients in nfsperf-fleet's tests. Here
        // just check the accounting hook reports something sane.
        assert!(run.bytes_per_client > 0 && run.bytes_per_client < 4096);
        assert!(run.events > 0);
    }

    #[test]
    fn megafleet_run_is_deterministic() {
        let config = MegaConfig::new(ServerKind::Filer, 32, 32 << 10);
        let a = run_megafleet(&config);
        let b = run_megafleet(&config);
        assert_eq!(a.faithful_mbps, b.faithful_mbps);
        assert_eq!(a.fly_mbps, b.fly_mbps);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.server_stats, b.server_stats);
    }

    /// The sweep CSV is byte-identical no matter how many worker
    /// threads ran the cells.
    #[test]
    fn sweep_csv_is_identical_across_jobs() {
        let serial = megafleet_sweep(&[16, 48], &[ServerKind::Filer], true, 1);
        let parallel = megafleet_sweep(&[16, 48], &[ServerKind::Filer], true, 4);
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }

    #[test]
    fn sweep_csv_has_knee_and_memory_columns() {
        let sweep = megafleet_sweep(&[16, 64], &[ServerKind::Filer], true, 1);
        assert_eq!(sweep.rows.len(), 2);
        let csv = sweep.to_csv();
        assert!(csv.starts_with("server,flyweights,faithful,aggregate_mbps"));
        assert!(csv.contains("at_knee"));
        assert!(csv.contains("bytes_per_client"));
        assert_eq!(csv.lines().count(), 3);
        let rendered = sweep.render();
        assert!(rendered.contains("netapp-filer"));
    }
}
