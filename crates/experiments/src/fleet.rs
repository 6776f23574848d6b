//! Fleet scale-out: N independent clients against one server.
//!
//! The paper's experiments aim a single client at each server, so the
//! knee of every curve is set by one client's write path. This module
//! asks the follow-on question ("Scouting the Path to a Million-Client
//! Server"): as identical clients are added behind one shared uplink,
//! where does aggregate throughput saturate, which resource sets the
//! ceiling, and how fairly is it divided?
//!
//! Each client is a whole machine — own CPUs, RAM, RNG seed, NIC, and
//! mount — attached to the server through a [`Switch`] whose uplink runs
//! at the server NIC's rate, so the fleet contends exactly where the
//! paper's hardware would have. Fairness is summarized with Jain's
//! index: `(Σx)² / (n·Σx²)`, 1.0 when every client gets an equal share.

use nfsperf_client::{ClientTuning, MountConfig};
use nfsperf_fleet::{mount_client, write_all};
use nfsperf_net::{LinkDir, NicSpec, Path, Switch};
use nfsperf_server::{NfsServer, PerClientStats, SchedPolicy, ServerConfig, ServerStats};
use nfsperf_sim::{mbps, runner, Sim, SimDuration};
use nfsperf_sunrpc::Transport;

use crate::render::ascii_table;
use crate::scenario::ServerKind;

/// The scaling sweep's client counts (1 → 32, doubling).
pub const FLEET_CLIENT_COUNTS: &[usize] = &[1, 2, 4, 8, 16, 32];

/// One fleet measurement's parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Server under test.
    pub server: ServerKind,
    /// RPC transport every client mounts over.
    pub transport: Transport,
    /// Number of independent client machines.
    pub clients: usize,
    /// Sequential bytes each client writes (plus a final flush-to-close).
    pub bytes_per_client: u64,
    /// Client tuning (the patched client, by default — the fleet question
    /// assumes the paper's single-client fixes are in).
    pub tuning: ClientTuning,
    /// Each client machine's NIC. Defaults to fast Ethernet: a fleet of
    /// 100bT clients fanning into the server's faster uplink is the
    /// topology where client count is an interesting variable at all —
    /// give every client a NIC as fast as the server's and the first one
    /// saturates the sweep on its own.
    pub client_nic: NicSpec,
    /// Base RNG seed; each client machine derives its own from it.
    pub seed: u64,
    /// Server request scheduling policy (FIFO by default — the fleet
    /// baseline measures the paper's arrival-order servers).
    pub sched: SchedPolicy,
}

impl FleetConfig {
    /// A fleet of patched 100bT clients with the default seed.
    pub fn new(
        server: ServerKind,
        transport: Transport,
        clients: usize,
        bytes_per_client: u64,
    ) -> FleetConfig {
        FleetConfig {
            server,
            transport,
            clients,
            bytes_per_client,
            tuning: ClientTuning::full_patch(),
            client_nic: NicSpec::fast_ethernet(),
            seed: 0x1f5,
            sched: SchedPolicy::Fifo,
        }
    }
}

/// Everything measured in one fleet run.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Client count (echoed from the config).
    pub clients: usize,
    /// Each client's write-through-close throughput, MB/s, in client order.
    pub per_client_mbps: Vec<f64>,
    /// Total bytes over the time the slowest client took, MB/s.
    pub aggregate_mbps: f64,
    /// Jain fairness index of `per_client_mbps`.
    pub jain: f64,
    /// Wall time until the last client closed.
    pub elapsed: SimDuration,
    /// Aggregate server counters.
    pub server_stats: ServerStats,
    /// Per-client server counters, in client order.
    pub per_client_server: Vec<PerClientStats>,
    /// Mean payload throughput on the shared uplink toward the server,
    /// MB/s.
    pub uplink_mbps: f64,
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`; 1.0 = perfectly fair,
/// `1/n` = one client got everything.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// The worst (largest) value of a per-client latency field, in
/// milliseconds — tail reporting follows the slowest client, the one a
/// fleet operator would page on.
fn worst_ms(stats: &[PerClientStats], field: impl Fn(&PerClientStats) -> SimDuration) -> f64 {
    stats
        .iter()
        .map(|c| field(c).as_nanos() as f64 / 1e6)
        .fold(0.0, f64::max)
}

/// Runs one fleet measurement: every client writes `bytes_per_client`
/// sequentially and closes (full flush), all concurrently, through one
/// shared uplink into one server. Deterministic for a given config.
pub fn run_fleet(config: &FleetConfig) -> FleetRun {
    assert!(config.clients > 0, "a fleet needs at least one client");
    let sim = Sim::new();
    // The shared uplink runs at the server NIC's rate: the fleet fights
    // for the same wire the paper's single client had to itself.
    let switch = Switch::new(&sim, config.server.nic_spec(), Path::default_latency());
    let server = NfsServer::new(
        &sim,
        ServerConfig {
            sched: config.sched,
            ..config.server.server_config()
        },
    );

    let mounts: Vec<_> = (0..config.clients)
        .map(|i| {
            let attach = |cnic: &_, spec| switch.attach(cnic, spec);
            let mount = MountConfig {
                tuning: config.tuning,
                transport: config.transport,
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

    let bytes = config.bytes_per_client;
    let s2 = sim.clone();
    let (elapsed, per_elapsed) = sim.run_until(async move {
        let t0 = s2.now();
        let per = write_all(&s2, &mounts, bytes, |i| format!("fleet{i}.scratch")).await;
        (s2.now().since(t0), per)
    });

    let per_client_mbps: Vec<f64> = per_elapsed.iter().map(|e| mbps(bytes, *e)).collect();
    let run = FleetRun {
        clients: config.clients,
        jain: jain_index(&per_client_mbps),
        per_client_mbps,
        aggregate_mbps: mbps(bytes * config.clients as u64, elapsed),
        elapsed,
        server_stats: server.stats(),
        per_client_server: server.per_client_stats(),
        uplink_mbps: switch.uplink().throughput_mbps(LinkDir::ToServer),
    };
    sim.teardown();
    run
}

/// One row of the scaling sweep.
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// Server under test.
    pub server: ServerKind,
    /// Mount transport.
    pub transport: Transport,
    /// Client count.
    pub clients: usize,
    /// Aggregate throughput, MB/s.
    pub aggregate_mbps: f64,
    /// Mean per-client throughput, MB/s.
    pub per_client_mean_mbps: f64,
    /// Slowest client's throughput, MB/s.
    pub per_client_min_mbps: f64,
    /// Jain fairness index.
    pub jain: f64,
    /// Worst client's median server-side service latency, ms.
    pub svc_p50_ms: f64,
    /// Worst client's p99 server-side service latency, ms.
    pub svc_p99_ms: f64,
}

/// The full scaling sweep: client counts × servers × transports.
#[derive(Debug, Clone)]
pub struct FleetSweep {
    /// All cells, in (server, transport, clients) order.
    pub rows: Vec<FleetCell>,
    /// Bytes each client wrote.
    pub bytes_per_client: u64,
}

/// Builds the sweep's work-list: one [`runner::Cell`] per
/// `(server, transport, clients)` triple, in sweep order.
pub fn fleet_cells(
    counts: &[usize],
    servers: &[ServerKind],
    transports: &[Transport],
    bytes_per_client: u64,
) -> Vec<runner::Cell<FleetCell>> {
    let mut cells = Vec::new();
    for &server in servers {
        for &transport in transports {
            for &clients in counts {
                cells.push(runner::Cell::new(move || {
                    let run = run_fleet(&FleetConfig::new(
                        server,
                        transport,
                        clients,
                        bytes_per_client,
                    ));
                    let n = run.per_client_mbps.len() as f64;
                    FleetCell {
                        server,
                        transport,
                        clients,
                        aggregate_mbps: run.aggregate_mbps,
                        per_client_mean_mbps: run.per_client_mbps.iter().sum::<f64>() / n,
                        per_client_min_mbps: run
                            .per_client_mbps
                            .iter()
                            .copied()
                            .fold(f64::INFINITY, f64::min),
                        jain: run.jain,
                        svc_p50_ms: worst_ms(&run.per_client_server, |c| c.service.p50),
                        svc_p99_ms: worst_ms(&run.per_client_server, |c| c.service.p99),
                    }
                }));
            }
        }
    }
    cells
}

/// Runs the sweep on up to `jobs` worker threads. Cells are fully
/// independent worlds, deterministic for a given
/// `(counts, servers, transports, bytes_per_client)` input — the rows
/// (and the CSV) are bit-identical at any `jobs` value.
pub fn fleet_sweep(
    counts: &[usize],
    servers: &[ServerKind],
    transports: &[Transport],
    bytes_per_client: u64,
    jobs: usize,
) -> FleetSweep {
    FleetSweep {
        rows: runner::run_cells(
            jobs,
            fleet_cells(counts, servers, transports, bytes_per_client),
        ),
        bytes_per_client,
    }
}

impl FleetSweep {
    /// The `(clients, aggregate MB/s)` curve for one server × transport.
    pub fn series(&self, server: ServerKind, transport: Transport) -> Vec<(usize, f64)> {
        self.rows
            .iter()
            .filter(|r| r.server == server && r.transport == transport)
            .map(|r| (r.clients, r.aggregate_mbps))
            .collect()
    }

    /// The saturation knee of one curve: the largest client count that
    /// still bought ≥ 10% more aggregate throughput — past it, the
    /// ceiling (server or shared link), not client count, bounds the
    /// fleet. `None` if the curve never flattens within the sweep.
    pub fn knee(&self, server: ServerKind, transport: Transport) -> Option<usize> {
        let curve = self.series(server, transport);
        curve
            .windows(2)
            .find(|w| w[1].1 < w[0].1 * 1.10)
            .map(|w| w[0].0)
    }

    /// The sweep as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "server,transport,clients,aggregate_mbps,per_client_mean_mbps,per_client_min_mbps,jain,svc_p50_ms,svc_p99_ms\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{:.3},{:.4},{:.3},{:.3}\n",
                r.server.label(),
                r.transport.label(),
                r.clients,
                r.aggregate_mbps,
                r.per_client_mean_mbps,
                r.per_client_min_mbps,
                r.jain,
                r.svc_p50_ms,
                r.svc_p99_ms,
            ));
        }
        out
    }

    /// Renders an ASCII table plus the per-curve saturation knees.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.server.label().to_owned(),
                    r.transport.label().to_owned(),
                    r.clients.to_string(),
                    format!("{:.1}", r.aggregate_mbps),
                    format!("{:.1}", r.per_client_mean_mbps),
                    format!("{:.1}", r.per_client_min_mbps),
                    format!("{:.3}", r.jain),
                    format!("{:.2}", r.svc_p99_ms),
                ]
            })
            .collect();
        let mut out = ascii_table(
            &[
                "server",
                "transport",
                "clients",
                "aggregate MB/s",
                "mean/client",
                "min/client",
                "jain",
                "svc p99 ms",
            ],
            &rows,
        );
        let mut curves: Vec<(ServerKind, Transport)> = Vec::new();
        for r in &self.rows {
            if !curves.contains(&(r.server, r.transport)) {
                curves.push((r.server, r.transport));
            }
        }
        for (server, transport) in curves {
            match self.knee(server, transport) {
                Some(knee) => out.push_str(&format!(
                    "{} over {}: saturates at {} client(s)\n",
                    server.label(),
                    transport.label(),
                    knee
                )),
                None => out.push_str(&format!(
                    "{} over {}: still scaling at the sweep's edge\n",
                    server.label(),
                    transport.label()
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
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One client hogging everything: 1/n.
        assert!((jain_index(&[10.0, 0.0]) - 0.5).abs() < 1e-12);
        let skewed = jain_index(&[9.0, 1.0]);
        assert!(skewed > 0.5 && skewed < 1.0);
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let config = FleetConfig::new(ServerKind::Filer, Transport::Udp, 2, 1 << 20);
        let a = run_fleet(&config);
        let b = run_fleet(&config);
        assert_eq!(a.per_client_mbps, b.per_client_mbps);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.server_stats, b.server_stats);
        assert_eq!(a.per_client_server, b.per_client_server);
    }

    #[test]
    fn server_accounts_every_client() {
        let config = FleetConfig::new(ServerKind::Filer, Transport::Udp, 3, 1 << 20);
        let run = run_fleet(&config);
        assert_eq!(run.per_client_server.len(), 3);
        for (i, c) in run.per_client_server.iter().enumerate() {
            assert_eq!(c.write_bytes, 1 << 20, "client {i} bytes all arrived");
            assert!(c.ops > 0 && c.writes > 0);
        }
        let total: u64 = run.per_client_server.iter().map(|c| c.write_bytes).sum();
        assert_eq!(total, run.server_stats.write_bytes);
    }

    #[test]
    fn two_clients_beat_one_and_share_fairly() {
        let one = run_fleet(&FleetConfig::new(
            ServerKind::Filer,
            Transport::Udp,
            1,
            1 << 20,
        ));
        let two = run_fleet(&FleetConfig::new(
            ServerKind::Filer,
            Transport::Udp,
            2,
            1 << 20,
        ));
        assert!(
            two.aggregate_mbps > one.aggregate_mbps,
            "a second client must add aggregate throughput before the knee: {} vs {}",
            two.aggregate_mbps,
            one.aggregate_mbps
        );
        assert!(
            two.jain >= 0.9,
            "identical clients should share fairly, jain = {}",
            two.jain
        );
    }

    #[test]
    fn fleet_runs_over_tcp() {
        let run = run_fleet(&FleetConfig::new(
            ServerKind::Filer,
            Transport::Tcp,
            2,
            1 << 20,
        ));
        assert_eq!(run.per_client_server.len(), 2);
        for c in &run.per_client_server {
            assert_eq!(c.write_bytes, 1 << 20);
        }
        assert!(run.aggregate_mbps > 0.0);
    }

    #[test]
    fn sweep_rows_and_knee_reporting() {
        let sweep = fleet_sweep(&[1, 2], &[ServerKind::Filer], &[Transport::Udp], 1 << 20, 1);
        assert_eq!(sweep.rows.len(), 2);
        let csv = sweep.to_csv();
        assert!(csv.starts_with("server,transport,clients,aggregate_mbps"));
        assert_eq!(csv.lines().count(), 3);
        let rendered = sweep.render();
        assert!(rendered.contains("netapp-filer"));
        // Synthetic knee check on a hand-built sweep.
        let flat = FleetSweep {
            rows: vec![
                FleetCell {
                    server: ServerKind::Filer,
                    transport: Transport::Udp,
                    clients: 1,
                    aggregate_mbps: 30.0,
                    per_client_mean_mbps: 30.0,
                    per_client_min_mbps: 30.0,
                    jain: 1.0,
                    svc_p50_ms: 0.2,
                    svc_p99_ms: 0.5,
                },
                FleetCell {
                    server: ServerKind::Filer,
                    transport: Transport::Udp,
                    clients: 2,
                    aggregate_mbps: 55.0,
                    per_client_mean_mbps: 27.5,
                    per_client_min_mbps: 27.0,
                    jain: 1.0,
                    svc_p50_ms: 0.3,
                    svc_p99_ms: 0.8,
                },
                FleetCell {
                    server: ServerKind::Filer,
                    transport: Transport::Udp,
                    clients: 4,
                    aggregate_mbps: 56.0,
                    per_client_mean_mbps: 14.0,
                    per_client_min_mbps: 13.5,
                    jain: 1.0,
                    svc_p50_ms: 0.6,
                    svc_p99_ms: 1.4,
                },
            ],
            bytes_per_client: 1 << 20,
        };
        assert_eq!(flat.knee(ServerKind::Filer, Transport::Udp), Some(2));
    }
}
