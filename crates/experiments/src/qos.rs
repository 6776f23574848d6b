//! QoS / unfair-workload sweep: one hog against N−1 well-behaved clients.
//!
//! The fleet sweep ([`crate::fleet`]) shows the fair case — identical
//! clients splitting one server evenly. This module asks what happens
//! when one client is built to take more than its share: a deep RPC slot
//! table (64 slots vs the victims' 16), large writes (32 KB vs 8 KB), a
//! gigabit NIC against the victims' 100bT, and a periodic `fsync` that
//! dumps a COMMIT backlog on the server. Under FIFO scheduling the hog's
//! queued requests stand in front of everyone else's at every service
//! slot, so victim throughput collapses and their tail latency inflates
//! by the full depth of the hog's backlog. Deficit round robin
//! ([`nfsperf_server::SchedPolicy::Drr`]) restores byte-fair service, and
//! [`nfsperf_server::SchedPolicy::ClassedDrr`] additionally keeps the
//! hog's COMMITs from occupying every service slot.
//!
//! Fairness is reported as Jain's index over *all* clients (hog
//! included); tails as the worst victim's server-side p99, compared
//! against a hog-free baseline run under the same policy.

use nfsperf_client::{ClientTuning, MountConfig};
use nfsperf_fleet::{mount_client, write_all};
use nfsperf_kernel::SimFile;
use nfsperf_net::{NicSpec, Path, Switch};
use nfsperf_server::{NfsServer, PerClientStats, SchedPolicy, ServerConfig, ServerStats};
use nfsperf_sim::{mbps, runner, Sim, SimDuration};
use nfsperf_sunrpc::Transport;

use crate::fleet::jain_index;
use crate::render::ascii_table;
use crate::scenario::ServerKind;

/// One unfair-workload measurement's parameters.
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Server under test.
    pub server: ServerKind,
    /// Server request scheduling policy.
    pub sched: SchedPolicy,
    /// Number of well-behaved clients.
    pub victims: usize,
    /// Sequential bytes each victim writes (plus a flush-to-close).
    pub bytes_per_victim: u64,
    /// Whether the hog runs at all (`false` = the baseline world).
    pub hog: bool,
    /// The hog's RPC slot-table depth.
    pub hog_slots: usize,
    /// The hog's write transfer size.
    pub hog_wsize: u32,
    /// The hog calls `fsync` after every this many written bytes,
    /// dumping a COMMIT for its whole unstable backlog on the server.
    pub hog_fsync_every: u64,
    /// Base RNG seed; each client machine derives its own from it.
    pub seed: u64,
}

impl QosConfig {
    /// The standard unfair workload: `victims` patched 100bT clients
    /// against one gigabit hog with a deep slot table.
    pub fn new(server: ServerKind, sched: SchedPolicy, victims: usize, bytes: u64) -> QosConfig {
        QosConfig {
            server,
            sched,
            victims,
            bytes_per_victim: bytes,
            hog: true,
            hog_slots: 64,
            hog_wsize: 32 * 1024,
            hog_fsync_every: 4 << 20,
            seed: 0x0905,
        }
    }

    /// The hog-free baseline for the same world.
    pub fn baseline(&self) -> QosConfig {
        QosConfig {
            hog: false,
            ..self.clone()
        }
    }
}

/// Everything measured in one unfair-workload run.
#[derive(Debug, Clone)]
pub struct QosRun {
    /// Each victim's write-through-close throughput, MB/s, victim order.
    pub victim_mbps: Vec<f64>,
    /// The hog's server-side absorbed write rate over the victims'
    /// runtime, MB/s (0 without a hog).
    pub hog_mbps: f64,
    /// Jain fairness over every client, hog included.
    pub jain_all: f64,
    /// Jain fairness over the victims only.
    pub victim_jain: f64,
    /// Worst victim's server-side p99 queue delay.
    pub victim_queue_p99: SimDuration,
    /// Worst victim's server-side p99 service latency (arrival to
    /// completion).
    pub victim_svc_p99: SimDuration,
    /// Wall time until the last victim closed.
    pub elapsed: SimDuration,
    /// Aggregate server counters.
    pub server_stats: ServerStats,
    /// Per-client server counters: victims in order, then the hog last
    /// (when present).
    pub per_client_server: Vec<PerClientStats>,
}

/// Runs one unfair-workload measurement. Victims write sequentially and
/// close; the hog streams large writes with periodic fsyncs until the
/// last victim finishes. Deterministic for a given config.
pub fn run_qos(config: &QosConfig) -> QosRun {
    assert!(config.victims > 0, "the sweep needs victims to starve");
    let sim = Sim::new();
    let switch = Switch::new(&sim, config.server.nic_spec(), Path::default_latency());
    let server = NfsServer::new(
        &sim,
        ServerConfig {
            sched: config.sched,
            ..config.server.server_config()
        },
    );

    let machine = |i: usize, nic: NicSpec, mount: MountConfig| {
        let attach = |cnic: &_, spec| switch.attach(cnic, spec);
        mount_client(&sim, &server, config.seed, i, nic, attach, mount).1
    };

    // Victims first (client ids 0..victims), hog last, so victim stats
    // are indexed by victim number.
    let victims: Vec<_> = (0..config.victims)
        .map(|i| {
            machine(
                i,
                NicSpec::fast_ethernet(),
                MountConfig {
                    tuning: ClientTuning::full_patch(),
                    transport: Transport::Udp,
                    ..MountConfig::default()
                },
            )
        })
        .collect();
    let hog = config.hog.then(|| {
        machine(
            config.victims,
            NicSpec::gigabit(),
            MountConfig {
                tuning: ClientTuning::full_patch(),
                transport: Transport::Udp,
                slots: config.hog_slots,
                wsize: config.hog_wsize,
                ..MountConfig::default()
            },
        )
    });

    let bytes = config.bytes_per_victim;
    let hog_wsize = u64::from(config.hog_wsize);
    let hog_fsync_every = config.hog_fsync_every;
    let s2 = sim.clone();
    let (elapsed, per_elapsed) = sim.run_until(async move {
        let t0 = s2.now();
        // The hog streams forever; it is dropped (mid-op) when the last
        // victim finishes and the main future returns.
        if let Some(hog) = hog {
            let sh = s2.clone();
            s2.spawn_detached(async move {
                let file = hog.create("qos.hog").await.expect("hog create");
                let mut off = 0u64;
                loop {
                    file.write(off, hog_wsize).await.expect("hog write");
                    off += hog_wsize;
                    if off.is_multiple_of(hog_fsync_every) {
                        file.fsync().await.expect("hog fsync");
                    }
                    // Stay polite to the executor even if every write
                    // lands in cache without sleeping.
                    sh.sleep(SimDuration::from_micros(1)).await;
                }
            });
        }
        let per = write_all(&s2, &victims, bytes, |i| format!("qos{i}.victim")).await;
        (s2.now().since(t0), per)
    });

    let victim_mbps: Vec<f64> = per_elapsed.iter().map(|e| mbps(bytes, *e)).collect();
    let per_client_server = server.per_client_stats();
    let hog_mbps = if config.hog {
        mbps(per_client_server[config.victims].write_bytes, elapsed)
    } else {
        0.0
    };
    let mut all = victim_mbps.clone();
    if config.hog {
        all.push(hog_mbps);
    }
    let victim_stats = &per_client_server[..config.victims];
    QosRun {
        jain_all: jain_index(&all),
        victim_jain: jain_index(&victim_mbps),
        victim_mbps,
        hog_mbps,
        victim_queue_p99: victim_stats
            .iter()
            .map(|c| c.queue_delay.p99)
            .max()
            .unwrap_or(SimDuration::ZERO),
        victim_svc_p99: victim_stats
            .iter()
            .map(|c| c.service.p99)
            .max()
            .unwrap_or(SimDuration::ZERO),
        elapsed,
        server_stats: server.stats(),
        per_client_server,
    }
}

/// One row of the QoS sweep: a hog run paired with its hog-free
/// baseline under the same policy.
#[derive(Debug, Clone)]
pub struct QosCell {
    /// Server under test.
    pub server: ServerKind,
    /// Scheduling policy.
    pub sched: SchedPolicy,
    /// Victim count.
    pub victims: usize,
    /// Mean victim throughput with the hog running, MB/s.
    pub victim_mean_mbps: f64,
    /// Slowest victim's throughput with the hog running, MB/s.
    pub victim_min_mbps: f64,
    /// The hog's absorbed write rate, MB/s.
    pub hog_mbps: f64,
    /// Jain fairness over all clients, hog included.
    pub jain_all: f64,
    /// Jain fairness over the victims only.
    pub victim_jain: f64,
    /// Worst victim's p99 service latency with the hog, ms.
    pub victim_p99_ms: f64,
    /// Worst victim's p99 service latency in the hog-free baseline, ms.
    pub baseline_p99_ms: f64,
    /// `victim_p99_ms / baseline_p99_ms` — how much of the tail the hog
    /// added. The mitigation target is ≤ 2×.
    pub p99_ratio: f64,
}

/// The full unfair-workload sweep.
#[derive(Debug, Clone)]
pub struct QosSweep {
    /// All cells, in (server, sched) order.
    pub rows: Vec<QosCell>,
    /// Victim count per cell.
    pub victims: usize,
    /// Bytes each victim wrote.
    pub bytes_per_victim: u64,
}

/// Folds a hog run and its hog-free baseline into one sweep row.
fn qos_row(
    server: ServerKind,
    sched: SchedPolicy,
    victims: usize,
    base: &QosRun,
    run: &QosRun,
) -> QosCell {
    let n = run.victim_mbps.len() as f64;
    let victim_p99_ms = run.victim_svc_p99.as_nanos() as f64 / 1e6;
    let baseline_p99_ms = base.victim_svc_p99.as_nanos() as f64 / 1e6;
    QosCell {
        server,
        sched,
        victims,
        victim_mean_mbps: run.victim_mbps.iter().sum::<f64>() / n,
        victim_min_mbps: run
            .victim_mbps
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        hog_mbps: run.hog_mbps,
        jain_all: run.jain_all,
        victim_jain: run.victim_jain,
        victim_p99_ms,
        baseline_p99_ms,
        p99_ratio: if baseline_p99_ms > 0.0 {
            victim_p99_ms / baseline_p99_ms
        } else {
            1.0
        },
    }
}

/// Builds the *phased* work-list: every `(server, sched)` pair
/// contributes two independent cells — the hog-free baseline world and
/// the hog world — so a pool of workers always has twice as many units
/// to pull from. Results pair back up in [`assemble_qos_rows`].
pub fn qos_run_cells(
    servers: &[ServerKind],
    scheds: &[SchedPolicy],
    victims: usize,
    bytes_per_victim: u64,
) -> Vec<runner::Cell<QosRun>> {
    let mut cells = Vec::new();
    for &server in servers {
        for &sched in scheds {
            let config = QosConfig::new(server, sched, victims, bytes_per_victim);
            let base = config.baseline();
            cells.push(runner::Cell::new(move || run_qos(&base)));
            cells.push(runner::Cell::new(move || run_qos(&config)));
        }
    }
    cells
}

/// Pairs the phased results (work-list order: baseline then hog per
/// `(server, sched)`) back into sweep rows.
pub fn assemble_qos_rows(
    servers: &[ServerKind],
    scheds: &[SchedPolicy],
    victims: usize,
    runs: Vec<QosRun>,
) -> Vec<QosCell> {
    assert_eq!(
        runs.len(),
        servers.len() * scheds.len() * 2,
        "one baseline + one hog run per (server, sched)"
    );
    let mut it = runs.into_iter();
    let mut rows = Vec::with_capacity(servers.len() * scheds.len());
    for &server in servers {
        for &sched in scheds {
            let base = it.next().expect("baseline run");
            let run = it.next().expect("hog run");
            rows.push(qos_row(server, sched, victims, &base, &run));
        }
    }
    rows
}

/// Runs the sweep on up to `jobs` worker threads: for every server ×
/// policy, one hog run and one hog-free baseline, phased as separate
/// cells so the pool always has work. Cells are independent worlds,
/// deterministic for a given input — rows (and the CSV) are
/// bit-identical at any `jobs` value.
pub fn qos_sweep(
    servers: &[ServerKind],
    scheds: &[SchedPolicy],
    victims: usize,
    bytes_per_victim: u64,
    jobs: usize,
) -> QosSweep {
    let runs = runner::run_cells(
        jobs,
        qos_run_cells(servers, scheds, victims, bytes_per_victim),
    );
    QosSweep {
        rows: assemble_qos_rows(servers, scheds, victims, runs),
        victims,
        bytes_per_victim,
    }
}

impl QosSweep {
    /// The sweep as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "server,sched,victims,victim_mean_mbps,victim_min_mbps,hog_mbps,\
             jain_all,victim_jain,victim_p99_ms,baseline_p99_ms,p99_ratio\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{:.3},{:.4},{:.4},{:.3},{:.3},{:.2}\n",
                r.server.label(),
                r.sched.label(),
                r.victims,
                r.victim_mean_mbps,
                r.victim_min_mbps,
                r.hog_mbps,
                r.jain_all,
                r.victim_jain,
                r.victim_p99_ms,
                r.baseline_p99_ms,
                r.p99_ratio,
            ));
        }
        out
    }

    /// Renders an ASCII table plus a starvation/mitigation verdict per
    /// server.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.server.label().to_owned(),
                    r.sched.label().to_owned(),
                    format!("{:.2}", r.victim_mean_mbps),
                    format!("{:.2}", r.victim_min_mbps),
                    format!("{:.2}", r.hog_mbps),
                    format!("{:.3}", r.jain_all),
                    format!("{:.2}", r.victim_p99_ms),
                    format!("{:.2}x", r.p99_ratio),
                ]
            })
            .collect();
        let mut out = ascii_table(
            &[
                "server",
                "sched",
                "victim MB/s",
                "min victim",
                "hog MB/s",
                "jain(all)",
                "victim p99 ms",
                "p99 vs base",
            ],
            &rows,
        );
        for r in &self.rows {
            if r.sched == SchedPolicy::Fifo {
                continue;
            }
            let fifo = self
                .rows
                .iter()
                .find(|f| f.server == r.server && f.sched == SchedPolicy::Fifo);
            if let Some(fifo) = fifo {
                out.push_str(&format!(
                    "{} + {}: victim share {:.2} -> {:.2} MB/s, jain {:.2} -> {:.2}, p99 {:.1}x -> {:.1}x baseline\n",
                    r.server.label(),
                    r.sched.label(),
                    fifo.victim_mean_mbps,
                    r.victim_mean_mbps,
                    fifo.jain_all,
                    r.jain_all,
                    fifo.p99_ratio,
                    r.p99_ratio,
                ));
            }
        }
        out
    }
}
