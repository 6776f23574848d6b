//! The three benchmark worlds, built by hand from the crates' public
//! constructors so that setup and run can be timed apart.
//!
//! Each `build_*` function mirrors one experiment runner step for step —
//! `run_bonnie`, `run_megafleet` and `run_fleet` — and
//! `tests/equivalence.rs` holds them to identical simulated outputs at
//! small sizes. A world is built with [`build`], which times setup from
//! the first constructor call to the moment before the first simulated
//! event, and consumed by [`World::run`], which times `Sim::run_until`
//! and the teardown (read-out plus drop) separately.

use std::rc::Rc;
use std::time::Instant;

use nfsperf_bonnie::BonnieConfig;
use nfsperf_client::{ClientTuning, IndexKind, MountConfig, NfsMount};
use nfsperf_fleet::{calibrate, CalibrationConfig, FlyTier, FlyTierConfig, TierEngine};
use nfsperf_kernel::{CostTable, Kernel, KernelConfig, MemTuning, SimFile, PAGE_SIZE};
use nfsperf_net::{Fabric, FabricConfig, LinkDir, Nic, NicSpec, Path, SharedLink, Switch};
use nfsperf_server::{NfsServer, PerClientStats, SchedPolicy, ServerConfig};
use nfsperf_sim::{mbps, LatencyDigest, Sim, SimDuration};
use nfsperf_sunrpc::Transport;

/// The workload seed the committed experiments use (`0x1f5`); the model
/// counters of this seed are pinned in `digests.json`.
pub const DEFAULT_SEED: u64 = 0x1f5;

/// Faithful clients embedded in the megafleet, as in `run_megafleet`.
pub const MEGA_FAITHFUL: usize = 4;

/// Keep every this-many-th queue-delay sample on a fabric uplink. The
/// pool feeds `net.uplink_qdelay_p99_ms` and is small enough at a million
/// clients (a few thousand samples) to leave the tier's per-client count
/// unchanged.
const MEGA_QUEUE_STRIDE: u64 = 256;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One full-patch client writes 1 GiB through close into the filer.
    Paper1g,
    /// 1M flyweights plus four faithful clients, one 8 KiB WRITE each.
    Megafleet1m,
    /// 32 full-patch 100bT clients, 16 MiB each, over TCP into a DRR knfsd.
    FleetTcpDrr,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Paper1g,
        Workload::Megafleet1m,
        Workload::FleetTcpDrr,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper1g => "paper-1g",
            Workload::Megafleet1m => "megafleet-1m",
            Workload::FleetTcpDrr => "fleet-tcp-drr",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload at benchmark size.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Paper1g => Spec::Bonnie { file_size: 1 << 30 },
            Workload::Megafleet1m => Spec::Mega {
                flyweights: 1_000_000,
                bytes_per_client: 8 << 10,
            },
            Workload::FleetTcpDrr => Spec::Fleet {
                clients: 32,
                bytes_per_client: 16 << 20,
            },
        }
    }
}

/// A world's size; [`Workload::spec`] gives the benchmark sizes, the
/// equivalence tests use small ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spec {
    /// Bonnie sequential write of `file_size` bytes, full-patch client,
    /// filer, gigabit, UDP.
    Bonnie {
        /// Bytes written before close.
        file_size: u64,
    },
    /// Mixed fleet through the two-tier fabric into the filer.
    Mega {
        /// Flyweight clients.
        flyweights: u32,
        /// Bytes every client (both tiers) writes.
        bytes_per_client: u64,
    },
    /// Faithful full-patch 100bT clients over TCP into a DRR knfsd.
    Fleet {
        /// Client machines.
        clients: usize,
        /// Bytes each client writes.
        bytes_per_client: u64,
    },
}

impl Spec {
    /// Bytes each faithful client writes.
    fn bytes_per_client(self) -> u64 {
        match self {
            Spec::Bonnie { file_size } => file_size,
            Spec::Mega {
                bytes_per_client, ..
            }
            | Spec::Fleet {
                bytes_per_client, ..
            } => bytes_per_client,
        }
    }
}

/// Host seconds spent in each phase of one world.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// First constructor call to just before the first simulated event.
    pub setup_s: f64,
    /// `Sim::run_until`.
    pub run_s: f64,
    /// Reading the results out of the world, then dropping it.
    pub teardown_s: f64,
    /// The megafleet's calibration probe (inside `setup_s`).
    pub calibrate_s: f64,
    /// `FlyTier::launch` (inside `setup_s`).
    pub launch_s: f64,
}

/// Shapes the workload actually produced, measured from its counters;
/// the per-layer replays run at these sizes.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Pending simulator entries right after setup (posted flyweight
    /// emissions, each of which becomes a wheel timer).
    pub wheel_population: usize,
    /// Peak outstanding page requests of one inode — every one pins a
    /// page — median over the faithful clients: the request-index size
    /// and the pinned level of the memory-accounting replay.
    pub index_peak: usize,
    /// Request-index kind of the client tuning.
    pub index_kind: IndexKind,
    /// Pages per WRITE RPC.
    pub wsize_pages: usize,
    /// A client's (hard, background) dirty-page limits.
    pub mem_limits: (usize, usize),
    /// Mean datagrams queued on the busiest uplink lane (median queue
    /// delay × arrival rate; 0 without a shared uplink).
    pub lane_backlog: usize,
    /// Requests queued at the server scheduler (mean sojourn × arrival
    /// rate, less the service slots).
    pub sched_backlog: usize,
    /// Server service slots.
    pub sched_slots: usize,
    /// Distinct clients (flows) feeding the lanes and the scheduler.
    pub clients: usize,
    /// The server's scheduling policy in this workload.
    pub sched: SchedPolicy,
}

/// Operation counts of one world, for turning per-layer replay costs
/// into shares of the run phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// Faithful WRITE RPCs (XDR encode + decode, dirty-batch scans).
    pub faithful_writes: u64,
    /// Faithful pages written (index cycles, memory pin/release).
    pub faithful_pages: u64,
    /// WRITEs carried on a TCP record stream.
    pub tcp_writes: u64,
    /// Payload KiB carried over TCP.
    pub tcp_kib: u64,
    /// Lane admissions on shared uplinks (both directions, every stage).
    pub lane_admits: u64,
    /// Server operations scheduled.
    pub server_ops: u64,
    /// Wire datagrams moved through the payload pool (requests + replies
    /// on the faithful tier).
    pub datagrams: u64,
}

/// Everything one world run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// WRITE + COMMIT RPCs completed at the server, both tiers.
    pub rpcs: u64,
    /// Model counters in simulated time, in [`MODEL_COUNTERS`] order.
    pub counters: Vec<(&'static str, f64)>,
    /// Failed conservation checks (empty when the run is correct).
    pub failures: Vec<String>,
    /// Host phase times.
    pub spans: Spans,
    /// Measured shapes for the replays.
    pub shape: Shape,
    /// Operation counts for the time shares.
    pub ops: OpCounts,
    /// The flyweight tier's own resident-bytes-per-client figure (0
    /// without a tier).
    pub fly_bytes_per_client: usize,
    /// Flyweights launched (0 without a tier).
    pub flyweights: u32,
}

/// Names of the model counters, in report order. Every one is a pure
/// function of the simulated run: a host-only change must leave them all
/// unchanged.
pub const MODEL_COUNTERS: [&str; 15] = [
    "sim.events",
    "client.write_rpcs",
    "client.commit_rpcs",
    "kernel.bkl_wait_ms",
    "kernel.peak_dirty_pages",
    "sunrpc.retransmits",
    "tcp.segments_sent",
    "tcp.retransmits",
    "net.uplink_qdelay_p99_ms",
    "server.writes",
    "server.commits",
    "server.queue_p99_ms",
    "server.svc_p99_ms",
    "fleet.rpc_p99_ms",
    "sim.close_mbps",
];

/// A built, not yet run, world.
pub struct World {
    spec: Spec,
    spans: Spans,
    sim: Sim,
    server: Rc<NfsServer>,
    mounts: Vec<Rc<NfsMount>>,
    kernels: Vec<Kernel>,
    /// The shared uplink whose queue delay is reported (none for the
    /// point-to-point Bonnie world).
    uplink: Option<Rc<SharedLink>>,
    /// Every shared lane stage, for counting admissions.
    fabric: Option<Rc<Fabric>>,
    tier: Option<Rc<FlyTier>>,
    /// Flyweight WRITEs per client and payload bytes per WRITE.
    fly_writes: (u32, u64),
    wheel_population: usize,
}

fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// The kernel of fleet machine `i`: the experiment runners' SplitMix
/// seed spread.
fn fleet_kernel(sim: &Sim, seed: u64, i: usize) -> Kernel {
    Kernel::new(
        sim,
        KernelConfig {
            ncpus: 2,
            ram_bytes: 256 << 20,
            seed: seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
            costs: CostTable::default(),
            mem: MemTuning::default(),
        },
    )
}

/// Builds the world for `spec` under `seed`, timing setup.
pub fn build(spec: Spec, seed: u64) -> World {
    let started = Instant::now();
    let mut world = match spec {
        Spec::Bonnie { .. } => build_bonnie(spec, seed),
        Spec::Mega {
            flyweights,
            bytes_per_client,
        } => build_mega(spec, seed, flyweights, bytes_per_client),
        Spec::Fleet { clients, .. } => build_fleet(spec, seed, clients),
    };
    world.wheel_population = world.sim.live_events();
    world.spans.setup_s = started.elapsed().as_secs_f64();
    world
}

fn build_bonnie(spec: Spec, seed: u64) -> World {
    let sim = Sim::new();
    let kernel = Kernel::new(
        &sim,
        KernelConfig {
            ncpus: 2,
            ram_bytes: 256 << 20,
            seed,
            costs: CostTable::default(),
            mem: MemTuning::default(),
        },
    );
    let (cnic, crx) = Nic::with_loss(&sim, "client", NicSpec::gigabit(), 0.0, seed);
    let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
    let to_server = Path::new(Rc::clone(&cnic), snic, Path::default_latency());
    let server = NfsServer::spawn(&sim, srx, to_server.reversed(), ServerConfig::netapp_f85());
    let mount = NfsMount::mount(
        &kernel,
        to_server,
        crx,
        MountConfig {
            tuning: ClientTuning::full_patch(),
            ..MountConfig::default()
        },
    );
    World {
        spec,
        spans: Spans::default(),
        sim,
        server,
        mounts: vec![mount],
        kernels: vec![kernel],
        uplink: None,
        fabric: None,
        tier: None,
        fly_writes: (0, 0),
        wheel_population: 0,
    }
}

fn build_mega(spec: Spec, seed: u64, flyweights: u32, bytes_per_client: u64) -> World {
    let server_config = ServerConfig::netapp_f85();
    let server_nic = NicSpec::gigabit();
    let client_nic = NicSpec::fast_ethernet();
    let mut spans = Spans::default();

    let t = Instant::now();
    let calibration = calibrate(&CalibrationConfig {
        client_nic,
        seed,
        ..CalibrationConfig::new(server_config.clone(), server_nic)
    });
    spans.calibrate_s = t.elapsed().as_secs_f64();

    let sim = Sim::new();
    let fabric = Rc::new(Fabric::new(&sim, FabricConfig::new(server_nic)));
    let server = NfsServer::new(&sim, server_config);
    let mut mounts = Vec::new();
    let mut kernels = Vec::new();
    for i in 0..MEGA_FAITHFUL {
        let kernel = fleet_kernel(&sim, seed, i);
        let (cnic, crx) = Nic::new(&sim, "client", client_nic);
        let (_id, to_server, port_rx) = fabric.attach(&cnic, client_nic);
        server.attach_udp(port_rx, to_server.reversed());
        mounts.push(NfsMount::mount(
            &kernel,
            to_server,
            crx,
            MountConfig {
                tuning: ClientTuning::full_patch(),
                transport: Transport::Udp,
                ..MountConfig::default()
            },
        ));
        kernels.push(kernel);
    }

    let write_payload = calibration.model.write_payload;
    let writes_per_fly = (bytes_per_client / write_payload).max(1) as u32;
    let t = Instant::now();
    let tier = FlyTier::launch(
        &sim,
        &server,
        &fabric,
        calibration.model.clone(),
        FlyTierConfig {
            client_nic,
            seed: seed ^ 0x666c_7977_6569_6768,
            engine: TierEngine::Events,
            ..FlyTierConfig::new(flyweights, writes_per_fly, client_nic)
        },
    );
    spans.launch_s = t.elapsed().as_secs_f64();
    let core = fabric.core();
    core.set_queue_sampling(MEGA_QUEUE_STRIDE);
    World {
        spec,
        spans,
        sim,
        server,
        mounts,
        kernels,
        uplink: Some(core),
        fabric: Some(fabric),
        tier: Some(tier),
        fly_writes: (writes_per_fly, write_payload),
        wheel_population: 0,
    }
}

fn build_fleet(spec: Spec, seed: u64, clients: usize) -> World {
    let sim = Sim::new();
    let server_nic = NicSpec::bus_limited(26_000_000);
    let client_nic = NicSpec::fast_ethernet();
    let switch = Switch::new(&sim, server_nic, Path::default_latency());
    let server = NfsServer::new(
        &sim,
        ServerConfig {
            sched: SchedPolicy::drr(),
            ..ServerConfig::linux_knfsd()
        },
    );
    let mut mounts = Vec::new();
    let mut kernels = Vec::new();
    for i in 0..clients {
        let kernel = fleet_kernel(&sim, seed, i);
        let (cnic, crx) = Nic::new(&sim, "client", client_nic);
        let (to_server, port_rx) = switch.attach(&cnic, client_nic);
        server.attach_tcp(port_rx, to_server.reversed());
        mounts.push(NfsMount::mount(
            &kernel,
            to_server,
            crx,
            MountConfig {
                tuning: ClientTuning::full_patch(),
                transport: Transport::Tcp,
                ..MountConfig::default()
            },
        ));
        kernels.push(kernel);
    }
    let uplink = Rc::clone(switch.uplink());
    uplink.set_queue_sampling(1);
    World {
        spec,
        spans: Spans::default(),
        sim,
        server,
        mounts,
        kernels,
        uplink: Some(uplink),
        fabric: None,
        tier: None,
        fly_writes: (0, 0),
        wheel_population: 0,
    }
}

/// Sequential 8 KiB writes of `bytes` from every mount, then close;
/// resolves when all writers (and the flyweight tier, if any) are done.
async fn write_all(
    sim: Sim,
    mounts: Vec<Rc<NfsMount>>,
    bytes: u64,
    prefix: &'static str,
    tier: Option<Rc<FlyTier>>,
) -> SimDuration {
    let t0 = sim.now();
    let workers: Vec<_> = mounts
        .iter()
        .enumerate()
        .map(|(i, mount)| {
            let mount = Rc::clone(mount);
            sim.spawn(async move {
                let file = mount
                    .create(&format!("{prefix}{i}.scratch"))
                    .await
                    .expect("create");
                let mut off = 0;
                while off < bytes {
                    let n = 8192.min(bytes - off);
                    file.write(off, n).await.expect("write");
                    off += n;
                }
                file.close().await.expect("close");
            })
        })
        .collect();
    for w in workers {
        w.await;
    }
    if let Some(tier) = tier {
        tier.wait_done().await;
    }
    sim.now().since(t0)
}

impl World {
    /// Setup spans so far (the run fills in the rest).
    pub fn spans(&self) -> Spans {
        self.spans
    }

    /// Runs the world to completion, reads out counters, checks
    /// conservation, and drops it — timing run and teardown apart.
    pub fn run(self) -> Outcome {
        let started = Instant::now();
        let (elapsed, close_mbps) = match self.spec {
            Spec::Bonnie { file_size } => {
                let m2 = Rc::clone(&self.mounts[0]);
                let s2 = self.sim.clone();
                let config = BonnieConfig::new(file_size);
                let report = self.sim.run_until(async move {
                    let file = m2.create("bonnie.scratch").await.expect("create");
                    nfsperf_bonnie::run(&s2, &file, &config).await
                });
                (report.close_elapsed, report.close_mbps())
            }
            Spec::Mega {
                bytes_per_client, ..
            } => self.write_all(bytes_per_client, "mega"),
            Spec::Fleet {
                bytes_per_client, ..
            } => self.write_all(bytes_per_client, "fleet"),
        };
        let mut spans = self.spans;
        spans.run_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let mut out = self.read_out(elapsed, close_mbps);
        drop(self);
        spans.teardown_s = started.elapsed().as_secs_f64();
        out.spans = spans;
        out
    }

    /// Runs [`write_all`] over every mount (and the tier); returns the
    /// elapsed simulated time and the aggregate MB/s the server stored.
    fn write_all(&self, bytes: u64, prefix: &'static str) -> (SimDuration, f64) {
        let elapsed = self.sim.run_until(write_all(
            self.sim.clone(),
            self.mounts.clone(),
            bytes,
            prefix,
            self.tier.clone(),
        ));
        (elapsed, mbps(self.server.stats().write_bytes, elapsed))
    }
}

fn median_usize(mut xs: Vec<usize>) -> usize {
    xs.sort_unstable();
    xs.get(xs.len() / 2).copied().unwrap_or(0)
}

/// Little's law: items waiting ≈ time waited × arrival rate.
fn backlog(delay: SimDuration, arrivals: u64, elapsed: SimDuration) -> usize {
    if elapsed == SimDuration::ZERO {
        return 0;
    }
    (delay.as_secs_f64() * arrivals as f64 / elapsed.as_secs_f64()).round() as usize
}

impl World {
    /// Reads the model counters, shapes and operation counts out of a
    /// finished world and checks conservation.
    fn read_out(&self, elapsed: SimDuration, close_mbps: f64) -> Outcome {
        let World {
            spec,
            sim,
            server,
            mounts,
            kernels,
            uplink,
            fabric,
            tier,
            fly_writes: (writes_per_fly, fly_payload),
            wheel_population,
            ..
        } = self;
        let (writes_per_fly, fly_payload) = (*writes_per_fly, *fly_payload);
        let app_bytes = spec.bytes_per_client();
        let stats = server.stats();
        let slim = server.slim_stats();
        let per_client: Vec<PerClientStats> = server.per_client_stats();
        let mount_stats: Vec<_> = mounts.iter().map(|m| m.stats()).collect();
        let xprt_stats: Vec<_> = mounts.iter().map(|m| m.xprt().stats()).collect();
        let tcp_stats: Vec<_> = mounts
            .iter()
            .filter_map(|m| m.xprt().tcp().map(|x| x.tcp_stats()))
            .collect();
        let worst = |f: &dyn Fn(&PerClientStats) -> SimDuration| {
            per_client.iter().map(|c| ms(f(c))).fold(0.0, f64::max)
        };

        // Conservation, per client and per tier. Without retransmissions every
        // byte and WRITE arrives exactly once and every call gets one reply. A
        // UDP retransmission can reach the server and run again (the server
        // keeps no duplicate-request cache): each may add one WRITE and its
        // bytes at the server and one orphaned reply at the client.
        let wsize = u64::from(mounts[0].config().wsize);
        let mut failures = Vec::new();
        for (i, (m, x)) in mount_stats.iter().zip(&xprt_stats).enumerate() {
            let srv = per_client.get(i).cloned().unwrap_or_default();
            let resent = x.retransmits;
            if !(app_bytes..=app_bytes + resent * wsize).contains(&srv.write_bytes) {
                failures.push(format!(
                    "client {i}: wrote {app_bytes} B with {resent} retransmits, server stored {} B",
                    srv.write_bytes
                ));
            }
            if !(m.write_rpcs..=m.write_rpcs + resent).contains(&srv.writes) {
                failures.push(format!(
                    "client {i}: {} WRITE RPCs sent with {resent} retransmits, server served {}",
                    m.write_rpcs, srv.writes
                ));
            }
            if x.calls != x.replies || x.orphan_replies > resent {
                failures.push(format!(
                    "client {i}: {} calls, {} replies, {} orphans, {resent} retransmits",
                    x.calls, x.replies, x.orphan_replies
                ));
            }
        }
        let fly_bytes = u64::from(slim.clients as u32) * u64::from(writes_per_fly) * fly_payload;
        if slim.write_bytes != fly_bytes {
            failures.push(format!(
                "flyweight tier: wrote {fly_bytes} B, server stored {} B",
                slim.write_bytes
            ));
        }
        if slim.writes != slim.clients * u64::from(writes_per_fly) {
            failures.push(format!(
                "flyweight tier: {} WRITEs expected, server served {}",
                slim.clients * u64::from(writes_per_fly),
                slim.writes
            ));
        }
        let stored = per_client.iter().map(|c| c.write_bytes).sum::<u64>() + slim.write_bytes;
        if stats.write_bytes != stored {
            failures.push(format!(
                "server total {} B, its clients and tier {stored} B",
                stats.write_bytes
            ));
        }

        let rpcs = stats.writes + stats.commits;
        let (uplink_p99, lane_backlog) = match uplink {
            Some(link) => {
                let d: LatencyDigest = link.queue_delay(LinkDir::ToServer);
                let arrivals = link.datagrams(LinkDir::ToServer);
                (ms(d.p99), backlog(d.p50, arrivals, elapsed))
            }
            None => (0.0, 0),
        };
        // Requests in the server (queued + in service) by Little's law over
        // the sampled clients' mean sojourn; the queued part is the backlog.
        let engine = server.service_engine();
        let (sojourn_ns, samples) = (0..per_client.len())
            .flat_map(|c| engine.service_samples(c))
            .fold((0u128, 0u64), |(sum, n), d| {
                (sum + u128::from(d.as_nanos()), n + 1)
            });
        let mean_sojourn = SimDuration((sojourn_ns / u128::from(samples.max(1))) as u64);
        let sched_backlog =
            backlog(mean_sojourn, stats.ops, elapsed).saturating_sub(engine.slots());

        let sum = |f: &dyn Fn(usize) -> u64| (0..mounts.len()).map(f).sum::<u64>();
        let write_rpcs = sum(&|i| mount_stats[i].write_rpcs);
        let counters: Vec<(&'static str, f64)> = vec![
            ("sim.events", sim.events() as f64),
            ("client.write_rpcs", write_rpcs as f64),
            (
                "client.commit_rpcs",
                sum(&|i| mount_stats[i].commit_rpcs) as f64,
            ),
            (
                "kernel.bkl_wait_ms",
                kernels.iter().map(|k| ms(k.bkl.stats().total_wait)).sum(),
            ),
            (
                "kernel.peak_dirty_pages",
                kernels
                    .iter()
                    .map(|k| k.mem.peak_dirty_pages())
                    .max()
                    .unwrap_or(0) as f64,
            ),
            (
                "sunrpc.retransmits",
                sum(&|i| xprt_stats[i].retransmits) as f64,
            ),
            (
                "tcp.segments_sent",
                tcp_stats.iter().map(|t| t.segments_sent).sum::<u64>() as f64,
            ),
            (
                "tcp.retransmits",
                tcp_stats.iter().map(|t| t.retransmits).sum::<u64>() as f64,
            ),
            ("net.uplink_qdelay_p99_ms", uplink_p99),
            ("server.writes", stats.writes as f64),
            ("server.commits", stats.commits as f64),
            ("server.queue_p99_ms", worst(&|c| c.queue_delay.p99)),
            ("server.svc_p99_ms", worst(&|c| c.service.p99)),
            (
                "fleet.rpc_p99_ms",
                tier.as_ref().map_or(0.0, |t| ms(t.rpc_latency().p99)),
            ),
            ("sim.close_mbps", close_mbps),
        ];
        debug_assert!(counters.iter().map(|c| c.0).eq(MODEL_COUNTERS));

        let config = mounts[0].config();
        let faithful_bytes = app_bytes * mounts.len() as u64;
        let faithful_pages = faithful_bytes.div_ceil(PAGE_SIZE);
        let lane_admits = match (fabric, uplink) {
            (Some(fabric), _) => {
                let core = fabric.core();
                let aggs: u64 = (0..fabric.agg_count() as u32)
                    .map(|a| {
                        let agg = fabric.agg_of(a * fabric.config().fanout as u32);
                        agg.datagrams(LinkDir::ToServer) + agg.datagrams(LinkDir::ToClients)
                    })
                    .sum();
                core.datagrams(LinkDir::ToServer) + core.datagrams(LinkDir::ToClients) + aggs
            }
            (None, Some(link)) => {
                link.datagrams(LinkDir::ToServer) + link.datagrams(LinkDir::ToClients)
            }
            (None, None) => 0,
        };
        let tcp = config.transport == Transport::Tcp;
        let ops = OpCounts {
            faithful_writes: write_rpcs,
            faithful_pages,
            tcp_writes: if tcp { write_rpcs } else { 0 },
            tcp_kib: if tcp { faithful_bytes / 1024 } else { 0 },
            lane_admits,
            server_ops: stats.ops,
            datagrams: 2 * sum(&|i| xprt_stats[i].calls + xprt_stats[i].retransmits),
        };
        let shape = Shape {
            wheel_population: *wheel_population,
            index_peak: median_usize(kernels.iter().map(|k| k.mem.peak_dirty_pages()).collect()),
            index_kind: config.tuning.index,
            wsize_pages: (u64::from(config.wsize) / PAGE_SIZE).max(1) as usize,
            mem_limits: (
                kernels[0].mem.hard_limit(),
                kernels[0].mem.background_limit(),
            ),
            lane_backlog,
            sched_backlog,
            sched_slots: engine.slots(),
            clients: mounts.len() + slim.clients as usize,
            sched: engine.policy(),
        };
        Outcome {
            rpcs,
            counters,
            failures,
            spans: Spans::default(),
            shape,
            ops,
            fly_bytes_per_client: tier.as_ref().map_or(0, |t| t.bytes_per_client()),
            flyweights: slim.clients as u32,
        }
    }
}
