//! Scenario builder: assembles a full world (client machine, network,
//! server) and runs the Bonnie benchmark in it.

use std::rc::Rc;

use nfsperf_bonnie::{BonnieConfig, BonnieReport};
use nfsperf_client::{ClientTuning, MountConfig, NfsFile, NfsMount};
use nfsperf_ext2::Ext2Fs;
use nfsperf_kernel::{CostTable, Kernel, KernelConfig, MemTuning};
use nfsperf_net::{Nic, NicSpec, Path};
use nfsperf_server::{NfsServer, ServerConfig, ServerStats};
use nfsperf_sim::{LockStats, ProfileRow, Sim};
use nfsperf_sunrpc::{Transport, XprtStats};
use nfsperf_tcp::TcpStats;

/// Which server the client mounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// The prototype Network Appliance F85.
    Filer,
    /// The four-way Linux knfsd on its bus-limited NIC.
    Knfsd,
    /// The generic server on 100 Mb/s Ethernet.
    Slow100,
    /// A faster-than-anything-in-the-paper prototype (memory-backed,
    /// wide concurrency) for the CAWL "faster server, slower client"
    /// re-test.
    Fast,
}

impl ServerKind {
    /// The server's configuration.
    pub fn server_config(self) -> ServerConfig {
        match self {
            ServerKind::Filer => ServerConfig::netapp_f85(),
            ServerKind::Knfsd => ServerConfig::linux_knfsd(),
            ServerKind::Slow100 => ServerConfig::slow_100bt(),
            ServerKind::Fast => ServerConfig::fast_prototype(),
        }
    }

    /// The server's NIC.
    pub fn nic_spec(self) -> NicSpec {
        match self {
            ServerKind::Filer => NicSpec::gigabit(),
            // The knfsd's Netgear GA 620T sits in a 32-bit/33 MHz PCI
            // slot; the paper observes ~26 MB/s sustained.
            ServerKind::Knfsd => NicSpec::bus_limited(26_000_000),
            ServerKind::Slow100 => NicSpec::fast_ethernet(),
            ServerKind::Fast => NicSpec::gigabit(),
        }
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ServerKind::Filer => "netapp-filer",
            ServerKind::Knfsd => "linux-nfs-server",
            ServerKind::Slow100 => "slow-100bt",
            ServerKind::Fast => "fast-prototype",
        }
    }
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Server under test (for labels).
    pub server: ServerKind,
    /// Full server configuration (customisable for ablations).
    pub server_config: ServerConfig,
    /// Server NIC.
    pub server_nic: NicSpec,
    /// Client NIC (gigabit; jumbo for the MTU ablation).
    pub client_nic: NicSpec,
    /// Mount options including the client tuning.
    pub mount: MountConfig,
    /// Client RAM (the paper's client has 256 MB).
    pub ram_bytes: u64,
    /// Client CPUs (the paper's client is a dual P3).
    pub ncpus: usize,
    /// Client CPU cost table.
    pub costs: CostTable,
    /// Client dirty-memory thresholds (default: 2.4 `bdflush` ratios).
    pub mem: MemTuning,
    /// Deterministic seed.
    pub seed: u64,
    /// Record per-call latencies (disable for big sweeps).
    pub record_latencies: bool,
    /// Probability that a datagram transmitted by the client NIC is lost
    /// (requests and, over TCP, the client's ACKs). 0 everywhere except
    /// the transport loss sweep.
    pub loss: f64,
}

impl Scenario {
    /// The paper's test bed with the given tuning and server.
    pub fn new(tuning: ClientTuning, server: ServerKind) -> Scenario {
        Scenario {
            server,
            server_config: server.server_config(),
            server_nic: server.nic_spec(),
            client_nic: NicSpec::gigabit(),
            mount: MountConfig {
                tuning,
                ..MountConfig::default()
            },
            ram_bytes: 256 << 20,
            ncpus: 2,
            costs: CostTable::default(),
            mem: MemTuning::default(),
            seed: 0x1f5,
            record_latencies: true,
            loss: 0.0,
        }
    }

    /// Enables 9000-byte jumbo frames on both ends (the paper's proposed
    /// future work).
    pub fn with_jumbo_frames(mut self) -> Scenario {
        self.client_nic.mtu = 9000;
        self.server_nic.mtu = 9000;
        self
    }

    /// Mounts over the given RPC transport (default UDP).
    pub fn with_transport(mut self, transport: Transport) -> Scenario {
        self.mount.transport = transport;
        self
    }

    /// Drops each client-transmitted datagram with probability `loss`.
    pub fn with_loss(mut self, loss: f64) -> Scenario {
        self.loss = loss;
        self
    }

    /// The client tuning in use.
    pub fn tuning(&self) -> ClientTuning {
        self.mount.tuning
    }
}

/// Everything measured in one run.
pub struct RunOutput {
    /// The benchmark's own report.
    pub report: BonnieReport,
    /// Client mount counters.
    pub mount_stats: nfsperf_client::MountStats,
    /// RPC transport counters.
    pub xprt_stats: XprtStats,
    /// Server counters.
    pub server_stats: ServerStats,
    /// Global-kernel-lock contention stats.
    pub lock_stats: LockStats,
    /// Kernel execution profile, hottest first.
    pub profile: Vec<ProfileRow>,
    /// Mean payload throughput on the client's transmit side, MB/s.
    pub net_tx_mbps: f64,
    /// Largest gap between consecutive WRITE-sized (>= 4 KiB) datagram
    /// departures on the client wire — the paper's "the latency spikes do
    /// not appear in write requests on the wire" check.
    pub max_wire_gap: Option<nfsperf_sim::SimDuration>,
    /// IP fragments the client NIC generated.
    pub fragments_sent: u64,
    /// Peak dirty pages on the client.
    pub peak_dirty_pages: usize,
    /// Times the writer hit the memory hard limit.
    pub throttle_events: u64,
    /// Total time writers spent throttled (blocked or doing foreground
    /// writeback).
    pub throttle_time: nfsperf_sim::SimDuration,
    /// The client's dirty-page hard limit, in pages.
    pub hard_limit_pages: usize,
    /// Datagrams the client NIC dropped (zero unless `Scenario::loss`).
    pub client_drops: u64,
    /// TCP endpoint counters, when the mount ran over TCP.
    pub tcp_stats: Option<TcpStats>,
}

/// The scenario's single-client world: the client machine, its lossy
/// NIC on a direct path to the server, the server on the mount's
/// transport, and the mount.
struct World {
    sim: Sim,
    kernel: Kernel,
    cnic: Rc<Nic>,
    server: Rc<NfsServer>,
    mount: Rc<NfsMount>,
}

fn build_world(scenario: &Scenario) -> World {
    let sim = Sim::new();
    let kernel = Kernel::new(
        &sim,
        KernelConfig {
            ncpus: scenario.ncpus,
            ram_bytes: scenario.ram_bytes,
            seed: scenario.seed,
            costs: scenario.costs.clone(),
            mem: scenario.mem,
        },
    );
    let (cnic, crx) = Nic::with_loss(
        &sim,
        "client",
        scenario.client_nic,
        scenario.loss,
        scenario.seed,
    );
    let (snic, srx) = Nic::new(&sim, "server", scenario.server_nic);
    let to_server = Path::new(Rc::clone(&cnic), snic, Path::default_latency());
    let spawn_server = match scenario.mount.transport {
        Transport::Udp => NfsServer::spawn,
        Transport::Tcp => NfsServer::spawn_tcp,
    };
    let server = spawn_server(
        &sim,
        srx,
        to_server.reversed(),
        scenario.server_config.clone(),
    );
    let mount = NfsMount::mount(&kernel, to_server, crx, scenario.mount.clone());
    World {
        sim,
        kernel,
        cnic,
        server,
        mount,
    }
}

/// Runs the Bonnie sequential-write benchmark of `file_size` bytes under
/// the scenario. One fresh world per call; fully deterministic for a
/// given scenario.
pub fn run_bonnie(scenario: &Scenario, file_size: u64) -> RunOutput {
    run_bonnie_in(build_world(scenario), scenario.record_latencies, file_size)
}

/// [`run_bonnie`] in a built world, which it reads out and ends.
fn run_bonnie_in(world: World, record_latencies: bool, file_size: u64) -> RunOutput {
    let World {
        sim,
        kernel,
        cnic,
        server,
        mount,
    } = world;
    // `max_wire_gap` reads the client's departure log.
    cnic.log_departures();
    let config = BonnieConfig {
        record_latencies,
        ..BonnieConfig::new(file_size)
    };
    let m2 = Rc::clone(&mount);
    let s2 = sim.clone();
    let report = sim.run_until(async move {
        let file = m2.create("bonnie.scratch").await.expect("create");
        nfsperf_bonnie::run(&s2, &file, &config).await
    });

    RunOutput {
        report,
        mount_stats: mount.stats(),
        xprt_stats: mount.xprt().stats(),
        server_stats: server.stats(),
        lock_stats: kernel.bkl.stats(),
        profile: kernel.profiler.report(),
        net_tx_mbps: cnic.tx_throughput_mbps(),
        max_wire_gap: cnic.max_tx_gap(4096),
        fragments_sent: cnic.fragments_sent(),
        peak_dirty_pages: kernel.mem.peak_dirty_pages(),
        throttle_events: kernel.mem.throttle_events(),
        throttle_time: kernel.mem.throttle_time(),
        hard_limit_pages: kernel.mem.hard_limit(),
        client_drops: cnic.drops(),
        tcp_stats: mount.xprt().tcp().map(|x| x.tcp_stats()),
    }
}

/// Builds the scenario's world and runs an arbitrary workload closure
/// over the freshly created benchmark file (for non-sequential
/// workloads such as [`nfsperf_bonnie::run_random`]).
pub fn run_custom<F, Fut>(scenario: &Scenario, workload: F) -> BonnieReport
where
    F: FnOnce(Sim, NfsFile) -> Fut + 'static,
    Fut: std::future::Future<Output = BonnieReport> + 'static,
{
    let World { sim, mount, .. } = build_world(scenario);
    let s2 = sim.clone();
    sim.run_until(async move {
        let file = mount.create("custom.scratch").await.expect("create");
        workload(s2, file).await
    })
}

/// Runs the benchmark against the local ext2 model (the Figure 1/7
/// baseline).
pub fn run_local(file_size: u64, record_latencies: bool) -> BonnieReport {
    run_local_with_ram(file_size, 256 << 20, record_latencies)
}

/// Like [`run_local`] with an explicit RAM size (for scaled-down tests).
pub fn run_local_with_ram(file_size: u64, ram_bytes: u64, record_latencies: bool) -> BonnieReport {
    let sim = Sim::new();
    let kernel = Kernel::new(
        &sim,
        KernelConfig {
            ram_bytes,
            ..KernelConfig::default()
        },
    );
    let fs = Ext2Fs::mount(&kernel);
    let config = BonnieConfig {
        record_latencies,
        ..BonnieConfig::new(file_size)
    };
    let s2 = sim.clone();
    sim.run_until(async move {
        let file = fs.create("bonnie.scratch");
        nfsperf_bonnie::run(&s2, &file, &config).await
    })
}

/// Convenience: run and return only write-phase throughput in MB/s.
pub fn write_throughput_mbps(scenario: &Scenario, file_size: u64) -> f64 {
    let mut scenario = scenario.clone();
    scenario.record_latencies = false;
    run_bonnie(&scenario, file_size).report.write_mbps()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::{SimDuration, SimTime};

    #[test]
    fn scenario_defaults_match_testbed() {
        let s = Scenario::new(ClientTuning::full_patch(), ServerKind::Filer);
        assert_eq!(s.ram_bytes, 256 << 20);
        assert_eq!(s.ncpus, 2);
        assert_eq!(s.mount.slots, 16);
        assert_eq!(s.tuning(), ClientTuning::full_patch());
    }

    #[test]
    fn jumbo_frames_set_both_mtus() {
        let s = Scenario::new(ClientTuning::full_patch(), ServerKind::Filer).with_jumbo_frames();
        assert_eq!(s.client_nic.mtu, 9000);
        assert_eq!(s.server_nic.mtu, 9000);
    }

    #[test]
    fn small_run_produces_consistent_output() {
        let s = Scenario::new(ClientTuning::full_patch(), ServerKind::Filer);
        let out = run_bonnie(&s, 1 << 20);
        assert_eq!(out.report.file_size, 1 << 20);
        assert_eq!(out.server_stats.write_bytes, 1 << 20);
        assert!(out.report.write_mbps() > 0.0);
        assert!(out.report.flush_mbps() <= out.report.write_mbps());
        assert_eq!(out.report.latencies.len(), 128);
        assert!(out.fragments_sent > 0);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let s = Scenario::new(ClientTuning::hash_table(), ServerKind::Filer);
        let a = run_bonnie(&s, 1 << 20);
        let b = run_bonnie(&s, 1 << 20);
        assert_eq!(a.report.latencies, b.report.latencies);
        assert_eq!(a.report.write_elapsed, b.report.write_elapsed);
    }

    #[test]
    fn different_seed_different_jitter() {
        let s1 = Scenario::new(ClientTuning::hash_table(), ServerKind::Filer);
        let s2 = Scenario {
            seed: 999,
            ..s1.clone()
        };
        let a = run_bonnie(&s1, 1 << 20);
        let b = run_bonnie(&s2, 1 << 20);
        assert_ne!(
            a.report.latencies, b.report.latencies,
            "CPU jitter should differ across seeds"
        );
    }

    #[test]
    fn a_finished_cell_frees_its_world() {
        // Daemon tasks hold `Sim` clones and the core holds the tasks:
        // only the end of the world, when the cell drops its owner,
        // breaks that cycle. `probe` rides in a parked daemon, a pending
        // sleeper and an event handler with a timed dispatch pending.
        for transport in [Transport::Udp, Transport::Tcp] {
            let s = Scenario::new(ClientTuning::full_patch(), ServerKind::Filer)
                .with_transport(transport);
            let world = build_world(&s);
            let probe = Rc::new(());
            let sim = &world.sim;
            let p = Rc::clone(&probe);
            sim.spawn_detached(async move {
                let _p = p;
                std::future::pending::<()>().await;
            });
            let (s2, p) = (sim.clone(), Rc::clone(&probe));
            sim.spawn_detached(async move {
                let _p = p;
                s2.sleep(SimDuration::from_secs(3600)).await;
            });
            let p = Rc::clone(&probe);
            let h = sim.register_event_handler(Rc::new(move |_| {
                let _ = &p;
            }));
            sim.schedule_direct(SimTime::ZERO + SimDuration::from_secs(3600), h, 0);
            let (mount, server) = (Rc::downgrade(&world.mount), Rc::downgrade(&world.server));

            let out = run_bonnie_in(world, false, 1 << 20);
            assert_eq!(out.server_stats.write_bytes, 1 << 20);
            assert_eq!(
                Rc::strong_count(&probe),
                1,
                "a finished {transport:?} cell kept its tasks, timers or handlers"
            );
            assert_eq!(
                (mount.strong_count(), server.strong_count()),
                (0, 0),
                "a finished {transport:?} cell kept its mount or server"
            );
        }
    }

    #[test]
    fn local_run_is_memory_fast() {
        let report = run_local(4 << 20, false);
        assert!(
            report.write_mbps() > 100.0,
            "local writes should be memory speed, got {}",
            report.write_mbps()
        );
    }
}
