//! Network-QoS sweep: open-loop aggressors vs NFS victims at the uplink.
//!
//! The PR 4 QoS sweep showed the *server* scheduler restoring fairness —
//! but only for contention that reaches the server's service slots. When
//! the fight happens one hop earlier, at the shared switch uplink, a
//! server-side policy never sees the victims' datagrams at all: they
//! lost at the wire. This sweep contends the uplink directly. Victims
//! are ordinary closed-loop NFS clients writing through close; the
//! aggressors are **open-loop** traffic sources ([`crate::arrivals`])
//! attached to the same switch whose frames terminate in a sink — they
//! never touch the server, so every effect measured here is pure
//! network-port scheduling.
//!
//! The victims themselves are deliberately *unequal*: odd-indexed
//! victims mount aggressively (gigabit port, 32-deep slot table, 32 KB
//! wsize) while even-indexed ones mount meekly (100bT, 8 slots, the
//! paper's 8 KB wsize). A FIFO port serves whoever keeps the most bytes
//! queued, so once the aggressors deepen the backlog the aggressive
//! victims ride it and the meek ones starve — fairness *among the
//! victims* collapses along with fairness against the aggressors.
//!
//! Per cell we report victim goodput against an aggressor-free baseline,
//! Jain fairness over every flow (victims and aggressors), Jain over the
//! victims alone, and the uplink's own queue-delay p99 from the per-port
//! [`nfsperf_sim::LatencyDigest`] the scheduler refactor exposed.
//! `port-drr` is the headline: under FIFO an oversubscribing aggressor
//! mix owns the arrival order and victim Jain collapses below 0.6;
//! per-flow DRR at the port caps every backlogged flow at its fair
//! share, which both lifts the victims' aggregate and equalizes meek
//! and aggressive victims (victim Jain back to ~1.0) — the port stops
//! rewarding aggression. `port-wrr` shows the same machinery taking an
//! SLA: victims weighted 4, aggressors 1.

use std::cell::Cell;
use std::rc::Rc;

use nfsperf_client::{ClientTuning, MountConfig};
use nfsperf_fleet::{mount_client, write_all};
use nfsperf_net::{LinkDir, Nic, NicSpec, Path, PortPolicy, Switch, WeightTable};
use nfsperf_server::NfsServer;
use nfsperf_sim::{mbps, runner, Sim, SimDuration};
use nfsperf_sunrpc::Transport;

use crate::arrivals::{OpenLoop, TrafficMix};
use crate::fleet::jain_index;
use crate::render::ascii_table;
use crate::scenario::ServerKind;

/// Aggressor frame payload: an 8 KB blast, fragmented on the wire like a
/// full-size NFS WRITE.
const AGGRESSOR_FRAME: usize = 8192;

/// Bounded source queue: an aggressor stops injecting while this many of
/// its frames are still in flight (a real edge NIC drops or backpressures
/// at a finite ring; an infinite queue would just measure allocator
/// throughput).
const SOURCE_QUEUE_FRAMES: u64 = 128;

/// Port-scheduler choice for a netqos cell (the weight table for WRR
/// depends on the cell's topology, so cells carry this tag and build the
/// concrete [`PortPolicy`] per run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetSched {
    /// Arrival order: the semaphore-era lane.
    Fifo,
    /// Per-flow deficit round robin, equal weights.
    Drr,
    /// Weighted DRR: victims weighted 4, aggressors 1.
    Wrr,
}

impl NetSched {
    /// Every policy, in sweep order.
    pub const ALL: [NetSched; 3] = [NetSched::Fifo, NetSched::Drr, NetSched::Wrr];

    /// CSV / CLI label.
    pub fn label(self) -> &'static str {
        match self {
            NetSched::Fifo => "port-fifo",
            NetSched::Drr => "port-drr",
            NetSched::Wrr => "port-wrr",
        }
    }

    /// Parses a CLI label (long or short form).
    pub fn parse(s: &str) -> Option<NetSched> {
        match s {
            "port-fifo" | "fifo" => Some(NetSched::Fifo),
            "port-drr" | "drr" => Some(NetSched::Drr),
            "port-wrr" | "wrr" => Some(NetSched::Wrr),
            _ => None,
        }
    }

    /// The concrete policy for a cell with `victims` NFS clients (flows
    /// `0..victims`) and `aggressors` open-loop sources (the flows after
    /// them, in attach order).
    pub fn build(self, victims: usize, aggressors: usize) -> PortPolicy {
        // One full-size fragmented frame per round: short rounds keep a
        // closed-loop victim's per-RPC wait near one round trip instead
        // of one multi-frame aggressor quantum.
        const QUANTUM: u64 = 9000;
        match self {
            NetSched::Fifo => PortPolicy::Fifo,
            NetSched::Drr => PortPolicy::Drr { quantum: QUANTUM },
            NetSched::Wrr => {
                let mut w = vec![4u32; victims];
                w.extend(std::iter::repeat_n(1u32, aggressors));
                PortPolicy::Wrr {
                    quantum: QUANTUM,
                    weights: WeightTable::new(w),
                }
            }
        }
    }
}

/// One netqos measurement's parameters.
#[derive(Debug, Clone)]
pub struct NetQosConfig {
    /// Server under test (its NIC rate is the uplink rate).
    pub server: ServerKind,
    /// Uplink port scheduler.
    pub sched: NetSched,
    /// Aggressor traffic shape.
    pub mix: TrafficMix,
    /// Number of closed-loop NFS victims.
    pub victims: usize,
    /// Sequential bytes each victim writes (plus a flush-to-close).
    pub bytes_per_victim: u64,
    /// Whether the aggressors run at all (`false` = the baseline world).
    pub aggressors: bool,
    /// Base RNG seed; victims and aggressor pacers derive theirs from it.
    pub seed: u64,
}

impl NetQosConfig {
    /// The standard cell: `victims` 100bT clients vs the mix's aggressors.
    pub fn new(
        server: ServerKind,
        sched: NetSched,
        mix: TrafficMix,
        victims: usize,
        bytes: u64,
    ) -> NetQosConfig {
        NetQosConfig {
            server,
            sched,
            mix,
            victims,
            bytes_per_victim: bytes,
            aggressors: true,
            seed: 0x0919,
        }
    }

    /// The aggressor-free baseline for the same world.
    pub fn baseline(&self) -> NetQosConfig {
        NetQosConfig {
            aggressors: false,
            ..self.clone()
        }
    }
}

/// Everything measured in one netqos run.
#[derive(Debug, Clone)]
pub struct NetQosRun {
    /// Each victim's write-through-close throughput, MB/s, victim order.
    pub victim_mbps: Vec<f64>,
    /// Each aggressor's sink-delivered throughput over the victims'
    /// runtime, MB/s (empty without aggressors).
    pub aggressor_mbps: Vec<f64>,
    /// Jain fairness over every flow: victims and aggressors.
    pub jain_all: f64,
    /// Jain fairness over the victims only.
    pub victim_jain: f64,
    /// Uplink to-server queue-delay p99 (time from lane arrival to slot
    /// grant, before the frame's own serialization).
    pub qdelay_p99: SimDuration,
    /// Wall time until the last victim closed.
    pub elapsed: SimDuration,
}

/// Runs one netqos measurement. Victims write sequentially and close;
/// aggressors inject open-loop until the last victim finishes.
/// Deterministic for a given config.
pub fn run_netqos(config: &NetQosConfig) -> NetQosRun {
    assert!(config.victims > 0, "the sweep needs victims to starve");
    let n_agg = if config.aggressors {
        config.mix.aggressors()
    } else {
        0
    };
    let policy = config.sched.build(config.victims, n_agg);
    let sim = Sim::new();
    let uplink_spec = config.server.nic_spec();
    let switch = Switch::with_port_sched(&sim, uplink_spec, Path::default_latency(), &policy);
    switch.uplink().set_queue_sampling(1);
    let server = NfsServer::new(&sim, config.server.server_config());

    // Victims first: flows 0..victims, matching NetSched::build's
    // weight-table layout.
    let victims: Vec<_> = (0..config.victims)
        .map(|i| {
            // Victims alternate between two classes: odd flows mount
            // aggressively (gigabit port, deep slot table, 32 KB wsize),
            // even flows meekly (100bT, shallow slots, the paper's 8 KB
            // wsize). A FIFO uplink serves whoever keeps the most
            // datagrams queued, so once aggressors deepen the backlog
            // the aggressive minority crowds the meek majority out;
            // per-flow DRR caps every flow at the same byte share
            // regardless of how hard it pushes.
            let strong = i % 2 == 1;
            let nic = if strong {
                NicSpec::gigabit()
            } else {
                NicSpec::fast_ethernet()
            };
            let mount = MountConfig {
                tuning: ClientTuning::full_patch(),
                transport: Transport::Udp,
                wsize: if strong { 32 * 1024 } else { 8 * 1024 },
                slots: if strong { 32 } else { 8 },
                ..MountConfig::default()
            };
            let attach = |cnic: &_, spec| switch.attach(cnic, spec);
            mount_client(&sim, &server, config.seed, i, nic, attach, mount).1
        })
        .collect();

    // Aggressors next: each attaches a gigabit port whose server-side
    // receive queue drains into a counting sink — the server never sees
    // these flows, so all interference is at the uplink.
    let uplink_rate = uplink_spec.bandwidth_bps / 8;
    let mean_gap = config.mix.mean_epoch_gap(AGGRESSOR_FRAME, uplink_rate);
    type SinkCounts = (Rc<Cell<u64>>, Rc<Cell<u64>>);
    let delivered: Vec<SinkCounts> = (0..n_agg)
        .map(|_| (Rc::new(Cell::new(0u64)), Rc::new(Cell::new(0u64))))
        .collect();
    for (a, (frames, bytes)) in delivered.iter().enumerate() {
        let (anic, _arx) = Nic::new(&sim, "aggressor", NicSpec::gigabit());
        let (path, port_rx) = switch.attach(&anic, NicSpec::gigabit());
        let (frames, bytes) = (Rc::clone(frames), Rc::clone(bytes));
        let sink_frames = Rc::clone(&frames);
        sim.spawn_detached(async move {
            while let Some(p) = port_rx.recv().await {
                sink_frames.set(sink_frames.get() + 1);
                bytes.set(bytes.get() + p.len() as u64);
            }
        });
        // Synchronized mixes share one gap stream so bursts coincide;
        // the hog mix paces each source independently.
        let gap_seed = if config.mix.synchronized() {
            config.seed ^ 0xA66
        } else {
            config.seed ^ 0xA66 ^ (0x9e37_79b9u64 * (a as u64 + 1))
        };
        let mut pacer = OpenLoop::new(gap_seed, mean_gap, config.mix.alpha());
        let burst = config.mix.burst_frames();
        let sim2 = sim.clone();
        sim.spawn_detached(async move {
            let mut sent = 0u64;
            loop {
                // Finite source queue: hold injection while too many of
                // our frames are still queued at the uplink.
                while sent.saturating_sub(frames.get()) >= SOURCE_QUEUE_FRAMES {
                    sim2.sleep(SimDuration::from_micros(100)).await;
                }
                for _ in 0..burst {
                    path.send(vec![0u8; AGGRESSOR_FRAME]);
                    sent += 1;
                }
                sim2.sleep(pacer.next_gap()).await;
            }
        });
    }

    let bytes = config.bytes_per_victim;
    let s2 = sim.clone();
    let (elapsed, per_elapsed) = sim.run_until(async move {
        let t0 = s2.now();
        let per = write_all(&s2, &victims, bytes, |i| format!("netqos{i}.victim")).await;
        (s2.now().since(t0), per)
    });

    let victim_mbps: Vec<f64> = per_elapsed.iter().map(|e| mbps(bytes, *e)).collect();
    let aggressor_mbps: Vec<f64> = delivered
        .iter()
        .map(|(_, bytes)| mbps(bytes.get(), elapsed))
        .collect();
    let mut all = victim_mbps.clone();
    all.extend_from_slice(&aggressor_mbps);
    let run = NetQosRun {
        jain_all: jain_index(&all),
        victim_jain: jain_index(&victim_mbps),
        victim_mbps,
        aggressor_mbps,
        qdelay_p99: switch.uplink().queue_delay(LinkDir::ToServer).p99,
        elapsed,
    };
    sim.teardown();
    run
}

/// One row of the netqos sweep: an aggressor run paired with the
/// aggressor-free baseline under the same (server, sched).
#[derive(Debug, Clone)]
pub struct NetQosCell {
    /// Server under test.
    pub server: ServerKind,
    /// Uplink scheduler.
    pub sched: NetSched,
    /// Aggressor mix.
    pub mix: TrafficMix,
    /// Victim count.
    pub victims: usize,
    /// Aggressor count.
    pub aggressors: usize,
    /// Mean victim throughput with aggressors running, MB/s.
    pub victim_mean_mbps: f64,
    /// Mean victim throughput in the aggressor-free baseline, MB/s.
    pub base_victim_mbps: f64,
    /// Slowest victim's throughput with aggressors running, MB/s.
    pub victim_min_mbps: f64,
    /// Total aggressor sink-delivered rate, MB/s.
    pub aggressor_mbps: f64,
    /// Jain fairness over every flow, aggressors included.
    pub jain_all: f64,
    /// Jain fairness over the victims only.
    pub victim_jain: f64,
    /// Uplink queue-delay p99 with aggressors, ms.
    pub qdelay_p99_ms: f64,
    /// Uplink queue-delay p99 in the baseline, ms.
    pub base_qdelay_p99_ms: f64,
    /// `qdelay_p99_ms / base_qdelay_p99_ms` — queueing the mix added.
    pub qdelay_ratio: f64,
}

/// The full netqos sweep.
#[derive(Debug, Clone)]
pub struct NetQosSweep {
    /// All cells, in (server, sched, mix) order.
    pub rows: Vec<NetQosCell>,
    /// Victim count per cell.
    pub victims: usize,
    /// Bytes each victim wrote.
    pub bytes_per_victim: u64,
}

/// Folds an aggressor run and its baseline into one sweep row.
fn netqos_row(config: &NetQosConfig, base: &NetQosRun, run: &NetQosRun) -> NetQosCell {
    let n = run.victim_mbps.len() as f64;
    let qdelay_p99_ms = run.qdelay_p99.as_nanos() as f64 / 1e6;
    let base_qdelay_p99_ms = base.qdelay_p99.as_nanos() as f64 / 1e6;
    NetQosCell {
        server: config.server,
        sched: config.sched,
        mix: config.mix,
        victims: config.victims,
        aggressors: config.mix.aggressors(),
        victim_mean_mbps: run.victim_mbps.iter().sum::<f64>() / n,
        base_victim_mbps: base.victim_mbps.iter().sum::<f64>() / n,
        victim_min_mbps: run
            .victim_mbps
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        aggressor_mbps: run.aggressor_mbps.iter().sum(),
        jain_all: run.jain_all,
        victim_jain: run.victim_jain,
        qdelay_p99_ms,
        base_qdelay_p99_ms,
        qdelay_ratio: if base_qdelay_p99_ms > 0.0 {
            qdelay_p99_ms / base_qdelay_p99_ms
        } else {
            1.0
        },
    }
}

/// Builds the phased work-list: per `(server, sched)` one aggressor-free
/// baseline cell (the baseline is mix-independent) plus one cell per mix.
/// Results pair back up in [`assemble_netqos_rows`].
pub fn netqos_run_cells(
    servers: &[ServerKind],
    scheds: &[NetSched],
    mixes: &[TrafficMix],
    victims: usize,
    bytes_per_victim: u64,
) -> Vec<runner::Cell<NetQosRun>> {
    let mut cells = Vec::new();
    for &server in servers {
        for &sched in scheds {
            let base = NetQosConfig::new(server, sched, TrafficMix::Hog, victims, bytes_per_victim)
                .baseline();
            cells.push(runner::Cell::new(move || run_netqos(&base)));
            for &mix in mixes {
                let config = NetQosConfig::new(server, sched, mix, victims, bytes_per_victim);
                cells.push(runner::Cell::new(move || run_netqos(&config)));
            }
        }
    }
    cells
}

/// Pairs the phased results (work-list order: baseline then one run per
/// mix, per `(server, sched)`) back into sweep rows.
pub fn assemble_netqos_rows(
    servers: &[ServerKind],
    scheds: &[NetSched],
    mixes: &[TrafficMix],
    victims: usize,
    bytes_per_victim: u64,
    runs: Vec<NetQosRun>,
) -> Vec<NetQosCell> {
    assert_eq!(
        runs.len(),
        servers.len() * scheds.len() * (mixes.len() + 1),
        "one baseline + one run per mix, per (server, sched)"
    );
    let mut it = runs.into_iter();
    let mut rows = Vec::new();
    for &server in servers {
        for &sched in scheds {
            let base = it.next().expect("baseline run");
            for &mix in mixes {
                let run = it.next().expect("mix run");
                let config = NetQosConfig::new(server, sched, mix, victims, bytes_per_victim);
                rows.push(netqos_row(&config, &base, &run));
            }
        }
    }
    rows
}

/// Runs the sweep on up to `jobs` worker threads. Cells are independent
/// deterministic worlds — rows (and the CSV) are bit-identical at any
/// `jobs` value.
pub fn netqos_sweep(
    servers: &[ServerKind],
    scheds: &[NetSched],
    mixes: &[TrafficMix],
    victims: usize,
    bytes_per_victim: u64,
    jobs: usize,
) -> NetQosSweep {
    let runs = runner::run_cells(
        jobs,
        netqos_run_cells(servers, scheds, mixes, victims, bytes_per_victim),
    );
    NetQosSweep {
        rows: assemble_netqos_rows(servers, scheds, mixes, victims, bytes_per_victim, runs),
        victims,
        bytes_per_victim,
    }
}

impl NetQosSweep {
    /// The sweep as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "server,sched,mix,victims,aggressors,victim_mean_mbps,base_victim_mbps,\
             victim_min_mbps,aggressor_mbps,jain_all,victim_jain,qdelay_p99_ms,\
             base_qdelay_p99_ms,qdelay_ratio\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.4},{:.4},{:.3},{:.3},{:.2}\n",
                r.server.label(),
                r.sched.label(),
                r.mix.label(),
                r.victims,
                r.aggressors,
                r.victim_mean_mbps,
                r.base_victim_mbps,
                r.victim_min_mbps,
                r.aggressor_mbps,
                r.jain_all,
                r.victim_jain,
                r.qdelay_p99_ms,
                r.base_qdelay_p99_ms,
                r.qdelay_ratio,
            ));
        }
        out
    }

    /// Renders an ASCII table plus a per-(server, mix) verdict comparing
    /// each fair policy against port-fifo.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.server.label().to_owned(),
                    r.sched.label().to_owned(),
                    r.mix.label().to_owned(),
                    format!("{:.2}", r.victim_mean_mbps),
                    format!("{:.2}", r.base_victim_mbps),
                    format!("{:.2}", r.aggressor_mbps),
                    format!("{:.3}", r.jain_all),
                    format!("{:.3}", r.victim_jain),
                    format!("{:.2}", r.qdelay_p99_ms),
                    format!("{:.2}x", r.qdelay_ratio),
                ]
            })
            .collect();
        let mut out = ascii_table(
            &[
                "server",
                "sched",
                "mix",
                "victim MB/s",
                "baseline",
                "aggr MB/s",
                "jain(all)",
                "jain(victims)",
                "qdelay p99 ms",
                "vs base",
            ],
            &rows,
        );
        for r in &self.rows {
            if r.sched == NetSched::Fifo {
                continue;
            }
            let fifo = self
                .rows
                .iter()
                .find(|f| f.server == r.server && f.mix == r.mix && f.sched == NetSched::Fifo);
            if let Some(fifo) = fifo {
                out.push_str(&format!(
                    "{} {} + {}: victim {:.2} -> {:.2} MB/s (baseline {:.2}), jain {:.2} -> {:.2}, victim jain {:.2} -> {:.2}, qdelay p99 {:.1}x -> {:.1}x base\n",
                    r.server.label(),
                    r.mix.label(),
                    r.sched.label(),
                    fifo.victim_mean_mbps,
                    r.victim_mean_mbps,
                    r.base_victim_mbps,
                    fifo.jain_all,
                    r.jain_all,
                    fifo.victim_jain,
                    r.victim_jain,
                    fifo.qdelay_ratio,
                    r.qdelay_ratio,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(sched: NetSched) -> NetQosConfig {
        NetQosConfig::new(ServerKind::Knfsd, sched, TrafficMix::Hog, 2, 256 * 1024)
    }

    #[test]
    fn netqos_runs_are_deterministic() {
        let a = run_netqos(&tiny(NetSched::Drr));
        let b = run_netqos(&tiny(NetSched::Drr));
        assert_eq!(a.victim_mbps, b.victim_mbps);
        assert_eq!(a.aggressor_mbps, b.aggressor_mbps);
        assert_eq!(a.qdelay_p99, b.qdelay_p99);
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn port_drr_protects_victims_the_fifo_lane_starves() {
        let fifo = run_netqos(&tiny(NetSched::Fifo));
        let drr = run_netqos(&tiny(NetSched::Drr));
        // Victim 0 mounts meekly (shallow slots, 8 KB wsize): FIFO lets
        // the aggressors and the aggressive victim crowd it out, DRR
        // guarantees it the same byte share as everyone else.
        let meek = |r: &NetQosRun| r.victim_mbps[0];
        assert!(
            meek(&drr) > 2.0 * meek(&fifo),
            "DRR meek victim {:.2} MB/s vs FIFO {:.2} MB/s",
            meek(&drr),
            meek(&fifo)
        );
        assert!(drr.victim_jain > fifo.victim_jain);
        assert!(drr.jain_all > fifo.jain_all);
    }

    #[test]
    fn baseline_world_has_no_aggressor_traffic() {
        let base = run_netqos(&tiny(NetSched::Fifo).baseline());
        assert!(base.aggressor_mbps.is_empty());
        assert_eq!(base.victim_mbps.len(), 2);
        assert!(base.victim_mbps.iter().all(|m| *m > 0.0));
    }

    #[test]
    fn sched_parse_build_roundtrip() {
        for s in NetSched::ALL {
            assert_eq!(NetSched::parse(s.label()), Some(s));
        }
        assert_eq!(NetSched::Fifo.build(3, 2), PortPolicy::Fifo);
        match NetSched::Wrr.build(2, 3) {
            PortPolicy::Wrr { weights, .. } => {
                assert_eq!(weights.get(0), 4);
                assert_eq!(weights.get(1), 4);
                assert_eq!(weights.get(2), 1);
                assert_eq!(weights.get(4), 1);
            }
            p => panic!("expected WRR, got {p:?}"),
        }
    }
}
