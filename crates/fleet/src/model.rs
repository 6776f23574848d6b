//! Calibrating a behavioral client from a faithful client's wire trace.
//!
//! One faithful client runs the paper's sequential-write workload solo
//! against the target server; its NIC's departure log (`Nic::tx_events`,
//! which the probe asks for with `Nic::log_departures`) is the
//! tcpdump's-eye view of the write path. From it the model keeps
//! a 17-point quantile table of WRITE inter-departure gaps (replayed by
//! inverse-CDF sampling), the observed WRITE datagram size, the
//! WRITE:COMMIT ratio from mount counters, and the probe mount's RPC
//! slot-table size as the outstanding-RPC cap. Together that is what a
//! *server* experiences from a client — pacing, sizes, mix, and
//! concurrency — and therefore everything a flyweight needs to
//! reproduce.

use std::rc::Rc;

use nfsperf_client::{ClientTuning, MountConfig};
use nfsperf_net::{NicSpec, Switch};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::{Sim, SimDuration};
use nfsperf_sunrpc::Transport;

use crate::machine::{mount_client, write_through_close};

/// Points in the gap quantile table (quantiles 0/16, 1/16, …, 16/16).
pub const GAP_QUANTILES: usize = 17;

/// Which RPC a flyweight emits at a given sequence position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlyOp {
    /// An 8 KB-class WRITE call.
    Write,
    /// A COMMIT call (flush barrier, as at close).
    Commit,
}

/// The calibrated behavioral model: one per fleet, shared by every
/// flyweight (per-client state is just an RNG cursor into it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BehaviorModel {
    /// WRITE inter-departure gap quantiles, evenly spaced from the 0th
    /// to the 100th percentile of the measured trace.
    pub gap_quantiles: [SimDuration; GAP_QUANTILES],
    /// UDP payload bytes of one WRITE call datagram as measured on the
    /// wire (NFS payload plus RPC/NFS framing).
    pub write_wire_bytes: usize,
    /// UDP payload bytes of one COMMIT-class (small) call datagram.
    pub commit_wire_bytes: usize,
    /// NFS payload bytes carried per WRITE.
    pub write_payload: u64,
    /// WRITEs per COMMIT, from the faithful client's mount counters.
    pub writes_per_commit: u32,
    /// Maximum outstanding RPCs a flyweight keeps in flight: the probe
    /// mount's RPC slot-table size (clamped to [2, 16]). A solo trace
    /// cannot observe this cap — the probe's NIC paces it below its slot
    /// limit — but under fleet contention the slot table is exactly what
    /// bounds a faithful client's share of the server queue, so the
    /// flyweight must carry the same cap to compete on equal terms.
    pub window: u32,
}

impl BehaviorModel {
    /// Draws one inter-departure gap by inverse-CDF sampling with linear
    /// interpolation between quantile points. `state` is the caller's
    /// SplitMix64 cursor.
    pub fn sample_gap(&self, state: &mut u64) -> SimDuration {
        let u = splitmix64(state);
        // 53 uniform mantissa bits in [0, 1).
        let f = (u >> 11) as f64 / (1u64 << 53) as f64;
        let pos = f * (GAP_QUANTILES - 1) as f64;
        let i = pos as usize;
        let frac = pos - i as f64;
        let lo = self.gap_quantiles[i].0 as f64;
        let hi = self.gap_quantiles[(i + 1).min(GAP_QUANTILES - 1)].0 as f64;
        SimDuration((lo + (hi - lo) * frac) as u64)
    }

    /// The RPC kind at sequence position `seq` of a client that writes
    /// `total_writes` WRITEs: blocks of `writes_per_commit` WRITEs each
    /// followed by a COMMIT, with a trailing COMMIT flushing any
    /// remainder (the close-time flush).
    pub fn op_at(&self, seq: u32, total_writes: u32) -> FlyOp {
        let block = self.writes_per_commit + 1;
        let k = seq % block;
        let writes_before = (seq / block) * self.writes_per_commit + k.min(self.writes_per_commit);
        if k == self.writes_per_commit || writes_before >= total_writes {
            FlyOp::Commit
        } else {
            FlyOp::Write
        }
    }

    /// Total RPCs a client emitting `total_writes` WRITEs sends,
    /// COMMITs included.
    pub fn total_ops(&self, total_writes: u32) -> u32 {
        total_writes + total_writes.div_ceil(self.writes_per_commit)
    }
}

/// SplitMix64: the flyweight per-client RNG. One `u64` of state, good
/// statistical quality for stream splitting, and cheap enough to keep a
/// million cursors.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Parameters of one calibration probe run.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Server the probe (and later the fleet) runs against.
    pub server: ServerConfig,
    /// The server's NIC (also the shared-uplink rate).
    pub server_nic: NicSpec,
    /// The probe client's NIC — must match the flyweights it calibrates.
    pub client_nic: NicSpec,
    /// Bytes the probe writes sequentially before closing.
    pub probe_bytes: u64,
    /// Base RNG seed of the fleet being calibrated; the probe is its
    /// machine 0 ([`crate::machine::mount_client`]).
    pub seed: u64,
    /// Client tuning (the patched client by default, matching the fleet
    /// sweep's assumption that the paper's fixes are in).
    pub tuning: ClientTuning,
}

impl CalibrationConfig {
    /// A 1 MiB UDP probe with the fleet sweep's defaults.
    pub fn new(server: ServerConfig, server_nic: NicSpec) -> CalibrationConfig {
        CalibrationConfig {
            server,
            server_nic,
            client_nic: NicSpec::fast_ethernet(),
            probe_bytes: 1 << 20,
            seed: 0x1f5,
            tuning: ClientTuning::full_patch(),
        }
    }
}

/// A calibration result: the model plus the raw measured gaps (sorted),
/// kept for tolerance tests and reports.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The fitted behavioral model.
    pub model: BehaviorModel,
    /// Measured WRITE inter-departure gaps, sorted ascending.
    pub gaps: Vec<SimDuration>,
}

/// Runs the probe world — one faithful client through a single-uplink
/// switch into the target server, writing `probe_bytes` and closing —
/// and fits a [`BehaviorModel`] to its transmit trace. Deterministic
/// for a given config.
pub fn calibrate(config: &CalibrationConfig) -> Calibration {
    let sim = Sim::new();
    let switch = Switch::new(
        &sim,
        config.server_nic,
        nfsperf_net::Path::default_latency(),
    );
    let server = NfsServer::new(&sim, config.server.clone());
    let mount_config = MountConfig {
        tuning: config.tuning,
        transport: Transport::Udp,
        ..MountConfig::default()
    };
    let slots = mount_config.slots;
    // Machine 0 of the fleet's seed spread: the same machine the mixed
    // fleet embeds first.
    let (cnic, mount) = mount_client(
        &sim,
        &server,
        config.seed,
        0,
        config.client_nic,
        |nic, spec| switch.attach(nic, spec),
        mount_config,
    );

    cnic.log_departures();
    let bytes = config.probe_bytes;
    let m2 = Rc::clone(&mount);
    sim.run_until(async move { write_through_close(&m2, "probe.scratch", bytes).await });

    let stats = mount.stats();
    let events = cnic.tx_events();
    // WRITE calls are the only datagrams whose payload exceeds the 8 KB
    // write unit; everything else (CREATE, COMMIT) is header-sized.
    let writes: Vec<(nfsperf_sim::SimTime, usize)> = events
        .iter()
        .copied()
        .filter(|(_, len)| *len >= 8192)
        .collect();
    assert!(
        writes.len() >= 2,
        "calibration probe must emit at least two WRITEs (wrote {bytes} bytes)"
    );
    let mut gaps: Vec<SimDuration> = writes.windows(2).map(|w| w[1].0.since(w[0].0)).collect();
    gaps.sort_unstable();

    let mut gap_quantiles = [SimDuration::ZERO; GAP_QUANTILES];
    for (k, q) in gap_quantiles.iter_mut().enumerate() {
        let idx = k * (gaps.len() - 1) / (GAP_QUANTILES - 1);
        *q = gaps[idx];
    }

    let commit_wire_bytes = events
        .iter()
        .filter(|(_, len)| *len < 8192)
        .map(|(_, len)| *len)
        .max()
        .unwrap_or(128);

    Calibration {
        model: BehaviorModel {
            gap_quantiles,
            write_wire_bytes: writes[0].1,
            commit_wire_bytes,
            write_payload: 8192,
            writes_per_commit: ((stats.write_rpcs / stats.commit_rpcs.max(1)).max(1)) as u32,
            window: (slots as u32).clamp(2, 16),
        },
        gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model(wpc: u32) -> BehaviorModel {
        BehaviorModel {
            gap_quantiles: std::array::from_fn(|i| SimDuration((i as u64 + 1) * 1000)),
            write_wire_bytes: 8328,
            commit_wire_bytes: 128,
            write_payload: 8192,
            writes_per_commit: wpc,
            window: 4,
        }
    }

    #[test]
    fn op_sequence_interleaves_and_flushes_tail() {
        let m = toy_model(2);
        let kinds: Vec<FlyOp> = (0..m.total_ops(5)).map(|s| m.op_at(s, 5)).collect();
        assert_eq!(
            kinds,
            vec![
                FlyOp::Write,
                FlyOp::Write,
                FlyOp::Commit,
                FlyOp::Write,
                FlyOp::Write,
                FlyOp::Commit,
                FlyOp::Write,
                FlyOp::Commit,
            ]
        );
        assert_eq!(kinds.iter().filter(|k| **k == FlyOp::Write).count(), 5);
    }

    #[test]
    fn large_wpc_defers_commit_to_close() {
        let m = toy_model(128);
        // A 2-write client under wpc=128: two WRITEs, one close COMMIT.
        assert_eq!(m.total_ops(2), 3);
        assert_eq!(m.op_at(0, 2), FlyOp::Write);
        assert_eq!(m.op_at(1, 2), FlyOp::Write);
        assert_eq!(m.op_at(2, 2), FlyOp::Commit);
    }

    #[test]
    fn gap_sampling_stays_in_measured_range_and_is_deterministic() {
        let m = toy_model(2);
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..1000 {
            let g = m.sample_gap(&mut a);
            assert!(g >= m.gap_quantiles[0] && g <= m.gap_quantiles[GAP_QUANTILES - 1]);
            assert_eq!(g, m.sample_gap(&mut b));
        }
        // Distinct cursors diverge.
        let mut c = 43u64;
        let diverged = (0..100).any(|_| {
            let mut a2 = a;
            m.sample_gap(&mut c) != m.sample_gap(&mut a2)
        });
        assert!(diverged);
    }

    #[test]
    fn calibration_is_deterministic_and_plausible() {
        let cfg = CalibrationConfig {
            probe_bytes: 256 * 1024,
            ..CalibrationConfig::new(ServerConfig::netapp_f85(), NicSpec::gigabit())
        };
        let a = calibrate(&cfg);
        let b = calibrate(&cfg);
        assert_eq!(a.model, b.model);
        assert_eq!(a.gaps, b.gaps);
        assert!(a.model.write_wire_bytes > 8192, "WRITE carries framing");
        assert!(a.model.commit_wire_bytes < 8192);
        assert!(a.model.writes_per_commit >= 1);
        assert!((2..=16).contains(&a.model.window));
        assert!(a.model.gap_quantiles[0] > SimDuration::ZERO);
        assert!(a.model.gap_quantiles[0] <= a.model.gap_quantiles[GAP_QUANTILES - 1]);
    }
}
