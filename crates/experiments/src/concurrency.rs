//! The paper's future-work experiment: concurrent writes from separate
//! client CPUs to separate files and separate servers.
//!
//! §3.5 closes with: removing the global kernel lock from the RPC layer
//! "will allow a system with multiple network interfaces to process more
//! than one RPC request at a time and allow concurrent writes to
//! separate files and to separate servers from separate client CPUs."
//! This module measures exactly that: aggregate memory-write throughput
//! of two writers, with the lock held versus released.

use std::rc::Rc;

use nfsperf_client::{ClientTuning, MountConfig, NfsMount};
use nfsperf_kernel::{Kernel, KernelConfig, SimFile};
use nfsperf_net::{Nic, NicSpec, Path};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::{mbps, Sim};

/// Result of one concurrency measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyResult {
    /// Single-writer memory write throughput, MB/s.
    pub one_writer_mbps: f64,
    /// Aggregate throughput of two concurrent writers, MB/s.
    pub two_writers_mbps: f64,
}

impl ConcurrencyResult {
    /// Aggregate speedup of the second writer (2.0 = perfect scaling).
    pub fn scaling(&self) -> f64 {
        self.two_writers_mbps / self.one_writer_mbps
    }
}

/// Topology for the concurrent-writer experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Two files on one mount to one server.
    SharedServer,
    /// Two mounts to two independent servers (the multi-NIC future-work
    /// case; each mount gets its own slot table and path).
    SeparateServers,
}

fn build_world(sim: &Sim, tuning: ClientTuning, servers: usize) -> (Kernel, Vec<Rc<NfsMount>>) {
    let kernel = Kernel::new(sim, KernelConfig::default());
    let mut mounts = Vec::new();
    for i in 0..servers {
        let (cnic, crx) = Nic::new(sim, "client", NicSpec::gigabit());
        let (snic, srx) = Nic::new(
            sim,
            if i == 0 { "server0" } else { "server1" },
            NicSpec::gigabit(),
        );
        let to_server = Path::new(cnic, snic, Path::default_latency());
        NfsServer::spawn(sim, srx, to_server.reversed(), ServerConfig::netapp_f85());
        mounts.push(NfsMount::mount(
            &kernel,
            to_server,
            crx,
            MountConfig {
                tuning,
                ..MountConfig::default()
            },
        ));
    }
    (kernel, mounts)
}

async fn write_file(mount: Rc<NfsMount>, name: &str, bytes: u64) {
    let file = mount.create(name).await.expect("create");
    let mut off = 0;
    while off < bytes {
        file.write(off, 8192).await.expect("write");
        off += 8192;
    }
    // Memory-write measurement: leave flushing to the daemons, as the
    // paper's write-phase numbers do.
}

/// Measures one- and two-writer throughput for the tuning and topology.
pub fn concurrent_writers(
    tuning: ClientTuning,
    topology: Topology,
    bytes_per_writer: u64,
) -> ConcurrencyResult {
    // Single writer baseline.
    let one = {
        let sim = Sim::new();
        let (_kernel, mounts) = build_world(&sim, tuning, 1);
        let m = Rc::clone(&mounts[0]);
        let s2 = sim.clone();
        let elapsed = sim.run_until(async move {
            let t0 = s2.now();
            write_file(m, "w0", bytes_per_writer).await;
            s2.now().since(t0)
        });
        mbps(bytes_per_writer, elapsed)
    };

    // Two concurrent writers.
    let two = {
        let sim = Sim::new();
        let servers = match topology {
            Topology::SharedServer => 1,
            Topology::SeparateServers => 2,
        };
        let (_kernel, mounts) = build_world(&sim, tuning, servers);
        let m0 = Rc::clone(&mounts[0]);
        let m1 = Rc::clone(mounts.last().expect("at least one mount"));
        let s2 = sim.clone();
        let elapsed = sim.run_until(async move {
            let t0 = s2.now();
            let a = s2.spawn(async move { write_file(m0, "w0", bytes_per_writer).await });
            let b = s2.spawn(async move { write_file(m1, "w1", bytes_per_writer).await });
            a.await;
            b.await;
            s2.now().since(t0)
        });
        mbps(2 * bytes_per_writer, elapsed)
    };

    ConcurrencyResult {
        one_writer_mbps: one,
        two_writers_mbps: two,
    }
}

/// Runs the full future-work comparison: both topologies, lock held vs
/// released. Returns rows of `(label, result)`.
pub fn future_work_comparison(bytes_per_writer: u64) -> Vec<(&'static str, ConcurrencyResult)> {
    vec![
        (
            "shared server, BKL held",
            concurrent_writers(
                ClientTuning::hash_table(),
                Topology::SharedServer,
                bytes_per_writer,
            ),
        ),
        (
            "shared server, no lock",
            concurrent_writers(
                ClientTuning::full_patch(),
                Topology::SharedServer,
                bytes_per_writer,
            ),
        ),
        (
            "separate servers, BKL held",
            concurrent_writers(
                ClientTuning::hash_table(),
                Topology::SeparateServers,
                bytes_per_writer,
            ),
        ),
        (
            "separate servers, no lock",
            concurrent_writers(
                ClientTuning::full_patch(),
                Topology::SeparateServers,
                bytes_per_writer,
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_writers_add_throughput() {
        let r = concurrent_writers(
            ClientTuning::full_patch(),
            Topology::SeparateServers,
            2 << 20,
        );
        assert!(
            r.two_writers_mbps > r.one_writer_mbps,
            "a second writer must add aggregate throughput: {r:?}"
        );
        assert!(r.scaling() <= 2.05, "no superlinear scaling: {r:?}");
    }

    #[test]
    fn lock_release_improves_concurrent_scaling() {
        let held = concurrent_writers(
            ClientTuning::hash_table(),
            Topology::SeparateServers,
            2 << 20,
        );
        let free = concurrent_writers(
            ClientTuning::full_patch(),
            Topology::SeparateServers,
            2 << 20,
        );
        assert!(
            free.two_writers_mbps > held.two_writers_mbps,
            "releasing the BKL must raise aggregate throughput: held {held:?} free {free:?}"
        );
    }
}
