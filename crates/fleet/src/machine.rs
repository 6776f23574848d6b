//! The fleet's client machine and its writer, written once.
//!
//! Every world that puts faithful clients behind a shared uplink — the
//! fleet, QoS and network-QoS sweeps, the megafleet's embedded tier, and
//! the calibration probe — builds the same client: a dual-CPU 256 MiB
//! kernel whose RNG seed is spread from the world's base seed by client
//! index, one NIC, and one mount of the server. Each then runs the
//! paper's Bonnie-style writer on it: create, sequential 8 KiB writes,
//! close. The probe is machine 0, so the model it calibrates replays
//! exactly the client a mixed fleet embeds first.

use std::rc::Rc;

use nfsperf_client::{MountConfig, NfsMount};
use nfsperf_kernel::{CostTable, Kernel, KernelConfig, MemTuning, SimFile};
use nfsperf_net::{DatagramPayload, Nic, NicSpec, Path};
use nfsperf_server::NfsServer;
use nfsperf_sim::{Receiver, Sim, SimDuration};
use nfsperf_sunrpc::Transport;

/// Builds fleet client machine `index` and mounts `server` over it.
///
/// The machine's kernel seed is `seed + φ·(index + 1)` (SplitMix-style
/// spread, so per-machine jitter streams are distinct but reproducible).
/// `attach` wires the machine's NIC into the world's switch or fabric at
/// `nic`'s rate and returns the path to the server and the server-side
/// port's receive queue; the server serves that port over the mount's
/// transport. Returns the NIC (for its transmit trace) and the mount.
pub fn mount_client(
    sim: &Sim,
    server: &Rc<NfsServer>,
    seed: u64,
    index: usize,
    nic: NicSpec,
    attach: impl FnOnce(&Rc<Nic>, NicSpec) -> (Path, Receiver<DatagramPayload>),
    config: MountConfig,
) -> (Rc<Nic>, Rc<NfsMount>) {
    let kernel = Kernel::new(
        sim,
        KernelConfig {
            ncpus: 2,
            ram_bytes: 256 << 20,
            seed: seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1)),
            costs: CostTable::default(),
            mem: MemTuning::default(),
        },
    );
    let (cnic, crx) = Nic::new(sim, "client", nic);
    let (to_server, port_rx) = attach(&cnic, nic);
    match config.transport {
        Transport::Udp => server.attach_udp(port_rx, to_server.reversed()),
        Transport::Tcp => server.attach_tcp(port_rx, to_server.reversed()),
    };
    let mount = NfsMount::mount(&kernel, to_server, crx, config);
    (cnic, mount)
}

/// The paper's sequential writer: creates `name`, writes `bytes` from
/// offset 0 in 8 KiB calls (the last one shorter when `bytes` is not a
/// multiple), and closes, which flushes and commits everything.
pub async fn write_through_close(mount: &Rc<NfsMount>, name: &str, bytes: u64) {
    let file = mount.create(name).await.expect("create");
    let mut off = 0;
    while off < bytes {
        let n = 8192.min(bytes - off);
        file.write(off, n).await.expect("write");
        off += n;
    }
    file.close().await.expect("close");
}

/// Spawns one [`write_through_close`] writer per mount, in mount order,
/// each on the file `name(i)`, and joins them. Returns each client's
/// elapsed time from the call to its close.
pub async fn write_all(
    sim: &Sim,
    mounts: &[Rc<NfsMount>],
    bytes: u64,
    name: impl Fn(usize) -> String,
) -> Vec<SimDuration> {
    let t0 = sim.now();
    let workers: Vec<_> = mounts
        .iter()
        .enumerate()
        .map(|(i, mount)| {
            let (mount, sim2, name) = (Rc::clone(mount), sim.clone(), name(i));
            sim.spawn(async move {
                write_through_close(&mount, &name, bytes).await;
                sim2.now().since(t0)
            })
        })
        .collect();
    let mut per = Vec::with_capacity(workers.len());
    for w in workers {
        per.push(w.await);
    }
    per
}
