//! End-of-world audit of the waiter slab.
//!
//! Every parked waiter in the simulator is an entry of one thread-local
//! slab: WRITE tasks queued on the RPC slot table, daemons parked on
//! wait queues, tasks sleeping on the kernel lock. A world stopped in the
//! middle of a close still has thousands of WRITEs queued behind the
//! slot table. Tearing it down must free every entry they and the
//! world's daemons hold, so the slab's live count returns to where it
//! started.

use std::rc::Rc;

use nfsperf_client::{ClientTuning, MountConfig, NfsMount};
use nfsperf_kernel::{CostTable, Kernel, KernelConfig, MemTuning, SimFile};
use nfsperf_net::{Nic, NicSpec, Path};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::arbiter::live_waiters;
use nfsperf_sim::{Sim, SimDuration};

/// 4,096 WRITEs of 8 KiB: far more than the 16-entry slot table.
const FILE_BYTES: u64 = 32 << 20;

#[test]
fn teardown_mid_close_frees_every_parked_waiter() {
    let base = live_waiters();
    let sim = Sim::new();
    let kernel = Kernel::new(
        &sim,
        KernelConfig {
            ncpus: 2,
            ram_bytes: 256 << 20,
            seed: 501,
            costs: CostTable::default(),
            mem: MemTuning::default(),
        },
    );
    let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
    let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
    let to_server = Path::new(cnic, snic, Path::default_latency());
    let server = NfsServer::new(&sim, ServerConfig::netapp_f85());
    server.attach_udp(srx, to_server.reversed());
    // An idle `nfs_flushd` leaves every dirty batch to the close.
    let mount = NfsMount::mount(
        &kernel,
        to_server,
        crx,
        MountConfig {
            tuning: ClientTuning::full_patch(),
            flushd_interval: SimDuration::from_secs(3600),
            ..MountConfig::default()
        },
    );

    let m = Rc::clone(&mount);
    let file = sim.run_until(async move {
        let file = m.create("teardown.scratch").await.expect("create");
        let mut off = 0;
        while off < FILE_BYTES {
            off += file.write(off, 1 << 20).await.expect("write");
        }
        file
    });
    sim.spawn_detached(async move {
        file.close().await.expect("close");
    });
    // Stop the world 20 ms into the close.
    let s = sim.clone();
    sim.run_until(async move { s.sleep(SimDuration::from_millis(20)).await });
    let queued = mount.xprt().queued_senders();
    assert!(
        queued >= 1_000,
        "only {queued} WRITEs queued behind the slot table"
    );
    assert!(live_waiters() >= base + queued);

    drop((mount, server, kernel));
    sim.teardown();
    assert_eq!(
        live_waiters(),
        base,
        "the torn-down world left waiter entries live"
    );
}
