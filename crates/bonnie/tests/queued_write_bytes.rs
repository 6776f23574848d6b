//! Heap bytes a WRITE costs while it waits for a transport slot.
//!
//! Closing a file schedules every dirty batch at once, and each batch
//! becomes a WRITE task that parks on the 16-entry RPC slot table (the
//! 2.4 `rpc_task` waiting for an `xprt` slot). At four times RAM that is
//! tens of thousands of tasks, so what each one holds while queued sets
//! the client's heap peak. This harness wraps the system allocator with
//! a live-byte counter and its high-water mark, writes a file that stays
//! under the dirty thresholds (so nothing is written back before the
//! close), and divides the close's heap growth by the most WRITEs queued
//! behind the slot table at once.

use std::cell::Cell;
use std::rc::Rc;

use nfsperf_client::{ClientTuning, MountConfig, NfsMount};
use nfsperf_kernel::{CostTable, Kernel, KernelConfig, MemTuning, SimFile};
use nfsperf_net::{Nic, NicSpec, Path};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::{Sim, SimDuration};

mod common;
use common::{peak_bytes, reset_peak, PeakAlloc};

#[global_allocator]
static COUNTER: PeakAlloc = PeakAlloc;

/// Heap growth allowed per queued WRITE: the spawned task (64 bytes),
/// its two-entry batch vector, its 24-byte entry in the waiter slab and
/// its 4-byte id in the slot table's queue, and its share of the task
/// table and the waker arena. The close measures 174 (235 when the task
/// was 112 bytes, 256 when each waiter was a 48-byte reference-counted
/// node queued by pointer); a task that holds the whole RPC state
/// machine while it waits measures 1,032.
const BYTES_PER_QUEUED_WRITE_BUDGET: usize = 240;

/// Bytes the file holds: 24,576 pages, 12,288 WRITEs of 8 KiB. Under
/// the 112 MiB background threshold of the client's 256 MiB, so the
/// writer never kicks writeback.
const FILE_BYTES: u64 = 96 << 20;

#[test]
fn a_queued_write_holds_few_heap_bytes() {
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
    // `nfs_flushd` would otherwise write behind every 11 ms; sleeping for
    // an hour it leaves every batch to the close.
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
        let file = m.create("queued.scratch").await.expect("create");
        let mut off = 0;
        while off < FILE_BYTES {
            off += file.write(off, 1 << 20).await.expect("write");
        }
        file
    });
    assert_eq!(mount.stats().write_rpcs, 0, "nothing was written back yet");

    let base = reset_peak();
    let closed = Rc::new(Cell::new(false));
    let (s, m, done) = (sim.clone(), Rc::clone(&mount), Rc::clone(&closed));
    let sampler = sim.spawn(async move {
        let mut most = 0;
        while !done.get() {
            most = most.max(m.xprt().queued_senders());
            s.sleep(SimDuration::from_micros(500)).await;
        }
        most
    });
    let most_queued = sim.run_until(async move {
        file.close().await.expect("close");
        closed.set(true);
        sampler.await
    });
    let growth = peak_bytes() - base;

    assert_eq!(
        server.stats().write_bytes,
        FILE_BYTES,
        "the close wrote it all"
    );
    assert!(
        most_queued >= 10_000,
        "the close queued only {most_queued} WRITEs behind the slot table"
    );
    let per_write = growth / most_queued;
    eprintln!("close heap growth {growth} B over {most_queued} queued WRITEs: {per_write} B each");
    assert!(
        per_write <= BYTES_PER_QUEUED_WRITE_BUDGET,
        "a queued WRITE holds {per_write} heap bytes (budget {BYTES_PER_QUEUED_WRITE_BUDGET})"
    );
}
