//! Counting-allocator budget for the faithful UDP WRITE round trip.
//!
//! A faithful client still allocates per RPC: its page requests, the
//! batch vector, one boxed task per WRITE and per datagram hop, and the
//! pending-reply record. What it must not do is churn wire buffers: the
//! CALL and REPLY messages, the retransmit copy and the reply body all
//! come from the payload pool and go back to it. This harness runs a
//! small full-patch Bonnie world (filer, gigabit, UDP) under a counting
//! allocator, measures two virtual-time windows of different lengths
//! after warm-up, and divides the difference in allocations by the
//! difference in WRITEs. Each `run_until` window pays the same fixed
//! cost, so the quotient is the per-WRITE growth alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use nfsperf_bonnie::BonnieConfig;
use nfsperf_client::{ClientTuning, MountConfig, NfsMount};
use nfsperf_kernel::{CostTable, Kernel, KernelConfig, MemTuning};
use nfsperf_net::{Nic, NicSpec, Path};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::{Sim, SimTime};

/// Heap acquisitions allowed per steady-state WRITE RPC (8 KiB, two
/// pages). Set just above what the round trip measures; a change that
/// starts copying or re-allocating wire buffers per RPC again lands
/// well above it.
const ALLOCS_PER_WRITE_BUDGET: f64 = 17.0;

/// Counts every heap acquisition (alloc and realloc both; dealloc is
/// free of charge — a steady state that frees must also allocate).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_write_rpc_stays_within_its_allocation_budget() {
    let sim = Sim::new();
    let kernel = Kernel::new(
        &sim,
        KernelConfig {
            ncpus: 2,
            ram_bytes: 32 << 20,
            seed: 501,
            costs: CostTable::default(),
            mem: MemTuning::default(),
        },
    );
    let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
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

    // The writer outlasts every window: 96 MiB at ~40 MB/s is over two
    // simulated seconds, and the client's 32 MiB of RAM puts it at its
    // dirty limit well before the windows open.
    let writer = {
        let s = sim.clone();
        let m = Rc::clone(&mount);
        sim.spawn(async move {
            let file = m.create("budget.scratch").await.expect("create");
            nfsperf_bonnie::run(&s, &file, &BonnieConfig::new(96 << 20)).await
        })
    };
    let run_to = |ms: u64| {
        let s = sim.clone();
        sim.run_until(async move { s.sleep_until(SimTime(ms * 1_000_000)).await });
    };
    let writes = || server.stats().writes;

    // Warm-up grows the index ring, the pending-call table, the timer
    // wheel, the task table and the payload pool to their steady sizes.
    run_to(900);
    let (a0, w0) = (allocs(), writes());
    run_to(1_000); // window 1: 100 ms
    let (a1, w1) = (allocs(), writes());
    run_to(1_400); // window 2: 400 ms
    let (a2, w2) = (allocs(), writes());

    assert!(!writer.is_finished(), "the writer must still be writing");
    let (short, long) = (w1 - w0, w2 - w1);
    assert!(
        short > 500 && long > 3 * short,
        "windows carried WRITE traffic: {short} then {long} WRITEs"
    );
    let per_write = ((a2 - a1) as f64 - (a1 - a0) as f64) / (long - short) as f64;
    println!("allocations per WRITE: {per_write:.2} ({short} and {long} WRITEs)");
    assert!(
        per_write <= ALLOCS_PER_WRITE_BUDGET,
        "a steady-state WRITE allocates {per_write:.2} times (budget {ALLOCS_PER_WRITE_BUDGET})"
    );
}
