//! Counting-allocator proof that a steady-state flyweight RPC touches
//! the heap zero times.
//!
//! The taskless engine advances every RPC through direct words (posted,
//! timed or woken, see `Sim::post_direct`) and preallocated records: no
//! future, no `Box`, no waker clone, no wire buffer. This harness wraps
//! the system allocator with a counter and measures two virtual-time
//! windows of different lengths after a warmup long enough to grow every
//! slab, free list, timer heap, and latency pool to its steady capacity.
//! Each `run_until` window pays the same fixed cost (boxing its own root
//! future); if an RPC cost even one allocation, the 4×-longer window —
//! carrying ~4× the RPCs — would count more. Equality is the
//! zero-per-RPC proof.

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use nfsperf_fleet::{BehaviorModel, FlyTier, FlyTierConfig, GAP_QUANTILES};
use nfsperf_net::{Fabric, FabricConfig, NicSpec};
use nfsperf_server::{BackendConfig, NfsServer, ServerConfig};
use nfsperf_sim::{Sim, SimDuration, SimTime};

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
fn steady_state_flyweight_rpc_allocates_nothing() {
    let sim = Sim::new();
    let server_nic = NicSpec::gigabit();
    let fabric = Rc::new(Fabric::new(&sim, FabricConfig::new(server_nic)));
    // Memory backend: no checkpoint pauses or disk flushes, so RPC
    // traffic is uniform in virtual time and the two windows carry
    // write counts proportional to their lengths.
    let server = NfsServer::new(
        &sim,
        ServerConfig {
            backend: BackendConfig::Memory,
            ..ServerConfig::netapp_f85()
        },
    );
    let model = BehaviorModel {
        gap_quantiles: std::array::from_fn(|i| SimDuration((i as u64 + 1) * 50_000)),
        write_wire_bytes: 8328,
        commit_wire_bytes: 136,
        write_payload: 8192,
        writes_per_commit: 16,
        window: 4,
    };
    let _ = GAP_QUANTILES; // model above spans the full quantile array
    let tier = FlyTier::launch(
        &sim,
        &server,
        &fabric,
        model,
        FlyTierConfig {
            // Far more writes than the windows consume: the client must
            // still be mid-stream when measurement ends.
            latency_stride: 1,
            ..FlyTierConfig::new(1, 1_000_000, server_nic)
        },
    );

    let run_to = |deadline: u64| {
        let s = sim.clone();
        sim.run_until(async move { s.sleep_until(SimTime(deadline)).await });
    };

    const MS: u64 = 1_000_000;
    // Warmup: ~1400 writes at the model's ~425 µs mean gap. Grows the
    // RPC slab, shadow free list, timer heap, payload pool, wait-node
    // pools, and the latency pool (capacity 2048 ≫ the ~240 more
    // samples the windows add) to their steady capacities — including
    // the `run_until` fixed path itself.
    run_to(600 * MS);

    let events_warm = sim.events();
    let a0 = allocs();
    run_to(620 * MS); // window 1: ~47 WRITE RPCs
    let a1 = allocs();
    let events_mid = sim.events();
    run_to(700 * MS); // window 2: ~188 WRITE RPCs
    let a2 = allocs();
    let events_end = sim.events();

    // Both windows made real progress.
    assert!(
        events_mid > events_warm + 100 && events_end > events_mid + 400,
        "windows carried RPC traffic: {events_warm} -> {events_mid} -> {events_end}"
    );
    // The 4×-longer window allocated no more than the short one: every
    // RPC in between rode entirely on recycled memory.
    assert_eq!(
        a1 - a0,
        a2 - a1,
        "steady-state RPCs allocated: short window {} vs long window {}",
        a1 - a0,
        a2 - a1
    );
    // And that shared fixed cost is only the `run_until` entry itself.
    assert!(
        a1 - a0 <= 8,
        "window fixed cost crept up: {} allocations",
        a1 - a0
    );
    drop(tier);
}
