//! Counting-allocator measure of what a flyweight client really costs
//! on the heap.
//!
//! `FlyTier::bytes_per_client` counts the per-client slab and the tier's
//! shared state only. A running tier also holds each client's 4-byte id
//! (the slab is in start order) and, for every RPC in flight, its
//! record (the server-side op included), its shadow task slot, its
//! ready-queue and wheel words, and its lane and
//! server-queue tickets. At megafleet scale every client has an RPC
//! in flight at once, so those are per-client costs too. This harness wraps the
//! system allocator with a live-byte counter and its high-water mark and
//! charges the whole world's peak to the clients.

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use nfsperf_fleet::{BehaviorModel, FlyTier, FlyTierConfig};
use nfsperf_net::{Fabric, FabricConfig, NicSpec};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::arbiter::live_waiters;
use nfsperf_sim::{Sim, SimDuration};

/// Tracks live heap bytes and their high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A resize: only the size difference changes the live count.
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static COUNTER: PeakAlloc = PeakAlloc;

/// The megafleet shape: one WRITE (plus its close COMMIT) per client,
/// every client in flight at once, against the filer through the
/// two-tier fabric. The count sits 256 under 2^16 so that every table
/// that grows by doubling ends just under a power of two: the tier's
/// RPC slab and the arbiters' ticket slab hold up to one entry per
/// client, the executor's task table one per client plus the world's
/// own few dozen. At exactly 2^16 clients that table passes 2^16
/// entries and doubles to 2^17; this counter would charge that
/// never-touched capacity to the clients (220 B each instead of 197).
/// The timer wheel keeps its 16-byte entries 31 to a 504-byte block,
/// so its pool is far from a doubling at either count.
const CLIENTS: u32 = 65_280;

/// High-water heap bytes per flyweight client the whole world may hold:
/// the world reads 197, and the budget leaves 5% above that. With a
/// 24-byte task slot per launch shadow, a stored first-emission instant
/// in every client record and a 56-byte RPC record, it read 221; with a
/// 16-byte arena entry per direct waker and a sequence number in every
/// wheel entry before that, 246.
const BUDGET: usize = 207;

#[test]
fn flyweight_world_peak_heap_per_client_within_budget() {
    let tickets = live_waiters();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);

    let sim = Sim::new();
    let server_nic = NicSpec::gigabit();
    let fabric = Rc::new(Fabric::new(&sim, FabricConfig::new(server_nic)));
    let server = NfsServer::new(&sim, ServerConfig::netapp_f85());
    let model = BehaviorModel {
        gap_quantiles: std::array::from_fn(|i| SimDuration((i as u64 + 1) * 50_000)),
        write_wire_bytes: 8328,
        commit_wire_bytes: 136,
        write_payload: 8192,
        writes_per_commit: 16,
        window: 16,
    };
    let tier = FlyTier::launch(
        &sim,
        &server,
        &fabric,
        model,
        FlyTierConfig::new(CLIENTS, 1, server_nic),
    );
    let t2 = Rc::clone(&tier);
    sim.run_until(async move { t2.wait_done().await });

    let slim = server.slim_stats();
    assert_eq!(slim.writes, u64::from(CLIENTS), "every client wrote once");
    assert_eq!(slim.commits, u64::from(CLIENTS), "and committed at close");
    // The finished world's one parked daemon is the filer's NVRAM drain
    // loop, once the log is empty; any other live waiter entry is a
    // client's, left behind.
    let daemons = usize::from(server.nvram_used() == Some(0));
    assert_eq!(
        live_waiters(),
        tickets + daemons,
        "the finished world left client waiters live"
    );
    let per_client = (PEAK.load(Ordering::Relaxed) - base) / CLIENTS as usize;
    eprintln!(
        "peak heap {per_client} B per flyweight client (slab-only count: {} B)",
        tier.bytes_per_client()
    );
    assert!(
        per_client <= BUDGET,
        "the flyweight world peaked at {per_client} heap bytes per client (budget {BUDGET})"
    );
    // The world's daemons still wait; once its owner drops, no lane,
    // engine or wait queue may keep a waiter entry.
    drop((tier, server, fabric, sim));
    assert_eq!(live_waiters(), tickets, "the ended world left waiters live");
}
