//! Heap high-water mark of a TCP/DRR fleet.
//!
//! Host memory should follow what is in flight, not what has happened.
//! A datagram that has left should leave nothing behind on its NIC, and
//! a TCP segment in flight should pin a buffer of its own size. Eight
//! 100bT clients write over TCP through a switch into a DRR-scheduled
//! knfsd, the `fleet-tcp-drr` benchmark world's shape at a smaller
//! client count (the world of `write_alloc_budget`). This harness wraps
//! the system allocator with a live-byte counter and its high-water
//! mark, and holds the heap's peak from before the world is built to
//! the end of the run, per client, to a budget.

use nfsperf_server::{SchedPolicy, ServerConfig};
use nfsperf_sunrpc::Transport;

mod common;
use common::{peak_bytes, reset_peak, PeakAlloc};

#[global_allocator]
static COUNTER: PeakAlloc = PeakAlloc;

const CLIENTS: usize = 8;

/// Each client writes 16 MiB and closes, as in `fleet-tcp-drr`.
const BYTES_PER_CLIENT: u64 = 16 << 20;

/// Heap high-water allowed per client, in bytes: just above the
/// 1,289,456 measured. Logging every departure on every NIC for the
/// whole run, and pinning a WRITE-sized pool buffer under each TCP
/// segment in flight, measured 1,920,290.
const PEAK_BYTES_PER_CLIENT_BUDGET: usize = 1_350_000;

#[test]
fn tcp_drr_fleet_heap_peak_stays_within_its_budget() {
    let base = reset_peak();
    let config = ServerConfig {
        sched: SchedPolicy::drr(),
        ..ServerConfig::linux_knfsd()
    };
    let world = common::build(Transport::Tcp, config, CLIENTS, BYTES_PER_CLIENT);
    let writers = world.writers;
    let reports = world.sim.run_until(async move {
        let mut reports = Vec::new();
        for w in writers {
            reports.push(w.await);
        }
        reports
    });
    assert_eq!(reports.len(), CLIENTS);
    assert_eq!(
        world.server.stats().write_bytes,
        CLIENTS as u64 * BYTES_PER_CLIENT,
        "every client wrote its file"
    );
    let per_client = (peak_bytes() - base) / CLIENTS;
    eprintln!("heap peak {per_client} B per client over {CLIENTS} clients");
    assert!(
        per_client <= PEAK_BYTES_PER_CLIENT_BUDGET,
        "the fleet's heap peaks at {per_client} B per client \
         (budget {PEAK_BYTES_PER_CLIENT_BUDGET})"
    );
}
