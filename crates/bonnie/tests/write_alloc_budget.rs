//! Counting-allocator budgets for the faithful WRITE round trip.
//!
//! A faithful client still allocates per RPC: its page requests, the
//! batch vector, one boxed task per WRITE and per datagram hop, and the
//! pending-reply record. What it must not do is churn wire buffers: the
//! CALL and REPLY messages, the retransmit copy, the TCP segments and
//! records and the reply body all come from the payload pool and go back
//! to it. Each case builds a small full-patch Bonnie world under a
//! counting allocator, measures two virtual-time windows of different
//! lengths after warm-up, and divides the difference in allocations by
//! the difference in WRITEs. Each `run_until` window pays the same fixed
//! cost, so the quotient is the per-WRITE growth alone.
//!
//! Two shapes are held to their own budgets: one client over UDP into
//! the filer, and a fleet of 100bT clients over TCP through a switch
//! into a DRR-scheduled knfsd (the `fleet-tcp-drr` benchmark world's
//! shape at a smaller client count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nfsperf_bonnie::{BonnieConfig, BonnieReport};
use nfsperf_client::{ClientTuning, MountConfig, NfsMount};
use nfsperf_kernel::{CostTable, Kernel, KernelConfig, MemTuning};
use nfsperf_net::{Nic, NicSpec, Path, Switch};
use nfsperf_server::{NfsServer, SchedPolicy, ServerConfig};
use nfsperf_sim::{JoinHandle, Sim, SimTime};
use nfsperf_sunrpc::Transport;

/// Heap acquisitions allowed per steady-state UDP WRITE RPC (8 KiB, two
/// pages). Set just above what the round trip measures; a change that
/// starts copying or re-allocating wire buffers per RPC again lands
/// well above it.
const ALLOCS_PER_WRITE_BUDGET: f64 = 17.0;

/// The same budget for a WRITE over TCP through the switch into the
/// DRR knfsd, its share of COMMITs included (30.4 measured). Copying
/// each reply into a fresh buffer adds one per WRITE; taking each TCP
/// segment's buffer from the heap instead of the pool adds 7.5.
const TCP_DRR_ALLOCS_PER_WRITE_BUDGET: f64 = 31.0;

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

/// The counter is process-wide and the test harness runs cases on
/// parallel threads, so each case holds this lock while it builds and
/// measures its world. It guards no data, so a lock poisoned by the
/// other case failing is still good to take.
static SERIAL: Mutex<()> = Mutex::new(());

/// A built world: the simulator, its one server and a Bonnie writer
/// per client.
struct World {
    sim: Sim,
    server: Rc<NfsServer>,
    writers: Vec<JoinHandle<BonnieReport>>,
}

/// Builds `clients` full-patch clients (32 MiB of RAM each) writing
/// `bytes_per_client` each to one server over `transport`. One client
/// talks to the server over a direct gigabit link; several are 100bT
/// machines sharing a switch whose uplink is the server's bus-limited
/// NIC, as in the `fleet-tcp-drr` benchmark world.
fn build(
    transport: Transport,
    config: ServerConfig,
    clients: usize,
    bytes_per_client: u64,
) -> World {
    let sim = Sim::new();
    let kernel = |i: usize| {
        Kernel::new(
            &sim,
            KernelConfig {
                ncpus: 2,
                ram_bytes: 32 << 20,
                seed: 501 + i as u64,
                costs: CostTable::default(),
                mem: MemTuning::default(),
            },
        )
    };
    let attach = |server: &Rc<NfsServer>, rx, reply_path| match transport {
        Transport::Udp => server.attach_udp(rx, reply_path),
        Transport::Tcp => server.attach_tcp(rx, reply_path),
    };
    let mount_config = MountConfig {
        tuning: ClientTuning::full_patch(),
        transport,
        ..MountConfig::default()
    };
    let mut mounts = Vec::new();
    let server = if clients == 1 {
        let kernel = kernel(0);
        let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
        let to_server = Path::new(Rc::clone(&cnic), snic, Path::default_latency());
        let server = NfsServer::new(&sim, config);
        attach(&server, srx, to_server.reversed());
        mounts.push(NfsMount::mount(&kernel, to_server, crx, mount_config));
        server
    } else {
        let client_nic = NicSpec::fast_ethernet();
        let switch = Switch::new(
            &sim,
            NicSpec::bus_limited(26_000_000),
            Path::default_latency(),
        );
        let server = NfsServer::new(&sim, config);
        for i in 0..clients {
            let kernel = kernel(i);
            let (cnic, crx) = Nic::new(&sim, "client", client_nic);
            let (to_server, port_rx) = switch.attach(&cnic, client_nic);
            attach(&server, port_rx, to_server.reversed());
            mounts.push(NfsMount::mount(
                &kernel,
                to_server,
                crx,
                mount_config.clone(),
            ));
        }
        server
    };
    let writers = mounts
        .into_iter()
        .enumerate()
        .map(|(i, mount)| {
            let s = sim.clone();
            sim.spawn(async move {
                let file = mount
                    .create(&format!("budget{i}.scratch"))
                    .await
                    .expect("create");
                nfsperf_bonnie::run(&s, &file, &BonnieConfig::new(bytes_per_client)).await
            })
        })
        .collect();
    World {
        sim,
        server,
        writers,
    }
}

/// Runs `world` to `warm_ms` of virtual time, then through a short
/// window to `mid_ms` and a long one to `end_ms`, and returns the
/// allocations per WRITE the long window adds over the short one.
fn allocs_per_write(world: &World, warm_ms: u64, mid_ms: u64, end_ms: u64) -> f64 {
    let run_to = |ms: u64| {
        let s = world.sim.clone();
        world
            .sim
            .run_until(async move { s.sleep_until(SimTime(ms * 1_000_000)).await });
    };
    let writes = || world.server.stats().writes;

    // Warm-up grows the index rings, the pending-call tables, the TCP
    // stream buffers, the timer wheel, the task table, the scheduler's
    // queues and the payload pool to their steady sizes.
    run_to(warm_ms);
    let (a0, w0) = (allocs(), writes());
    run_to(mid_ms);
    let (a1, w1) = (allocs(), writes());
    run_to(end_ms);
    let (a2, w2) = (allocs(), writes());

    assert!(
        world.writers.iter().all(|w| !w.is_finished()),
        "every writer must still be writing"
    );
    let (short, long) = (w1 - w0, w2 - w1);
    assert!(
        short > 500 && long > 3 * short,
        "windows carried WRITE traffic: {short} then {long} WRITEs"
    );
    let per_write = ((a2 - a1) as f64 - (a1 - a0) as f64) / (long - short) as f64;
    println!("allocations per WRITE: {per_write:.2} ({short} and {long} WRITEs)");
    per_write
}

#[test]
fn steady_state_write_rpc_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The writer outlasts every window: 96 MiB at ~40 MB/s is over two
    // simulated seconds, and the client's 32 MiB of RAM puts it at its
    // dirty limit well before the windows open.
    let world = build(Transport::Udp, ServerConfig::netapp_f85(), 1, 96 << 20);
    let per_write = allocs_per_write(&world, 900, 1_000, 1_400);
    assert!(
        per_write <= ALLOCS_PER_WRITE_BUDGET,
        "a steady-state WRITE allocates {per_write:.2} times (budget {ALLOCS_PER_WRITE_BUDGET})"
    );
}

#[test]
fn tcp_drr_fleet_write_rpc_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Eight clients share the 26 MB/s uplink, about 3 MB/s each, and
    // the knfsd's COMMITs stall them now and then: 96 MiB apiece
    // outlasts every window, and each client reaches its dirty limit
    // within the warm-up. Windows of one and four seconds average over
    // those stalls.
    let config = ServerConfig {
        sched: SchedPolicy::drr(),
        ..ServerConfig::linux_knfsd()
    };
    let world = build(Transport::Tcp, config, 8, 96 << 20);
    let per_write = allocs_per_write(&world, 2_000, 3_000, 7_000);
    assert!(
        per_write <= TCP_DRR_ALLOCS_PER_WRITE_BUDGET,
        "a steady-state TCP WRITE allocates {per_write:.2} times \
         (budget {TCP_DRR_ALLOCS_PER_WRITE_BUDGET})"
    );
}
