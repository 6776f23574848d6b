//! Shared by the heap harnesses of this directory: a peak-tracking
//! global allocator and the faithful Bonnie worlds they measure. Each
//! test binary uses part of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use nfsperf_bonnie::{BonnieConfig, BonnieReport};
use nfsperf_client::{ClientTuning, MountConfig, NfsMount};
use nfsperf_kernel::{CostTable, Kernel, KernelConfig, MemTuning};
use nfsperf_net::{Nic, NicSpec, Path, Switch};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::{JoinHandle, Sim};
use nfsperf_sunrpc::Transport;

/// Tracks live heap bytes and their high-water mark. A test binary
/// installs it with `#[global_allocator]`.
pub struct PeakAlloc;

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

/// Live heap bytes now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Starts a new high-water mark at the live count and returns that
/// count.
pub fn reset_peak() -> usize {
    let base = live_bytes();
    PEAK.store(base, Ordering::Relaxed);
    base
}

/// The high-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// A built world: the simulator, its one server and a Bonnie writer
/// per client.
pub struct World {
    pub sim: Sim,
    pub server: Rc<NfsServer>,
    pub writers: Vec<JoinHandle<BonnieReport>>,
}

/// Builds `clients` full-patch clients (32 MiB of RAM each) writing
/// `bytes_per_client` each to one server over `transport`. One client
/// talks to the server over a direct gigabit link; several are 100bT
/// machines sharing a switch whose uplink is the server's bus-limited
/// NIC, as in the `fleet-tcp-drr` benchmark world.
pub fn build(
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
