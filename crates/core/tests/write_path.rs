//! Behavioural tests for the NFS client write path against live simulated
//! servers: the paper's three defects and their fixes, observed directly.

use std::rc::Rc;

use nfsperf_client::{ClientTuning, MountConfig, NfsFile, NfsMount, MAX_REQUEST_SOFT};
use nfsperf_kernel::{CostTable, Kernel, KernelConfig, PageSeg, SimFile};
use nfsperf_net::{Nic, NicSpec, Path};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::{Sim, SimDuration};

struct World {
    sim: Sim,
    kernel: Kernel,
    mount: Rc<NfsMount>,
    server: Rc<NfsServer>,
}

fn world(tuning: ClientTuning, server_config: ServerConfig, server_nic: NicSpec) -> World {
    let sim = Sim::new();
    let costs = CostTable {
        cpu_jitter_frac: 0.0,
        ..CostTable::default()
    };
    let kernel = Kernel::new(
        &sim,
        KernelConfig {
            costs,
            ..KernelConfig::default()
        },
    );
    let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
    let (snic, srx) = Nic::new(&sim, "server", server_nic);
    let to_server = Path::new(cnic, snic, Path::default_latency());
    let server = NfsServer::spawn(&sim, srx, to_server.reversed(), server_config);
    let mount = NfsMount::mount(
        &kernel,
        to_server,
        crx,
        MountConfig {
            tuning,
            ..MountConfig::default()
        },
    );
    World {
        sim,
        kernel,
        mount,
        server,
    }
}

/// Runs a sequential 8 KiB-chunk write of `total` bytes, returning
/// per-call latencies.
async fn sequential_write(file: &NfsFile, total: u64) -> Vec<SimDuration> {
    let sim = &file.mount().kernel.sim;
    let mut latencies = Vec::new();
    let mut off = 0;
    while off < total {
        let t0 = sim.now();
        file.write(off, 8192).await.unwrap();
        latencies.push(sim.now().since(t0));
        off += 8192;
    }
    latencies
}

#[test]
fn write_close_round_trip_updates_server() {
    let w = world(
        ClientTuning::full_patch(),
        ServerConfig::netapp_f85(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    let server = Rc::clone(&w.server);
    w.sim.run_until(async move {
        let file = mount.create("bench").await.unwrap();
        sequential_write(&file, 1 << 20).await;
        file.close().await.unwrap();
        let fh = file.inode().fh;
        assert_eq!(server.fs.size_of(&fh).unwrap(), 1 << 20);
        assert_eq!(
            file.inode().total_requests(),
            0,
            "close drains all requests"
        );
    });
    assert_eq!(w.kernel.mem.dirty_pages(), 0, "all pages released");
    assert_eq!(w.server.stats().write_bytes, 1 << 20);
}

#[test]
fn stock_client_shows_periodic_latency_spikes() {
    let w = world(
        ClientTuning::linux_2_4_4(),
        ServerConfig::netapp_f85(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    let latencies = w.sim.run_until(async move {
        let file = mount.create("bench").await.unwrap();
        let lat = sequential_write(&file, 5 << 20).await;
        file.close().await.unwrap();
        lat
    });
    let spike_threshold = SimDuration::from_millis(1);
    let spikes = latencies.iter().filter(|l| **l > spike_threshold).count();
    assert!(
        spikes >= 3,
        "expected periodic soft-limit spikes, saw {spikes} of {}",
        latencies.len()
    );
    // Spikes are many-millisecond stalls, like the paper's 19 ms.
    let max = latencies.iter().max().unwrap();
    assert!(
        *max >= SimDuration::from_millis(5),
        "spike magnitude should be milliseconds, got {max}"
    );
    // Most calls are still fast (paper: ~1.4% slow calls).
    assert!(
        spikes * 10 < latencies.len(),
        "spikes must be a small minority: {spikes}/{}",
        latencies.len()
    );
    assert!(w.mount.stats().soft_limit_flushes >= 3);
}

#[test]
fn no_flush_removes_spikes_but_latency_grows() {
    let w = world(
        ClientTuning::no_flush(),
        ServerConfig::netapp_f85(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    let latencies = w.sim.run_until(async move {
        let file = mount.create("bench").await.unwrap();
        let lat = sequential_write(&file, 20 << 20).await;
        file.close().await.unwrap();
        lat
    });
    assert_eq!(w.mount.stats().soft_limit_flushes, 0);
    // Request count exceeds the old soft limit freely.
    // Latency trend: mean of last tenth far above mean of first tenth.
    let n = latencies.len();
    let first: u64 = latencies[..n / 10]
        .iter()
        .map(|d| d.as_nanos())
        .sum::<u64>()
        / (n / 10) as u64;
    let last: u64 = latencies[n - n / 10..]
        .iter()
        .map(|d| d.as_nanos())
        .sum::<u64>()
        / (n / 10) as u64;
    assert!(
        last > first * 2,
        "list-scan growth expected: first-decile mean {first}ns, last-decile mean {last}ns"
    );
}

#[test]
fn hash_table_keeps_latency_flat() {
    let w = world(
        ClientTuning::hash_table(),
        ServerConfig::netapp_f85(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    let latencies = w.sim.run_until(async move {
        let file = mount.create("bench").await.unwrap();
        let lat = sequential_write(&file, 20 << 20).await;
        file.close().await.unwrap();
        lat
    });
    let n = latencies.len();
    let first: u64 = latencies[..n / 10]
        .iter()
        .map(|d| d.as_nanos())
        .sum::<u64>()
        / (n / 10) as u64;
    let last: u64 = latencies[n - n / 10..]
        .iter()
        .map(|d| d.as_nanos())
        .sum::<u64>()
        / (n / 10) as u64;
    assert!(
        last < first * 2,
        "hash table must keep latency flat: first {first}ns last {last}ns"
    );
}

#[test]
fn profiler_blames_nfs_find_request_in_no_flush_config() {
    // The paper's §3.4 profiling observation: with flushing removed and
    // the list in place, nfs_find_request/nfs_update_request dominate.
    let w = world(
        ClientTuning::no_flush(),
        ServerConfig::netapp_f85(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    w.sim.run_until(async move {
        let file = mount.create("bench").await.unwrap();
        sequential_write(&file, 40 << 20).await;
        file.close().await.unwrap();
    });
    let report = w.kernel.profiler.report();
    let top: Vec<&str> = report.iter().take(2).map(|r| r.label).collect();
    assert!(
        top.contains(&"nfs_find_request") || top.contains(&"nfs_update_request"),
        "request-list scans should top the profile, got {top:?}"
    );
}

#[test]
fn unstable_writes_commit_against_knfsd() {
    let w = world(
        ClientTuning::full_patch(),
        ServerConfig::linux_knfsd(),
        NicSpec::bus_limited(26_000_000),
    );
    let mount = Rc::clone(&w.mount);
    w.sim.run_until(async move {
        let file = mount.create("bench").await.unwrap();
        sequential_write(&file, 2 << 20).await;
        file.fsync().await.unwrap();
        assert_eq!(file.inode().unstable_requests(), 0);
        file.close().await.unwrap();
    });
    let stats = w.mount.stats();
    assert!(stats.commit_rpcs >= 1, "knfsd requires COMMIT");
    assert_eq!(w.server.dirty_bytes(), Some(0), "commit flushed the server");
    assert_eq!(w.kernel.mem.dirty_pages(), 0);
}

#[test]
fn filer_needs_no_commit() {
    let w = world(
        ClientTuning::full_patch(),
        ServerConfig::netapp_f85(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    w.sim.run_until(async move {
        let file = mount.create("bench").await.unwrap();
        sequential_write(&file, 2 << 20).await;
        file.close().await.unwrap();
    });
    assert_eq!(
        w.mount.stats().commit_rpcs,
        0,
        "FILE_SYNC replies make COMMIT unnecessary"
    );
}

#[test]
fn server_reboot_triggers_verifier_recovery() {
    let w = world(
        ClientTuning::full_patch(),
        ServerConfig::linux_knfsd(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    let server = Rc::clone(&w.server);
    let sim = w.sim.clone();
    w.sim.run_until(async move {
        let file = mount.create("bench").await.unwrap();
        // Write a little, then catch the window where some WRITEs have
        // completed UNSTABLE but no COMMIT has landed yet.
        sequential_write(&file, 512 * 1024).await;
        while file.inode().unstable_requests() == 0 {
            file.inode().completion.wait().await;
        }
        // Server "reboots": verifier changes, cached dirty data is gone.
        server.reboot();
        sim.sleep(SimDuration::from_micros(100)).await;
        file.fsync().await.unwrap();
        file.close().await.unwrap();
        let fh = file.inode().fh;
        assert_eq!(server.fs.size_of(&fh).unwrap(), 512 * 1024);
    });
    assert!(
        w.mount.stats().verf_mismatches > 0,
        "reboot must be detected via the verifier"
    );
}

#[test]
fn memory_pressure_throttles_writer_to_server_speed() {
    let sim = Sim::new();
    let costs = CostTable {
        cpu_jitter_frac: 0.0,
        ..CostTable::default()
    };
    // Small RAM so the test is fast: 16 MB.
    let kernel = Kernel::new(
        &sim,
        KernelConfig {
            ram_bytes: 16 << 20,
            costs,
            ..KernelConfig::default()
        },
    );
    let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
    let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
    let to_server = Path::new(cnic, snic, Path::default_latency());
    let _server = NfsServer::spawn(&sim, srx, to_server.reversed(), ServerConfig::netapp_f85());
    let mount = NfsMount::mount(
        &kernel,
        to_server,
        crx,
        MountConfig {
            tuning: ClientTuning::full_patch(),
            ..MountConfig::default()
        },
    );
    let k2 = kernel.clone();
    let elapsed = sim.run_until(async move {
        let file = mount.create("bench").await.unwrap();
        let t0 = k2.sim.now();
        sequential_write(&file, 64 << 20).await; // 4x RAM
        let t = k2.sim.now().since(t0);
        file.close().await.unwrap();
        t
    });
    // At pure memory speed 64 MB would take ~0.5 s; the filer services
    // ~40 MB/s, so a memory-bound run is impossible.
    assert!(
        elapsed > SimDuration::from_millis(900),
        "writer must be throttled to server speed, took {elapsed}"
    );
    assert!(kernel.mem.throttle_events() > 0);
}

#[test]
fn soft_limit_honoured_only_in_stock_tuning() {
    for (tuning, expect_bounded) in [
        (ClientTuning::linux_2_4_4(), true),
        (ClientTuning::hash_table(), false),
    ] {
        let w = world(tuning, ServerConfig::netapp_f85(), NicSpec::gigabit());
        let mount = Rc::clone(&w.mount);
        let peak = w.sim.run_until(async move {
            let file = mount.create("bench").await.unwrap();
            let mut peak = 0;
            let mut off = 0u64;
            while off < (4 << 20) {
                file.write(off, 8192).await.unwrap();
                peak = peak.max(file.inode().total_requests());
                off += 8192;
            }
            file.close().await.unwrap();
            peak
        });
        if expect_bounded {
            assert!(
                peak <= MAX_REQUEST_SOFT + 2,
                "stock tuning keeps requests near the soft limit, peak {peak}"
            );
        } else {
            assert!(
                peak > MAX_REQUEST_SOFT,
                "patched tuning should blow past the soft limit, peak {peak}"
            );
        }
    }
}

#[test]
fn slower_server_yields_faster_memory_writes() {
    // The paper's §3.5 counter-intuitive observation, reproduced with the
    // BKL held (stock RPC layer): a slower server keeps nfs_flushd asleep
    // and the writer uncontended.
    let run = |server: ServerConfig, nic: NicSpec| -> f64 {
        let w = world(ClientTuning::hash_table(), server, nic);
        let mount = Rc::clone(&w.mount);
        w.sim.run_until(async move {
            let file = mount.create("bench").await.unwrap();
            let sim = &file.mount().kernel.sim;
            let t0 = sim.now();
            sequential_write(&file, 5 << 20).await;
            let elapsed = sim.now().since(t0);
            let mbps = (5 << 20) as f64 / elapsed.as_secs_f64() / 1e6;
            file.close().await.unwrap();
            mbps
        })
    };
    let vs_filer = run(ServerConfig::netapp_f85(), NicSpec::gigabit());
    let vs_slow = run(ServerConfig::slow_100bt(), NicSpec::fast_ethernet());
    assert!(
        vs_slow > vs_filer,
        "slow server should allow faster memory writes: slow={vs_slow:.1} filer={vs_filer:.1} MB/s"
    );
}

/// Regression for the COMMIT verifier-mismatch recovery path: a writer
/// coalescing new bytes into a request *while its COMMIT is in flight*
/// across a server reboot. The recovery used to rebuild the request by
/// hand, and the merge-grown length corrupted the inode's unstable-byte
/// accounting (an underflow panic in debug builds); re-dirtying the
/// request in place keeps the books straight.
#[test]
fn mid_commit_redirty_survives_verifier_recovery() {
    let w = world(
        ClientTuning::full_patch(),
        ServerConfig::linux_knfsd(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    let server = Rc::clone(&w.server);
    let sim = w.sim.clone();
    w.sim.run_until(async move {
        let file = Rc::new(mount.create("bench").await.unwrap());
        file.write(0, 100).await.unwrap();
        // Wait for the WRITE to complete UNSTABLE.
        while file.inode().unstable_requests() == 0 {
            file.inode().completion.wait().await;
        }
        // The server reboots: its verifier changes and cached data is
        // dropped, so the coming COMMIT cannot confirm the request.
        server.reboot();
        // fsync concurrently: it issues the COMMIT we want to race.
        let syncer = {
            let file = Rc::clone(&file);
            sim.spawn(async move { file.fsync().await })
        };
        while !file.inode().commit_in_flight() {
            sim.sleep(SimDuration::from_micros(1)).await;
        }
        // Mid-COMMIT, the writer grows the same page's request 100→200.
        file.write(0, 200).await.unwrap();
        syncer.await.unwrap();
        file.close().await.unwrap();
        assert_eq!(server.fs.size_of(&file.inode().fh).unwrap(), 200);
        assert_eq!(file.inode().total_requests(), 0, "everything drained");
    });
    assert_eq!(w.kernel.mem.dirty_pages(), 0, "accounting balanced");
}

/// The rare `nfs_updatepage` branch: a second write to a page whose
/// existing request it cannot merge with (a hole between the ranges)
/// must flush the old request synchronously before a new one is made.
#[test]
fn incompatible_same_page_write_flushes_the_old_request_first() {
    let w = world(
        ClientTuning::full_patch(),
        ServerConfig::netapp_f85(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    let server = Rc::clone(&w.server);
    w.sim.run_until(async move {
        let file = mount.create("sparse").await.unwrap();
        file.write(0, 100).await.unwrap();
        assert_eq!(file.inode().total_requests(), 1);
        // Same page, but [2000, 2100) cannot coalesce with [0, 100).
        file.write(2000, 100).await.unwrap();
        // The write returned only after the first request was flushed:
        // its bytes are already at the server, and only the new request
        // remains cached.
        assert_eq!(server.stats().write_bytes, 100);
        assert_eq!(file.inode().total_requests(), 1);
        file.close().await.unwrap();
        assert_eq!(server.fs.size_of(&file.inode().fh).unwrap(), 2100);
    });
    assert_eq!(w.server.stats().writes, 2, "two non-coalescable WRITEs");
}

/// Unstable pages must stay pinned in client memory until a COMMIT with
/// a matching verifier lands: the server is allowed to lose its cached
/// copy, so the client cannot release (and reuse) the page earlier. The
/// pinned count is tracked per segment through the whole
/// unstable-write → reboot → COMMIT-mismatch → redirty → rewrite cycle
/// and must drain to zero only once the data is durable.
#[test]
fn unstable_pages_stay_pinned_until_commit() {
    let w = world(
        ClientTuning::full_patch(),
        ServerConfig::linux_knfsd(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    let server = Rc::clone(&w.server);
    let kernel = w.kernel.clone();
    let sim = w.sim.clone();
    w.sim.run_until(async move {
        let file = mount.create("bench").await.unwrap();
        sequential_write(&file, 512 * 1024).await;
        while file.inode().unstable_requests() == 0 {
            file.inode().completion.wait().await;
        }
        // In the unstable window every request still pins its page, and
        // the unstable segment matches the inode's request count.
        let inode = file.inode();
        assert_eq!(kernel.mem.dirty_pages(), inode.total_requests());
        assert_eq!(
            kernel.mem.seg_pages(PageSeg::Unstable),
            inode.unstable_requests(),
            "uncommitted pages must sit pinned in the unstable segment"
        );
        // Server reboots: cached unstable data is gone, verifier changes.
        server.reboot();
        sim.sleep(SimDuration::from_micros(100)).await;
        // The COMMIT mismatch forces a redirty + rewrite; because the
        // pages were never released, the client can replay them.
        file.fsync().await.unwrap();
        file.close().await.unwrap();
        let fh = file.inode().fh;
        assert_eq!(server.fs.size_of(&fh).unwrap(), 512 * 1024);
    });
    assert!(w.mount.stats().verf_mismatches > 0);
    assert_eq!(
        w.kernel.mem.dirty_pages(),
        0,
        "all pages released after durable COMMIT"
    );
    for seg in [PageSeg::Dirty, PageSeg::Writeback, PageSeg::Unstable] {
        assert_eq!(w.kernel.mem.seg_pages(seg), 0);
    }
}

/// With `fg_throttle` (the cawl tuning) a writer over the dirty ratio
/// does foreground writeback instead of parking: dirty memory is bounded
/// at the hard limit, the run is paced to server speed, and every byte
/// still lands.
#[test]
fn foreground_throttling_bounds_dirty_and_lands_all_bytes() {
    let sim = Sim::new();
    let costs = CostTable {
        cpu_jitter_frac: 0.0,
        ..CostTable::default()
    };
    // Small RAM so the test is fast: 16 MB, writing 2x RAM.
    let kernel = Kernel::new(
        &sim,
        KernelConfig {
            ram_bytes: 16 << 20,
            costs,
            ..KernelConfig::default()
        },
    );
    let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
    let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
    let to_server = Path::new(cnic, snic, Path::default_latency());
    let server = NfsServer::spawn(&sim, srx, to_server.reversed(), ServerConfig::netapp_f85());
    let mount = NfsMount::mount(
        &kernel,
        to_server,
        crx,
        MountConfig {
            tuning: ClientTuning::cawl(),
            ..MountConfig::default()
        },
    );
    let k2 = kernel.clone();
    let elapsed = sim.run_until(async move {
        let file = mount.create("bench").await.unwrap();
        let t0 = k2.sim.now();
        sequential_write(&file, 32 << 20).await; // 2x RAM
        let t = k2.sim.now().since(t0);
        file.close().await.unwrap();
        t
    });
    assert!(
        kernel.mem.throttle_events() > 0,
        "2x RAM must cross the dirty ratio"
    );
    assert!(
        kernel.mem.peak_dirty_pages() <= kernel.mem.hard_limit(),
        "foreground writeback must bound dirty memory at the hard limit"
    );
    assert!(
        elapsed > SimDuration::from_millis(450),
        "a 2x-RAM write cannot run at memory speed, took {elapsed}"
    );
    assert_eq!(kernel.mem.dirty_pages(), 0);
    assert_eq!(
        server.stats().write_bytes,
        32 << 20,
        "every byte lands despite throttling"
    );
}

/// Property: any interleaving of writes, fsyncs, sleeps, and server
/// reboots drains to zero pinned pages once the file is closed, and the
/// server ends up with the full file.
#[test]
fn random_write_interleavings_drain_to_zero_pinned() {
    use nfsperf_sim::proptest::{check, CaseOutcome, Gen};
    check(
        "mount_drain_to_zero",
        |g: &mut Gen| g.vec(1, 20, |g| (g.any_u8(), g.u64_in(0, 96), g.u64_in(1, 64))),
        |ops: &Vec<(u8, u64, u64)>| match run_mount_script(ops) {
            Ok(()) => CaseOutcome::Pass,
            Err(m) => CaseOutcome::Fail(m),
        },
    );
}

/// Drives one world through the op script; returns Err on any violated
/// invariant.
fn run_mount_script(ops: &[(u8, u64, u64)]) -> Result<(), String> {
    let w = world(
        ClientTuning::full_patch(),
        ServerConfig::linux_knfsd(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    let server = Rc::clone(&w.server);
    let sim = w.sim.clone();
    let ops = ops.to_vec();
    let (max_end, fh) = w.sim.run_until(async move {
        let file = mount.create("prop").await.unwrap();
        let mut max_end = 0u64;
        for &(kind, off_pages, len_kb) in &ops {
            match kind % 8 {
                0..=3 => {
                    let off = off_pages * 4096;
                    // Shrunk candidates may fall below the generator's
                    // range; a write is at least 1 KB.
                    let len = len_kb.max(1) * 1024;
                    file.write(off, len).await.unwrap();
                    max_end = max_end.max(off + len);
                }
                4 => file.fsync().await.unwrap(),
                5 => sim.sleep(SimDuration::from_micros(200)).await,
                6 => {
                    // Unaligned write that cannot start on a page edge.
                    let off = off_pages * 4096 + 512;
                    file.write(off, 100).await.unwrap();
                    max_end = max_end.max(off + 100);
                }
                _ => {
                    server.reboot();
                    sim.sleep(SimDuration::from_micros(50)).await;
                }
            }
        }
        file.fsync().await.unwrap();
        file.close().await.unwrap();
        (max_end, file.inode().fh)
    });
    if w.kernel.mem.dirty_pages() != 0 {
        return Err(format!(
            "{} pages still pinned after close",
            w.kernel.mem.dirty_pages()
        ));
    }
    for seg in [PageSeg::Dirty, PageSeg::Writeback, PageSeg::Unstable] {
        if w.kernel.mem.seg_pages(seg) != 0 {
            return Err(format!("segment {seg:?} not drained"));
        }
    }
    match w.server.fs.size_of(&fh) {
        Ok(size) if size == max_end => Ok(()),
        Ok(size) => Err(format!("server has {size} bytes, client wrote {max_end}")),
        Err(e) => Err(format!("file missing on server: {e:?}")),
    }
}

/// A WRITE batch is one dense byte range on the wire. Two requests on
/// adjacent pages whose byte ranges do not touch (the first page is
/// partial) used to coalesce by page index, making the RPC deposit the
/// second request's bytes at the wrong offset.
#[test]
fn partial_page_hole_splits_the_write_batch() {
    let w = world(
        ClientTuning::full_patch(),
        ServerConfig::netapp_f85(),
        NicSpec::gigabit(),
    );
    let mount = Rc::clone(&w.mount);
    let server = Rc::clone(&w.server);
    w.sim.run_until(async move {
        let file = mount.create("holey").await.unwrap();
        // Page 0: bytes [0, 1024). Page 1: bytes [4096, 5120). Adjacent
        // pages, but a [1024, 4096) hole between the byte ranges.
        file.write(0, 1024).await.unwrap();
        file.write(4096, 1024).await.unwrap();
        file.fsync().await.unwrap();
        file.close().await.unwrap();
        assert_eq!(server.fs.size_of(&file.inode().fh).unwrap(), 5120);
    });
    assert_eq!(
        w.server.stats().writes,
        2,
        "byte-discontiguous requests must go in separate WRITE RPCs"
    );
}
