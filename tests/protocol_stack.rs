//! Cross-crate integration: the wire protocol stack end to end — XDR,
//! RPC framing, NFSv3 semantics, fragmentation, retransmission — driven
//! through the real network and server models.

use std::rc::Rc;

use nfsperf_client::{ClientTuning, MountConfig, NfsMount};
use nfsperf_kernel::{Kernel, KernelConfig, SimFile};
use nfsperf_net::{fragments_for, Nic, NicSpec, Path};
use nfsperf_nfs3::{FileHandle, NfsProc3, StableHow, Write3Args};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::{Sim, SimDuration};
use nfsperf_sunrpc::{encode_call, AuthUnix, RpcXprt, XprtConfig};

fn world(
    server_config: ServerConfig,
    client_loss: f64,
) -> (
    Sim,
    Kernel,
    Rc<NfsMount>,
    Rc<NfsServer>,
    Rc<nfsperf_net::Nic>,
) {
    let sim = Sim::new();
    let kernel = Kernel::new(&sim, KernelConfig::default());
    let (cnic, crx) = Nic::with_loss(&sim, "client", NicSpec::gigabit(), client_loss, 77);
    let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
    let to_server = Path::new(Rc::clone(&cnic), snic, Path::default_latency());
    let server = NfsServer::spawn(&sim, srx, to_server.reversed(), server_config);
    let mount = NfsMount::mount(
        &kernel,
        to_server,
        crx,
        MountConfig {
            tuning: ClientTuning::full_patch(),
            ..MountConfig::default()
        },
    );
    (sim, kernel, mount, server, cnic)
}

/// An 8 KiB WRITE3 call encodes to a ~8.3 KB datagram that fragments
/// into exactly 6 IP fragments at MTU 1500 — the framing arithmetic the
/// network model runs on is fed by real encodings.
#[test]
fn write_rpc_wire_size_and_fragments() {
    let cred = AuthUnix::root_on("client");
    let args = Write3Args::new(FileHandle::for_fileid(1), 0, 8192, StableHow::Unstable);
    let msg = encode_call(99, 100_003, 3, NfsProc3::Write as u32, &cred, &args);
    assert!(
        msg.len() > 8300 && msg.len() < 8400,
        "wire size {}",
        msg.len()
    );
    assert_eq!(fragments_for(msg.len(), 1500), 6);
    assert_eq!(fragments_for(msg.len(), 9000), 1);
}

/// A full benchmark run counts exactly the expected number of fragments
/// on the client NIC.
#[test]
fn fragment_accounting_matches_rpc_count() {
    let (sim, _kernel, mount, _server, cnic) = world(ServerConfig::netapp_f85(), 0.0);
    let m2 = Rc::clone(&mount);
    sim.run_until(async move {
        let file = m2.create("frag").await.unwrap();
        let mut off = 0;
        while off < (1 << 20) {
            file.write(off, 8192).await.unwrap();
            off += 8192;
        }
        file.close().await.unwrap();
    });
    let stats = mount.xprt().stats();
    // Each 8 KiB WRITE is 6 fragments; CREATE and any COMMITs are 1 each.
    let writes = mount.stats().write_rpcs;
    let others = stats.calls - writes;
    assert_eq!(cnic.fragments_sent(), writes * 6 + others);
}

/// The client survives datagram loss through RPC retransmission, and the
/// file still arrives intact.
#[test]
fn lossy_network_recovers_via_retransmission() {
    let (sim, _kernel, mount, server, cnic) = world(ServerConfig::netapp_f85(), 0.3);
    let m2 = Rc::clone(&mount);
    let fh = sim.run_until(async move {
        let file = m2.create("lossy").await.unwrap();
        let mut off = 0;
        while off < (256 << 10) {
            file.write(off, 8192).await.unwrap();
            off += 8192;
        }
        file.close().await.unwrap();
        file.inode().fh
    });
    assert!(cnic.drops() > 0, "loss injection must have fired");
    assert!(
        mount.xprt().stats().retransmits > 0,
        "retransmissions must have recovered the drops"
    );
    assert_eq!(server.fs.size_of(&fh).unwrap(), 256 << 10);
}

/// Duplicate replies (from retransmitted requests whose originals also
/// arrived) are counted as orphans, not crashes.
#[test]
fn duplicate_replies_are_orphaned() {
    let sim = Sim::new();
    let kernel = Kernel::new(&sim, KernelConfig::default());
    let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
    let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
    let to_server = Path::new(Rc::clone(&cnic), Rc::clone(&snic), Path::default_latency());
    let to_client = to_server.reversed();
    // A server that answers every call twice.
    {
        let sim2 = sim.clone();
        sim.spawn(async move {
            while let Some(payload) = srx.recv().await {
                let (hdr, _) = nfsperf_sunrpc::decode_call(&payload).unwrap();
                sim2.sleep(SimDuration::from_micros(10)).await;
                to_client.send(nfsperf_sunrpc::encode_reply(hdr.xid, &1u32));
                to_client.send(nfsperf_sunrpc::encode_reply(hdr.xid, &1u32));
            }
        });
    }
    let xprt = RpcXprt::new(&kernel, to_server, crx, 100_003, 3, XprtConfig::default());
    let x2 = Rc::clone(&xprt);
    let s2 = sim.clone();
    sim.run_until(async move {
        for _ in 0..5 {
            x2.call(0, &0u32).await.unwrap();
        }
        s2.sleep(SimDuration::from_millis(5)).await;
    });
    let stats = xprt.stats();
    assert_eq!(stats.replies, 5);
    assert_eq!(stats.orphan_replies, 5, "second copies are orphans");
}

/// NFSv3 close-to-open consistency: after close, the server's view of
/// the file is complete and the client holds no pinned pages, for both
/// stable and unstable servers.
#[test]
fn close_to_open_consistency_both_servers() {
    for config in [ServerConfig::netapp_f85(), ServerConfig::linux_knfsd()] {
        let name = config.name;
        let (sim, kernel, mount, server, _cnic) = world(config, 0.0);
        let m2 = Rc::clone(&mount);
        let fh = sim.run_until(async move {
            let file = m2.create("c2o").await.unwrap();
            let mut off = 0;
            while off < (3 << 20) {
                file.write(off, 8192).await.unwrap();
                off += 8192;
            }
            file.close().await.unwrap();
            file.inode().fh
        });
        assert_eq!(server.fs.size_of(&fh).unwrap(), 3 << 20, "server {name}");
        assert_eq!(kernel.mem.dirty_pages(), 0, "server {name}");
        assert_eq!(mount.outstanding_requests(), 0, "server {name}");
    }
}

/// Multiple files on one mount share the transport and the hard limit,
/// and all flush correctly at close.
#[test]
fn multiple_files_share_one_mount() {
    let (sim, kernel, mount, server, _cnic) = world(ServerConfig::netapp_f85(), 0.0);
    let m2 = Rc::clone(&mount);
    let handles = sim.run_until(async move {
        let a = m2.create("a.dat").await.unwrap();
        let b = m2.create("b.dat").await.unwrap();
        // Interleave writes to both files.
        let mut off = 0;
        while off < (1 << 20) {
            a.write(off, 8192).await.unwrap();
            b.write(off, 8192).await.unwrap();
            off += 8192;
        }
        a.close().await.unwrap();
        b.close().await.unwrap();
        (a.inode().fh, b.inode().fh)
    });
    assert_eq!(server.fs.size_of(&handles.0).unwrap(), 1 << 20);
    assert_eq!(server.fs.size_of(&handles.1).unwrap(), 1 << 20);
    assert_eq!(server.fs.file_count(), 2);
    assert_eq!(kernel.mem.dirty_pages(), 0);
}

/// Sub-page and unaligned writes coalesce into page requests and arrive
/// intact (the merge path of nfs_update_request).
#[test]
fn unaligned_writes_coalesce() {
    let (sim, _kernel, mount, server, _cnic) = world(ServerConfig::netapp_f85(), 0.0);
    let m2 = Rc::clone(&mount);
    let fh = sim.run_until(async move {
        let file = m2.create("unaligned").await.unwrap();
        // 1000-byte writes: most land within a page and merge.
        let mut off = 0;
        while off < 50_000 {
            file.write(off, 1000).await.unwrap();
            off += 1000;
        }
        file.close().await.unwrap();
        file.inode().fh
    });
    assert_eq!(server.fs.size_of(&fh).unwrap(), 50_000);
}

/// The jumbo-frame configuration carries every WRITE in one fragment
/// end to end.
#[test]
fn jumbo_frames_one_fragment_per_write() {
    let sim = Sim::new();
    let kernel = Kernel::new(&sim, KernelConfig::default());
    let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit_jumbo());
    let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit_jumbo());
    let to_server = Path::new(Rc::clone(&cnic), snic, Path::default_latency());
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
    let m2 = Rc::clone(&mount);
    sim.run_until(async move {
        let file = m2.create("jumbo").await.unwrap();
        let mut off = 0;
        while off < (512 << 10) {
            file.write(off, 8192).await.unwrap();
            off += 8192;
        }
        file.close().await.unwrap();
    });
    let calls = mount.xprt().stats().calls;
    assert_eq!(cnic.fragments_sent(), calls, "one fragment per RPC");
}

/// Asynchronous write errors: the server runs out of space mid-file; the
/// writer does not see the error at `write()` (writeback is
/// asynchronous), but `close()` reports it and no pages leak.
#[test]
fn enospc_reported_at_close_without_leaks() {
    let sim = Sim::new();
    let kernel = Kernel::new(&sim, KernelConfig::default());
    let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
    let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
    let to_server = Path::new(Rc::clone(&cnic), snic, Path::default_latency());
    let config = ServerConfig {
        write_error_after: Some(256 << 10),
        ..ServerConfig::netapp_f85()
    };
    let _server = NfsServer::spawn(&sim, srx, to_server.reversed(), config);
    let mount = NfsMount::mount(
        &kernel,
        to_server,
        crx,
        MountConfig {
            tuning: ClientTuning::full_patch(),
            ..MountConfig::default()
        },
    );
    let m2 = Rc::clone(&mount);
    let outcome = sim.run_until(async move {
        let file = m2.create("nospc").await.unwrap();
        let mut off = 0;
        while off < (1 << 20) {
            // Asynchronous writeback: write() itself keeps succeeding.
            file.write(off, 8192).await.unwrap();
            off += 8192;
        }
        file.close().await
    });
    assert_eq!(
        outcome.unwrap_err(),
        nfsperf_kernel::VfsError::Server(nfsperf_nfs3::NfsStat3::Nospc as u32),
        "ENOSPC must surface at close"
    );
    assert_eq!(
        kernel.mem.dirty_pages(),
        0,
        "failed writes must not pin pages"
    );
    assert_eq!(mount.outstanding_requests(), 0);
    assert!(mount.stats().write_failures > 0);
}
