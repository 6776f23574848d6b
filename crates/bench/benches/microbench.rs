//! Microbenchmarks of the core data structures and substrates: the
//! request index (the paper's list-vs-hash fix, measured directly), the
//! CPU-charge profiler, the XDR codec, the TCP byte stream, and the
//! simulation engine's primitives.

use std::hint::black_box;

use nfsperf_bench::Harness;
use nfsperf_client::{IndexKind, NfsPageReq, RequestIndex};
use nfsperf_sim::{Sim, SimDuration, SimTime};

/// The heart of the paper's second fix: absent-page lookup cost on a
/// sorted list vs the hash table, across list sizes.
fn index_lookup(h: &mut Harness) {
    h.group("request_index_lookup_absent");
    for &n in &[100u64, 1_000, 10_000] {
        for (label, kind) in [
            ("list", IndexKind::SortedList),
            ("hash", IndexKind::HashTable),
        ] {
            let mut idx = RequestIndex::new(kind);
            for page in 0..n {
                idx.insert(NfsPageReq::new(page, 0, 4096, SimTime::ZERO));
            }
            h.bench(&format!("{label}/{n}"), || {
                let l = idx.find(black_box(n + 1));
                assert!(l.found.is_none());
                l.scanned
            });
        }
    }
}

/// Sequential append cost (find + insert), the per-page write-path work.
fn index_append(h: &mut Harness) {
    h.group("request_index_append_10k");
    for (label, kind) in [
        ("list", IndexKind::SortedList),
        ("hash", IndexKind::HashTable),
    ] {
        h.bench(label, || {
            let mut idx = RequestIndex::new(kind);
            for page in 0..10_000u64 {
                idx.find(page);
                idx.insert(NfsPageReq::new(page, 0, 4096, SimTime::ZERO));
            }
            idx.len()
        });
    }
}

/// A sequential writer's steady state at a fixed index size: the oldest
/// request completes, then the next page is looked up and inserted.
/// 57,344 is the Figure 7 client's peak of dirty pages.
fn index_complete_oldest(h: &mut Harness) {
    h.group("request_index_complete_oldest");
    for &n in &[1_000u64, 57_344] {
        for (label, kind) in [
            ("list", IndexKind::SortedList),
            ("hash", IndexKind::HashTable),
        ] {
            let mut idx = RequestIndex::new(kind);
            for page in 0..n {
                idx.insert(NfsPageReq::new(page, 0, 4096, SimTime::ZERO));
            }
            let mut oldest = 0u64;
            h.bench(&format!("{label}/{n}"), || {
                idx.remove(oldest).expect("oldest is indexed");
                let next = oldest + n;
                oldest += 1;
                let l = idx.find(black_box(next));
                l.scanned + idx.insert(NfsPageReq::new(next, 0, 4096, SimTime::ZERO))
            });
        }
    }
}

/// One `Profiler::charge`, as `CpuPool::work` makes it on every
/// simulated CPU section: charges cycle over the labels a faithful
/// client's write path uses.
fn profiler_charge(h: &mut Harness) {
    use nfsperf_sim::Profiler;
    const LABELS: [&str; 15] = [
        "nfs_commit_write",
        "generic_file_write",
        "nfs_find_request",
        "nfs_update_request",
        "balance_dirty_pages",
        "nfs_scan_list",
        "nfs_flushd",
        "nfs_strategy",
        "rpc_encode",
        "sock_sendmsg",
        "net_interrupt",
        "rpc_reply",
        "nfs_writeback_done",
        "nfs_commit_done",
        "generic_file_read",
    ];
    h.group("profiler_charge");
    let profiler = Profiler::new();
    let mut next = 0;
    h.bench("labels/15", || {
        profiler.charge(black_box(LABELS[next]), SimDuration::from_nanos(1_500));
        next = (next + 1) % LABELS.len();
    });
    black_box(profiler.report().len());
}

/// Encoding a full WRITE3 call message (header + 8 KiB payload).
fn xdr_write3(h: &mut Harness) {
    use nfsperf_nfs3::{FileHandle, StableHow, Write3Args};
    use nfsperf_sunrpc::AuthUnix;
    let cred = AuthUnix::root_on("bench");
    let args = Write3Args::new(FileHandle::for_fileid(7), 0, 8192, StableHow::Unstable);
    h.group("xdr");
    h.bench("encode_write3_call_8k", || {
        let msg = nfsperf_sunrpc::encode_call(black_box(1), 100_003, 3, 7, &cred, &args);
        msg.len()
    });
    let msg = nfsperf_sunrpc::encode_call(1, 100_003, 3, 7, &cred, &args);
    h.bench("decode_write3_call_8k", || {
        let (hdr, mut dec) = nfsperf_sunrpc::decode_call(black_box(&msg)).unwrap();
        let w = <Write3Args as nfsperf_xdr::XdrDecode>::decode(&mut dec).unwrap();
        (hdr.xid, w.count)
    });
}

/// The TCP byte stream at a deep send backlog: `records` record-marked
/// 8 KiB WRITE calls queued on one connection at once (16 is 128 KiB, a
/// full 16-slot RPC table), then driven until the peer has read them all
/// and the last ACKs have drained the send buffer. The per-record cost
/// must not grow with the backlog; `tcp.transfer_ns_per_kib` in the repo
/// benchmark replays an empty send queue and cannot show that.
fn tcp_stream_backlog(h: &mut Harness) {
    use std::rc::Rc;

    use nfsperf_net::{Nic, NicSpec, Path};
    use nfsperf_nfs3::{FileHandle, StableHow, Write3Args};
    use nfsperf_sunrpc::{record_marker, AuthUnix};
    use nfsperf_tcp::{TcpConfig, TcpEndpoint};

    let args = Write3Args::new(FileHandle::for_fileid(7), 0, 8192, StableHow::Unstable);
    let call = nfsperf_sunrpc::encode_call(1, 100_003, 3, 7, &AuthUnix::root_on("bench"), &args);
    h.group("tcp_stream_backlog");
    for records in [1usize, 16] {
        let sim = Sim::new();
        let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
        let c2s = Path::new(cnic, snic, Path::default_latency());
        let server = TcpEndpoint::new(&sim, c2s.reversed(), srx, TcpConfig::for_mtu(1500));
        let client = TcpEndpoint::new(&sim, c2s, crx, TcpConfig::for_mtu(1500));
        let (tx, rx) = sim.run_until(async move {
            let tx = client.connect().await.expect("connect");
            (tx, server.accept().await.expect("accept"))
        });
        let backlog = records * (call.len() + 4);
        h.bench(&format!("records/{records}"), || {
            let marker = record_marker(call.len());
            for _ in 0..records {
                tx.send_vectored(&[&marker, &call[..]]).expect("send");
            }
            let rx = Rc::clone(&rx);
            let s = sim.clone();
            sim.run_until(async move {
                let mut got = Vec::new();
                while got.len() < backlog {
                    rx.recv_into(&mut got).await.expect("stream open");
                }
                // Long enough for the last ACKs to reach the sender.
                s.sleep(SimDuration::from_millis(1)).await;
                black_box(got.len())
            })
        });
    }
}

/// Raw discrete-event engine throughput: spawn/sleep/complete cycles.
fn sim_engine(h: &mut Harness) {
    h.group("sim_engine");
    h.bench("sleep_chain_10k", || {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            for _ in 0..10_000 {
                s.sleep(SimDuration::from_nanos(100)).await;
            }
            s.now()
        })
    });
    h.bench("spawn_join_1k", || {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let handles: Vec<_> = (0..1_000)
                .map(|i| {
                    let s2 = s.clone();
                    s.spawn(async move {
                        s2.sleep(SimDuration::from_nanos(i)).await;
                        i
                    })
                })
                .collect();
            let mut total = 0;
            for h in handles {
                total += h.await;
            }
            total
        })
    });
}

fn main() {
    let mut h = Harness::from_env();
    index_lookup(&mut h);
    index_append(&mut h);
    index_complete_oldest(&mut h);
    profiler_charge(&mut h);
    xdr_write3(&mut h);
    tcp_stream_backlog(&mut h);
    sim_engine(&mut h);
    h.finish();
}
