//! Microbenchmarks of the core data structures and substrates: the
//! request index (the paper's list-vs-hash fix, measured directly), the
//! XDR codec, and the simulation engine's primitives.

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
    xdr_write3(&mut h);
    sim_engine(&mut h);
    h.finish();
}
