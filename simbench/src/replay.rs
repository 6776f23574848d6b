//! Per-layer replay rows: each times one layer's public hot operation,
//! called from outside the layer, at the shape the workload produced
//! (index size, wheel population, scheduler backlog — see
//! [`crate::worlds::Shape`]).
//!
//! Every row reports host nanoseconds per operation as the median of a
//! few timed batches.

use std::cell::Cell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::Instant;

use nfsperf_client::{IndexKind, NfsInode, NfsPageReq, RequestIndex};
use nfsperf_kernel::{MemoryModel, PageSeg};
use nfsperf_net::{pool_get, pool_put, Nic, NicSpec, Path, PortPolicy, PortTicket};
use nfsperf_nfs3::{FileHandle, NfsProc3, StableHow, Write3Args, NFS_PROGRAM, NFS_V3};
use nfsperf_server::{OpClass, ReqMeta, SchedPolicy, ServiceEngine, SvcAdmit, SvcSlot};
use nfsperf_sim::{EventHandlerId, Sim, SimDuration, SimTime};
use nfsperf_sunrpc::{decode_call, encode_call, encode_record, AuthUnix, RecordReader};
use nfsperf_tcp::{TcpConfig, TcpEndpoint};
use nfsperf_xdr::XdrDecode;

/// Timed batches per row; the row reports their median.
const BATCHES: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Runs `batch(ops)` [`BATCHES`] times and returns the median host
/// nanoseconds per operation.
fn per_op(ops: u64, mut batch: impl FnMut(u64)) -> f64 {
    let runs = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(ops);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(runs)
}

/// `schedule_event` + fire (or `schedule_direct` → handler with
/// `direct`) while the wheel holds `population` other pending entries.
/// Each dispatch re-arms the next event 1 µs later, so every timed
/// operation is one insert into and one pop from the populated wheel.
pub fn sim_timer_ns(population: usize, ops: u64, direct: bool) -> f64 {
    let sim = Sim::new();
    let idle = sim.register_event_handler(Rc::new(|_| {}));
    // Parked far beyond the replay's horizon: they never fire.
    let far = SimTime(1 << 50);
    for i in 0..population as u64 {
        sim.schedule_direct(far + SimDuration(i * 2_000), idle, 0);
    }
    let left = Rc::new(Cell::new(0u64));
    let me: Rc<Cell<Option<EventHandlerId>>> = Rc::new(Cell::new(None));
    let arm = {
        let sim = sim.clone();
        move |id: EventHandlerId| {
            let at = sim.now() + SimDuration(1_000);
            if direct {
                sim.schedule_direct(at, id, 0);
            } else {
                sim.schedule_event(at, id, 0);
            }
        }
    };
    let handler = {
        let left = Rc::clone(&left);
        let me = Rc::clone(&me);
        let arm = arm.clone();
        sim.register_event_handler(Rc::new(move |_| {
            let n = left.get();
            if n > 1 {
                left.set(n - 1);
                arm(me.get().expect("handler id"));
            }
        }))
    };
    me.set(Some(handler));
    let ns = per_op(ops, |ops| {
        left.set(ops);
        arm(handler);
        let s = sim.clone();
        sim.run_until(async move { s.sleep(SimDuration(1_000 * (ops + 1))).await });
    });
    // The handler captures the simulator: break the cycle.
    sim.clear_event_handler(handler);
    sim.clear_event_handler(idle);
    ns
}

/// Spawn a task that sleeps and completes, then join it: one
/// spawn/sleep/wake cycle of the async-task engine.
pub fn sim_task_wake_ns(ops: u64) -> f64 {
    per_op(ops, |ops| {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            for _ in 0..ops {
                let s2 = s.clone();
                s.spawn(async move { s2.sleep(SimDuration(100)).await })
                    .await;
            }
        });
    })
}

/// Pin one dirty page, move it to writeback, release it — on a client
/// with `(hard, background)` page limits and `pinned` other pages
/// already pinned.
pub fn mem_pin_release_ns((hard, background): (usize, usize), pinned: usize, ops: u64) -> f64 {
    let sim = Sim::new();
    let mem = Rc::new(MemoryModel::new(&sim, hard, background));
    let pinned = pinned.min(hard - 1);
    let m = Rc::clone(&mem);
    sim.run_until(async move {
        for _ in 0..pinned {
            m.pin_dirty_page().await;
        }
    });
    per_op(ops, |ops| {
        let m = Rc::clone(&mem);
        sim.run_until(async move {
            for _ in 0..ops {
                m.pin_dirty_page().await;
                m.move_pages(PageSeg::Dirty, PageSeg::Writeback, 1);
                m.release_pages(PageSeg::Writeback, 1);
            }
        });
    })
}

fn page_req(page: u64) -> Rc<NfsPageReq> {
    NfsPageReq::new(page, 0, 4096, SimTime::ZERO)
}

/// A sequential writer's sliding window over the request index: remove
/// the oldest request, look up the next page, insert it — at `size`
/// outstanding requests.
pub fn req_index_cycle_ns(kind: IndexKind, size: usize, ops: u64) -> f64 {
    let mut idx = RequestIndex::new(kind);
    for page in 0..size as u64 {
        idx.insert(page_req(page));
    }
    let mut oldest = 0u64;
    let mut next = size as u64;
    per_op(ops, |ops| {
        for _ in 0..ops {
            idx.remove(oldest);
            oldest += 1;
            black_box(idx.find(next).scanned);
            idx.insert(page_req(next));
            next += 1;
        }
    })
}

/// One WRITE batch through an inode holding `size` requests: dirty
/// `wsize_pages` new pages, take them with `take_first_dirty_batch`,
/// and finish the oldest `wsize_pages` in-flight requests.
pub fn dirty_batch_ns(kind: IndexKind, size: usize, wsize_pages: usize, ops: u64) -> f64 {
    let inode = NfsInode::new(FileHandle::for_fileid(7), kind);
    let mut next = 0u64;
    let mut inflight: VecDeque<Rc<NfsPageReq>> = VecDeque::new();
    let dirty = |inode: &NfsInode, n: usize, next: &mut u64| {
        for _ in 0..n {
            inode.index.borrow_mut().insert(page_req(*next));
            inode.note_created(*next);
            *next += 1;
        }
    };
    dirty(&inode, size.max(wsize_pages), &mut next);
    while let Some(batch) = inode.take_first_dirty_batch(wsize_pages) {
        inflight.extend(batch);
    }
    per_op(ops, |ops| {
        for _ in 0..ops {
            dirty(&inode, wsize_pages, &mut next);
            let batch = inode
                .take_first_dirty_batch(wsize_pages)
                .expect("fresh dirty pages");
            inflight.extend(batch);
            for _ in 0..wsize_pages {
                let req = inflight.pop_front().expect("in-flight request");
                inode.finish_request(&req);
            }
        }
    })
}

fn write3_call(xid: u32) -> Vec<u8> {
    let cred = AuthUnix::root_on("simbench");
    let args = Write3Args::new(FileHandle::for_fileid(7), 0, 8192, StableHow::Unstable);
    encode_call(
        xid,
        NFS_PROGRAM,
        NFS_V3,
        NfsProc3::Write as u32,
        &cred,
        &args,
    )
}

/// Encoding one 8 KiB WRITE3 call message.
pub fn write3_encode_ns(ops: u64) -> f64 {
    let cred = AuthUnix::root_on("simbench");
    let args = Write3Args::new(FileHandle::for_fileid(7), 0, 8192, StableHow::Unstable);
    per_op(ops, |ops| {
        for xid in 0..ops as u32 {
            let msg = encode_call(
                black_box(xid),
                NFS_PROGRAM,
                NFS_V3,
                NfsProc3::Write as u32,
                &cred,
                &args,
            );
            black_box(msg.len());
        }
    })
}

/// Decoding one 8 KiB WRITE3 call message (header + arguments).
pub fn write3_decode_ns(ops: u64) -> f64 {
    let msg = write3_call(1);
    per_op(ops, |ops| {
        for _ in 0..ops {
            let (hdr, mut dec) = decode_call(black_box(&msg)).expect("call header");
            let args = Write3Args::decode(&mut dec).expect("WRITE3 args");
            black_box((hdr.xid, args.count));
        }
    })
}

/// Record-marking one WRITE call and reassembling it with a
/// `RecordReader`, as the TCP transport does per RPC.
pub fn record_ns(ops: u64) -> f64 {
    let msg = write3_call(1);
    let mut reader = RecordReader::new();
    per_op(ops, |ops| {
        for _ in 0..ops {
            reader.push(&encode_record(black_box(&msg)));
            black_box(reader.next_record().expect("whole record").len());
        }
    })
}

/// Host nanoseconds per KiB carried by a loss-free two-endpoint
/// `TcpConn` pair on gigabit NICs, in the shape the NFS transport uses
/// it: `exchanges` request/reply round trips, each a record-marked 8 KiB
/// WRITE call answered by a 128-byte reply.
pub fn tcp_transfer_ns_per_kib(exchanges: usize) -> f64 {
    let request = encode_record(&write3_call(1));
    let kib = (request.len() * exchanges / 1024) as u64;
    per_op(kib, |_| {
        let sim = Sim::new();
        let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
        let c2s = Path::new(cnic, snic, Path::default_latency());
        let s2c = c2s.reversed();
        let client = TcpEndpoint::new(&sim, c2s, crx, TcpConfig::for_mtu(1500));
        let server = TcpEndpoint::new(&sim, s2c, srx, TcpConfig::for_mtu(1500));
        let len = request.len();
        let responder = sim.spawn(async move {
            let conn = server.accept().await.expect("accept");
            for _ in 0..exchanges {
                let mut got = 0;
                while got < len {
                    got += conn.recv_some().await.expect("request stream").len();
                }
                conn.send(&[0; 128]).expect("reply");
            }
        });
        let request = request.clone();
        sim.run_until(async move {
            let conn = client.connect().await.expect("connect");
            for _ in 0..exchanges {
                conn.send(&request).expect("request");
                let mut got = 0;
                while got < 128 {
                    got += conn.recv_some().await.expect("reply stream").len();
                }
            }
            responder.await;
        });
    })
}

/// Lane scheduler enqueue + dequeue at `backlog` queued datagrams over
/// `flows` flows: pick the next ticket, re-enqueue that flow's next
/// datagram (a closed-loop sender).
pub fn lane_admit_ns(policy: &PortPolicy, backlog: usize, flows: usize, ops: u64) -> f64 {
    let sched = policy.build();
    let flows = flows.max(1);
    let cost = 8_328;
    for i in 0..backlog.max(1) {
        sched.enqueue(PortTicket::new((i % flows) as u32, cost));
    }
    per_op(ops, |ops| {
        for _ in 0..ops {
            let t = sched.pick_next().expect("queued ticket");
            sched.enqueue(PortTicket::new(t.flow(), cost));
        }
    })
}

/// Payload-pool get + put of one wire buffer.
pub fn payload_pool_ns(ops: u64) -> f64 {
    per_op(ops, |ops| {
        for _ in 0..ops {
            let mut buf = pool_get();
            buf.push(0);
            pool_put(black_box(buf));
        }
    })
}

/// Records which parked admission the engine woke last.
struct WokenFlag {
    idx: usize,
    last: Arc<AtomicUsize>,
}

impl Wake for WokenFlag {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.last.store(self.idx, Ordering::Relaxed);
    }
}

/// Server scheduler enqueue + `pick_next` through `ServiceEngine`'s
/// public poll-style admission: all `slots` busy, `backlog` requests
/// queued from `clients` clients round-robin. Each operation releases
/// the oldest slot (the scheduler picks and wakes one ticket), admits
/// the woken request, and queues a fresh request in its place.
pub fn server_sched_ns(
    policy: SchedPolicy,
    slots: usize,
    backlog: usize,
    clients: usize,
    ops: u64,
) -> f64 {
    let sim = Sim::new();
    let engine = ServiceEngine::new(&sim, slots.max(1), policy);
    engine.set_sample_cap(0);
    let clients = clients.max(1);
    let mut next_client = 0usize;
    let mut meta = || {
        let client = next_client % clients;
        next_client += 1;
        ReqMeta {
            client,
            class: OpClass::Write,
            bytes: 8192,
            arrival: SimTime::ZERO,
        }
    };
    let mut never = || -> Waker { unreachable!("fast-path admission parks nothing") };
    let mut held: VecDeque<SvcSlot> = (0..slots.max(1))
        .map(|_| {
            engine
                .poll_admit(meta(), &mut SvcAdmit::default(), &mut never)
                .expect("a free slot admits at once")
        })
        .collect();
    let last = Arc::new(AtomicUsize::new(usize::MAX));
    let backlog = backlog.max(1);
    let wakers: Vec<Waker> = (0..backlog)
        .map(|idx| {
            Waker::from(Arc::new(WokenFlag {
                idx,
                last: Arc::clone(&last),
            }))
        })
        .collect();
    let mut queued: Vec<(ReqMeta, SvcAdmit)> = (0..backlog)
        .map(|i| {
            let m = meta();
            let mut st = SvcAdmit::default();
            let slot = engine.poll_admit(m, &mut st, &mut || wakers[i].clone());
            assert!(slot.is_none(), "every slot is held: the request queues");
            (m, st)
        })
        .collect();
    per_op(ops, |ops| {
        for _ in 0..ops {
            last.store(usize::MAX, Ordering::Relaxed);
            drop(held.pop_front());
            let i = last.load(Ordering::Relaxed);
            assert!(i != usize::MAX, "a released slot wakes a queued request");
            let (m, st) = &mut queued[i];
            let slot = engine
                .poll_admit(*m, st, &mut || wakers[i].clone())
                .expect("the woken request takes the freed slot");
            held.push_back(slot);
            st.reset();
            *m = meta();
            let again = engine.poll_admit(*m, st, &mut || wakers[i].clone());
            assert!(again.is_none(), "every slot is held: the request queues");
        }
    })
}
