//! Server request scheduling.
//!
//! The paper's counter-intuitive result — a *faster* server slows client
//! writes down — is a statement about service order, not bandwidth: what
//! the server answers first shapes how the client's dirty pages drain.
//! This module makes that order a policy. Every RPC handler passes through
//! a [`ServiceEngine`]: the server's service slots (the nfsd thread pool /
//! filer service engine) as an N-slot [`nfsperf_sim::arbiter::Arbiter`],
//! the same arbiter each switch lane runs over its one slot. The key is
//! the request's client, class and payload bytes; [`SchedPolicy`] picks
//! the arbiter's order:
//!
//! - `fifo` — arrival order, bit-compatible with the semaphore the server
//!   used before scheduling existed (asserted by
//!   `fifo_engine_is_bit_compatible_with_semaphore` and the determinism
//!   tests). This stays the default: the paper's servers serve FIFO, and
//!   the reproduced figures must not move.
//! - `drr` — deficit round robin across clients with byte-weighted quanta
//!   (Shreedhar & Varghese): an 8 KB-write client and a 32 KB-write
//!   client get equal *bytes*, not equal *requests*.
//! - `classed-drr` — DRR with two classes per client, WRITE and metadata
//!   above COMMIT (whose disk flushes are the expensive tail), and a
//!   per-client in-flight quota, so one client with a deep RPC slot table
//!   cannot occupy every nfsd at once.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;
use std::task::Waker;

use nfsperf_sim::arbiter::{Arbiter, Claim, Key, Order, WeightTable, DEFAULT_QUANTUM};
use nfsperf_sim::{drive_poll, Counter, Sim, SimDuration, SimTime};

pub use nfsperf_sim::LatencyDigest;

/// Request class for scheduling purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// WRITE — carries payload bytes.
    Write,
    /// COMMIT — cheap to accept, expensive tail (disk flush on knfsd).
    Commit,
    /// CREATE, the one metadata procedure.
    Meta,
}

/// Scheduling metadata for one request.
#[derive(Debug, Clone, Copy)]
pub struct ReqMeta {
    /// Client id (attach order), as used by per-client accounting.
    pub client: usize,
    /// Request class.
    pub class: OpClass,
    /// Payload bytes the request carries (0 for metadata ops).
    pub bytes: u64,
    /// When the request reached the service queue.
    pub arrival: SimTime,
}

impl ReqMeta {
    /// The request's arbiter key: COMMIT rides in class 1, below WRITE
    /// and metadata — its knfsd service time is a whole dirty-pool
    /// flush, so letting a COMMIT backlog monopolize slots starves
    /// everyone's writes. Orders with one class ignore it.
    fn key(&self) -> Key {
        Key {
            flow: u32::try_from(self.client).expect("client ids fit the arbiter's u32 flows"),
            class: u8::from(self.class == OpClass::Commit),
            cost: self.bytes,
        }
    }
}

/// Scheduling policy selection, carried by `ServerConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Arrival order (the default; matches the paper's servers).
    #[default]
    Fifo,
    /// Deficit round robin across clients.
    Drr {
        /// Byte credit added per ring rotation.
        quantum: u64,
    },
    /// DRR with COMMIT-vs-WRITE classes and a per-client in-flight quota.
    ClassedDrr {
        /// Byte credit added per ring rotation.
        quantum: u64,
        /// Max requests per client in service at once.
        quota: usize,
    },
}

impl SchedPolicy {
    /// Default per-client in-flight quota for [`SchedPolicy::ClassedDrr`].
    pub const DEFAULT_QUOTA: usize = 2;

    /// DRR with the default quantum.
    pub fn drr() -> SchedPolicy {
        SchedPolicy::Drr {
            quantum: DEFAULT_QUANTUM,
        }
    }

    /// Classed DRR with the default quantum and quota.
    pub fn classed_drr() -> SchedPolicy {
        SchedPolicy::ClassedDrr {
            quantum: DEFAULT_QUANTUM,
            quota: SchedPolicy::DEFAULT_QUOTA,
        }
    }

    /// Policy name for reports and CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Drr { .. } => "drr",
            SchedPolicy::ClassedDrr { .. } => "classed-drr",
        }
    }

    /// Parses a CLI policy name (`fifo`, `drr`, `classed-drr`), with the
    /// default parameters for the parameterized policies.
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s {
            "fifo" => Some(SchedPolicy::Fifo),
            "drr" => Some(SchedPolicy::drr()),
            "classed-drr" | "classed_drr" => Some(SchedPolicy::classed_drr()),
            _ => None,
        }
    }

    /// Builds the arbiter order: every client weighs the same.
    fn build(&self) -> Order {
        match *self {
            SchedPolicy::Fifo => Order::fifo(),
            SchedPolicy::Drr { quantum } => Order::drr(quantum, WeightTable::uniform(), 1, None),
            SchedPolicy::ClassedDrr { quantum, quota } => {
                Order::drr(quantum, WeightTable::uniform(), 2, Some(quota))
            }
        }
    }
}

/// The server's service slots: an N-slot arbiter keyed by each request's
/// client, class and payload bytes, plus the byte counters and
/// per-client latency samples the server reports.
pub struct ServiceEngine {
    sim: Sim,
    policy: SchedPolicy,
    arbiter: Arbiter,
    enqueued_bytes: Counter,
    served_bytes: Counter,
    queue_delay: RefCell<Vec<Vec<SimDuration>>>,
    service_lat: RefCell<Vec<Vec<SimDuration>>>,
    /// Latency samples are kept only for clients with an id below this
    /// cap. Unlimited by default (every client gets full digests, the
    /// pre-flyweight behavior); a megafleet caps it at the faithful-tier
    /// size so a million flyweight ids cannot materialize a million
    /// sample vectors.
    sample_cap: Cell<usize>,
}

impl ServiceEngine {
    /// Creates an engine with `slots` concurrent service slots.
    pub fn new(sim: &Sim, slots: usize, policy: SchedPolicy) -> Rc<ServiceEngine> {
        assert!(slots > 0, "a server needs at least one service slot");
        Rc::new(ServiceEngine {
            sim: sim.clone(),
            policy,
            arbiter: Arbiter::new(slots, policy.build()),
            enqueued_bytes: Counter::new(),
            served_bytes: Counter::new(),
            queue_delay: RefCell::new(Vec::new()),
            service_lat: RefCell::new(Vec::new()),
            sample_cap: Cell::new(usize::MAX),
        })
    }

    /// Caps per-client latency sampling to clients `0..cap`: clients at
    /// or above the cap (the flyweight tier) are served and scheduled
    /// normally but leave no per-client sample vectors behind.
    pub fn set_sample_cap(&self, cap: usize) {
        self.sample_cap.set(cap);
    }

    /// The configured policy.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Total service slots.
    pub fn slots(&self) -> usize {
        self.arbiter.slots()
    }

    /// Requests currently in service.
    pub fn in_flight(&self) -> usize {
        self.arbiter.slots() - self.arbiter.free()
    }

    /// Requests waiting for a slot.
    pub fn queued(&self) -> usize {
        self.arbiter.queued()
    }

    /// Payload bytes of every request admitted so far.
    pub fn enqueued_bytes(&self) -> u64 {
        self.enqueued_bytes.get()
    }

    /// Payload bytes of every request whose service completed.
    pub fn served_bytes(&self) -> u64 {
        self.served_bytes.get()
    }

    /// Queue-delay and service-latency digests for one client (zeroes if
    /// the client never queued).
    pub fn digests(&self, client: usize) -> (LatencyDigest, LatencyDigest) {
        let q = self.queue_delay.borrow();
        let s = self.service_lat.borrow();
        (
            q.get(client)
                .map_or(LatencyDigest::default(), |v| LatencyDigest::of(v)),
            s.get(client)
                .map_or(LatencyDigest::default(), |v| LatencyDigest::of(v)),
        )
    }

    /// Raw service-latency samples (arrival to completion) for one client.
    pub fn service_samples(&self, client: usize) -> Vec<SimDuration> {
        self.service_lat
            .borrow()
            .get(client)
            .cloned()
            .unwrap_or_default()
    }

    /// Acquires a service slot for `meta`, waiting in policy order:
    /// drives [`ServiceEngine::poll_admit`] from the calling task.
    /// Dropping the returned [`SvcSlot`] releases the slot and dispatches
    /// the next pick.
    pub fn admit(self: &Rc<Self>, meta: ReqMeta) -> impl Future<Output = SvcSlot> + '_ {
        let mut st = SvcAdmit::default();
        drive_poll(move |wf| self.poll_admit(meta, &mut st, wf))
    }

    /// Acquires a service slot without a task: the arbiter's
    /// [`Arbiter::poll_claim`] for the request's key, which
    /// [`ServiceEngine::admit`] drives for async callers. Returns
    /// `Some(slot)` once admitted, `None` after parking a waker from
    /// `waker_factory` (call again when it fires). The request's bytes
    /// count as enqueued on the first call. Every caller, task-driven or
    /// taskless, shares the one arbiter, so mixed traffic is served in
    /// one order.
    pub fn poll_admit(
        self: &Rc<Self>,
        meta: ReqMeta,
        st: &mut SvcAdmit,
        waker_factory: &mut dyn FnMut() -> Waker,
    ) -> Option<SvcSlot> {
        self.poll_claim(meta, st, waker_factory).then(|| SvcSlot {
            engine: Rc::clone(self),
            meta,
        })
    }

    /// [`ServiceEngine::poll_admit`] without the guard: returns `true`
    /// once a slot is taken for `meta`, which the caller must hand back
    /// through [`ServiceEngine::release`] when service ends. For callers
    /// that keep the request's fields anyway and cannot spare a guard's
    /// 40 bytes per request (the flyweight op).
    pub(crate) fn poll_claim(
        &self,
        meta: ReqMeta,
        st: &mut SvcAdmit,
        waker_factory: &mut dyn FnMut() -> Waker,
    ) -> bool {
        if !st.claim.is_queued() {
            self.enqueued_bytes.add(meta.bytes);
        }
        if !self
            .arbiter
            .poll_claim(meta.key(), &mut st.claim, waker_factory)
        {
            return false;
        }
        if meta.client < self.sample_cap.get() {
            let delay = self.sim.now().since(meta.arrival);
            record_sample(&self.queue_delay, meta.client, delay);
        }
        true
    }

    /// Ends the service of a request admitted with `meta`: the drop of
    /// its [`SvcSlot`], or the explicit end of a
    /// [`ServiceEngine::poll_claim`].
    pub(crate) fn release(&self, meta: &ReqMeta) {
        self.served_bytes.add(meta.bytes);
        if meta.client < self.sample_cap.get() {
            let sojourn = self.sim.now().since(meta.arrival);
            record_sample(&self.service_lat, meta.client, sojourn);
        }
        self.arbiter.release(meta.key().flow);
    }
}

fn record_sample(store: &RefCell<Vec<Vec<SimDuration>>>, client: usize, sample: SimDuration) {
    let mut store = store.borrow_mut();
    while store.len() <= client {
        store.push(Vec::new());
    }
    store[client].push(sample);
}

/// In-flight state for [`ServiceEngine::poll_admit`]; `Default` is the
/// not-yet-started state. Must be driven to admission once started — a
/// queued claim holds its place in the order, just as a parked task does.
#[derive(Default)]
pub struct SvcAdmit {
    claim: Claim,
}

impl SvcAdmit {
    /// Resets to the not-yet-started state for reuse by the next RPC.
    pub fn reset(&mut self) {
        self.claim = Claim::default();
    }
}

/// RAII service slot from [`ServiceEngine::admit`]; releases (and
/// dispatches the next pick) on drop.
#[must_use = "dropping the slot immediately would serve the request in zero slots"]
pub struct SvcSlot {
    engine: Rc<ServiceEngine>,
    meta: ReqMeta,
}

impl Drop for SvcSlot {
    fn drop(&mut self) {
        self.engine.release(&self.meta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::proptest::{check, CaseOutcome};
    use nfsperf_sim::{prop_assert, prop_assert_eq, Semaphore};

    fn meta(client: usize, class: OpClass, bytes: u64) -> ReqMeta {
        ReqMeta {
            client,
            class,
            bytes,
            arrival: SimTime::default(),
        }
    }

    /// The flyweight sample cap: clients at or above the cap are served
    /// normally but leave no latency vectors behind, so a million
    /// flyweight ids cost the engine nothing.
    #[test]
    fn sample_cap_skips_flyweight_latency_vectors() {
        let sim = Sim::new();
        let engine = ServiceEngine::new(&sim, 1, SchedPolicy::Fifo);
        engine.set_sample_cap(1);
        let e = Rc::clone(&engine);
        sim.run_until(async move {
            drop(e.admit(meta(0, OpClass::Write, 8192)).await);
            drop(e.admit(meta(999_983, OpClass::Write, 8192)).await);
        });
        assert_eq!(engine.service_samples(0).len(), 1);
        assert!(
            engine.service_samples(999_983).is_empty(),
            "capped client must not materialize a sample vector"
        );
        assert_eq!(
            engine.digests(999_983),
            (LatencyDigest::default(), LatencyDigest::default())
        );
        // The vectors never grew past the faithful tier.
        assert!(engine.service_lat.borrow().len() <= 1);
        assert!(engine.queue_delay.borrow().len() <= 1);
    }

    /// DRR state is sparse: an engine that has admitted client ids 0 and
    /// 999_983 holds scheduler state only while a client is backlogged
    /// or, under classed DRR's finite quota, holds grants — never one
    /// entry per client id below the highest.
    #[test]
    fn drr_engine_holds_state_only_for_busy_clients() {
        for policy in [SchedPolicy::drr(), SchedPolicy::classed_drr()] {
            let sim = Sim::new();
            let engine = ServiceEngine::new(&sim, 1, policy);
            let state = |e: &ServiceEngine| e.arbiter.order().resident_bytes();
            let serve = |client: usize, delay: u64| {
                let (s, e) = (sim.clone(), Rc::clone(&engine));
                sim.spawn(async move {
                    s.sleep(SimDuration::from_micros(delay)).await;
                    let slot = e.admit(meta(client, OpClass::Write, 8192)).await;
                    s.sleep(SimDuration::from_micros(100)).await;
                    drop(slot);
                })
            };
            let (a, b) = (serve(0, 0), serve(999_983, 1));
            let (s, e) = (sim.clone(), Rc::clone(&engine));
            let busy = sim.run_until(async move {
                s.sleep(SimDuration::from_micros(50)).await;
                let busy = state(&e);
                a.await;
                b.await;
                busy
            });
            // One backlogged client (and one granted one under the
            // quota): a few small tables, not ~a million entries.
            assert!(
                busy > 0 && busy < 1024,
                "{policy:?}: {busy} bytes while busy"
            );
            let idle = state(&engine);
            assert!(idle < 1024, "{policy:?}: {idle} bytes when idle");
            assert_eq!(engine.served_bytes(), 2 * 8192);
        }
    }

    /// Classed DRR puts COMMIT in the lower class: while a WRITE holds
    /// the one slot, a client queues three COMMITs, then a metadata op
    /// and a WRITE, and the latter two are served first. Plain DRR keeps
    /// the client's arrival order.
    #[test]
    fn classed_drr_serves_writes_before_commit_backlog() {
        use OpClass::{Commit, Meta, Write};
        for (policy, want) in [
            (
                SchedPolicy::classed_drr(),
                [Write, Meta, Write, Commit, Commit, Commit],
            ),
            (
                SchedPolicy::drr(),
                [Write, Commit, Commit, Commit, Meta, Write],
            ),
        ] {
            let sim = Sim::new();
            let engine = ServiceEngine::new(&sim, 1, policy);
            let served = Rc::new(RefCell::new(Vec::new()));
            let ops = [
                (1, Write, 0),
                (0, Commit, 1),
                (0, Commit, 2),
                (0, Commit, 3),
                (0, Meta, 4),
                (0, Write, 5),
            ];
            let handles: Vec<_> = ops
                .into_iter()
                .map(|(client, class, delay)| {
                    let (s, e, served) = (sim.clone(), Rc::clone(&engine), Rc::clone(&served));
                    sim.spawn(async move {
                        s.sleep(SimDuration::from_micros(delay)).await;
                        let bytes = if class == Write { 8192 } else { 0 };
                        let slot = e.admit(meta(client, class, bytes)).await;
                        served.borrow_mut().push(class);
                        s.sleep(SimDuration::from_micros(100)).await;
                        drop(slot);
                    })
                })
                .collect();
            sim.run_until(async move {
                for h in handles {
                    h.await;
                }
            });
            assert_eq!(*served.borrow(), want, "{policy:?}");
        }
    }

    /// A READ whose wire count is `u32::MAX` queues behind a held slot
    /// and is served under every policy: the arbiter caps its cost
    /// rather than refusing it, and the engine still counts every byte.
    #[test]
    fn huge_wire_count_queues_and_is_served() {
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::drr(),
            SchedPolicy::classed_drr(),
        ] {
            let sim = Sim::new();
            let engine = ServiceEngine::new(&sim, 1, policy);
            let served = Rc::new(RefCell::new(Vec::new()));
            let ops = [(0, 8192, 0), (1, u64::from(u32::MAX), 1), (2, 8192, 2)];
            let handles: Vec<_> = ops
                .into_iter()
                .map(|(client, bytes, delay)| {
                    let (s, e, served) = (sim.clone(), Rc::clone(&engine), Rc::clone(&served));
                    sim.spawn(async move {
                        s.sleep(SimDuration::from_micros(delay)).await;
                        let slot = e.admit(meta(client, OpClass::Meta, bytes)).await;
                        served.borrow_mut().push(client);
                        s.sleep(SimDuration::from_micros(100)).await;
                        drop(slot);
                    })
                })
                .collect();
            sim.run_until(async move {
                for h in handles {
                    h.await;
                }
            });
            // DRR may serve the small request first; all three are served.
            let mut served = served.borrow().clone();
            served.sort_unstable();
            assert_eq!(served, [0, 1, 2], "{policy:?}");
            assert_eq!(
                engine.served_bytes(),
                2 * 8192 + u64::from(u32::MAX),
                "{policy:?}"
            );
        }
    }

    /// One simulated client-service world: `ops` are (start_delay_us,
    /// service_us) pairs, all against a pool of `slots`. Returns each
    /// op's completion time in spawn order.
    fn run_ops_engine(slots: usize, policy: SchedPolicy, ops: &[(u64, u64)]) -> Vec<u64> {
        let sim = Sim::new();
        let engine = ServiceEngine::new(&sim, slots, policy);
        let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for (i, &(delay, service)) in ops.iter().enumerate() {
            let sim2 = sim.clone();
            let engine = Rc::clone(&engine);
            let done = Rc::clone(&done);
            handles.push(sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(delay)).await;
                let m = ReqMeta {
                    client: i % 3,
                    class: OpClass::Write,
                    bytes: 8192,
                    arrival: sim2.now(),
                };
                let slot = engine.admit(m).await;
                sim2.sleep(SimDuration::from_micros(service)).await;
                drop(slot);
                done.borrow_mut().push((i, sim2.now().0));
            }));
        }
        sim.run_until(async move {
            for h in handles {
                h.await;
            }
        });
        let mut by_spawn = vec![0u64; ops.len()];
        for &(i, t) in done.borrow().iter() {
            by_spawn[i] = t;
        }
        by_spawn
    }

    /// The same world against the plain semaphore the server used before
    /// this subsystem. The semaphore is a FIFO arbiter now, held to its
    /// pre-slab rules by `nfsperf_sim`'s reference replay.
    fn run_ops_semaphore(slots: usize, ops: &[(u64, u64)]) -> Vec<u64> {
        let sim = Sim::new();
        let sem = Rc::new(Semaphore::new(slots));
        let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for (i, &(delay, service)) in ops.iter().enumerate() {
            let sim2 = sim.clone();
            let sem = Rc::clone(&sem);
            let done = Rc::clone(&done);
            handles.push(sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(delay)).await;
                let permit = sem.acquire().await;
                sim2.sleep(SimDuration::from_micros(service)).await;
                drop(permit);
                done.borrow_mut().push((i, sim2.now().0));
            }));
        }
        sim.run_until(async move {
            for h in handles {
                h.await;
            }
        });
        let mut by_spawn = vec![0u64; ops.len()];
        for &(i, t) in done.borrow().iter() {
            by_spawn[i] = t;
        }
        by_spawn
    }

    /// FIFO bit-compatibility: the engine must complete every op at the
    /// identical simulated nanosecond the raw semaphore did, including
    /// under simultaneous arrivals and slot barging.
    #[test]
    fn fifo_engine_is_bit_compatible_with_semaphore() {
        let patterns: &[&[(u64, u64)]] = &[
            &[(0, 100), (0, 100), (0, 100), (0, 100)],
            &[(0, 500), (10, 20), (10, 20), (400, 300), (401, 1)],
            &[(5, 50), (5, 50), (5, 50), (55, 10), (55, 10), (56, 200)],
            &[(0, 1), (1, 1), (2, 1), (3, 1000), (3, 1), (1000, 5)],
        ];
        for (slots, pattern) in [(1usize, 0usize), (2, 1), (3, 2), (2, 3)] {
            let ops = patterns[pattern];
            assert_eq!(
                run_ops_engine(slots, SchedPolicy::Fifo, ops),
                run_ops_semaphore(slots, ops),
                "slots={slots} pattern={pattern}"
            );
        }
    }

    #[test]
    fn engine_records_queue_delay_and_service_latency() {
        let sim = Sim::new();
        let engine = ServiceEngine::new(&sim, 1, SchedPolicy::Fifo);
        let e1 = Rc::clone(&engine);
        let e2 = Rc::clone(&engine);
        let s1 = sim.clone();
        let s2 = sim.clone();
        let a = sim.spawn(async move {
            let m = ReqMeta {
                client: 0,
                class: OpClass::Write,
                bytes: 100,
                arrival: s1.now(),
            };
            let slot = e1.admit(m).await;
            s1.sleep(SimDuration::from_micros(100)).await;
            drop(slot);
        });
        let b = sim.spawn(async move {
            let m = ReqMeta {
                client: 1,
                class: OpClass::Commit,
                bytes: 0,
                arrival: s2.now(),
            };
            let slot = e2.admit(m).await;
            s2.sleep(SimDuration::from_micros(50)).await;
            drop(slot);
        });
        sim.run_until(async move {
            a.await;
            b.await;
        });
        let (q0, s0) = engine.digests(0);
        let (q1, s1d) = engine.digests(1);
        assert_eq!(q0.p50, SimDuration::ZERO, "client 0 never queued");
        assert_eq!(s0.p50, SimDuration::from_micros(100));
        assert_eq!(
            q1.p50,
            SimDuration::from_micros(100),
            "client 1 waited out client 0"
        );
        assert_eq!(s1d.p50, SimDuration::from_micros(150));
        assert_eq!(engine.enqueued_bytes(), 100);
        assert_eq!(engine.served_bytes(), 100);
        // Unknown clients report zeroes.
        assert_eq!(engine.digests(7), Default::default());
    }

    /// Shared harness for the two properties below: run a random arrival
    /// pattern through an engine, tracking per-client in-flight peaks.
    /// Ops are (client, arrival_us, service_us, bytes).
    fn run_property_world(
        policy: SchedPolicy,
        slots: usize,
        ops: &[(usize, u64, u64, u64)],
    ) -> (Vec<usize>, u64, u64) {
        let sim = Sim::new();
        let engine = ServiceEngine::new(&sim, slots, policy);
        let in_flight: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(vec![0; 8]));
        let peaks: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(vec![0; 8]));
        let mut handles = Vec::new();
        for &(client, arrival, service, bytes) in ops {
            let sim2 = sim.clone();
            let engine = Rc::clone(&engine);
            let in_flight = Rc::clone(&in_flight);
            let peaks = Rc::clone(&peaks);
            handles.push(sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(arrival)).await;
                let m = ReqMeta {
                    client,
                    class: if bytes % 2 == 1 {
                        OpClass::Commit
                    } else {
                        OpClass::Write
                    },
                    bytes,
                    arrival: sim2.now(),
                };
                let slot = engine.admit(m).await;
                {
                    let mut inf = in_flight.borrow_mut();
                    inf[client] += 1;
                    let mut pk = peaks.borrow_mut();
                    pk[client] = pk[client].max(inf[client]);
                }
                sim2.sleep(SimDuration::from_micros(service)).await;
                in_flight.borrow_mut()[client] -= 1;
                drop(slot);
            }));
        }
        let enq;
        let served;
        {
            let engine = Rc::clone(&engine);
            sim.run_until(async move {
                for h in handles {
                    h.await;
                }
            });
            enq = engine.enqueued_bytes();
            served = engine.served_bytes();
        }
        let peaks = peaks.borrow().clone();
        (peaks, enq, served)
    }

    fn gen_ops(g: &mut nfsperf_sim::proptest::Gen) -> Vec<(usize, u64, u64, u64)> {
        g.vec(1, 24, |g| {
            (
                g.usize_in(0, 3),
                g.u64_in(0, 200),
                g.u64_in(1, 80),
                g.u64_in(0, 40_000),
            )
        })
    }

    /// Property: for any arrival pattern, ClassedDrr never lets a client
    /// exceed its in-flight quota.
    #[test]
    fn prop_quota_never_exceeded() {
        check("prop_quota_never_exceeded", gen_ops, |ops| {
            let quota = 2;
            let (peaks, _, _) = run_property_world(
                SchedPolicy::ClassedDrr {
                    quantum: 16 * 1024,
                    quota,
                },
                4,
                ops,
            );
            for (client, &peak) in peaks.iter().enumerate() {
                prop_assert!(
                    peak <= quota,
                    "client {client} reached {peak} in flight (quota {quota})"
                );
            }
            CaseOutcome::Pass
        });
    }

    /// Property: total served bytes equals total enqueued bytes once the
    /// queue drains (conservation) — for every policy.
    #[test]
    fn prop_byte_conservation() {
        check("prop_byte_conservation", gen_ops, |ops| {
            for policy in [
                SchedPolicy::Fifo,
                SchedPolicy::drr(),
                SchedPolicy::classed_drr(),
            ] {
                let (_, enqueued, served) = run_property_world(policy, 3, ops);
                prop_assert_eq!(enqueued, served);
                let want: u64 = ops.iter().map(|&(_, _, _, b)| b).sum();
                prop_assert_eq!(enqueued, want);
            }
            CaseOutcome::Pass
        });
    }

    /// Quota-blocked picks must not deadlock idle slots: completions
    /// re-kick the scheduler.
    #[test]
    fn quota_block_resolves_on_completion() {
        let ops: Vec<(usize, u64, u64, u64)> = (0..10u64)
            .map(|i| (0usize, 0u64, 50u64, 8192 * (i % 2)))
            .collect();
        let (peaks, enq, served) = run_property_world(
            SchedPolicy::ClassedDrr {
                quantum: 16 * 1024,
                quota: 1,
            },
            4,
            &ops,
        );
        assert_eq!(enq, served, "all ops must eventually be served");
        assert!(peaks[0] <= 1);
    }
}
