//! Pluggable server request scheduling.
//!
//! The paper's counter-intuitive result — a *faster* server slows client
//! writes down — is a statement about service order, not bandwidth: what
//! the server answers first shapes how the client's dirty pages drain.
//! This module makes that order a policy. Every RPC handler passes through
//! a [`ServiceEngine`] that owns the server's service slots (the nfsd
//! thread pool / filer service engine) and asks a [`Scheduler`] which
//! queued request runs next:
//!
//! - [`Fifo`] — arrival order, bit-compatible with the semaphore the
//!   server used before this subsystem existed (asserted by the
//!   determinism tests). This stays the default: the paper's servers
//!   serve FIFO, and the reproduced figures must not move.
//! - [`Drr`] — deficit round robin across clients with byte-weighted
//!   quanta (Shreedhar & Varghese): each rotation a client's deficit
//!   grows by one quantum, and it may dispatch requests until the head
//!   request's byte cost exceeds the deficit. An 8 KB-write client and a
//!   32 KB-write client get equal *bytes*, not equal *requests*.
//! - [`ClassedDrr`] — DRR plus two priority classes per client (WRITE
//!   and metadata above COMMIT, whose disk flushes are the expensive
//!   tail) and a per-client in-flight quota, so one client with a deep
//!   RPC slot table cannot occupy every nfsd at once.
//! - [`Drr::weighted`] — DRR whose per-rotation top-up is scaled by a
//!   per-client [`WeightTable`] (the same table type the network
//!   fabric's `PortWrr` lanes use), so an SLA can hand one client a
//!   multiple of another's service share.
//!
//! The engine replicates the exact admission semantics of
//! [`nfsperf_sim::Semaphore`] so that `Fifo` is not merely equivalent but
//! *bit-identical*: a fast-path arrival may barge past a just-woken
//! waiter (which then re-queues at the back), and each slot release wakes
//! at most the head of the queue.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;
use std::task::Waker;

use nfsperf_sim::{drive_poll, Counter, Sim, SimDuration, SimTime};

pub use nfsperf_net::WeightTable;
pub use nfsperf_sim::LatencyDigest;

/// Byte cost floor: a zero-byte op (COMMIT, GETATTR) still occupies a
/// service slot, so DRR charges it as if it carried a small payload.
/// Without a floor, a client could pump unlimited metadata ops through a
/// single quantum.
pub const COST_FLOOR: u64 = 512;

/// Request class for scheduling purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// WRITE — carries payload bytes.
    Write,
    /// COMMIT — cheap to accept, expensive tail (disk flush on knfsd).
    Commit,
    /// Everything else (CREATE, LOOKUP, GETATTR, SETATTR, READ, NULL).
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

/// A queued admission request: scheduling metadata plus the woken/waker
/// handshake (the same shape as the simulator's `WaitNode`). The engine
/// parks the requesting task on its ticket; the scheduler hands tickets
/// back from `pick_next` and the engine wakes them.
///
/// The metadata is stored field by field so the class and the woken flag
/// share one word: a million-client megafleet queues one ticket per
/// flyweight at the server at once.
pub struct Ticket {
    client: Cell<usize>,
    bytes: Cell<u64>,
    arrival: Cell<SimTime>,
    class: Cell<OpClass>,
    woken: Cell<bool>,
    waker: Cell<Option<Waker>>,
}

/// Free-list bound for recycled tickets; admissions beyond it fall back
/// to plain allocation.
const TICKET_POOL_CAP: usize = 64;

thread_local! {
    /// Recycled tickets, so steady-state admission allocates nothing.
    /// Like the simulator's wait-node pool, `Ticket::new` only reuses a
    /// ticket whose strong count has fallen back to one (the pool's own
    /// reference): a scheduler queue still holding a clone can never
    /// see its ticket repurposed.
    static TICKET_POOL: RefCell<Vec<Rc<Ticket>>> = const { RefCell::new(Vec::new()) };
}

impl Ticket {
    fn new(meta: ReqMeta) -> Rc<Ticket> {
        TICKET_POOL.with(|p| {
            let mut free = p.borrow_mut();
            while let Some(t) = free.pop() {
                if Rc::strong_count(&t) == 1 {
                    t.set_meta(meta);
                    t.woken.set(false);
                    t.waker.take();
                    return t;
                }
                // A holder is still alive somewhere; forget this one.
            }
            Rc::new(Ticket {
                client: Cell::new(meta.client),
                bytes: Cell::new(meta.bytes),
                arrival: Cell::new(meta.arrival),
                class: Cell::new(meta.class),
                woken: Cell::new(false),
                waker: Cell::new(None),
            })
        })
    }

    /// Returns a retired ticket to the pool.
    fn recycle(t: Rc<Ticket>) {
        TICKET_POOL.with(|p| {
            let mut free = p.borrow_mut();
            if free.len() < TICKET_POOL_CAP {
                free.push(t);
            }
        });
    }

    /// The request's scheduling metadata.
    pub fn meta(&self) -> ReqMeta {
        ReqMeta {
            client: self.client.get(),
            class: self.class.get(),
            bytes: self.bytes.get(),
            arrival: self.arrival.get(),
        }
    }

    fn set_meta(&self, meta: ReqMeta) {
        self.client.set(meta.client);
        self.class.set(meta.class);
        self.bytes.set(meta.bytes);
        self.arrival.set(meta.arrival);
    }

    fn wake(&self) {
        self.woken.set(true);
        if let Some(w) = self.waker.take() {
            w.wake();
        }
    }

    /// Re-arms the handshake so the ticket can be queued again after a
    /// slot steal.
    fn rearm(&self) {
        self.woken.set(false);
    }

    /// Whether the engine has picked and woken this ticket.
    fn is_woken(&self) -> bool {
        self.woken.get()
    }

    /// Stores a waker for the next wake. Callers must check
    /// [`Ticket::is_woken`] first.
    fn park(&self, waker: Waker) {
        self.waker.set(Some(waker));
    }
}

/// A request-ordering policy.
///
/// The [`ServiceEngine`] owns the slots; the scheduler owns the order.
/// `enqueue` admits a ticket to the queue, `pick_next` removes and
/// returns the next ticket to run (recording any grant state such as an
/// in-flight quota), and `on_complete` retires a request when its slot is
/// released. `try_grant`/`ungrant` bracket the engine's fast path and
/// slot-steal recovery; policies without admission state keep the
/// defaults.
pub trait Scheduler {
    /// Policy name for reports (`fifo`, `drr`, `classed-drr`).
    fn label(&self) -> &'static str;

    /// Admits a ticket to the queue.
    fn enqueue(&self, ticket: Rc<Ticket>);

    /// Removes and returns the next ticket to dispatch, or `None` if the
    /// queue is empty or every queued client is at its in-flight quota.
    /// Granting (quota accounting) happens here.
    fn pick_next(&self) -> Option<Rc<Ticket>>;

    /// Fast path: may `meta` start service immediately, bypassing the
    /// (empty) queue? On `true` the grant is recorded.
    fn try_grant(&self, _meta: &ReqMeta) -> bool {
        true
    }

    /// Reverts a grant whose slot was stolen before service started; the
    /// ticket re-enters the queue via `enqueue`.
    fn ungrant(&self, _meta: &ReqMeta) {}

    /// Retires a granted request when its service slot is released.
    fn on_complete(&self, _meta: &ReqMeta) {}

    /// Number of queued tickets.
    fn queued(&self) -> usize;
}

/// Arrival-order scheduling — the pre-subsystem semaphore behavior.
#[derive(Default)]
pub struct Fifo {
    queue: RefCell<VecDeque<Rc<Ticket>>>,
}

impl Scheduler for Fifo {
    fn label(&self) -> &'static str {
        "fifo"
    }

    fn enqueue(&self, ticket: Rc<Ticket>) {
        self.queue.borrow_mut().push_back(ticket);
    }

    fn pick_next(&self) -> Option<Rc<Ticket>> {
        self.queue.borrow_mut().pop_front()
    }

    fn queued(&self) -> usize {
        self.queue.borrow().len()
    }
}

/// Per-client scheduling state for the DRR core.
struct DrrClient {
    /// One FIFO per class, drained in class order (index 0 first).
    queues: Vec<VecDeque<Rc<Ticket>>>,
    /// Byte credit accumulated while waiting in the active ring.
    deficit: u64,
    /// Requests granted (picked or fast-pathed) and not yet completed.
    granted: usize,
    /// Whether the client is in the active ring.
    in_ring: bool,
}

impl DrrClient {
    fn has_work(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }
}

struct DrrInner {
    clients: Vec<DrrClient>,
    /// Round-robin ring of client ids with queued work.
    ring: VecDeque<usize>,
    queued: usize,
}

impl DrrInner {
    fn ensure(&mut self, client: usize, classes: usize) {
        while self.clients.len() <= client {
            self.clients.push(DrrClient {
                queues: vec![VecDeque::new(); classes],
                deficit: 0,
                granted: 0,
                in_ring: false,
            });
        }
    }
}

/// Deficit round robin core shared by [`Drr`] (one class, unlimited
/// quota) and [`ClassedDrr`] (two classes, finite quota).
struct DrrCore {
    label: &'static str,
    quantum: u64,
    quota: usize,
    classes: usize,
    /// When set, client `c`'s per-rotation top-up is `quantum ×
    /// weights.get(c)` — the SLA-table weighting; `None` is plain DRR.
    weights: Option<WeightTable>,
    inner: RefCell<DrrInner>,
}

impl DrrCore {
    fn new(label: &'static str, quantum: u64, quota: usize, classes: usize) -> DrrCore {
        assert!(quantum > 0, "DRR quantum must be positive");
        assert!(quota > 0, "a zero in-flight quota would deadlock");
        DrrCore {
            label,
            quantum,
            quota,
            classes,
            weights: None,
            inner: RefCell::new(DrrInner {
                clients: Vec::new(),
                ring: VecDeque::new(),
                queued: 0,
            }),
        }
    }

    fn topup(&self, client: usize) -> u64 {
        match &self.weights {
            Some(w) => self.quantum * w.get(client as u32),
            None => self.quantum,
        }
    }

    fn class_of(&self, class: OpClass) -> usize {
        if self.classes == 1 {
            0
        } else {
            match class {
                // COMMIT rides below WRITE/metadata: its knfsd service
                // time is a whole dirty-pool flush, so letting a COMMIT
                // backlog monopolize slots starves everyone's writes.
                OpClass::Commit => 1,
                OpClass::Write | OpClass::Meta => 0,
            }
        }
    }

    fn cost(bytes: u64) -> u64 {
        bytes.max(COST_FLOOR)
    }
}

impl Scheduler for DrrCore {
    fn label(&self) -> &'static str {
        self.label
    }

    fn enqueue(&self, ticket: Rc<Ticket>) {
        let meta = ticket.meta();
        let class = self.class_of(meta.class);
        let mut inner = self.inner.borrow_mut();
        inner.ensure(meta.client, self.classes);
        inner.clients[meta.client].queues[class].push_back(ticket);
        inner.queued += 1;
        if !inner.clients[meta.client].in_ring {
            inner.clients[meta.client].in_ring = true;
            inner.ring.push_back(meta.client);
        }
    }

    fn pick_next(&self) -> Option<Rc<Ticket>> {
        let mut inner = self.inner.borrow_mut();
        // Visits since the last top-up or ring change; once it spans the
        // whole ring, every queued client is quota-blocked.
        let mut blocked = 0usize;
        loop {
            let &client = inner.ring.front()?;
            if !inner.clients[client].has_work() {
                // Queue drained while the client kept its ring slot
                // (possible after an ungrant/re-enqueue shuffle): retire
                // it from the ring and forget its credit, as DRR does for
                // any idling flow.
                inner.ring.pop_front();
                inner.clients[client].in_ring = false;
                inner.clients[client].deficit = 0;
                blocked = 0;
                continue;
            }
            if inner.clients[client].granted >= self.quota {
                blocked += 1;
                if blocked >= inner.ring.len() {
                    return None;
                }
                inner.ring.rotate_left(1);
                continue;
            }
            let class = inner.clients[client]
                .queues
                .iter()
                .position(|q| !q.is_empty())
                .expect("has_work checked above");
            let cost = DrrCore::cost(inner.clients[client].queues[class][0].meta().bytes);
            if inner.clients[client].deficit < cost {
                inner.clients[client].deficit += self.topup(client);
                inner.ring.rotate_left(1);
                blocked = 0;
                continue;
            }
            let cl = &mut inner.clients[client];
            cl.deficit -= cost;
            cl.granted += 1;
            let ticket = cl.queues[class].pop_front().expect("non-empty class queue");
            inner.queued -= 1;
            if !inner.clients[client].has_work() {
                inner.ring.pop_front();
                inner.clients[client].in_ring = false;
                inner.clients[client].deficit = 0;
            }
            return Some(ticket);
        }
    }

    fn try_grant(&self, meta: &ReqMeta) -> bool {
        let mut inner = self.inner.borrow_mut();
        inner.ensure(meta.client, self.classes);
        if inner.clients[meta.client].granted < self.quota {
            inner.clients[meta.client].granted += 1;
            true
        } else {
            false
        }
    }

    fn ungrant(&self, meta: &ReqMeta) {
        let mut inner = self.inner.borrow_mut();
        let cl = &mut inner.clients[meta.client];
        cl.granted -= 1;
        // Refund the byte cost pick_next charged; the ticket is about to
        // re-enter the queue and would otherwise pay twice.
        cl.deficit += DrrCore::cost(meta.bytes);
    }

    fn on_complete(&self, meta: &ReqMeta) {
        let mut inner = self.inner.borrow_mut();
        inner.clients[meta.client].granted -= 1;
    }

    fn queued(&self) -> usize {
        self.inner.borrow().queued
    }
}

/// Deficit round robin across clients, byte-weighted quanta, no classes,
/// no in-flight quota.
pub struct Drr(DrrCore);

impl Drr {
    /// Creates a DRR scheduler with the given per-rotation byte quantum.
    pub fn new(quantum: u64) -> Drr {
        Drr(DrrCore::new("drr", quantum, usize::MAX, 1))
    }

    /// Creates a weighted DRR scheduler: client `c`'s per-rotation
    /// top-up is `quantum × weights.get(c)`.
    pub fn weighted(quantum: u64, weights: WeightTable) -> Drr {
        let mut core = DrrCore::new("wdrr", quantum, usize::MAX, 1);
        core.weights = Some(weights);
        Drr(core)
    }
}

impl Scheduler for Drr {
    fn label(&self) -> &'static str {
        self.0.label()
    }
    fn enqueue(&self, ticket: Rc<Ticket>) {
        self.0.enqueue(ticket);
    }
    fn pick_next(&self) -> Option<Rc<Ticket>> {
        self.0.pick_next()
    }
    fn try_grant(&self, meta: &ReqMeta) -> bool {
        self.0.try_grant(meta)
    }
    fn ungrant(&self, meta: &ReqMeta) {
        self.0.ungrant(meta)
    }
    fn on_complete(&self, meta: &ReqMeta) {
        self.0.on_complete(meta)
    }
    fn queued(&self) -> usize {
        self.0.queued()
    }
}

/// DRR with WRITE-above-COMMIT priority classes and a per-client
/// in-flight quota.
pub struct ClassedDrr(DrrCore);

impl ClassedDrr {
    /// Creates a classed DRR scheduler: `quantum` bytes of credit per
    /// rotation, at most `quota` requests per client in service at once.
    pub fn new(quantum: u64, quota: usize) -> ClassedDrr {
        ClassedDrr(DrrCore::new("classed-drr", quantum, quota, 2))
    }
}

impl Scheduler for ClassedDrr {
    fn label(&self) -> &'static str {
        self.0.label()
    }
    fn enqueue(&self, ticket: Rc<Ticket>) {
        self.0.enqueue(ticket);
    }
    fn pick_next(&self) -> Option<Rc<Ticket>> {
        self.0.pick_next()
    }
    fn try_grant(&self, meta: &ReqMeta) -> bool {
        self.0.try_grant(meta)
    }
    fn ungrant(&self, meta: &ReqMeta) {
        self.0.ungrant(meta)
    }
    fn on_complete(&self, meta: &ReqMeta) {
        self.0.on_complete(meta)
    }
    fn queued(&self) -> usize {
        self.0.queued()
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
    /// Default DRR quantum: one client's largest WRITE (32 KB) per
    /// rotation.
    pub const DEFAULT_QUANTUM: u64 = 32 * 1024;
    /// Default per-client in-flight quota for [`SchedPolicy::ClassedDrr`].
    pub const DEFAULT_QUOTA: usize = 2;

    /// DRR with the default quantum.
    pub fn drr() -> SchedPolicy {
        SchedPolicy::Drr {
            quantum: SchedPolicy::DEFAULT_QUANTUM,
        }
    }

    /// Classed DRR with the default quantum and quota.
    pub fn classed_drr() -> SchedPolicy {
        SchedPolicy::ClassedDrr {
            quantum: SchedPolicy::DEFAULT_QUANTUM,
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

    /// Builds the scheduler, upgrading a DRR policy to weighted DRR when
    /// a client weight table is supplied (FIFO ignores weights — there is
    /// no share to scale).
    fn build_weighted(&self, weights: Option<&WeightTable>) -> Box<dyn Scheduler> {
        match (*self, weights) {
            (SchedPolicy::Drr { quantum }, Some(w)) => Box::new(Drr::weighted(quantum, w.clone())),
            (SchedPolicy::Fifo, _) => Box::new(Fifo::default()),
            (SchedPolicy::Drr { quantum }, None) => Box::new(Drr::new(quantum)),
            (SchedPolicy::ClassedDrr { quantum, quota }, _) => {
                Box::new(ClassedDrr::new(quantum, quota))
            }
        }
    }
}

/// The server's service-slot pool plus its scheduling policy.
///
/// Admission follows the exact shape of [`nfsperf_sim::Semaphore`] so
/// that [`SchedPolicy::Fifo`] reproduces the pre-subsystem event order
/// bit for bit:
///
/// - fast path: a free slot with an empty queue is taken immediately
///   (this can barge past a woken-but-not-yet-running waiter, exactly as
///   the semaphore allowed);
/// - a released slot wakes at most one queued ticket (the scheduler's
///   pick), and a woken ticket that finds its slot stolen re-queues at
///   the back;
/// - `pending_wakes` tracks picks whose tasks have not yet run, so a
///   release never wakes two tickets for one slot.
pub struct ServiceEngine {
    sim: Sim,
    policy: SchedPolicy,
    sched: Box<dyn Scheduler>,
    slots: usize,
    free: Cell<usize>,
    pending_wakes: Cell<usize>,
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
        ServiceEngine::with_weights(sim, slots, policy, None)
    }

    /// Like [`ServiceEngine::new`], upgrading a DRR policy to weighted
    /// DRR when a per-client SLA weight table is supplied.
    pub fn with_weights(
        sim: &Sim,
        slots: usize,
        policy: SchedPolicy,
        weights: Option<&WeightTable>,
    ) -> Rc<ServiceEngine> {
        assert!(slots > 0, "a server needs at least one service slot");
        Rc::new(ServiceEngine {
            sim: sim.clone(),
            policy,
            sched: policy.build_weighted(weights),
            slots,
            free: Cell::new(slots),
            pending_wakes: Cell::new(0),
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

    /// The policy's report label.
    pub fn label(&self) -> &'static str {
        self.sched.label()
    }

    /// Total service slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Requests currently in service.
    pub fn in_flight(&self) -> usize {
        self.slots - self.free.get()
    }

    /// Requests waiting for a slot.
    pub fn queued(&self) -> usize {
        self.sched.queued()
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

    /// Acquires a service slot for `meta`, waiting in scheduler order:
    /// drives [`ServiceEngine::poll_admit`] from the calling task.
    /// Dropping the returned [`SvcSlot`] releases the slot and dispatches
    /// the scheduler's next pick.
    pub fn admit(self: &Rc<Self>, meta: ReqMeta) -> impl Future<Output = SvcSlot> + '_ {
        let mut st = SvcAdmit::default();
        drive_poll(move |wf| self.poll_admit(meta, &mut st, wf))
    }

    /// Acquires a service slot without a task: the engine's only
    /// admission rule, which [`ServiceEngine::admit`] drives for async
    /// callers. Returns `Some(slot)` once admitted, `None` after parking
    /// a waker from `waker_factory` (call again when it fires). The
    /// contract is the engine's slot protocol (see [`ServiceEngine`]):
    ///
    /// - the request's bytes count as enqueued on the first call;
    /// - **fast path**, first call only: a free slot, an empty queue and
    ///   the policy's `try_grant` admit at once;
    /// - otherwise the request queues a ticket and kicks, since a new
    ///   arrival can be eligible while slots idle;
    /// - a woken ticket re-checks for a free slot. If a fast-path arrival
    ///   took it first, the grant is refunded (`ungrant`) and the ticket
    ///   re-queues at the back.
    ///
    /// Every caller, task-driven or taskless, shares the one scheduler
    /// queue, so mixed traffic is served in one order.
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
    /// that keep `meta` anyway and cannot spare a guard's 40 bytes per
    /// request (the flyweight op).
    pub(crate) fn poll_claim(
        &self,
        meta: ReqMeta,
        st: &mut SvcAdmit,
        waker_factory: &mut dyn FnMut() -> Waker,
    ) -> bool {
        if !st.started {
            st.started = true;
            self.enqueued_bytes.add(meta.bytes);
            if self.free.get() > 0 && self.sched.queued() == 0 && self.sched.try_grant(&meta) {
                self.take_slot(&meta);
                return true;
            }
            let ticket = Ticket::new(meta);
            self.sched.enqueue(Rc::clone(&ticket));
            self.kick();
            st.ticket = Some(ticket);
        }
        loop {
            let ticket = st.ticket.as_ref().expect("SvcAdmit ticket state");
            if !ticket.is_woken() {
                ticket.park(waker_factory());
                return false;
            }
            ticket.rearm();
            self.pending_wakes.set(self.pending_wakes.get() - 1);
            if self.free.get() > 0 {
                if let Some(t) = st.ticket.take() {
                    Ticket::recycle(t);
                }
                self.take_slot(&meta);
                return true;
            }
            // A fast-path arrival stole the slot between our wake and our
            // poll: give the grant back and re-queue at the back.
            self.sched.ungrant(&meta);
            self.sched.enqueue(Rc::clone(ticket));
            self.kick();
        }
    }

    fn take_slot(&self, meta: &ReqMeta) {
        self.free.set(self.free.get() - 1);
        if meta.client < self.sample_cap.get() {
            let delay = self.sim.now().since(meta.arrival);
            record_sample(&self.queue_delay, meta.client, delay);
        }
    }

    /// Wakes scheduler picks while slots are free and not already spoken
    /// for by an earlier wake.
    fn kick(&self) {
        while self.free.get() > self.pending_wakes.get() {
            match self.sched.pick_next() {
                Some(ticket) => {
                    self.pending_wakes.set(self.pending_wakes.get() + 1);
                    ticket.wake();
                }
                None => break,
            }
        }
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
        self.sched.on_complete(meta);
        self.free.set(self.free.get() + 1);
        self.kick();
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
/// queued ticket holds scheduler state, just as a parked task does.
#[derive(Default)]
pub struct SvcAdmit {
    started: bool,
    ticket: Option<Rc<Ticket>>,
}

impl SvcAdmit {
    /// Resets to the not-yet-started state for reuse by the next RPC.
    pub fn reset(&mut self) {
        self.started = false;
        self.ticket = None;
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

    /// Drains a scheduler by repeated pick, completing each pick
    /// immediately; returns the client ids in service order.
    fn drain(sched: &dyn Scheduler) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some(t) = sched.pick_next() {
            order.push(t.meta().client);
            sched.on_complete(&t.meta());
        }
        order
    }

    /// Slot steal: a request woken for the free slot, robbed by a
    /// fast-path arrival before it runs, refunds its DRR grant and
    /// re-queues. It is then served next: the refund restores the credit
    /// that puts it ahead of a client that queued later.
    #[test]
    fn robbed_grant_refunds_its_credit_and_requeues() {
        let sim = Sim::new();
        // A quantum below the request cost makes the refund decide order.
        let engine = ServiceEngine::new(&sim, 1, SchedPolicy::Drr { quantum: 512 });
        let serve = |client: usize, delay: u64, bytes: u64, times: usize| {
            let (s, e) = (sim.clone(), Rc::clone(&engine));
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(delay)).await;
                let mut admitted = 0;
                // Back-to-back requests: the second barges into the slot
                // the first just freed, in the same poll.
                for _ in 0..times {
                    let slot = e.admit(meta(client, OpClass::Write, bytes)).await;
                    admitted = s.now().as_nanos() / 1_000;
                    s.sleep(SimDuration::from_micros(100)).await;
                    drop(slot);
                }
                admitted
            })
        };
        let thief = serve(0, 0, 4096, 2);
        let robbed = serve(1, 1, 4096, 1);
        let later = serve(2, 101, 0, 1);
        let admitted = sim.run_until(async move { (thief.await, robbed.await, later.await) });
        assert_eq!(admitted, (100, 200, 300), "admission instants, µs");
        assert_eq!(engine.served_bytes(), 3 * 4096);
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

    #[test]
    fn fifo_serves_in_arrival_order() {
        let sched = Fifo::default();
        for (client, bytes) in [(2usize, 8192u64), (0, 512), (1, 32768), (0, 8192)] {
            sched.enqueue(Ticket::new(meta(client, OpClass::Write, bytes)));
        }
        assert_eq!(drain(&sched), vec![2, 0, 1, 0]);
        assert_eq!(sched.queued(), 0);
    }

    /// DRR quantum accounting: with an 8 KB quantum, a client sending
    /// 32 KB writes is served once for every four services of a client
    /// sending 8 KB writes — equal bytes, not equal requests.
    #[test]
    fn drr_quantum_accounting_is_byte_weighted() {
        let sched = Drr::new(8192);
        for _ in 0..8 {
            sched.enqueue(Ticket::new(meta(0, OpClass::Write, 8192)));
        }
        for _ in 0..2 {
            sched.enqueue(Ticket::new(meta(1, OpClass::Write, 32768)));
        }
        assert_eq!(drain(&sched), vec![0, 0, 0, 0, 1, 0, 0, 0, 0, 1]);
    }

    /// Weighted DRR: an SLA table entry of 4 gives client 1 four quanta
    /// per rotation, so it drains four requests to client 0's one.
    #[test]
    fn weighted_drr_scales_the_topup_by_the_sla_table() {
        let sched = Drr::weighted(8192, WeightTable::new(vec![1, 4]));
        assert_eq!(sched.label(), "wdrr");
        for _ in 0..4 {
            sched.enqueue(Ticket::new(meta(0, OpClass::Write, 8192)));
        }
        for _ in 0..8 {
            sched.enqueue(Ticket::new(meta(1, OpClass::Write, 8192)));
        }
        assert_eq!(
            drain(&sched),
            vec![0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0],
            "client 1 earns 4x service per rotation"
        );
        // Clients beyond the table default to weight 1: plain DRR.
        let uniform = Drr::weighted(8192, WeightTable::uniform());
        for client in [5usize, 9] {
            for _ in 0..2 {
                uniform.enqueue(Ticket::new(meta(client, OpClass::Write, 8192)));
            }
        }
        assert_eq!(drain(&uniform), vec![5, 9, 5, 9]);
    }

    /// The DRR fairness bound: between two backlogged clients, served
    /// bytes never diverge by more than a quantum plus one max-size op.
    #[test]
    fn drr_prefix_byte_balance() {
        let sched = Drr::new(8192);
        for _ in 0..16 {
            sched.enqueue(Ticket::new(meta(0, OpClass::Write, 8192)));
        }
        for _ in 0..4 {
            sched.enqueue(Ticket::new(meta(1, OpClass::Write, 32768)));
        }
        let mut served = [0i64, 0i64];
        let mut picks = 0usize;
        while let Some(t) = sched.pick_next() {
            let m = t.meta();
            served[m.client] += m.bytes as i64;
            sched.on_complete(&m);
            picks += 1;
            // Only meaningful while both clients stay backlogged.
            if picks <= 16 {
                assert!(
                    (served[0] - served[1]).abs() <= 8192 + 32768,
                    "byte divergence {} after {picks} picks",
                    served[0] - served[1]
                );
            }
        }
        assert_eq!(served[0], 16 * 8192);
        assert_eq!(served[1], 4 * 32768);
    }

    #[test]
    fn classed_drr_enforces_in_flight_quota() {
        let sched = ClassedDrr::new(32768, 2);
        for _ in 0..5 {
            sched.enqueue(Ticket::new(meta(0, OpClass::Write, 8192)));
        }
        sched.enqueue(Ticket::new(meta(1, OpClass::Write, 8192)));

        let first = sched.pick_next().expect("slot 1");
        assert_eq!(first.meta().client, 0);
        let second = sched.pick_next().expect("slot 2");
        assert_eq!(second.meta().client, 0);
        // Client 0 is at quota: the next pick must skip to client 1.
        let third = sched.pick_next().expect("client 1 eligible");
        assert_eq!(third.meta().client, 1);
        // Everyone queued is now at quota or empty: no pick.
        assert!(sched.pick_next().is_none());
        assert_eq!(sched.queued(), 3);
        // Completing one of client 0's requests unblocks it.
        sched.on_complete(&first.meta());
        assert_eq!(sched.pick_next().expect("unblocked").meta().client, 0);
    }

    #[test]
    fn classed_drr_serves_writes_before_commit_backlog() {
        let sched = ClassedDrr::new(32768, 8);
        // A COMMIT backlog arrives first...
        for _ in 0..3 {
            sched.enqueue(Ticket::new(meta(0, OpClass::Commit, 0)));
        }
        // ...then a WRITE from the same client.
        sched.enqueue(Ticket::new(meta(0, OpClass::Write, 8192)));
        let first = sched.pick_next().expect("pick");
        assert_eq!(first.meta().class, OpClass::Write);
        // The backlog still drains afterwards.
        assert_eq!(
            (0..3)
                .map(|_| sched.pick_next().expect("commit").meta().class)
                .filter(|c| *c == OpClass::Commit)
                .count(),
            3
        );
    }

    #[test]
    fn fast_path_grant_counts_against_quota() {
        let sched = ClassedDrr::new(32768, 1);
        let m = meta(0, OpClass::Write, 8192);
        assert!(sched.try_grant(&m));
        assert!(!sched.try_grant(&m), "quota 1 must reject a second grant");
        sched.ungrant(&m);
        assert!(sched.try_grant(&m), "ungrant must return the quota");
        sched.on_complete(&m);
        assert!(sched.try_grant(&m));
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
    /// this subsystem.
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
        assert_eq!(q1.p50, SimDuration::from_micros(100), "client 1 waited out client 0");
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
        let ops: Vec<(usize, u64, u64, u64)> =
            (0..10u64).map(|i| (0usize, 0u64, 50u64, 8192 * (i % 2))).collect();
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
