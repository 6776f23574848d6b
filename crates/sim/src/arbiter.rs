//! One slot arbiter: `N` slots, waiters served in a policy order; and
//! the one parked-waiter record every wait in the simulator uses.
//!
//! The test bed has several contended resources: the client's CPUs and
//! RPC slot tables, the NIC links, the switch uplink port (one
//! serialization slot per direction), the server's service slots
//! (knfsd's nfsd threads, the filer's engine) and its disk arm. All are
//! this mechanism ([`crate::Semaphore`] is a FIFO arbiter). An
//! [`Arbiter`] owns the slots and the admission protocol, and an
//! [`Order`] owns who goes next:
//!
//! - [`Order::fifo`] — arrival order;
//! - [`Order::drr`] — Shreedhar–Varghese deficit round robin across
//!   keys, with byte-weighted quanta scaled per key by a
//!   [`WeightTable`], up to two priority classes per key, and an
//!   optional per-key in-flight quota.
//!
//! The protocol is the counting semaphore's, with the waiter queue
//! swapped for the order:
//!
//! - **fast path**: a free slot, no live waiter queued and the order's
//!   grant admit at once, without queueing (this can barge past a
//!   woken-but-not-yet-running waiter);
//! - **release**: frees the slot, wakes the order's next pick, then
//!   wakes more while free slots outnumber wakes still outstanding. The
//!   first wake comes even when an earlier one already spoke for the
//!   slot, as a semaphore's release woke its head: after a steal it may
//!   find the slot taken and re-queue;
//! - **steal**: a woken waiter that finds every slot taken (a fast-path
//!   arrival barged in first) refunds its pick and re-queues at the
//!   order's mercy; in a FIFO, at the back.
//!
//! A waiter that misses the fast path queues a [`Ticket`]: a 24-byte
//! entry in one slab per thread. The slab is the simulator's only
//! parked-waiter record. Every arbiter on the thread shares it, switch
//! lanes and server engines alike, and so do [`crate::WaitQueue`] (and
//! through it gates and channels) and [`crate::SimLock`]. Queues hold
//! 4-byte ids into it and a [`Claim`] holds one, so a million queued
//! flyweight waiters cost 24 MB of entries, and the entries the core
//! lane's waiters free are the ones the server's waiters take.
//! [`live_waiters`] counts the entries in use, for end-of-world audits.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::marker::PhantomData;
use std::num::NonZeroU32;
use std::sync::Arc;
use std::task::Waker;

/// DRR cost cap: 2^30 − 1 bytes, the most a queued [`Ticket`] keeps
/// in its 30 cost bits. A larger cost (a wire count no transfer size
/// allows) is charged as this much, at the pick and at the refund alike.
pub const MAX_COST: u64 = (1 << 30) - 1;

/// DRR cost floor: a tiny request (a COMMIT, a runt frame) still
/// occupies a slot, so DRR charges it as if it carried a small payload.
/// Without a floor a key could pump unlimited runts through one quantum.
pub const COST_FLOOR: u64 = 512;

/// Default DRR quantum: one largest WRITE (32 KB) per rotation.
pub const DEFAULT_QUANTUM: u64 = 32 * 1024;

/// What a waiter is scheduled by: its flow (the client or source flow
/// id), its priority class (0 first) and its byte cost before the floor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Key {
    /// Flow id: the DRR ring and in-flight quota are per flow.
    pub flow: u32,
    /// Priority class; a DRR order with one class treats every class as
    /// 0, and one with two serves every nonzero class as 1.
    pub class: u8,
    /// Byte cost charged against the flow's deficit, floored at
    /// [`COST_FLOOR`] and capped at [`MAX_COST`].
    pub cost: u64,
}

/// Per-flow weights for a DRR order: flow `f` earns `quantum × weight(f)`
/// of deficit per ring rotation. Flows beyond the table (and zero entries)
/// default to weight 1, so a table only needs to name the flows it
/// privileges.
///
/// Backed by an `Arc` so one table can be threaded from an experiment's
/// config into every lane and server without copies, and cloned across
/// the deterministic runner's worker threads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WeightTable(Arc<Vec<u32>>);

impl WeightTable {
    /// A table assigning `weights[f]` to flow `f`.
    pub fn new(weights: Vec<u32>) -> WeightTable {
        WeightTable(Arc::new(weights))
    }

    /// The all-ones table (every flow weight 1 — plain DRR).
    pub fn uniform() -> WeightTable {
        WeightTable::default()
    }

    /// Flow `f`'s weight (1 for flows beyond the table or zero entries —
    /// a zero weight would starve the flow forever and deadlock its
    /// senders).
    pub fn get(&self, flow: u32) -> u64 {
        match self.0.get(flow as usize) {
            Some(&w) if w > 0 => u64::from(w),
            _ => 1,
        }
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the table has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A queued admission: its [`Key`] plus the take-once woken/waker
/// handshake, as a handle on one entry of this thread's waiter slab. The
/// arbiter parks the waiter's waker on its ticket, the order hands
/// tickets back from `pick_next`, and the arbiter wakes them: exactly
/// one wake per park, never cancelled, which is what lets the flyweight
/// tier park reusable direct wakers here.
///
/// The handle is one 4-byte id and the entry it names is 24 bytes. At a
/// million flyweight clients about a million tickets are live at once,
/// queued at the core uplink or in the server, and orders queue them by
/// id. One slab serves every arbiter on the thread, the switch lanes and
/// the server engines alike, so the core lane's and the server's waiters
/// reuse the same entries. Dropping a handle frees its entry; an order
/// frees the tickets still queued in it when it drops.
pub struct Ticket(Id);

/// A ticket's slab position plus one, so `Option<Id>` is four bytes.
/// Neither `Send` nor `Sync`: it names an entry of this thread's slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Id(NonZeroU32, PhantomData<*const ()>);

impl Id {
    fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

/// One parked waiter: its waker, its flow and one word holding its cost,
/// class and woken flag, so the cost is capped at [`MAX_COST`]. Waiters
/// with no key (a wait queue's, a lock's) keep zeroes there. A vacant
/// entry keeps the free-list link in `flow`.
struct Entry {
    waker: Option<Waker>,
    flow: u32,
    /// Cost in the low 30 bits ([`COST_MASK`]), then [`CLASS_BIT`] and
    /// [`WOKEN_BIT`].
    bits: u32,
}

/// The cost bits of a ticket's word.
const COST_MASK: u32 = MAX_COST as u32;
/// Set for a class other than 0. Orders have at most two classes and
/// serve every nonzero class as class 1, so one bit keeps the key.
const CLASS_BIT: u32 = 1 << 30;
/// Set once the queue has woken the entry; an arbiter's waiter clears it
/// when it takes the wake. A queued entry with the bit set is an orphan:
/// its [`Claim`] was dropped, and the queue frees it when it comes up.
const WOKEN_BIT: u32 = 1 << 31;

impl Entry {
    /// Woken and not yet taken by its waiter, or orphaned.
    fn woken(&self) -> bool {
        self.bits & WOKEN_BIT != 0
    }
}

/// End of the slab's free list.
const NO_ENTRY: u32 = u32::MAX;

/// The thread's tickets, vacant entries linked last-in, first-out.
struct Slab {
    entries: Vec<Entry>,
    free: u32,
    live: usize,
}

thread_local! {
    static SLAB: RefCell<Slab> = const {
        RefCell::new(Slab {
            entries: Vec::new(),
            free: NO_ENTRY,
            live: 0,
        })
    };
}

/// Runs `f` on this thread's slab. Wakers leave the slab through `f`'s
/// result and are woken or dropped only after the borrow ends, since a
/// waker may reach another ticket.
fn slab<R>(f: impl FnOnce(&mut Slab) -> R) -> R {
    SLAB.with(|s| f(&mut s.borrow_mut()))
}

/// [`slab`] for drop paths, which may run while the thread's locals are
/// being torn down; `None` once the slab is gone.
fn try_slab<R>(f: impl FnOnce(&mut Slab) -> R) -> Option<R> {
    SLAB.try_with(|s| f(&mut s.borrow_mut())).ok()
}

impl Slab {
    fn alloc(&mut self, key: Key) -> Id {
        let cost = key.cost.min(MAX_COST) as u32;
        let entry = Entry {
            waker: None,
            flow: key.flow,
            bits: cost | if key.class == 0 { 0 } else { CLASS_BIT },
        };
        let index = match self.free {
            NO_ENTRY => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
            head => {
                let index = head as usize;
                self.free = self.entries[index].flow;
                self.entries[index] = entry;
                index
            }
        };
        self.live += 1;
        let id = u32::try_from(index + 1).expect("waiter slab past 2^32 - 2 entries");
        Id(NonZeroU32::new(id).expect("ids start at one"), PhantomData)
    }

    /// Frees `id`'s entry, handing back any waker still parked on it.
    fn free(&mut self, id: Id) -> Option<Waker> {
        let e = &mut self.entries[id.index()];
        e.flow = self.free;
        e.bits = 0;
        self.free = (id.index()) as u32;
        self.live -= 1;
        e.waker.take()
    }

    fn get(&self, id: Id) -> &Entry {
        &self.entries[id.index()]
    }

    fn get_mut(&mut self, id: Id) -> &mut Entry {
        &mut self.entries[id.index()]
    }

    /// Hands a dequeued entry its wake: sets its woken bit and returns
    /// its waker, or, if its handle is gone (an orphan), frees it and
    /// returns its flow.
    fn deliver(&mut self, id: Id) -> Result<Option<Waker>, u32> {
        let e = self.get_mut(id);
        if e.woken() {
            let flow = e.flow;
            self.free(id);
            Err(flow)
        } else {
            e.bits |= WOKEN_BIT;
            Ok(e.waker.take())
        }
    }

    /// The one rule for a handle that lets go of its entry before it is
    /// admitted (see [`Claim`]'s drop).
    fn abandon(&mut self, id: Id) -> Option<Waker> {
        let e = self.get_mut(id);
        if e.woken() {
            // Woken: the queue let go of it, so the handle frees it.
            self.free(id)
        } else {
            // Still queued: the queue frees it when it comes up.
            e.bits |= WOKEN_BIT;
            e.waker.take()
        }
    }
}

/// Entries live in this thread's slab: waiters queued in an order, a
/// wait queue or a lock, claims between their wake and their admission,
/// orphans not yet reached, and [`Ticket`]s. Zero once every arbiter,
/// queue and lock on the thread has drained or been dropped.
pub fn live_waiters() -> usize {
    slab(|s| s.live)
}

/// Frees `id`'s entry, from a drop path.
pub(crate) fn free_on_drop(id: Id) {
    drop(try_slab(|s| s.free(id)));
}

/// A FIFO of queued slab ids: an [`Order::fifo`]'s queue and a
/// [`crate::WaitQueue`]'s. It owns the entries it queues until it hands
/// them back, and frees those still queued when it drops.
#[derive(Default)]
pub(crate) struct Fifo(RefCell<VecDeque<Id>>);

impl Fifo {
    pub(crate) fn push(&self, id: Id) {
        self.0.borrow_mut().push_back(id);
    }

    pub(crate) fn pop(&self) -> Option<Id> {
        self.0.borrow_mut().pop_front()
    }

    /// Queued entries, orphans not yet reached included.
    pub(crate) fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether no live waiter is queued. Frees the orphans that lead the
    /// queue, so a queue holding only orphans reads as empty.
    #[inline]
    pub(crate) fn idle(&self) -> bool {
        self.0.borrow().is_empty() || self.free_leading_orphans()
    }

    /// [`Fifo::idle`] for a queue that is not empty.
    #[cold]
    fn free_leading_orphans(&self) -> bool {
        let mut q = self.0.borrow_mut();
        while let Some(&id) = q.front() {
            if !slab(|s| s.get(id).woken()) {
                return false;
            }
            q.pop_front();
            slab(|s| s.free(id));
        }
        true
    }

    /// Live waiters queued, orphans excluded: a walk of the queue.
    pub(crate) fn live(&self) -> usize {
        let q = self.0.borrow();
        slab(|s| q.iter().filter(|&&id| !s.get(id).woken()).count())
    }
}

impl Drop for Fifo {
    fn drop(&mut self) {
        for id in self.0.get_mut().drain(..) {
            free_on_drop(id);
        }
    }
}

/// A new waiter's entry with no key (a wait queue's or a lock's), for
/// the caller to queue.
pub(crate) fn new_waiter() -> Id {
    slab(|s| {
        s.alloc(Key {
            flow: 0,
            class: 0,
            cost: 0,
        })
    })
}

/// Hands the dequeued `id` its wake, returning the waker to fire; `None`
/// if it was an orphan, which is freed instead.
pub(crate) fn deliver(id: Id) -> Option<Option<Waker>> {
    slab(|s| s.deliver(id)).ok()
}

/// [`deliver`], firing the waker; `false` for an orphan.
pub(crate) fn wake(id: Id) -> bool {
    deliver(id).map(|waker| waker.map(Waker::wake)).is_some()
}

impl Ticket {
    /// A class-0 ticket for `cost` bytes from `flow`, capped at [`MAX_COST`].
    pub fn new(flow: u32, cost: u64) -> Ticket {
        let key = Key {
            flow,
            class: 0,
            cost,
        };
        Ticket(slab(|s| s.alloc(key)))
    }

    /// Hands the entry to an order without freeing it.
    fn into_id(self) -> Id {
        let id = self.0;
        std::mem::forget(self);
        id
    }

    /// The waiter's flow id.
    pub fn flow(&self) -> u32 {
        slab(|s| s.get(self.0).flow)
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        free_on_drop(self.0);
    }
}

fn cost_of(id: Id) -> u64 {
    u64::from(slab(|s| s.get(id).bits) & COST_MASK)
}

/// Per-flow DRR state. It exists only while the flow is backlogged,
/// holds grants under a finite quota, or holds a slot-steal refund
/// awaiting its re-enqueue, so a million idle flows cost nothing.
#[derive(Default)]
struct Backlog {
    /// Queued tickets: class 0 ahead of class 1, each in arrival order.
    queue: VecDeque<Id>,
    /// How many class-0 tickets lead `queue`.
    urgent: u32,
    /// Grants not yet released (counted only under a finite quota).
    granted: u32,
    /// Byte credit accumulated in the ring.
    deficit: u64,
}

/// Deterministic hasher: flows hash with fixed SipHash keys, so nothing
/// about the table depends on process-level randomness.
type FlowMap = HashMap<u32, Backlog, BuildHasherDefault<DefaultHasher>>;

#[derive(Default)]
struct DrrState {
    flows: FlowMap,
    /// Round-robin ring of backlogged flows.
    ring: VecDeque<u32>,
    queued: usize,
}

/// DRR parameters; see [`Order::drr`].
struct Drr {
    quantum: u64,
    weights: WeightTable,
    classes: u8,
    /// Max grants per flow in service at once; `None` is unbounded and
    /// keeps no grant state.
    quota: Option<u32>,
    state: RefCell<DrrState>,
}

impl Drr {
    fn enqueue(&self, ticket: Id) {
        let (flow, bits) = slab(|s| {
            let e = s.get(ticket);
            (e.flow, e.bits)
        });
        let urgent = self.classes == 1 || bits & CLASS_BIT == 0;
        let st = &mut *self.state.borrow_mut();
        let b = st.flows.entry(flow).or_default();
        if b.queue.is_empty() {
            st.ring.push_back(flow);
        }
        if urgent {
            b.queue.insert(b.urgent as usize, ticket);
            b.urgent += 1;
        } else {
            b.queue.push_back(ticket);
        }
        st.queued += 1;
    }

    fn pick_next(&self) -> Option<Id> {
        let st = &mut *self.state.borrow_mut();
        // Visits since the last top-up; once it spans the whole ring,
        // every backlogged flow is at its quota.
        let mut blocked = 0usize;
        loop {
            let &flow = st.ring.front()?;
            let b = st.flows.get_mut(&flow).expect("ring flows are backlogged");
            if self.quota.is_some_and(|q| b.granted >= q) {
                blocked += 1;
                if blocked >= st.ring.len() {
                    return None;
                }
                st.ring.rotate_left(1);
                continue;
            }
            let cost = cost_of(b.queue[0]).max(COST_FLOOR);
            if b.deficit < cost {
                b.deficit += self.quantum * self.weights.get(flow);
                st.ring.rotate_left(1);
                blocked = 0;
                continue;
            }
            b.deficit -= cost;
            b.urgent = b.urgent.saturating_sub(1);
            if self.quota.is_some() {
                b.granted += 1;
            }
            let ticket = b.queue.pop_front().expect("backlogged flow");
            st.queued -= 1;
            if b.queue.is_empty() {
                // An idling flow leaves the ring and forgets its credit.
                st.ring.pop_front();
                b.deficit = 0;
                if b.granted == 0 {
                    st.flows.remove(&flow);
                }
            }
            return Some(ticket);
        }
    }

    fn try_grant(&self, flow: u32) -> bool {
        let Some(quota) = self.quota else {
            return true;
        };
        let mut st = self.state.borrow_mut();
        let b = st.flows.entry(flow).or_default();
        if b.granted < quota {
            b.granted += 1;
            true
        } else {
            false
        }
    }

    fn ungrant(&self, key: Key) {
        // Refund the cost pick_next charged: the ticket re-enqueues next
        // and would otherwise pay twice. A drained flow's state is gone
        // by now under an unbounded quota; the refund recreates it.
        let mut st = self.state.borrow_mut();
        let b = st.flows.entry(key.flow).or_default();
        if self.quota.is_some() {
            b.granted -= 1;
        }
        b.deficit += key.cost.clamp(COST_FLOOR, MAX_COST);
    }

    fn on_complete(&self, flow: u32) {
        if self.quota.is_none() {
            return;
        }
        let st = &mut *self.state.borrow_mut();
        let b = st.flows.get_mut(&flow).expect("a granted flow has state");
        b.granted -= 1;
        if b.granted == 0 && b.queue.is_empty() {
            st.flows.remove(&flow);
        }
    }

    fn resident_bytes(&self) -> usize {
        let st = self.state.borrow();
        let queues: usize = st
            .flows
            .values()
            .map(|b| b.queue.capacity() * std::mem::size_of::<Id>())
            .sum();
        st.flows.capacity() * std::mem::size_of::<(u32, Backlog)>()
            + st.ring.capacity() * std::mem::size_of::<u32>()
            + queues
    }
}

/// The order an [`Arbiter`] serves its waiters in.
///
/// `enqueue` admits a ticket and `pick_next` removes the next one to
/// serve, charging its cost and counting its grant. The arbiter brackets
/// its fast path and slot-steal recovery with the grant hooks.
pub struct Order(OrderKind);

/// DRR's parameters and flow table are boxed, so a FIFO order (every
/// semaphore, NIC link and slot table) carries only its queue.
enum OrderKind {
    Fifo(Fifo),
    Drr(Box<Drr>),
}

impl Order {
    /// Arrival order.
    pub fn fifo() -> Order {
        Order(OrderKind::Fifo(Fifo::default()))
    }

    /// Deficit round robin across flows: each rotation tops a flow's
    /// deficit up by `quantum × weights.get(flow)`, and its head ticket
    /// is served once its floored cost fits. Within a flow, class 0 is
    /// served before class 1 (`classes` is 1 or 2). A finite `quota`
    /// caps each flow's grants in service at once.
    pub fn drr(quantum: u64, weights: WeightTable, classes: u8, quota: Option<usize>) -> Order {
        assert!(quantum > 0, "DRR quantum must be positive");
        assert!(
            (1..=2).contains(&classes),
            "DRR orders have one or two classes"
        );
        assert!(quota != Some(0), "a zero in-flight quota would deadlock");
        Order(OrderKind::Drr(Box::new(Drr {
            quantum,
            weights,
            classes,
            quota: quota.map(|q| u32::try_from(q).unwrap_or(u32::MAX)),
            state: RefCell::default(),
        })))
    }

    /// Admits a ticket to the queue.
    pub fn enqueue(&self, ticket: Ticket) {
        self.push(ticket.into_id());
    }

    /// Removes and returns the next ticket to serve, or `None` if nothing
    /// is queued or every queued flow is at its quota.
    pub fn pick_next(&self) -> Option<Ticket> {
        self.pick().map(Ticket)
    }

    fn push(&self, ticket: Id) {
        match &self.0 {
            OrderKind::Fifo(q) => q.push(ticket),
            OrderKind::Drr(d) => d.enqueue(ticket),
        }
    }

    fn pick(&self) -> Option<Id> {
        match &self.0 {
            OrderKind::Fifo(q) => q.pop(),
            OrderKind::Drr(d) => d.pick_next(),
        }
    }

    /// Number of queued tickets, orphans not yet reached included.
    pub(crate) fn queued(&self) -> usize {
        match &self.0 {
            OrderKind::Fifo(q) => q.len(),
            OrderKind::Drr(d) => d.state.borrow().queued,
        }
    }

    /// Whether the fast path may pass the queue: nothing queued, or, in a
    /// FIFO, only orphans (which it frees).
    fn idle(&self) -> bool {
        match &self.0 {
            OrderKind::Fifo(q) => q.idle(),
            OrderKind::Drr(d) => d.state.borrow().queued == 0,
        }
    }

    /// Fast path: may `flow` start at once, bypassing the (empty) queue?
    /// On `true` the grant is counted.
    fn try_grant(&self, flow: u32) -> bool {
        match &self.0 {
            OrderKind::Fifo(_) => true,
            OrderKind::Drr(d) => d.try_grant(flow),
        }
    }

    /// Reverts a pick whose slot was stolen; the ticket re-enqueues next.
    fn ungrant(&self, key: Key) {
        if let OrderKind::Drr(d) = &self.0 {
            d.ungrant(key);
        }
    }

    /// Retires a grant when its slot is released.
    #[inline]
    fn on_complete(&self, flow: u32) {
        if let OrderKind::Drr(d) = &self.0 {
            d.on_complete(flow);
        }
    }

    /// Live bytes of DRR state (flow table, ring, per-flow queues); zero
    /// for FIFO, whose one queue the lane's fixed arbiter model covers.
    pub fn resident_bytes(&self) -> usize {
        match &self.0 {
            OrderKind::Fifo(_) => 0,
            OrderKind::Drr(d) => d.resident_bytes(),
        }
    }
}

impl Drop for Drr {
    /// Frees the tickets still queued: an order owns the entries it
    /// queues until it hands them back (a FIFO's queue does the same).
    fn drop(&mut self) {
        for (_, b) in self.state.get_mut().flows.drain() {
            b.queue.into_iter().for_each(free_on_drop);
        }
    }
}

/// `slots` concurrent holders, waiters admitted in an [`Order`]; see the
/// module docs for the protocol.
pub struct Arbiter {
    order: Order,
    slots: usize,
    free: Cell<usize>,
    /// Picks woken whose waiters have not yet run: past a release's first
    /// wake, a new pick is woken only while free slots outnumber these.
    pending_wakes: Cell<usize>,
}

/// A parked waiter's handle: the id of its slab entry, four bytes, or
/// nothing before it queues. It is an [`Arbiter::poll_claim`]'s
/// in-flight state (`Default` is the not-yet-queued state), and the
/// inside of every [`crate::WaitFuture`], so wait queues, locks and
/// arbiters follow one rule when a waiter goes away.
///
/// Once queued, a claim should be driven to admission, since a queued
/// entry holds its place as a parked task does. Dropping a handle whose
/// entry is still queued marks the entry an orphan; the queue frees it
/// when it comes up and passes the wake on (an arbiter passes its turn,
/// a wait queue's `wake_one` wakes the next waiter). Dropping one
/// between its wake and its admission frees the entry, and the wake is
/// lost with it. For a wait-queue waiter that is all; for an arbiter
/// claim, the slot that wake set aside stays spoken for, which only a
/// world being torn down does.
#[derive(Default)]
pub struct Claim(Option<Id>);

impl Drop for Claim {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            drop(try_slab(|s| s.abandon(id)));
        }
    }
}

impl Claim {
    /// Whether the claim holds a queued ticket (it has polled, missed
    /// the fast path, and is not yet admitted).
    pub fn is_queued(&self) -> bool {
        self.0.is_some()
    }

    /// The handle of a waiter just queued as `id`.
    pub(crate) fn parked(id: Id) -> Claim {
        Claim(Some(id))
    }

    /// A wait queue's or lock's waiter: `true` once its wake has come,
    /// freeing the entry (the handle is then empty); otherwise parks a
    /// waker from `waker_factory`, to be fired by the wake, and returns
    /// `false`. The check and the park are one slab visit, so the
    /// factory runs while the slab is borrowed: it must only build a
    /// waker (clone a task's, or make an executor one), never reach a
    /// waiter, which would find the slab borrowed and panic. The waker
    /// it replaces leaves the slab before it is dropped.
    pub(crate) fn poll_wake(&mut self, waker_factory: &mut dyn FnMut() -> Waker) -> bool {
        let Some(id) = self.0 else {
            return true;
        };
        let mut replaced = None;
        let woken = slab(|s| {
            let e = s.get_mut(id);
            if e.woken() {
                // Its wake took the entry's waker: `free` hands back
                // nothing.
                let taken = s.free(id);
                debug_assert!(taken.is_none());
                true
            } else {
                replaced = e.waker.replace(waker_factory());
                false
            }
        });
        drop(replaced);
        if woken {
            self.0 = None;
        }
        woken
    }

    /// Parks `waker` to be fired by the waiter's wake.
    fn park(&self, waker: Waker) {
        if let Some(id) = self.0 {
            drop(slab(|s| s.get_mut(id).waker.replace(waker)));
        }
    }
}

impl Arbiter {
    /// An arbiter over `slots` slots serving waiters in `order`.
    pub fn new(slots: usize, order: Order) -> Arbiter {
        assert!(slots > 0, "an arbiter needs at least one slot");
        Arbiter {
            order,
            slots,
            free: Cell::new(slots),
            pending_wakes: Cell::new(0),
        }
    }

    /// Total slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Slots not held.
    pub fn free(&self) -> usize {
        self.free.get()
    }

    /// Waiters queued for a slot.
    pub fn queued(&self) -> usize {
        self.order.queued()
    }

    /// The arbiter's order.
    pub fn order(&self) -> &Order {
        &self.order
    }

    /// Claims a slot for `key` without a task. Returns `true` once the
    /// slot is held (hand it back with [`Arbiter::release`]), or `false`
    /// after parking a waker from `waker_factory`; call again with the
    /// same `claim` when it fires. The first call may take the fast path;
    /// later calls re-check a woken ticket and re-queue it after a steal.
    #[inline]
    pub fn poll_claim(
        &self,
        key: Key,
        claim: &mut Claim,
        waker_factory: &mut dyn FnMut() -> Waker,
    ) -> bool {
        if claim.0.is_none()
            && self.free.get() > 0
            && self.order.idle()
            && self.order.try_grant(key.flow)
        {
            self.free.set(self.free.get() - 1);
            return true;
        }
        self.poll_queued(key, claim, waker_factory)
    }

    /// [`Arbiter::poll_claim`] past the fast path: queues a new claim,
    /// or re-checks a queued one.
    fn poll_queued(
        &self,
        key: Key,
        claim: &mut Claim,
        waker_factory: &mut dyn FnMut() -> Waker,
    ) -> bool {
        let id = match claim.0 {
            Some(id) => id,
            None => {
                let id = slab(|s| s.alloc(key));
                self.order.push(id);
                claim.0 = Some(id);
                // A new arrival can be eligible while slots idle (a quota
                // block, or a pick this very enqueue makes).
                self.kick();
                id
            }
        };
        loop {
            let woken = slab(|s| {
                let e = s.get_mut(id);
                let woken = e.woken();
                e.bits &= !WOKEN_BIT;
                woken
            });
            if !woken {
                claim.park(waker_factory());
                return false;
            }
            self.pending_wakes.set(self.pending_wakes.get() - 1);
            if self.free.get() > 0 {
                break;
            }
            // A fast-path arrival stole the slot between our wake and our
            // poll: refund the pick and re-queue.
            self.order.ungrant(key);
            self.order.push(id);
            self.kick();
        }
        claim.0 = None;
        drop(slab(|s| s.free(id)));
        self.free.set(self.free.get() - 1);
        true
    }

    /// Releases a slot `flow` claimed and wakes the order's next picks.
    /// Only a DRR order with a finite quota reads `flow` (to retire its
    /// grant); other orders ignore it.
    #[inline]
    pub fn release(&self, flow: u32) {
        self.order.on_complete(flow);
        self.free.set(self.free.get() + 1);
        // The next pick is woken even when an earlier wake already spoke
        // for the freed slot, as a semaphore's release woke its head. An
        // order with no pick to give has none for `kick` either, and an
        // empty one is not asked.
        if self.order.queued() > 0 && self.wake_next() {
            self.kick();
        }
    }

    /// Wakes the order's picks while free slots are not already spoken
    /// for by an earlier wake.
    fn kick(&self) {
        while self.free.get() > self.pending_wakes.get() && self.wake_next() {}
    }

    /// Wakes the order's next live pick, freeing the orphans picked on
    /// the way; `false` once the order has none to give.
    fn wake_next(&self) -> bool {
        while let Some(id) = self.order.pick() {
            // The pick hands the ticket to its claim, or frees an orphan.
            match slab(|s| s.deliver(id)) {
                Ok(waker) => {
                    self.pending_wakes.set(self.pending_wakes.get() + 1);
                    if let Some(w) = waker {
                        w.wake();
                    }
                    return true;
                }
                // The orphan's grant ends unserved.
                Err(flow) => self.order.on_complete(flow),
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop_assert;
    use crate::proptest::{check, CaseOutcome};

    impl Ticket {
        /// A ticket for `key`, its cost capped at [`MAX_COST`].
        fn keyed(key: Key) -> Ticket {
            Ticket(slab(|s| s.alloc(key)))
        }

        /// The waiter's byte cost (before the floor, after the cap).
        fn cost(&self) -> u64 {
            cost_of(self.0)
        }

        /// The waiter's priority class: 0, or 1 for any nonzero class.
        fn class(&self) -> u8 {
            u8::from(slab(|s| s.get(self.0).bits) & CLASS_BIT != 0)
        }
    }

    fn drr(quantum: u64) -> Order {
        Order::drr(quantum, WeightTable::uniform(), 1, None)
    }

    /// Drains an order by repeated pick, completing each pick at once;
    /// returns the flows in service order.
    fn drain(order: &Order) -> Vec<u32> {
        let mut served = Vec::new();
        while let Some(t) = order.pick_next() {
            served.push(t.flow());
            order.on_complete(t.flow());
        }
        served
    }

    fn enqueue(order: &Order, flow: u32, cost: u64, n: usize) {
        for _ in 0..n {
            order.enqueue(Ticket::new(flow, cost));
        }
    }

    fn never() -> Waker {
        Waker::noop().clone()
    }

    fn key(flow: u32, cost: u64) -> Key {
        Key {
            flow,
            class: 0,
            cost,
        }
    }

    fn flows(order: &Order) -> usize {
        match &order.0 {
            OrderKind::Drr(d) => d.state.borrow().flows.len(),
            OrderKind::Fifo(_) => 0,
        }
    }

    /// One slab entry per queued waiter (a megafleet queues a million at
    /// the core uplink and the server): 24 bytes, and a claim, like a
    /// queued id, is four.
    #[test]
    fn ticket_and_claim_stay_small() {
        assert!(std::mem::size_of::<Entry>() <= 24);
        assert!(std::mem::size_of::<Claim>() <= 4);
        assert_eq!(std::mem::size_of::<Ticket>(), 4);
    }

    /// A FIFO arbiter is a semaphore, four per faithful client: it holds
    /// its queue and three counters, and DRR's state stays boxed.
    #[test]
    fn fifo_arbiter_carries_no_drr_state() {
        assert!(std::mem::size_of::<Order>() <= std::mem::size_of::<Fifo>() + 8);
        assert!(std::mem::size_of::<Arbiter>() <= 72);
    }

    #[test]
    fn packed_ticket_keeps_cost_class_and_woken_apart() {
        let t = Ticket::keyed(Key {
            flow: u32::MAX,
            class: 2,
            cost: u64::from(COST_MASK),
        });
        assert_eq!(
            (t.flow(), t.cost(), t.class()),
            (u32::MAX, (1 << 30) - 1, 1)
        );
        slab(|s| s.get_mut(t.0).bits |= WOKEN_BIT);
        assert_eq!((t.cost(), t.class()), (u64::from(COST_MASK), 1));
        slab(|s| s.get_mut(t.0).bits &= !WOKEN_BIT);
        assert_eq!((t.cost(), t.class()), (u64::from(COST_MASK), 1));
    }

    /// Tickets recycle their entries: a dropped handle's entry is the
    /// next one handed out, and the live count follows.
    #[test]
    fn dropped_tickets_free_their_entries() {
        let live = live_waiters();
        let a = Ticket::new(1, 100);
        let b = Ticket::new(2, 200);
        assert_eq!(live_waiters(), live + 2);
        let freed = a.0;
        drop(a);
        assert_eq!(Ticket::new(3, 300).0, freed);
        assert_eq!((b.flow(), b.cost()), (2, 200));
        drop(b);
        assert_eq!(live_waiters(), live);
        let order = Order::fifo();
        enqueue(&order, 4, 400, 3);
        assert_eq!(live_waiters(), live + 3);
        drop(order);
        assert_eq!(live_waiters(), live, "an order frees what it still queues");
    }

    #[test]
    fn ticket_caps_a_cost_past_30_bits() {
        for cost in [MAX_COST + 1, u64::from(u32::MAX), u64::MAX] {
            let t = Ticket::keyed(Key {
                flow: 3,
                class: 0,
                cost,
            });
            assert_eq!((t.flow(), t.cost(), t.class()), (3, MAX_COST, 0));
        }
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let order = Order::fifo();
        for (flow, cost) in [(2u32, 8500u64), (0, 600), (1, 33000), (0, 8500)] {
            order.enqueue(Ticket::new(flow, cost));
        }
        assert_eq!(drain(&order), vec![2, 0, 1, 0]);
        assert_eq!(order.queued(), 0);
        assert_eq!(order.resident_bytes(), 0);
    }

    /// With an 8192-byte quantum, a flow sending 8192-byte requests is
    /// served four times per service of a flow sending 32768-byte ones:
    /// equal bytes, not equal requests.
    #[test]
    fn drr_quantum_accounting_is_byte_weighted() {
        let order = drr(8192);
        enqueue(&order, 0, 8192, 8);
        enqueue(&order, 1, 32768, 2);
        assert_eq!(drain(&order), vec![0, 0, 0, 0, 1, 0, 0, 0, 0, 1]);
    }

    /// The deficit ledger itself: flow 1 (32 KB) needs four 8 KB top-ups
    /// before its first service, while flow 0 is served on its turn.
    #[test]
    fn drr_deficit_hand_trace() {
        let order = drr(8192);
        enqueue(&order, 1, 32768, 2);
        enqueue(&order, 0, 8192, 1);
        assert_eq!(drain(&order), vec![0, 1, 1]);
    }

    /// 64 runts at the 512-byte floor cost one 32 KB quantum: flow 0
    /// cannot squeeze more than 64 runts into one rotation.
    #[test]
    fn drr_cost_floor_charges_runts() {
        let order = drr(32 * 1024);
        enqueue(&order, 0, 1, 65);
        enqueue(&order, 1, 512, 1);
        let served = drain(&order);
        assert_eq!(served.iter().position(|f| *f == 1), Some(64));
    }

    /// A weight of 4 earns flow 1 four quanta per rotation, so it drains
    /// four requests to flow 0's one; flows beyond the table weigh 1.
    #[test]
    fn weights_scale_the_topup() {
        let order = Order::drr(8192, WeightTable::new(vec![1, 4]), 1, None);
        enqueue(&order, 0, 8192, 4);
        enqueue(&order, 1, 8192, 8);
        assert_eq!(drain(&order), vec![0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0]);
        enqueue(&order, 5, 8192, 2);
        enqueue(&order, 9, 8192, 2);
        assert_eq!(drain(&order), vec![5, 9, 5, 9]);
    }

    #[test]
    fn weight_table_defaults_to_one() {
        let t = WeightTable::new(vec![3, 0]);
        assert_eq!(t.get(0), 3);
        assert_eq!(t.get(1), 1, "zero weight clamps to 1 (no starvation)");
        assert_eq!(t.get(99), 1, "beyond the table defaults to 1");
        assert!(WeightTable::uniform().is_empty());
        assert_eq!(WeightTable::new(vec![2]).len(), 1);
    }

    /// Class 0 is served before a class-1 backlog that queued first, and
    /// each class keeps its arrival order; a one-class order ignores it.
    #[test]
    fn class_zero_is_served_before_a_class_one_backlog() {
        let classed = Order::drr(32768, WeightTable::uniform(), 2, Some(8));
        let flat = drr(32768);
        for (i, class) in [1u8, 0, 1, 0].into_iter().enumerate() {
            for order in [&classed, &flat] {
                order.enqueue(Ticket::keyed(Key {
                    flow: 0,
                    class,
                    cost: i as u64,
                }));
            }
        }
        let costs = |order: &Order| -> Vec<u64> {
            std::iter::from_fn(|| order.pick_next().map(|t| t.cost())).collect()
        };
        assert_eq!(costs(&classed), vec![1, 3, 0, 2]);
        assert_eq!(costs(&flat), vec![0, 1, 2, 3]);
    }

    #[test]
    fn quota_caps_grants_per_flow() {
        let order = Order::drr(32768, WeightTable::uniform(), 2, Some(2));
        enqueue(&order, 0, 8192, 5);
        enqueue(&order, 1, 8192, 1);
        let first = order.pick_next().expect("slot 1");
        assert_eq!(first.flow(), 0);
        assert_eq!(order.pick_next().expect("slot 2").flow(), 0);
        // Flow 0 is at quota: the next pick skips to flow 1, and then
        // everyone queued is at quota or empty.
        assert_eq!(order.pick_next().expect("flow 1 eligible").flow(), 1);
        assert!(order.pick_next().is_none());
        assert_eq!(order.queued(), 3);
        // Completing one of flow 0's grants unblocks it.
        order.on_complete(first.flow());
        assert_eq!(order.pick_next().expect("unblocked").flow(), 0);
    }

    /// The fast path's grant counts against the quota, and a slot-steal
    /// refund gives it back.
    #[test]
    fn fast_path_grant_counts_against_quota() {
        let order = Order::drr(32768, WeightTable::uniform(), 2, Some(1));
        assert!(order.try_grant(0));
        assert!(!order.try_grant(0), "quota 1 must reject a second grant");
        order.ungrant(key(0, 8192));
        assert!(order.try_grant(0), "ungrant must return the quota");
        order.on_complete(0);
        assert!(order.try_grant(0));
    }

    /// Per-flow state exists only while a flow is backlogged or, under a
    /// finite quota, holds grants.
    #[test]
    fn idle_flows_hold_no_state() {
        for quota in [None, Some(2)] {
            let order = Order::drr(8192, WeightTable::uniform(), 1, quota);
            for flow in (0..64u32).chain([999_983]) {
                order.enqueue(Ticket::new(flow, 1000));
            }
            assert_eq!(flows(&order), 65);
            assert!(order.resident_bytes() > 0);
            let picked: Vec<_> = std::iter::from_fn(|| order.pick_next()).collect();
            let granted = if quota.is_some() { 65 } else { 0 };
            assert_eq!(flows(&order), granted, "quota {quota:?}");
            for t in picked {
                order.on_complete(t.flow());
            }
            assert_eq!(flows(&order), 0, "quota {quota:?}");
            let OrderKind::Drr(d) = &order.0 else {
                unreachable!()
            };
            assert!(d.state.borrow().ring.is_empty());
        }
    }

    /// Slot steal: a waiter woken for the free slot, robbed by a
    /// fast-path arrival before it polls, refunds its pick and re-queues.
    /// The refund restores the credit that serves it ahead of a flow that
    /// queued before its re-queue, and the refunded ticket is picked
    /// again without a second top-up.
    #[test]
    fn robbed_claim_refunds_its_credit_and_requeues() {
        // A quantum below the costs makes the refund decide the order.
        let arb = Arbiter::new(1, drr(500));
        let wf = &mut never;
        let mut thief = Claim::default();
        assert!(arb.poll_claim(key(0, 1500), &mut thief, wf), "fast path");
        let mut robbed = Claim::default();
        assert!(!arb.poll_claim(key(1, 1500), &mut robbed, wf));
        // The release picks and wakes flow 1; the thief barges in first.
        arb.release(0);
        assert!(arb.poll_claim(key(0, 1500), &mut Claim::default(), wf));
        let mut later = Claim::default();
        assert!(!arb.poll_claim(key(2, 64), &mut later, wf));
        assert!(
            !arb.poll_claim(key(1, 1500), &mut robbed, wf),
            "slot stolen"
        );
        assert_eq!(arb.queued(), 2);
        arb.release(0);
        assert!(
            arb.poll_claim(key(1, 1500), &mut robbed, wf),
            "refund serves flow 1 first"
        );
        assert!(!arb.poll_claim(key(2, 64), &mut later, wf));
        arb.release(1);
        assert!(arb.poll_claim(key(2, 64), &mut later, wf));
        arb.release(2);
        assert_eq!((arb.free(), arb.queued()), (1, 0));
        assert_eq!(flows(arb.order()), 0);
    }

    /// Sets its flag when woken.
    struct Flag(std::sync::atomic::AtomicBool);

    impl std::task::Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// A queued waiter of the conservation property: its arbiter, key,
    /// claim, and the flag its parked wakers set.
    struct Waiter {
        arb: usize,
        key: Key,
        claim: Claim,
        flag: Arc<Flag>,
    }

    impl Waiter {
        fn woken(&self) -> bool {
            self.flag.0.load(std::sync::atomic::Ordering::Relaxed)
        }

        /// Polls the claim, clearing the flag first; `true` once admitted.
        fn poll(&mut self, arbs: &[Arbiter; 2]) -> bool {
            self.flag
                .0
                .store(false, std::sync::atomic::Ordering::Relaxed);
            let flag = &self.flag;
            arbs[self.arb].poll_claim(self.key, &mut self.claim, &mut || {
                Waker::from(Arc::clone(flag))
            })
        }
    }

    /// One conservation step: an action (its low bit picks the arbiter,
    /// the rest arrive, release, poll the woken or drop a parked waiter)
    /// and an arrival's flow, cost and class.
    type Move = (u8, u32, u64, u8);

    /// Ticket conservation across arbiters sharing the thread's slab: a
    /// FIFO and a DRR arbiter (two classes, an optional quota) take
    /// interleaved arrivals, releases and polls. Arrivals after a release
    /// and before the woken waiter polls barge the fast path and steal
    /// its slot, so the DRR side refunds and re-queues; dropped queued
    /// claims leave orphans. After every step the queued ids are unique
    /// and the slab holds exactly one entry per claim with a ticket plus
    /// one per orphan still queued; once both arbiters drain, none.
    #[test]
    fn prop_tickets_are_conserved_across_arbiters() {
        let gen = |g: &mut crate::proptest::Gen| {
            (
                g.u8_in(1, 4),
                g.u8_in(0, 4),
                g.vec(1, 96, |g| {
                    (
                        g.u8_in(0, 10),
                        g.u32_in(0, 4),
                        g.u64_in(0, 70_000),
                        g.u8_in(0, 2),
                    )
                }),
            )
        };
        check(
            "prop_tickets_are_conserved_across_arbiters",
            gen,
            |(slots, quota, script): &(u8, u8, Vec<Move>)| {
                let base = live_waiters();
                let quota = (*quota > 0).then_some(*quota as usize);
                let arbs = [
                    Arbiter::new(1 + *slots as usize % 2, Order::fifo()),
                    Arbiter::new(
                        *slots as usize,
                        Order::drr(8192, WeightTable::uniform(), 2, quota),
                    ),
                ];
                let mut held: Vec<(usize, u32)> = Vec::new();
                let mut waiters: Vec<Waiter> = Vec::new();
                let poll_woken = |arb: Option<usize>,
                                  waiters: &mut Vec<Waiter>,
                                  held: &mut Vec<(usize, u32)>| {
                    let mut i = 0;
                    while i < waiters.len() {
                        let w = &mut waiters[i];
                        if arb.is_none_or(|a| a == w.arb) && w.woken() && w.poll(&arbs) {
                            held.push((w.arb, w.key.flow));
                            waiters.remove(i);
                        } else {
                            i += 1;
                        }
                    }
                };
                for &(act, flow, cost, class) in script {
                    let arb = usize::from(act % 2);
                    match act / 2 {
                        0 | 1 => {
                            let mut w = Waiter {
                                arb,
                                key: Key { flow, class, cost },
                                claim: Claim::default(),
                                flag: Arc::new(Flag(false.into())),
                            };
                            if w.poll(&arbs) {
                                held.push((arb, flow));
                            } else {
                                waiters.push(w);
                            }
                        }
                        2 => {
                            if let Some(i) = held.iter().position(|h| h.0 == arb) {
                                let (arb, flow) = held.remove(i);
                                arbs[arb].release(flow);
                            }
                        }
                        3 => poll_woken(Some(arb), &mut waiters, &mut held),
                        _ => {
                            if let Some(i) = waiters.iter().position(|w| w.arb == arb && !w.woken())
                            {
                                drop(waiters.remove(i));
                            }
                        }
                    }
                    let ids: Vec<Id> = waiters.iter().filter_map(|w| w.claim.0).collect();
                    let unique: std::collections::HashSet<u32> =
                        ids.iter().map(|id| id.0.get()).collect();
                    prop_assert!(unique.len() == ids.len(), "a live id is held twice");
                    let in_orders = waiters.iter().filter(|w| !w.woken()).count();
                    let queued = arbs[0].queued() + arbs[1].queued();
                    prop_assert!(queued >= in_orders, "a parked waiter is not queued");
                    let orphans = queued - in_orders;
                    prop_assert!(
                        live_waiters() - base == ids.len() + orphans,
                        "{} live tickets for {} claims and {orphans} orphans",
                        live_waiters() - base,
                        ids.len()
                    );
                }
                // Drain: release every slot and admit every woken waiter
                // until nothing is held or waiting.
                for _ in 0..10_000 {
                    if held.is_empty() && waiters.is_empty() {
                        break;
                    }
                    for (arb, flow) in held.drain(..) {
                        arbs[arb].release(flow);
                    }
                    poll_woken(None, &mut waiters, &mut held);
                }
                prop_assert!(
                    waiters.is_empty(),
                    "{} waiters never admitted",
                    waiters.len()
                );
                for arb in &arbs {
                    prop_assert!(arb.queued() == 0 && arb.free() == arb.slots());
                    prop_assert!(flows(arb.order()) == 0, "a drained flow kept DRR state");
                }
                prop_assert!(live_waiters() == base, "the drained slab kept tickets");
                CaseOutcome::Pass
            },
        );
    }

    /// One script step: enqueue a (flow, cost, class) ticket, then pick
    /// `picks` times.
    type Step = (u32, u64, u8, u8);

    /// Runs `script` through `order`, then drains it. Returns each pick's
    /// flow and floored cost, with every flow's backlog episode just
    /// before the pick (`None` while the flow is idle; a flow that drains
    /// starts a new episode when it queues again).
    fn run_script(order: &Order, script: &[Step]) -> Vec<(u32, u64, [Option<u32>; 4])> {
        let mut picks = Vec::new();
        let mut backlog = [0usize; 4];
        let mut episode = [0u32; 4];
        let mut pick = |backlog: &mut [usize; 4]| {
            let before = std::array::from_fn(|f| (backlog[f] > 0).then_some(episode[f]));
            let Some(t) = order.pick_next() else {
                return false;
            };
            let f = t.flow() as usize;
            backlog[f] -= 1;
            if backlog[f] == 0 {
                episode[f] += 1;
            }
            picks.push((t.flow(), t.cost().max(COST_FLOOR), before));
            true
        };
        for &(flow, cost, class, n) in script {
            order.enqueue(Ticket::keyed(Key { flow, class, cost }));
            backlog[flow as usize] += 1;
            for _ in 0..n {
                pick(&mut backlog);
            }
        }
        while pick(&mut backlog) {}
        assert_eq!(backlog, [0; 4], "the order lost tickets");
        picks
    }

    /// DRR fairness oracle: over any window of picks in which flows `i`
    /// and `j` stay backlogged, their weight-normalized served cost
    /// differs by less than `Max/w_i + Max/w_j + 2·quantum`, where `Max`
    /// is the largest floored cost. This is not Shreedhar–Varghese's
    /// Theorem 1 bound, `Max + 2·quantum`: this property refuted that one
    /// for this order (quantum 3057, Max 2739: 1551 vs 10505 served). The
    /// bound checked here is their per-visit accounting redone for this
    /// order, which tops a flow up by `Q_f = quantum·w_f` when its visit
    /// ends rather than when its next one starts:
    ///
    /// - Let `L_k` be the flow's credit at the end of its `k`-th visit,
    ///   just before the top-up. The visit ended because the head ticket
    ///   costs more, so `0 ≤ L_k < Max`. Visit `k` starts with
    ///   `L_{k-1} + Q_f` and serves `L_{k-1} + Q_f − L_k`; only the first
    ///   visit after the flow joins the ring starts at zero and serves
    ///   nothing.
    /// - Summing, `n` consecutive visits serve less than `n·Q_f + Max`,
    ///   and more than `n·Q_f − Max`, or `(n − 1)·Q_f − Max` if they
    ///   include that empty first visit.
    /// - While both flows are on the ring their visits alternate, so if
    ///   `n` of `i`'s visits overlap the window, at least `n − 1` of
    ///   `j`'s lie wholly inside it. Dividing by the weights, `i` leads
    ///   by less than `quantum + Max/w_i + Max/w_j`, plus one quantum if
    ///   `j`'s empty first visit is among them.
    ///
    /// Classic DRR has no empty visit and gets the smaller bound, which
    /// with equal weights and `Max ≤ quantum` lies within the theorem's.
    /// The argument does not need costs within one quantum; the scripts
    /// keep them there anyway, as the theorem assumes.
    #[test]
    fn prop_drr_stays_within_the_fairness_bound() {
        let gen = |g: &mut crate::proptest::Gen| {
            (
                g.u64_in(0, 16_384),
                g.vec(0, 4, |g| g.u32_in(0, 4)),
                g.u8_in(0, 2),
                g.vec(1, 64, |g| {
                    (g.u32_in(0, 4), g.any_u64(), g.u8_in(0, 2), g.u8_in(0, 3))
                }),
            )
        };
        check(
            "prop_drr_stays_within_the_fairness_bound",
            gen,
            |(quantum, weights, classes, script): &(u64, Vec<u32>, u8, Vec<Step>)| {
                // Offsets keep shrunk inputs valid: quantum ≥ the floor,
                // costs ≤ quantum, one or two classes.
                let quantum = COST_FLOOR + quantum;
                let script: Vec<Step> = script
                    .iter()
                    .map(|&(flow, cost, class, n)| (flow, cost % (quantum + 1), class, n))
                    .collect();
                let weights = WeightTable::new(weights.clone());
                let order = Order::drr(quantum, weights.clone(), 1 + classes, None);
                let max = script
                    .iter()
                    .map(|s| s.1.max(COST_FLOOR))
                    .max()
                    .unwrap_or(0);
                let picks = run_script(&order, &script);
                for i in 0..4u32 {
                    for j in i + 1..4 {
                        let (wi, wj) = (weights.get(i) as i128, weights.get(j) as i128);
                        let bound = max as i128 * (wi + wj) + 2 * quantum as i128 * wi * wj;
                        let both =
                            |before: &[Option<u32>; 4]| (before[i as usize], before[j as usize]);
                        for start in 0..picks.len() {
                            let window = both(&picks[start].2);
                            if window.0.is_none() || window.1.is_none() {
                                continue;
                            }
                            let (mut si, mut sj) = (0i128, 0i128);
                            for (flow, cost, before) in &picks[start..] {
                                if both(before) != window {
                                    break;
                                }
                                if *flow == i {
                                    si += *cost as i128;
                                } else if *flow == j {
                                    sj += *cost as i128;
                                }
                                prop_assert!(
                                    (si * wj - sj * wi).abs() < bound,
                                    "flows {i},{j} from pick {start}: served {si} vs {sj}, \
                                     weights {wi},{wj}, max {max}, quantum {quantum}"
                                );
                            }
                        }
                    }
                }
                CaseOutcome::Pass
            },
        );
    }
}
