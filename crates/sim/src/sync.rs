//! Synchronization primitives for simulated tasks.
//!
//! All primitives here are FIFO-fair and deterministic:
//!
//! - [`WaitQueue`] — a kernel-style wait queue (condition variable).
//! - [`SimLock`] — a sleeping mutex with wait/hold accounting, used to model
//!   the Linux 2.4 global kernel lock. Hold time is attributed to a caller
//!   supplied label so that contention can be profiled the way the paper
//!   profiles the BKL text section.
//! - [`Semaphore`] — counting semaphore (RPC slot tables, CPUs, disks).
//! - [`Gate`] — a barrier that can be closed to stall passers (used for the
//!   filer's checkpoint pauses).
//! - [`channel`] — an unbounded single-consumer queue (NIC receive queues).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::Sim;
use crate::time::{SimDuration, SimTime};

/// A single parked waiter.
///
/// `woken` is the handshake: the waker side sets it and wakes the stored
/// [`Waker`]; the waiting future observes it on its next poll.
struct WaitNode {
    woken: Cell<bool>,
    cancelled: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

impl WaitNode {
    fn new() -> Rc<WaitNode> {
        Rc::new(WaitNode {
            woken: Cell::new(false),
            cancelled: Cell::new(false),
            waker: RefCell::new(None),
        })
    }

    fn wake(&self) {
        self.woken.set(true);
        if let Some(w) = self.waker.borrow_mut().take() {
            w.wake();
        }
    }
}

/// Free list of [`WaitNode`]s, so a park/wake cycle stops costing one
/// `Rc` allocation per wait on the engine's hottest blocking paths
/// (wait queues, the BKL, RPC slot semaphores, NIC channels).
///
/// A node handed back by a wake may still be referenced by its
/// not-yet-dropped [`WaitFuture`]; [`NodePool::get`] only recycles nodes
/// whose strong count has fallen back to one (the pool's own reference),
/// so a live future can never observe its node being reused.
#[derive(Default)]
struct NodePool {
    free: RefCell<Vec<Rc<WaitNode>>>,
}

/// Free-list bound; parks beyond this fall back to plain allocation.
const NODE_POOL_CAP: usize = 64;

impl NodePool {
    fn get(&self) -> Rc<WaitNode> {
        let mut free = self.free.borrow_mut();
        while let Some(node) = free.pop() {
            if Rc::strong_count(&node) == 1 {
                node.woken.set(false);
                node.cancelled.set(false);
                node.waker.borrow_mut().take();
                return node;
            }
            // The paired future is still alive; forget this node.
        }
        WaitNode::new()
    }

    fn put(&self, node: Rc<WaitNode>) {
        let mut free = self.free.borrow_mut();
        if free.len() < NODE_POOL_CAP {
            free.push(node);
        }
    }
}

/// A FIFO wait queue, analogous to a kernel `wait_queue_head_t`.
///
/// Waiters must re-check their predicate after waking:
///
/// ```
/// use nfsperf_sim::{Sim, WaitQueue};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let sim = Sim::new();
/// let queue = Rc::new(WaitQueue::new());
/// let flag = Rc::new(Cell::new(false));
/// let (q, f) = (Rc::clone(&queue), Rc::clone(&flag));
/// let waiter = sim.spawn(async move {
///     while !f.get() {
///         q.wait().await;
///     }
/// });
/// let (q, f) = (queue, flag);
/// sim.run_until(async move {
///     f.set(true);
///     q.wake_all();
///     waiter.await
/// });
/// ```
#[derive(Default)]
pub struct WaitQueue {
    waiters: RefCell<VecDeque<Rc<WaitNode>>>,
    pool: NodePool,
}

impl WaitQueue {
    /// Creates an empty queue.
    pub fn new() -> WaitQueue {
        WaitQueue::default()
    }

    /// Parks the calling task until the next [`WaitQueue::wake_one`] or
    /// [`WaitQueue::wake_all`] that reaches it.
    ///
    /// The waiter is registered immediately (at future construction), so a
    /// wake issued after `wait()` returns but before the first poll is not
    /// lost.
    pub fn wait(&self) -> WaitFuture {
        let node = self.pool.get();
        self.waiters.borrow_mut().push_back(Rc::clone(&node));
        WaitFuture { node }
    }

    /// Wakes the longest-waiting task, if any. Returns `true` if one was
    /// woken.
    pub fn wake_one(&self) -> bool {
        let mut waiters = self.waiters.borrow_mut();
        while let Some(node) = waiters.pop_front() {
            if node.cancelled.get() {
                self.pool.put(node);
                continue;
            }
            node.wake();
            self.pool.put(node);
            return true;
        }
        false
    }

    /// Wakes every waiting task.
    pub fn wake_all(&self) {
        let mut waiters = self.waiters.borrow_mut();
        for node in waiters.drain(..) {
            if !node.cancelled.get() {
                node.wake();
            }
            self.pool.put(node);
        }
    }

    /// Number of tasks currently parked.
    pub fn len(&self) -> usize {
        self.waiters
            .borrow()
            .iter()
            .filter(|n| !n.cancelled.get())
            .count()
    }

    /// Returns `true` if no task is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`WaitQueue::wait`].
pub struct WaitFuture {
    node: Rc<WaitNode>,
}

impl WaitFuture {
    /// Returns `true` once the wake reached this waiter.
    ///
    /// Poll-style (taskless) callers use this instead of `await`: park a
    /// waker with [`WaitFuture::park`], and when it fires re-check the
    /// guarded predicate, exactly like a task would after its poll.
    pub fn is_woken(&self) -> bool {
        self.node.woken.get()
    }

    /// Stores `waker` to be fired by the queue's next wake of this node
    /// — the poll-style analogue of returning `Poll::Pending` from
    /// [`Future::poll`]. Callers must check [`WaitFuture::is_woken`]
    /// first; parking an already-woken node would strand the waker.
    pub fn park(&self, waker: Waker) {
        *self.node.waker.borrow_mut() = Some(waker);
    }
}

impl Future for WaitFuture {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.node.woken.get() {
            Poll::Ready(())
        } else {
            *self.node.waker.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

impl Drop for WaitFuture {
    fn drop(&mut self) {
        // A dropped waiter must not swallow a wake that was already
        // delivered to it; there is no queue reference here, so the node is
        // merely marked. `woken && !polled` races cannot occur in practice
        // because the simulator is single-threaded and waits are not
        // cancelled by the workloads, but the flag keeps `wake_one` from
        // targeting dead nodes.
        self.node.cancelled.set(true);
    }
}

/// Accumulated contention statistics for a [`SimLock`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LockStats {
    /// Total successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to wait.
    pub contended: u64,
    /// Total time spent waiting to acquire.
    pub total_wait: SimDuration,
    /// Longest single wait.
    pub max_wait: SimDuration,
    /// Total time the lock was held.
    pub total_hold: SimDuration,
    /// Wait time attributed to the label of the holder at enqueue time.
    pub wait_by_holder: Vec<(&'static str, SimDuration)>,
    /// Hold time per acquiring label.
    pub hold_by_label: Vec<(&'static str, SimDuration)>,
}

impl LockStats {
    /// Wait time attributed to holders with label `label`.
    pub fn wait_blamed_on(&self, label: &str) -> SimDuration {
        self.wait_by_holder
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, d)| *d)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Hold time accumulated by acquirers with label `label`.
    pub fn held_by(&self, label: &str) -> SimDuration {
        self.hold_by_label
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, d)| *d)
            .unwrap_or(SimDuration::ZERO)
    }
}

struct LockWaiter {
    node: Rc<WaitNode>,
    enqueued_at: SimTime,
    /// Label of whoever held the lock when this waiter parked; the wait is
    /// blamed on them, mirroring how the paper attributes BKL wait time to
    /// the `sock_sendmsg` section.
    blamed: &'static str,
    label: &'static str,
}

struct LockInner {
    /// `Some(label)` while held.
    holder: Option<&'static str>,
    acquired_at: SimTime,
    waiters: VecDeque<LockWaiter>,
    stats: StatsAccum,
}

#[derive(Default)]
struct StatsAccum {
    acquisitions: u64,
    contended: u64,
    total_wait: u64,
    max_wait: u64,
    total_hold: u64,
    wait_by_holder: Vec<(&'static str, u64)>,
    hold_by_label: Vec<(&'static str, u64)>,
}

fn bump(vec: &mut Vec<(&'static str, u64)>, label: &'static str, ns: u64) {
    for (l, v) in vec.iter_mut() {
        if *l == label {
            *v += ns;
            return;
        }
    }
    vec.push((label, ns));
}

/// A sleeping, FIFO-fair mutex with contention accounting.
///
/// Models the Linux 2.4 global kernel lock: tasks sleep while waiting, the
/// lock is handed off directly to the longest waiter, and every hold is
/// attributed to a static label (`"nfs_commit_write"`, `"sock_sendmsg"`, …)
/// so contention can be broken down afterwards via [`SimLock::stats`].
pub struct SimLock {
    sim: Sim,
    inner: RefCell<LockInner>,
    pool: NodePool,
}

impl SimLock {
    /// Creates an unlocked lock.
    pub fn new(sim: &Sim) -> SimLock {
        SimLock {
            sim: sim.clone(),
            inner: RefCell::new(LockInner {
                holder: None,
                acquired_at: SimTime::ZERO,
                waiters: VecDeque::new(),
                stats: StatsAccum::default(),
            }),
            pool: NodePool::default(),
        }
    }

    /// Acquires the lock, sleeping FIFO-fair behind earlier waiters.
    ///
    /// `label` names the critical section for the accounting in
    /// [`SimLock::stats`].
    pub async fn lock(self: &Rc<Self>, label: &'static str) -> LockGuard {
        let node = {
            let mut inner = self.inner.borrow_mut();
            if inner.holder.is_none() && inner.waiters.is_empty() {
                inner.holder = Some(label);
                inner.acquired_at = self.sim.now();
                inner.stats.acquisitions += 1;
                return LockGuard {
                    lock: Rc::clone(self),
                };
            }
            let node = self.pool.get();
            let blamed = inner.holder.unwrap_or("<queued>");
            inner.waiters.push_back(LockWaiter {
                node: Rc::clone(&node),
                enqueued_at: self.sim.now(),
                blamed,
                label,
            });
            node
        };
        WaitFuture { node }.await;
        // Ownership was handed off by the releasing guard; `holder` and the
        // statistics were already updated there.
        LockGuard {
            lock: Rc::clone(self),
        }
    }

    /// Returns `true` if the lock is currently held.
    pub fn is_locked(&self) -> bool {
        self.inner.borrow().holder.is_some()
    }

    /// Snapshot of the accumulated contention statistics.
    pub fn stats(&self) -> LockStats {
        let inner = self.inner.borrow();
        let s = &inner.stats;
        LockStats {
            acquisitions: s.acquisitions,
            contended: s.contended,
            total_wait: SimDuration(s.total_wait),
            max_wait: SimDuration(s.max_wait),
            total_hold: SimDuration(s.total_hold),
            wait_by_holder: s
                .wait_by_holder
                .iter()
                .map(|&(l, v)| (l, SimDuration(v)))
                .collect(),
            hold_by_label: s
                .hold_by_label
                .iter()
                .map(|&(l, v)| (l, SimDuration(v)))
                .collect(),
        }
    }

    /// Resets the statistics (e.g. after warm-up).
    pub fn reset_stats(&self) {
        self.inner.borrow_mut().stats = StatsAccum::default();
    }

    fn unlock(&self) {
        let mut inner = self.inner.borrow_mut();
        let now = self.sim.now();
        let held_for = now.since(inner.acquired_at).as_nanos();
        let label = inner.holder.expect("SimLock::unlock called while not held");
        inner.stats.total_hold += held_for;
        bump(&mut inner.stats.hold_by_label, label, held_for);

        // Direct handoff to the longest waiter, skipping cancelled nodes.
        loop {
            match inner.waiters.pop_front() {
                Some(w) if w.node.cancelled.get() => self.pool.put(w.node),
                Some(w) => {
                    let waited = now.since(w.enqueued_at).as_nanos();
                    inner.stats.acquisitions += 1;
                    inner.stats.contended += 1;
                    inner.stats.total_wait += waited;
                    inner.stats.max_wait = inner.stats.max_wait.max(waited);
                    bump(&mut inner.stats.wait_by_holder, w.blamed, waited);
                    inner.holder = Some(w.label);
                    inner.acquired_at = now;
                    w.node.wake();
                    self.pool.put(w.node);
                    return;
                }
                None => {
                    inner.holder = None;
                    return;
                }
            }
        }
    }
}

/// RAII guard for [`SimLock`]; releases (and hands off) on drop.
pub struct LockGuard {
    lock: Rc<SimLock>,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

/// Drives a poll-style wait from async code: a future that calls `poll`
/// with a factory for the current task's waker until it returns `Some`.
///
/// Every blocking primitive here is written once, as a poll method that
/// parks a waker from its factory (so taskless state machines can wait
/// in the same queues). Its async form is this future over that method,
/// so both kinds of caller follow one admission rule. Move the wait
/// state into `poll`: the future is then just that closure, as small as
/// the state itself.
pub fn drive_poll<T>(
    mut poll: impl FnMut(&mut dyn FnMut() -> Waker) -> Option<T>,
) -> impl Future<Output = T> {
    std::future::poll_fn(move |cx| match poll(&mut || cx.waker().clone()) {
        Some(v) => Poll::Ready(v),
        None => Poll::Pending,
    })
}

/// A FIFO counting semaphore.
///
/// Used for RPC transport slot tables, CPU pools, and disk arms. Permits
/// may be released from a different task than the one that acquired them
/// (see [`SemPermit::forget`] and [`Semaphore::release_one`]).
pub struct Semaphore {
    permits: Cell<usize>,
    queue: WaitQueue,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Cell::new(permits),
            queue: WaitQueue::new(),
        }
    }

    /// Acquires one permit, sleeping FIFO-fair until one is available:
    /// drives [`Semaphore::poll_acquire`] from the calling task.
    pub fn acquire(self: &Rc<Self>) -> impl Future<Output = SemPermit> + '_ {
        let mut st = SemAcquire::default();
        drive_poll(move |wf| self.poll_acquire(&mut st, wf))
    }

    /// Takes a permit if one is free, without waiting.
    pub fn try_acquire(self: &Rc<Self>) -> Option<SemPermit> {
        if self.permits.get() > 0 && self.queue.is_empty() {
            self.permits.set(self.permits.get() - 1);
            Some(SemPermit {
                sem: Rc::clone(self),
                live: true,
            })
        } else {
            None
        }
    }

    /// Returns one permit to the pool (pairs with [`SemPermit::forget`]).
    pub fn release_one(&self) {
        self.permits.set(self.permits.get() + 1);
        self.queue.wake_one();
    }

    /// Acquires one permit without a task: the semaphore's only
    /// admission rule, which [`Semaphore::acquire`] drives for async
    /// callers.
    ///
    /// Call with a fresh [`SemAcquire`] state; returns `Some(permit)` when
    /// the permit is taken, or `None` after parking a waker from
    /// `waker_factory` (call again when it fires). The contract:
    ///
    /// - **fast path**, first call only: a free permit with nobody queued
    ///   is taken at once and no waker is built, so it arms no event;
    /// - otherwise the caller joins the FIFO queue, and each
    ///   [`Semaphore::release_one`] wakes exactly the head waiter;
    /// - a woken waiter re-checks only the permit count, not queue
    ///   emptiness, so it never re-queues behind later arrivals and loses
    ///   its wake;
    /// - if a fast-path [`Semaphore::try_acquire`] took the permit between
    ///   the wake and this poll, the waiter re-queues at the back and
    ///   keeps waiting; no permit is lost.
    pub fn poll_acquire(
        self: &Rc<Self>,
        st: &mut SemAcquire,
        waker_factory: &mut dyn FnMut() -> Waker,
    ) -> Option<SemPermit> {
        if st.wait.is_none() {
            // Fast path: free permit and nobody queued ahead of us.
            if self.permits.get() > 0 && self.queue.is_empty() {
                self.permits.set(self.permits.get() - 1);
                return Some(SemPermit {
                    sem: Rc::clone(self),
                    live: true,
                });
            }
            let w = self.queue.wait();
            w.park(waker_factory());
            st.wait = Some(w);
            return None;
        }
        loop {
            let w = st.wait.as_ref().expect("SemAcquire wait state");
            if !w.is_woken() {
                w.park(waker_factory());
                return None;
            }
            st.wait = None;
            if self.permits.get() > 0 {
                self.permits.set(self.permits.get() - 1);
                return Some(SemPermit {
                    sem: Rc::clone(self),
                    live: true,
                });
            }
            st.wait = Some(self.queue.wait());
        }
    }

    /// Currently free permits.
    pub fn available(&self) -> usize {
        self.permits.get()
    }

    /// Number of tasks queued for a permit.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// RAII permit from a [`Semaphore`].
pub struct SemPermit {
    sem: Rc<Semaphore>,
    live: bool,
}

impl SemPermit {
    /// Consumes the permit without releasing it; some other party must call
    /// [`Semaphore::release_one`] later (e.g. the RPC reply handler
    /// releasing the slot the sender acquired).
    pub fn forget(mut self) {
        self.live = false;
    }
}

impl Drop for SemPermit {
    fn drop(&mut self) {
        if self.live {
            self.sem.release_one();
        }
    }
}

/// A gate that can be closed to stall everyone calling [`Gate::pass`].
///
/// Models service pauses such as the filer's file-system checkpoints.
#[derive(Default)]
pub struct Gate {
    closed: Cell<bool>,
    queue: WaitQueue,
}

impl Gate {
    /// Creates an open gate.
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Closes the gate; subsequent [`Gate::pass`] calls block.
    pub fn close(&self) {
        self.closed.set(true);
    }

    /// Opens the gate and releases all blocked passers.
    pub fn open(&self) {
        self.closed.set(false);
        self.queue.wake_all();
    }

    /// Returns `true` while the gate is closed.
    pub fn is_closed(&self) -> bool {
        self.closed.get()
    }

    /// Waits until the gate is open (returns immediately if it is):
    /// drives [`Gate::poll_pass`] from the calling task.
    pub fn pass(&self) -> impl Future<Output = ()> + '_ {
        let mut st = GatePass::default();
        drive_poll(move |wf| self.poll_pass(&mut st, wf).then_some(()))
    }

    /// Passes the gate without a task: the gate's only rule, which
    /// [`Gate::pass`] drives for async callers. Returns `true` once
    /// through, `false` after parking a waker from `waker_factory` (call
    /// again when it fires). An open gate passes at once. A closed gate
    /// parks the caller in its FIFO queue until [`Gate::open`]; a woken
    /// passer re-checks the gate and, if it was closed again before this
    /// poll, parks again behind any later arrivals.
    pub fn poll_pass(&self, st: &mut GatePass, waker_factory: &mut dyn FnMut() -> Waker) -> bool {
        if let Some(w) = st.wait.as_ref() {
            if !w.is_woken() {
                w.park(waker_factory());
                return false;
            }
            st.wait = None;
        }
        if !self.closed.get() {
            return true;
        }
        let w = self.queue.wait();
        w.park(waker_factory());
        st.wait = Some(w);
        false
    }
}

/// In-flight state for [`Semaphore::poll_acquire`]; `Default` is the
/// not-yet-started state. Dropping it mid-wait cancels the queue slot.
#[derive(Default)]
pub struct SemAcquire {
    wait: Option<WaitFuture>,
}

/// In-flight state for [`Gate::poll_pass`]; see [`SemAcquire`].
#[derive(Default)]
pub struct GatePass {
    wait: Option<WaitFuture>,
}

struct ChanInner<T> {
    queue: VecDeque<T>,
    recv_waiters: WaitQueue,
    senders: usize,
}

/// Creates an unbounded single-consumer channel.
///
/// Multiple [`Sender`]s may feed one [`Receiver`]; `recv` returns `None`
/// once every sender is dropped and the queue is drained.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(ChanInner {
        queue: VecDeque::new(),
        recv_waiters: WaitQueue::new(),
        senders: 1,
    }));
    (
        Sender {
            inner: Rc::clone(&inner),
        },
        Receiver { inner },
    )
}

/// Sending half of [`channel`].
pub struct Sender<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.senders -= 1;
        if inner.senders == 0 {
            inner.recv_waiters.wake_all();
        }
    }
}

impl<T> Sender<T> {
    /// Enqueues a value and wakes the receiver.
    pub fn send(&self, value: T) {
        let mut inner = self.inner.borrow_mut();
        inner.queue.push_back(value);
        inner.recv_waiters.wake_one();
    }
}

/// Receiving half of [`channel`].
pub struct Receiver<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Receiver<T> {
    /// Awaits the next value; `None` when all senders are gone and the
    /// queue is empty.
    pub async fn recv(&self) -> Option<T> {
        loop {
            {
                let mut inner = self.inner.borrow_mut();
                if let Some(v) = inner.queue.pop_front() {
                    return Some(v);
                }
                if inner.senders == 0 {
                    return None;
                }
            }
            let fut = self.inner.borrow().recv_waiters.wait();
            fut.await;
        }
    }

    /// Takes a value if one is queued, without waiting.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.borrow_mut().queue.pop_front()
    }

    /// Number of queued values.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::rc::Rc;

    #[test]
    fn wait_queue_wake_one_is_fifo() {
        let sim = Sim::new();
        let q = Rc::new(WaitQueue::new());
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let q = Rc::clone(&q);
            let log = Rc::clone(&log);
            sim.spawn(async move {
                q.wait().await;
                log.borrow_mut().push(i);
            });
        }
        let s = sim.clone();
        let q2 = Rc::clone(&q);
        sim.run_until(async move {
            s.sleep(SimDuration::from_micros(1)).await;
            assert_eq!(q2.len(), 3);
            q2.wake_one();
            s.sleep(SimDuration::from_micros(1)).await;
            q2.wake_all();
            s.sleep(SimDuration::from_micros(1)).await;
        });
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn wake_one_returns_false_when_empty() {
        let q = WaitQueue::new();
        assert!(!q.wake_one());
        assert!(q.is_empty());
    }

    #[test]
    fn lock_is_fifo_and_counts_contention() {
        let sim = Sim::new();
        let lock = Rc::new(SimLock::new(&sim));
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let lock = Rc::clone(&lock);
            let log = Rc::clone(&log);
            let s = sim.clone();
            sim.spawn(async move {
                let _g = lock.lock("worker").await;
                log.borrow_mut().push(i);
                s.sleep(SimDuration::from_micros(10)).await;
            });
        }
        let s = sim.clone();
        sim.run_until(async move {
            s.sleep(SimDuration::from_micros(100)).await;
        });
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
        let stats = lock.stats();
        assert_eq!(stats.acquisitions, 3);
        assert_eq!(stats.contended, 2);
        // Waiter 1 waits 10us, waiter 2 waits 20us.
        assert_eq!(stats.total_wait.as_micros(), 30);
        assert_eq!(stats.max_wait.as_micros(), 20);
        assert_eq!(stats.total_hold.as_micros(), 30);
    }

    #[test]
    fn lock_blames_wait_on_holder_label() {
        let sim = Sim::new();
        let lock = Rc::new(SimLock::new(&sim));
        {
            let lock = Rc::clone(&lock);
            let s = sim.clone();
            sim.spawn(async move {
                let _g = lock.lock("sendmsg").await;
                s.sleep(SimDuration::from_micros(50)).await;
            });
        }
        {
            let lock = Rc::clone(&lock);
            let s = sim.clone();
            sim.spawn(async move {
                // Arrive while "sendmsg" holds the lock.
                s.sleep(SimDuration::from_micros(5)).await;
                let _g = lock.lock("writer").await;
            });
        }
        let s = sim.clone();
        sim.run_until(async move {
            s.sleep(SimDuration::from_micros(200)).await;
        });
        let stats = lock.stats();
        assert_eq!(stats.wait_blamed_on("sendmsg").as_micros(), 45);
        assert_eq!(stats.wait_blamed_on("writer").as_micros(), 0);
        assert_eq!(stats.held_by("sendmsg").as_micros(), 50);
    }

    #[test]
    fn lock_uncontended_fast_path() {
        let sim = Sim::new();
        let lock = Rc::new(SimLock::new(&sim));
        let l2 = Rc::clone(&lock);
        sim.run_until(async move {
            for _ in 0..5 {
                let _g = l2.lock("solo").await;
            }
        });
        let stats = lock.stats();
        assert_eq!(stats.acquisitions, 5);
        assert_eq!(stats.contended, 0);
        assert_eq!(stats.total_wait, SimDuration::ZERO);
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new();
        let sem = Rc::new(Semaphore::new(2));
        let peak = Rc::new(Cell::new(0usize));
        let cur = Rc::new(Cell::new(0usize));
        let done = Rc::new(Cell::new(0usize));
        for _ in 0..5 {
            let sem = Rc::clone(&sem);
            let peak = Rc::clone(&peak);
            let cur = Rc::clone(&cur);
            let done = Rc::clone(&done);
            let s = sim.clone();
            sim.spawn(async move {
                let _p = sem.acquire().await;
                cur.set(cur.get() + 1);
                peak.set(peak.get().max(cur.get()));
                s.sleep(SimDuration::from_micros(10)).await;
                cur.set(cur.get() - 1);
                done.set(done.get() + 1);
            });
        }
        let s = sim.clone();
        sim.run_until(async move {
            s.sleep(SimDuration::from_micros(100)).await;
        });
        // Regression check for a lost-wakeup bug: a woken waiter must not
        // re-queue behind later waiters and strand the permit.
        assert_eq!(done.get(), 5, "all queued acquirers must complete");
        assert_eq!(peak.get(), 2);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn semaphore_single_permit_serial_handoff() {
        let sim = Sim::new();
        let sem = Rc::new(Semaphore::new(1));
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u32 {
            let sem = Rc::clone(&sem);
            let order = Rc::clone(&order);
            let s = sim.clone();
            sim.spawn(async move {
                let _p = sem.acquire().await;
                order.borrow_mut().push(i);
                s.sleep(SimDuration::from_micros(10)).await;
            });
        }
        let s = sim.clone();
        sim.run_until(async move {
            s.sleep(SimDuration::from_micros(200)).await;
        });
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn semaphore_forget_and_manual_release() {
        let sim = Sim::new();
        let sem = Rc::new(Semaphore::new(1));
        let s2 = Rc::clone(&sem);
        sim.run_until(async move {
            let p = s2.acquire().await;
            p.forget();
            assert_eq!(s2.available(), 0);
            s2.release_one();
            assert_eq!(s2.available(), 1);
        });
    }

    #[test]
    fn semaphore_try_acquire() {
        let sim = Sim::new();
        let sem = Rc::new(Semaphore::new(1));
        let s2 = Rc::clone(&sem);
        sim.run_until(async move {
            let p = s2.try_acquire().expect("first try succeeds");
            assert!(s2.try_acquire().is_none());
            drop(p);
            assert!(s2.try_acquire().is_some());
        });
    }

    /// A woken waiter whose permit a fast-path `try_acquire` took before
    /// the waiter ran re-queues and acquires on the next release: no
    /// permit is lost, none is minted.
    #[test]
    fn semaphore_waiter_robbed_after_wake_requeues_and_acquires() {
        let sim = Sim::new();
        let sem = Rc::new(Semaphore::new(1));
        let held = sem.try_acquire().expect("free permit");
        let waiter = {
            let (s, sem) = (sim.clone(), Rc::clone(&sem));
            sim.spawn(async move {
                let _permit = sem.acquire().await;
                s.now()
            })
        };
        let (s, sem2) = (sim.clone(), Rc::clone(&sem));
        let acquired_at = sim.run_until(async move {
            s.sleep(SimDuration::from_micros(10)).await;
            assert_eq!(sem2.queued(), 1);
            // Release wakes the waiter; the barge runs before it polls.
            drop(held);
            let stolen = sem2
                .try_acquire()
                .expect("fast path barges past the woken waiter");
            s.sleep(SimDuration::from_micros(10)).await;
            assert_eq!(sem2.queued(), 1, "the robbed waiter re-queued");
            drop(stolen);
            waiter.await
        });
        assert_eq!(acquired_at, SimTime(20_000));
        assert_eq!(sem.available(), 1, "no permit lost or minted");
        assert_eq!(sem.queued(), 0);
    }

    /// A passer woken by `open` that finds the gate closed again before
    /// it runs parks again and passes only on the next `open`.
    #[test]
    fn gate_reclosed_before_the_woken_passer_runs_parks_it_again() {
        let sim = Sim::new();
        let gate = Rc::new(Gate::new());
        gate.close();
        let passer = {
            let (s, gate) = (sim.clone(), Rc::clone(&gate));
            sim.spawn(async move {
                gate.pass().await;
                s.now()
            })
        };
        let (s, g2) = (sim.clone(), Rc::clone(&gate));
        let passed_at = sim.run_until(async move {
            s.sleep(SimDuration::from_micros(10)).await;
            g2.open();
            g2.close();
            s.sleep(SimDuration::from_micros(10)).await;
            g2.open();
            passer.await
        });
        assert_eq!(passed_at, SimTime(20_000));
    }

    #[test]
    fn gate_blocks_while_closed() {
        let sim = Sim::new();
        let gate = Rc::new(Gate::new());
        gate.close();
        let passed = Rc::new(Cell::new(false));
        {
            let gate = Rc::clone(&gate);
            let passed = Rc::clone(&passed);
            sim.spawn(async move {
                gate.pass().await;
                passed.set(true);
            });
        }
        let s = sim.clone();
        let g2 = Rc::clone(&gate);
        let p2 = Rc::clone(&passed);
        sim.run_until(async move {
            s.sleep(SimDuration::from_micros(10)).await;
            assert!(!p2.get(), "gate should hold the passer");
            g2.open();
            s.sleep(SimDuration::from_micros(1)).await;
            assert!(p2.get());
        });
    }

    #[test]
    fn channel_delivers_in_order() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        {
            let s = sim.clone();
            sim.spawn(async move {
                for i in 0..4 {
                    tx.send(i);
                    s.sleep(SimDuration::from_micros(1)).await;
                }
            });
        }
        let got = sim.run_until(async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn channel_try_recv_and_len() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        sim.run_until(async move {
            assert!(rx.try_recv().is_none());
            tx.send(9);
            assert_eq!(rx.len(), 1);
            assert_eq!(rx.try_recv(), Some(9));
            assert!(rx.is_empty());
        });
    }

    #[test]
    fn channel_clone_sender_keeps_open() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        let s = sim.clone();
        sim.run_until(async move {
            let h = s.spawn(async move {
                tx2.send(1);
                drop(tx2);
            });
            h.await;
            assert_eq!(rx.recv().await, Some(1));
            assert_eq!(rx.recv().await, None);
        });
    }
}
