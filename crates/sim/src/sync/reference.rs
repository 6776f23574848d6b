//! The semaphore and wait queue as they were before every waiter became
//! an entry of the waiter slab: each parked waiter an `Rc` node with its
//! own woken/cancelled flags, queued by pointer, and the semaphore's own
//! copy of the fast-path, head-wake and re-queue rules. Test code only:
//! it is the reference that [`super::Semaphore`] (now a FIFO arbiter)
//! and [`super::WaitQueue`] (now a queue of slab ids) are replayed
//! against, so the lane and server-engine replay tests, which compare
//! against `Semaphore`, still stand on the rules they were written for.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct WaitNode {
    woken: Cell<bool>,
    cancelled: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

impl WaitNode {
    fn wake(&self) {
        self.woken.set(true);
        if let Some(w) = self.waker.borrow_mut().take() {
            w.wake();
        }
    }
}

/// The FIFO wait queue: registers at `wait()`, skips cancelled nodes.
#[derive(Default)]
pub(super) struct WaitQueue {
    waiters: RefCell<VecDeque<Rc<WaitNode>>>,
}

impl WaitQueue {
    pub(super) fn wait(&self) -> WaitFuture {
        let node = Rc::new(WaitNode {
            woken: Cell::new(false),
            cancelled: Cell::new(false),
            waker: RefCell::new(None),
        });
        self.waiters.borrow_mut().push_back(Rc::clone(&node));
        WaitFuture { node }
    }

    pub(super) fn wake_one(&self) -> bool {
        let mut waiters = self.waiters.borrow_mut();
        while let Some(node) = waiters.pop_front() {
            if !node.cancelled.get() {
                node.wake();
                return true;
            }
        }
        false
    }

    pub(super) fn wake_all(&self) {
        for node in self.waiters.borrow_mut().drain(..) {
            if !node.cancelled.get() {
                node.wake();
            }
        }
    }

    pub(super) fn len(&self) -> usize {
        self.waiters
            .borrow()
            .iter()
            .filter(|n| !n.cancelled.get())
            .count()
    }
}

pub(super) struct WaitFuture {
    node: Rc<WaitNode>,
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
        self.node.cancelled.set(true);
    }
}

/// The counting semaphore over [`WaitQueue`].
pub(super) struct Semaphore {
    permits: Cell<usize>,
    queue: WaitQueue,
}

impl Semaphore {
    pub(super) fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Cell::new(permits),
            queue: WaitQueue::default(),
        }
    }

    /// Fast path on the first poll only (a free permit and no live
    /// waiter); otherwise FIFO, each release waking the head; a woken
    /// waiter re-checks only the permit count and, robbed by a fast-path
    /// arrival, re-queues at the back.
    pub(super) fn acquire(self: &Rc<Self>) -> impl Future<Output = SemPermit> + '_ {
        let mut wait: Option<WaitFuture> = None;
        let mut started = false;
        std::future::poll_fn(move |cx| {
            if !started {
                started = true;
                if self.permits.get() > 0 && self.queue.len() == 0 {
                    return Poll::Ready(self.take());
                }
                wait = Some(self.queue.wait());
            }
            loop {
                let w = wait.as_mut().expect("queued");
                if Pin::new(w).poll(cx).is_pending() {
                    return Poll::Pending;
                }
                if self.permits.get() > 0 {
                    wait = None;
                    return Poll::Ready(self.take());
                }
                wait = Some(self.queue.wait());
            }
        })
    }

    fn take(self: &Rc<Self>) -> SemPermit {
        self.permits.set(self.permits.get() - 1);
        SemPermit {
            sem: Rc::clone(self),
        }
    }

    pub(super) fn available(&self) -> usize {
        self.permits.get()
    }
}

pub(super) struct SemPermit {
    sem: Rc<Semaphore>,
}

impl Drop for SemPermit {
    fn drop(&mut self) {
        self.sem.permits.set(self.sem.permits.get() + 1);
        self.sem.queue.wake_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptest::{check, CaseOutcome};
    use crate::{prop_assert_eq, select2, yield_now, Either, Sim, SimDuration, SimTime};

    /// The primitives a replay script drives: the reference's or the
    /// slab-backed ones.
    trait Prims: 'static {
        type Sem: 'static;
        type Permit: 'static;
        type Queue: Default + 'static;
        type Wait: Future<Output = ()> + 'static;
        fn sem(permits: usize) -> Self::Sem;
        fn acquire(sem: &Rc<Self::Sem>) -> impl Future<Output = Self::Permit> + '_;
        fn available(sem: &Self::Sem) -> usize;
        fn wait(q: &Self::Queue) -> Self::Wait;
        fn wake_one(q: &Self::Queue) -> bool;
        fn wake_all(q: &Self::Queue);
        fn len(q: &Self::Queue) -> usize;
    }

    struct Reference;

    impl Prims for Reference {
        type Sem = Semaphore;
        type Permit = SemPermit;
        type Queue = WaitQueue;
        type Wait = WaitFuture;
        fn sem(permits: usize) -> Semaphore {
            Semaphore::new(permits)
        }
        fn acquire(sem: &Rc<Semaphore>) -> impl Future<Output = SemPermit> + '_ {
            sem.acquire()
        }
        fn available(sem: &Semaphore) -> usize {
            sem.available()
        }
        fn wait(q: &WaitQueue) -> WaitFuture {
            q.wait()
        }
        fn wake_one(q: &WaitQueue) -> bool {
            q.wake_one()
        }
        fn wake_all(q: &WaitQueue) {
            q.wake_all()
        }
        fn len(q: &WaitQueue) -> usize {
            q.len()
        }
    }

    struct Slab;

    impl Prims for Slab {
        type Sem = crate::Semaphore;
        type Permit = crate::SemPermit;
        type Queue = crate::WaitQueue;
        type Wait = crate::WaitFuture;
        fn sem(permits: usize) -> crate::Semaphore {
            crate::Semaphore::new(permits)
        }
        fn acquire(sem: &Rc<crate::Semaphore>) -> impl Future<Output = crate::SemPermit> + '_ {
            sem.acquire()
        }
        fn available(sem: &crate::Semaphore) -> usize {
            sem.available()
        }
        fn wait(q: &crate::WaitQueue) -> crate::WaitFuture {
            q.wait()
        }
        fn wake_one(q: &crate::WaitQueue) -> bool {
            q.wake_one()
        }
        fn wake_all(q: &crate::WaitQueue) {
            q.wake_all()
        }
        fn len(q: &crate::WaitQueue) -> usize {
            q.len()
        }
    }

    /// One script step: its kind, its start in 10 ns units, a hold
    /// length (see [`hold`]) and a flag. For an acquire the flag's low
    /// two bits are a timeout in 10 ns units (none at 0), bit 2 gates
    /// the start on a wake of the queue, and bits 3–4 are same-instant
    /// yields before the acquire; for a queue wait the low two bits are
    /// its timeout, and for a wait woken before its first poll bit 0
    /// makes it wake the queue's head itself.
    type Step = (u8, u32, u32, u8);

    /// What the replay saw: the step, what happened, when, and a count.
    type Log = Vec<(usize, &'static str, u64, usize)>;

    /// Holds for `n`: not at all at 0 (a release in the same poll), one
    /// or two same-instant yields at 1 or 2, else `n` × 10 ns.
    async fn hold(sim: &Sim, n: u32) {
        match n {
            0 => {}
            1 | 2 => {
                for _ in 0..n {
                    yield_now().await;
                }
            }
            n => sim.sleep(SimDuration(u64::from(n) * 10)).await,
        }
    }

    /// Races `fut` against a timeout of `flag & 3` × 10 ns (none at 0);
    /// `None` if the timeout won and dropped it while it waited.
    async fn within<F: Future>(sim: &Sim, flag: u8, fut: F) -> Option<F::Output> {
        let timeout = u64::from(flag & 3) * 10;
        if timeout == 0 {
            return Some(fut.await);
        }
        match select2(fut, sim.sleep(SimDuration(timeout))).await {
            Either::Left(v) => Some(v),
            Either::Right(()) => None,
        }
    }

    /// Runs `script` on one semaphore of `permits` and one wait queue,
    /// every step its own task; a last `wake_all` after every step
    /// releases whoever is still parked.
    fn replay<P: Prims>(permits: usize, script: &[Step]) -> Log {
        let sim = Sim::new();
        let sem = Rc::new(P::sem(permits));
        let queue = Rc::new(P::Queue::default());
        let log: Rc<RefCell<Log>> = Rc::default();
        let mut tasks = Vec::new();
        for (i, &(kind, at, dur, flag)) in script.iter().enumerate() {
            let (sim, sem, queue, log) = (
                sim.clone(),
                Rc::clone(&sem),
                Rc::clone(&queue),
                Rc::clone(&log),
            );
            tasks.push(sim.clone().spawn(async move {
                sim.sleep_until(SimTime(u64::from(at) * 10)).await;
                let note = |what, n| log.borrow_mut().push((i, what, sim.now().0, n));
                match kind {
                    0 | 1 => {
                        if flag & 4 != 0 {
                            P::wait(&queue).await;
                        }
                        for _ in 0..flag >> 3 {
                            yield_now().await;
                        }
                        let Some(permit) = within(&sim, flag, P::acquire(&sem)).await else {
                            note("gave up", P::available(&sem));
                            return;
                        };
                        note("acquired", P::available(&sem));
                        hold(&sim, dur).await;
                        drop(permit);
                        note("released", P::available(&sem));
                        if kind == 1 {
                            // The releaser comes straight back, past the
                            // waiter its release woke if nobody else is
                            // queued.
                            drop(P::acquire(&sem).await);
                            note("re-acquired", P::available(&sem));
                        }
                    }
                    2 => match within(&sim, flag, P::wait(&queue)).await {
                        Some(()) => note("woken", P::len(&queue)),
                        None => note("timed out", P::len(&queue)),
                    },
                    3 => note("wake_one", usize::from(P::wake_one(&queue))),
                    4 => {
                        note("wake_all", P::len(&queue));
                        P::wake_all(&queue);
                    }
                    5 => {
                        // Woken before its first poll: by this step's
                        // own wake_one, or by another step's during the
                        // hold.
                        let wait = P::wait(&queue);
                        if flag % 2 == 1 {
                            P::wake_one(&queue);
                        }
                        hold(&sim, dur).await;
                        wait.await;
                        note("woken", P::len(&queue));
                    }
                    _ => note("sampled", P::len(&queue) * 16 + P::available(&sem)),
                }
            }));
        }
        let last = sim.clone();
        sim.run_until(async move {
            last.sleep_until(SimTime(100_000)).await;
            P::wake_all(&queue);
            for t in tasks {
                t.await;
            }
        });
        Rc::try_unwrap(log)
            .expect("every task finished")
            .into_inner()
    }

    /// The slab-backed semaphore and wait queue replay any script of
    /// arrivals, releases (in the same poll, after same-instant yields,
    /// or later), fast-path barges (by arrivals and by releasers coming
    /// back), `wake_one`/`wake_all`, waits dropped while queued and
    /// wakes before the first poll exactly as the reference does: the
    /// same log, in the same order, at the same nanoseconds. Steps start
    /// on a 10 ns grid over 100 ns, and gated steps start together at a
    /// wake, so many share an instant and interleave by yields. Each
    /// script may open with a burst of gated acquirers released by one
    /// `wake_all`: without it, two releases around a steal in one
    /// instant (see the hand-built test below) were not reached in
    /// 20,000 cases.
    #[test]
    fn prop_slab_primitives_replay_the_reference() {
        check(
            "prop_slab_primitives_replay_the_reference",
            |g| {
                let permits = g.u8_in(1, 4);
                // A burst: acquirers gated on one `wake_all`, with no
                // timeout, so they start in one instant and interleave
                // by yields and same-instant holds. Releases then land
                // around fast-path barges, which is where a release's
                // head wake shows.
                let mut script: Vec<Step> = g.vec(0, 9, |g| {
                    (g.u8_in(0, 2), 0, g.u32_in(0, 4), 4 | g.u8_in(0, 4) << 3)
                });
                if !script.is_empty() {
                    script.push((4, g.u32_in(1, 10), 0, 0));
                }
                script.extend(g.vec(1, 48, |g| {
                    (
                        g.u8_in(0, 7),
                        g.u32_in(0, 10),
                        g.u32_in(0, 6),
                        g.u8_in(0, 32),
                    )
                }));
                (permits, script)
            },
            |(permits, script): &(u8, Vec<Step>)| {
                let permits = usize::from(*permits).max(1);
                prop_assert_eq!(
                    replay::<Slab>(permits, script),
                    replay::<Reference>(permits, script)
                );
                CaseOutcome::Pass
            },
        );
    }

    /// A second release while a steal is outstanding. Six acquirers
    /// gated on the queue start together at 30 ns in the order A, D, E,
    /// B, C, F, with D, E and F yielding once first. A and B take both
    /// permits and yield; C queues. A releases, waking C; D barges into
    /// the freed permit; E queues; B releases. A semaphore's release
    /// wakes the head even though C's wake already spoke for that
    /// permit, so E is woken too, and F, finding a free permit and no
    /// live waiter queued, barges as well; C and E then find no permit
    /// and re-queue in wake order.
    #[test]
    fn a_release_during_a_steal_wakes_the_head_as_the_reference_does() {
        let gated = |yields: u8, dur: u32| (0u8, 0u32, dur, 4 | (yields << 3));
        let script: &[Step] = &[
            gated(0, 1),
            gated(1, 3),
            gated(1, 3),
            gated(0, 1),
            gated(0, 3),
            gated(1, 3),
            (4, 3, 0, 0),
        ];
        let log = replay::<Reference>(2, script);
        let at_30: Vec<usize> = log
            .iter()
            .filter(|e| e.1 == "acquired" && e.2 == 30)
            .map(|e| e.0)
            .collect();
        assert_eq!(at_30, vec![0, 3, 1, 5], "D and F barge at 30 ns");
        assert_eq!(replay::<Slab>(2, script), log);
    }
}
