//! The discrete-event executor.
//!
//! [`Sim`] is a deterministic, single-threaded executor for `!Send` futures.
//! Tasks advance only by awaiting simulated time ([`Sim::sleep`]) or
//! synchronization primitives from [`crate::sync`]; real wall-clock time
//! never enters the model. Determinism is guaranteed by:
//!
//! - a FIFO ready queue (tasks run in wake order),
//! - a timer heap ordered by `(deadline, insertion sequence)`, and
//! - a seeded pseudo-random number generator ([`crate::rng::SimRng`]).
//!
//! The design mirrors classical process-oriented simulation: each simulated
//! thread of control (an application writer, `nfs_flushd`, a server service
//! loop, a disk) is an async task, and blocking kernel behaviour maps onto
//! `await` points.
//!
//! # Hot path
//!
//! Two structures sit under every simulated event and are built for the
//! single-threaded case:
//!
//! - the ready queue is a plain `VecDeque` behind an [`std::cell::UnsafeCell`]
//!   ([`ReadyQueue`]) rather than a `Mutex` — the `Waker` contract forces
//!   `Send + Sync`, but every waker in this executor is created and invoked
//!   on the simulator's own thread, so the lock was pure overhead;
//! - pending timers live in a hierarchical timer wheel
//!   ([`crate::wheel::TimerWheel`]) instead of a binary heap: `O(1)`
//!   registration, `O(levels)` pops, and the exact
//!   `(deadline, registration-seq)` firing order the heap gave.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::profile;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimerWheel;

/// Identifier of a spawned task.
pub type TaskId = usize;

/// Ready-queue entries with this bit set are encoded slab events, not
/// task ids (the task table can never reach 2^63 slots). The remaining
/// bits carry the event's slot index (low 32) and generation (next 31).
const EVENT_TAG: usize = 1 << (usize::BITS - 1);
/// Ready-queue entries with this bit set (and [`EVENT_TAG`] clear) are
/// direct dispatches: a pre-encoded `(handler, data)` pair with no slab
/// slot and no generation, for parked waits that are woken exactly once
/// and never cancelled (see [`Sim::direct_waker`]).
const DIRECT_TAG: usize = 1 << (usize::BITS - 2);
/// Generations are 31 bits so a tagged `(gen, slot)` pair plus the tag
/// fits one ready-queue word.
const EVENT_GEN_MASK: u32 = 0x7fff_ffff;
/// Direct words carry the handler in bits 32..62, below [`DIRECT_TAG`].
const DIRECT_HANDLER_MAX: u32 = 1 << 30;
// The tagged encoding needs a 64-bit ready-queue word.
const _: () = assert!(usize::BITS == 64, "slab events need 64-bit usize");

#[inline]
fn encode_event(slot: u32, gen: u32) -> usize {
    EVENT_TAG | ((gen as usize) << 32) | slot as usize
}

#[inline]
fn encode_direct(handler: u32, data: u32) -> usize {
    DIRECT_TAG | ((handler as usize) << 32) | data as usize
}

type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// The FIFO queue of task ids that have been woken and await polling.
///
/// This is the only piece of executor state a [`Waker`] touches, and
/// `Waker` requires `Send + Sync`, so it must present a shared-reference
/// API — but the simulator is single-threaded by construction: tasks are
/// `!Send`, every waker is created during a poll on the executor thread,
/// and [`crate::runner`] parallelizes only across whole `Sim` worlds,
/// each confined to one worker thread. A `Mutex` here is pure overhead on
/// the hottest path in the engine (every wake and every poll), so the
/// queue lives in an `UnsafeCell` with the single-thread invariant
/// asserted in debug builds.
struct ReadyQueue {
    queue: UnsafeCell<VecDeque<TaskId>>,
    /// The thread the owning `Sim` was created on; all pushes and pops
    /// must come from it.
    owner: std::thread::ThreadId,
}

// SAFETY: see the struct docs — all access is confined to `owner`. The
// executor never hands wakers to other threads (no I/O, no real timers),
// and a `Sim` cannot move threads because its core holds `Rc`s.
unsafe impl Send for ReadyQueue {}
unsafe impl Sync for ReadyQueue {}

impl Default for ReadyQueue {
    fn default() -> ReadyQueue {
        ReadyQueue {
            queue: UnsafeCell::new(VecDeque::new()),
            owner: std::thread::current().id(),
        }
    }
}

impl ReadyQueue {
    #[inline]
    fn assert_owner(&self) {
        debug_assert_eq!(
            std::thread::current().id(),
            self.owner,
            "Sim used from a thread other than the one that created it"
        );
    }

    #[inline]
    fn push(&self, id: TaskId) {
        self.assert_owner();
        // SAFETY: single-threaded access (asserted above); no reentrant
        // borrow — push/pop never call back into the queue.
        unsafe { (*self.queue.get()).push_back(id) };
    }

    #[inline]
    fn pop(&self) -> Option<TaskId> {
        self.assert_owner();
        // SAFETY: as in `push`.
        unsafe { (*self.queue.get()).pop_front() }
    }
}

/// Backing data for every waker this executor hands out: the ready-queue
/// word to push and the queue to push it on. One vtable serves all three
/// waker kinds, which differ only in the word:
///
/// - a task slot's entry holds its slot id, fixed for the core's life;
/// - an event slot's entry holds [`encode_event`] of the slot and the
///   generation current at arm time, refreshed by every arm, so a wake
///   that races a completed or cancelled arm pushes a stale generation
///   and is dropped at dispatch;
/// - a direct entry holds a fully encoded [`encode_direct`] word, so
///   waking is a single push with nothing to free at dispatch.
///
/// Entries live in [`WakerArena`]s owned by the core, so the vtable is
/// entirely free of reference counting: `clone` copies the data
/// pointer, `drop` is a no-op, and `wake` pushes the word. An `Arc`
/// waker would pay an atomic refcount on every operation, once ~15% of
/// the engine profile.
///
/// SAFETY contract (mirrors [`ReadyQueue`]): wakers built over an entry
/// are only cloned, woken, and dropped on the core's own thread, and
/// never outlive the core — every holder (the timer wheel, wait nodes,
/// join states) lives inside a structure of the same simulated world.
/// An event waker must be woken at most once per arm, and a direct
/// waker at most once per park, which every primitive in [`crate::sync`]
/// (and the lane/server ticket handshakes built on the same shape)
/// guarantees.
struct WakerEntry {
    word: Cell<usize>,
    ready: *const ReadyQueue,
}

static WAKER_VTABLE: RawWakerVTable = RawWakerVTable::new(
    // clone: identity — the entry is owned by the core, not the waker.
    |data| RawWaker::new(data, &WAKER_VTABLE),
    // wake / wake_by_ref: push the entry's ready-queue word.
    |data| unsafe {
        let e = &*(data as *const WakerEntry);
        (*e.ready).push(e.word.get());
    },
    |data| unsafe {
        let e = &*(data as *const WakerEntry);
        (*e.ready).push(e.word.get());
    },
    // drop: no-op.
    |_| {},
);

/// Entries per [`WakerArena`] chunk (16 KiB of entries).
const WAKER_CHUNK: usize = 1024;

/// An append-only arena of [`WakerEntry`]s indexed by slot, in
/// fixed-size chunks that are allocated on first touch and never move or
/// free, so the address baked into a waker stays valid for the arena's
/// life. Wakers are built on demand from an entry's address
/// ([`waker_for`]); building one allocates nothing and counts no
/// references, so nothing caches them. A slot that never needs a waker
/// (a flyweight shadow, an event nobody parks) costs no entry unless a
/// neighbour in its chunk does.
struct WakerArena {
    chunks: Vec<Option<Box<[WakerEntry]>>>,
    ready: *const ReadyQueue,
}

impl WakerArena {
    fn new(ready: *const ReadyQueue) -> WakerArena {
        WakerArena {
            chunks: Vec::new(),
            ready,
        }
    }

    /// Entry `i`, if its chunk exists.
    #[inline]
    fn get(&self, i: usize) -> Option<&WakerEntry> {
        match self.chunks.get(i / WAKER_CHUNK) {
            Some(Some(chunk)) => Some(&chunk[i % WAKER_CHUNK]),
            _ => None,
        }
    }

    /// Entry `i`, allocating its chunk first if needed, with each new
    /// entry's word set to `word_of(its index)`.
    #[inline]
    fn get_or_init(&mut self, i: usize, word_of: fn(usize) -> usize) -> &WakerEntry {
        let c = i / WAKER_CHUNK;
        if self.chunks.len() <= c {
            self.chunks.resize_with(c + 1, || None);
        }
        let ready = self.ready;
        let chunk = self.chunks[c].get_or_insert_with(|| {
            (c * WAKER_CHUNK..(c + 1) * WAKER_CHUNK)
                .map(|j| WakerEntry {
                    word: Cell::new(word_of(j)),
                    ready,
                })
                .collect()
        });
        &chunk[i % WAKER_CHUNK]
    }
}

/// A waker over an arena entry.
#[inline]
fn waker_for(entry: &WakerEntry) -> Waker {
    let raw = RawWaker::new(entry as *const WakerEntry as *const (), &WAKER_VTABLE);
    // SAFETY: see `WakerEntry` — single-threaded use, and the entry never
    // moves or frees while the core lives.
    unsafe { Waker::from_raw(raw) }
}

/// What a wheel timer does when it fires: wake a task waker, or push an
/// already-encoded slab-event entry onto the ready queue.
///
/// Events must NOT arm timers through their slot waker: the slot's waker
/// entry holds the generation of its *current* arm, and a stale timer
/// left in the wheel by a cancelled arm would then resurrect whatever
/// event occupies the slot next (the ABA the generation counter exists
/// to prevent). `Event` snapshots `(slot, gen)` at registration instead.
enum TimerPayload {
    Task(Waker),
    Event(usize),
    /// Fire-and-forget timed dispatch: no slab slot, no generation, no
    /// ready-queue round trip — for schedulers that never cancel (the
    /// flyweight tier's stage hops). Fired directly off the wheel.
    Direct { handler: u32, data: u64 },
}

/// One generation-counted record in the event slab: which handler to
/// call with which payload, valid only while `gen` matches the handle
/// that armed it.
struct EventSlot {
    gen: Cell<u32>,
    handler: Cell<u32>,
    data: Cell<u64>,
}

/// Identifier of a registered event handler (see
/// [`Sim::register_event_handler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandlerId(u32);

/// A registered dispatch target: called with each armed event's payload.
pub type EventHandlerFn = Rc<dyn Fn(u64)>;

/// A direct waker reserved by [`Sim::reserve_direct_waker`]: four bytes
/// a caller keeps per record instead of a 16-byte [`Waker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectWakerId(u32);

/// Handle to one armed slab event.
///
/// A `ScheduledEvent` is a `(slot, generation)` pair: dispatching or
/// cancelling the event bumps the slot's generation, so a stale handle
/// (or a stale ready-queue entry) can never fire a slot that has been
/// recycled for a different event — the classic ABA guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    slot: u32,
    gen: u32,
}

/// A slot in the task table. The free list is intrusive — vacant slots
/// link to the next free slot through the table itself, with the head in
/// [`SimCore::free_head`] — so claiming and releasing a slot (which the
/// flyweight tier does four times per RPC for its shadows) is one table
/// borrow, not a table borrow plus a side-vector borrow.
enum TaskSlot {
    /// Free; `next` is the previously freed slot (`NO_SLOT` ends the
    /// list). LIFO, exactly like the free vector it replaces, so slot
    /// recycling order — observable through where stale wakes land — is
    /// unchanged.
    Vacant { next: usize },
    /// A shadow occupant: no future to run, but a wake that reaches it
    /// still counts one retired event (see [`Sim::spawn_shadow`]).
    Shadow,
    /// A live task; the future is `None` only while being polled.
    Task(Option<LocalFuture>),
}

/// Free-list terminator for [`TaskSlot::Vacant`].
const NO_SLOT: usize = usize::MAX;

struct SimCore {
    now: Cell<SimTime>,
    timer_seq: Cell<u64>,
    timers: RefCell<TimerWheel<TimerPayload>>,
    tasks: RefCell<Vec<TaskSlot>>,
    /// One waker entry per polled task-table slot, holding the slot id.
    /// It never goes stale: it is created at the slot's first poll and
    /// serves every later poll of every task that ever occupies the slot.
    task_wakers: RefCell<WakerArena>,
    /// Head of the intrusive free list running through `tasks` (see
    /// [`TaskSlot::Vacant`]); `NO_SLOT` when the table is full.
    free_head: Cell<usize>,
    /// The timed-event slab: generation-counted single-shot records
    /// dispatched straight off the ready queue with no future, no task
    /// slot and no per-event allocation. Slots are recycled through
    /// `event_free`. A slot parked in a sync primitive
    /// ([`Sim::event_waker`]) gets a waker entry in `event_wakers`, whose
    /// word every later arm of the slot refreshes.
    event_slots: RefCell<Vec<EventSlot>>,
    event_free: RefCell<Vec<u32>>,
    event_wakers: RefCell<WakerArena>,
    /// Entries reserved by [`Sim::reserve_direct_waker`], densely from
    /// index 0 (`direct_len` is the next), sized by the callers' own slab
    /// growth (one per flyweight RPC record), so it stops growing when
    /// they do.
    direct_wakers: RefCell<WakerArena>,
    direct_len: Cell<u32>,
    /// Registered dispatch targets; an event stores only an index here
    /// plus a `u64` payload, so dispatch is one dynamic call.
    event_handlers: RefCell<Vec<Option<EventHandlerFn>>>,
    ready: Arc<ReadyQueue>,
    /// Count of tasks currently being polled; used to catch re-entrancy.
    polling: Cell<usize>,
    /// Retired events (task polls + timer fires); credited to the
    /// thread's [`profile`] tally.
    events: Cell<u64>,
    /// Events already credited to the thread-local profiler tally.
    events_credited: Cell<u64>,
}

impl SimCore {
    /// Credits events retired since the last flush to the thread running
    /// this world, so a caller can count an experiment's events with
    /// [`profile::take_thread_events`] without threading a counter
    /// through its signature. Called when
    /// `run_until` returns — worlds whose daemon tasks hold `Rc` cycles
    /// back to the core may never drop, so crediting cannot wait for
    /// `Drop` alone.
    fn flush_events_to_profiler(&self) {
        let total = self.events.get();
        profile::note_sim_events(total - self.events_credited.get());
        self.events_credited.set(total);
    }
}

impl Drop for SimCore {
    fn drop(&mut self) {
        // Backstop for events retired outside any `run_until` call.
        self.flush_events_to_profiler();
    }
}

/// Handle to the simulator; cheap to clone and share between tasks.
///
/// # Examples
///
/// ```
/// use nfsperf_sim::{Sim, SimDuration};
///
/// let sim = Sim::new();
/// let out = sim.run_until({
///     let sim = sim.clone();
///     async move {
///         sim.sleep(SimDuration::from_micros(5)).await;
///         sim.now().as_nanos()
///     }
/// });
/// assert_eq!(out, 5_000);
/// ```
#[derive(Clone)]
pub struct Sim {
    core: Rc<SimCore>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates a fresh simulator with the clock at zero.
    pub fn new() -> Sim {
        let ready = Arc::new(ReadyQueue::default());
        let arena = || RefCell::new(WakerArena::new(Arc::as_ptr(&ready)));
        Sim {
            core: Rc::new(SimCore {
                now: Cell::new(SimTime::ZERO),
                timer_seq: Cell::new(0),
                timers: RefCell::new(TimerWheel::new()),
                tasks: RefCell::new(Vec::new()),
                task_wakers: arena(),
                free_head: Cell::new(NO_SLOT),
                event_slots: RefCell::new(Vec::new()),
                event_free: RefCell::new(Vec::new()),
                event_wakers: arena(),
                direct_wakers: arena(),
                direct_len: Cell::new(0),
                event_handlers: RefCell::new(Vec::new()),
                ready,
                polling: Cell::new(0),
                events: Cell::new(0),
                events_credited: Cell::new(0),
            }),
        }
    }

    /// Returns the current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    /// Registers a waker to fire at `deadline`.
    ///
    /// Used by [`Sleep`]; most code should call [`Sim::sleep`] instead.
    pub fn register_timer(&self, deadline: SimTime, waker: Waker) {
        let seq = self.core.timer_seq.get();
        self.core.timer_seq.set(seq + 1);
        self.core
            .timers
            .borrow_mut()
            .push(deadline.as_nanos(), seq, TimerPayload::Task(waker));
    }

    /// Registers a timer that pushes an encoded slab-event ready entry
    /// when it fires; shares the `(deadline, seq)` order with task
    /// timers. See [`TimerPayload`] for why the generation must be
    /// captured here rather than read at fire time.
    fn register_event_timer(&self, deadline: SimTime, code: usize) {
        let seq = self.core.timer_seq.get();
        self.core.timer_seq.set(seq + 1);
        self.core
            .timers
            .borrow_mut()
            .push(deadline.as_nanos(), seq, TimerPayload::Event(code));
    }

    /// Returns a future that completes after `dur` of simulated time.
    pub fn sleep(&self, dur: SimDuration) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline: self.now() + dur,
            registered: false,
        }
    }

    /// Returns a future that completes at the absolute instant `deadline`.
    ///
    /// Completes immediately if `deadline` is already in the past.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            registered: false,
        }
    }

    /// Spawns a background task, returning a handle to await its output.
    ///
    /// The task starts in the ready queue and first runs when the executor
    /// next drains it.
    pub fn spawn<T, F>(&self, fut: F) -> JoinHandle<T>
    where
        T: 'static,
        F: Future<Output = T> + 'static,
    {
        let state = Rc::new(RefCell::new(JoinState::<T> {
            result: None,
            waiter: None,
        }));
        let state2 = Rc::clone(&state);
        self.spawn_detached(async move {
            let out = fut.await;
            let mut st = state2.borrow_mut();
            st.result = Some(out);
            if let Some(w) = st.waiter.take() {
                w.wake();
            }
        });
        JoinHandle { state }
    }

    /// Spawns a background task whose completion nobody awaits.
    ///
    /// Schedules exactly as [`Sim::spawn`] does (same slot, same place in
    /// the ready queue) but keeps no join state, so the task costs one
    /// allocation: its boxed future. Use it wherever the `JoinHandle`
    /// would be dropped, such as one datagram's hop across the network.
    pub fn spawn_detached<F>(&self, fut: F)
    where
        F: Future<Output = ()> + 'static,
    {
        let id = self.insert_slot(TaskSlot::Task(Some(Box::pin(fut))));
        self.core.ready.push(id);
    }

    /// Reserves a task-table slot with no future behind it.
    ///
    /// The flyweight tier holds one shadow for each half of every RPC,
    /// claimed and released where it once spawned and retired a task. That
    /// fixes the table's slot-recycling sequence, and so which slot a
    /// *stale* wake lands on. A wake that reaches a live shadow retires
    /// one event; one that lands on a free slot retires none. Shadows
    /// change nothing simulated but that count. They exist so the event
    /// counts stay equal to the committed megafleet results and to the
    /// benchmark's `simbench/digests.json` pins; removing them moves a
    /// million-client run by a handful of events, so they go when those
    /// references are rebaselined. Release with [`Sim::drop_shadow`].
    pub fn spawn_shadow(&self) -> TaskId {
        self.insert_slot(TaskSlot::Shadow)
    }

    /// Frees a slot reserved by [`Sim::spawn_shadow`].
    pub fn drop_shadow(&self, id: TaskId) {
        let mut tasks = self.core.tasks.borrow_mut();
        debug_assert!(
            matches!(tasks.get(id), Some(TaskSlot::Shadow)),
            "drop_shadow on a non-shadow slot {id}"
        );
        tasks[id] = TaskSlot::Vacant {
            next: self.core.free_head.get(),
        };
        self.core.free_head.set(id);
    }

    fn insert_slot(&self, slot: TaskSlot) -> TaskId {
        let mut tasks = self.core.tasks.borrow_mut();
        let head = self.core.free_head.get();
        let id = if head != NO_SLOT {
            let TaskSlot::Vacant { next } = tasks[head] else {
                unreachable!("free-list head {head} not vacant");
            };
            self.core.free_head.set(next);
            tasks[head] = slot;
            head
        } else {
            tasks.push(slot);
            tasks.len() - 1
        };
        id
    }

    /// Drives `main` to completion, running spawned tasks and advancing the
    /// simulated clock as needed, and returns its output.
    ///
    /// Background tasks that are still pending when `main` completes are
    /// dropped (daemons need no explicit shutdown).
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks: `main` is not finished but no
    /// task is runnable and no timer is pending.
    pub fn run_until<T, F>(&self, main: F) -> T
    where
        T: 'static,
        F: Future<Output = T> + 'static,
    {
        let handle = self.spawn(main);
        loop {
            self.drain_ready();
            if let Some(out) = handle.try_take() {
                self.core.flush_events_to_profiler();
                return out;
            }
            if !self.fire_next_timer() {
                panic!(
                    "simulation deadlock at t={}: main task pending, no runnable \
                     tasks and no timers",
                    self.now()
                );
            }
        }
    }

    /// Polls every woken task — and dispatches every fired slab event —
    /// until the ready queue is empty.
    fn drain_ready(&self) {
        while let Some(id) = self.core.ready.pop() {
            if id & EVENT_TAG != 0 {
                self.dispatch_event(id as u32, ((id >> 32) as u32) & EVENT_GEN_MASK);
            } else if id & DIRECT_TAG != 0 {
                self.dispatch_direct(id);
            } else {
                self.poll_task(id);
            }
        }
    }

    /// Dispatches one fired slab event: frees the slot, retires the
    /// event, and runs the handler. A generation mismatch means the
    /// event was cancelled (or its slot recycled) after the wake was
    /// queued; like a spurious task wake it is dropped without counting.
    fn dispatch_event(&self, slot: u32, gen: u32) {
        let (handler, data) = {
            let slots = self.core.event_slots.borrow();
            let s = match slots.get(slot as usize) {
                Some(s) => s,
                None => return,
            };
            if s.gen.get() != gen {
                return;
            }
            // Bump the generation before running anything: the handler
            // may re-arm this very slot for a new event.
            s.gen.set((gen + 1) & EVENT_GEN_MASK);
            (s.handler.get(), s.data.get())
        };
        self.core.event_free.borrow_mut().push(slot);
        self.core.events.set(self.core.events.get() + 1);
        let h = self.core.event_handlers.borrow()[handler as usize].clone();
        if let Some(h) = h {
            h(data);
        }
    }

    /// Dispatches one direct ready entry: retires the event and runs the
    /// handler with the word's payload. No slot to free, no generation
    /// to check — the encoding is complete in the word (see
    /// [`Sim::direct_waker`]).
    fn dispatch_direct(&self, word: usize) {
        self.core.events.set(self.core.events.get() + 1);
        let handler = (word >> 32) as u32 & (DIRECT_HANDLER_MAX - 1);
        let h = self.core.event_handlers.borrow()[handler as usize].clone();
        if let Some(h) = h {
            h(u64::from(word as u32));
        }
    }

    /// Advances the clock to the next timer and wakes it.
    ///
    /// Returns `false` if no timers are pending.
    fn fire_next_timer(&self) -> bool {
        let entry = match self.core.timers.borrow_mut().pop() {
            Some(e) => e,
            None => return false,
        };
        let deadline = SimTime(entry.deadline);
        debug_assert!(
            deadline >= self.now(),
            "timer in the past: {} < {}",
            deadline,
            self.now()
        );
        if deadline > self.now() {
            self.core.now.set(deadline);
        }
        self.core.events.set(self.core.events.get() + 1);
        match entry.payload {
            TimerPayload::Task(waker) => waker.wake(),
            TimerPayload::Event(code) => self.core.ready.push(code),
            // The ready queue is always drained empty before a timer
            // fires, so dispatching inline observes the exact order (and
            // event count) the push-pop round trip through the ready
            // queue would: one event for the fire above, one for the
            // dispatch here.
            TimerPayload::Direct { handler, data } => {
                self.core.events.set(self.core.events.get() + 1);
                let h = self.core.event_handlers.borrow()[handler as usize].clone();
                if let Some(h) = h {
                    h(data);
                }
            }
        }
        true
    }

    fn poll_task(&self, id: TaskId) {
        // Take the future out of the table so that the task may itself
        // spawn tasks (which re-borrows the table) while being polled.
        let fut = {
            let mut tasks = self.core.tasks.borrow_mut();
            match tasks.get_mut(id) {
                Some(TaskSlot::Shadow) => {
                    // A stale wake reached a recycled slot that a
                    // shadow now occupies: retire one event, as a
                    // spurious no-op poll of a task there would.
                    drop(tasks);
                    self.core.events.set(self.core.events.get() + 1);
                    return;
                }
                Some(TaskSlot::Task(fut)) => match fut.take() {
                    Some(f) => f,
                    // Already being polled or already finished: spurious wake.
                    None => return,
                },
                _ => return,
            }
        };

        // Built from the slot's arena entry, created at the slot's first
        // poll: no allocation after that, no refcount.
        let waker = waker_for(self.core.task_wakers.borrow_mut().get_or_init(id, |j| j));
        let mut cx = Context::from_waker(&waker);
        self.core.polling.set(self.core.polling.get() + 1);
        self.core.events.set(self.core.events.get() + 1);
        let mut fut = fut;
        let poll = fut.as_mut().poll(&mut cx);
        self.core.polling.set(self.core.polling.get() - 1);

        let mut tasks = self.core.tasks.borrow_mut();
        match poll {
            Poll::Ready(()) => {
                tasks[id] = TaskSlot::Vacant {
                    next: self.core.free_head.get(),
                };
                self.core.free_head.set(id);
            }
            Poll::Pending => {
                if let Some(TaskSlot::Task(slot)) = tasks.get_mut(id) {
                    *slot = Some(fut);
                }
            }
        }
    }

    /// Registers a dispatch target for slab events and returns its id.
    ///
    /// Handlers are registered once per subsystem (e.g. one per flyweight
    /// tier); each armed event then carries only the id plus a `u64`
    /// payload, so the steady-state path allocates nothing.
    pub fn register_event_handler(&self, handler: EventHandlerFn) -> EventHandlerId {
        let mut handlers = self.core.event_handlers.borrow_mut();
        handlers.push(Some(handler));
        EventHandlerId((handlers.len() - 1) as u32)
    }

    /// Drops a registered handler (events already armed for it are
    /// silently discarded at dispatch). Subsystems that capture `Rc`
    /// cycles back into the simulation call this when they finish, so
    /// their world can be reclaimed.
    pub fn clear_event_handler(&self, id: EventHandlerId) {
        self.core.event_handlers.borrow_mut()[id.0 as usize] = None;
    }

    /// Claims a free event slot and arms it with `(handler, data)`,
    /// refreshing the slot waker's generation snapshot.
    fn arm_event(&self, handler: EventHandlerId, data: u64) -> ScheduledEvent {
        let slot = match self.core.event_free.borrow_mut().pop() {
            Some(s) => s,
            None => {
                let mut slots = self.core.event_slots.borrow_mut();
                let slot = slots.len() as u32;
                slots.push(EventSlot {
                    gen: Cell::new(0),
                    handler: Cell::new(0),
                    data: Cell::new(0),
                });
                slot
            }
        };
        let slots = self.core.event_slots.borrow();
        let s = &slots[slot as usize];
        let gen = s.gen.get();
        s.handler.set(handler.0);
        s.data.set(data);
        if let Some(e) = self.core.event_wakers.borrow().get(slot as usize) {
            e.word.set(encode_event(slot, gen));
        }
        ScheduledEvent { slot, gen }
    }

    /// Registers a timed dispatch of `handler(data)` at `deadline` with
    /// no way to cancel it: the timer carries the handler id and payload
    /// itself, touching neither the event slab nor the ready queue.
    /// Cheaper than [`Sim::schedule_event`] on hot paths that never
    /// cancel; identical event arithmetic (fire + dispatch).
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not in the future — there is no inline
    /// path; callers handle elapsed deadlines themselves.
    pub fn schedule_direct(&self, deadline: SimTime, handler: EventHandlerId, data: u64) {
        assert!(deadline > self.now(), "schedule_direct needs a future deadline");
        let seq = self.core.timer_seq.get();
        self.core.timer_seq.set(seq + 1);
        self.core.timers.borrow_mut().push(
            deadline.as_nanos(),
            seq,
            TimerPayload::Direct {
                handler: handler.0,
                data,
            },
        );
    }

    /// Arms a slab event that dispatches `handler(data)` at `deadline`
    /// — no future, no task, no allocation in steady state. A deadline
    /// at or before now dispatches on the next ready-queue drain.
    pub fn schedule_event(
        &self,
        deadline: SimTime,
        handler: EventHandlerId,
        data: u64,
    ) -> ScheduledEvent {
        let ev = self.arm_event(handler, data);
        if deadline > self.now() {
            self.register_event_timer(deadline, encode_event(ev.slot, ev.gen));
        } else {
            self.core.ready.push(encode_event(ev.slot, ev.gen));
        }
        ev
    }

    /// Arms a slab event that dispatches on the next ready-queue drain —
    /// the taskless analogue of [`Sim::spawn`]'s initial poll.
    pub fn post_event(&self, handler: EventHandlerId, data: u64) -> ScheduledEvent {
        let ev = self.arm_event(handler, data);
        self.core.ready.push(encode_event(ev.slot, ev.gen));
        ev
    }

    /// Arms a slab event and returns its waker, for parking in a sync
    /// primitive ([`crate::sync`]): when the primitive wakes it, the
    /// event dispatches. The waker must be woken at most once per arm
    /// (which every primitive in this crate guarantees).
    pub fn event_waker(&self, handler: EventHandlerId, data: u64) -> (ScheduledEvent, Waker) {
        let ev = self.arm_event(handler, data);
        let mut wakers = self.core.event_wakers.borrow_mut();
        let entry = wakers.get_or_init(ev.slot as usize, |_| 0);
        entry.word.set(encode_event(ev.slot, ev.gen));
        (ev, waker_for(entry))
    }

    /// Reserves a reusable waker that dispatches `handler(data)` each
    /// time it is woken — the zero-state spelling of [`Sim::event_waker`]
    /// for callers whose parks are woken exactly once and never cancelled
    /// (the flyweight tier's admission and service waits). The word is
    /// encoded once; waking is a single ready-queue push and dispatch
    /// touches no slab. [`Sim::direct_waker`] builds the waker from the
    /// returned id on demand, for every park over the id's lifetime.
    ///
    /// Reserve once per caller-side slot and keep the id: the backing
    /// store is append-only (it must outlive every waker), so each call
    /// costs one 16-byte entry for the simulator's life.
    pub fn reserve_direct_waker(&self, handler: EventHandlerId, data: u32) -> DirectWakerId {
        assert!(
            handler.0 < DIRECT_HANDLER_MAX,
            "direct wakers carry 30-bit handler ids"
        );
        let id = self.core.direct_len.get();
        self.core
            .direct_len
            .set(id.checked_add(1).expect("direct waker ids are 32-bit"));
        let mut wakers = self.core.direct_wakers.borrow_mut();
        wakers
            .get_or_init(id as usize, |_| 0)
            .word
            .set(encode_direct(handler.0, data));
        DirectWakerId(id)
    }

    /// The waker of a direct entry reserved by
    /// [`Sim::reserve_direct_waker`]. Building it allocates nothing and
    /// counts no references.
    #[inline]
    pub fn direct_waker(&self, id: DirectWakerId) -> Waker {
        let wakers = self.core.direct_wakers.borrow();
        waker_for(wakers.get(id.0 as usize).expect("reserved direct waker"))
    }

    /// Cancels an armed event. Returns `true` if the event was still
    /// armed (it will now never dispatch); `false` if it had already
    /// dispatched or been cancelled — the ABA-safe no-op.
    pub fn cancel_event(&self, ev: ScheduledEvent) -> bool {
        let slots = self.core.event_slots.borrow();
        let s = match slots.get(ev.slot as usize) {
            Some(s) => s,
            None => return false,
        };
        if s.gen.get() != ev.gen {
            return false;
        }
        s.gen.set((ev.gen + 1) & EVENT_GEN_MASK);
        drop(slots);
        self.core.event_free.borrow_mut().push(ev.slot);
        true
    }

    /// Number of currently armed slab events. Mostly for tests.
    pub fn live_events(&self) -> usize {
        self.core.event_slots.borrow().len() - self.core.event_free.borrow().len()
    }

    /// Events retired so far: task polls plus timer fires plus slab
    /// event dispatches.
    pub fn events(&self) -> u64 {
        self.core.events.get()
    }

    /// Number of live (spawned, unfinished) tasks. Mostly for tests.
    pub fn live_tasks(&self) -> usize {
        self.core
            .tasks
            .borrow()
            .iter()
            .filter(|t| matches!(t, TaskSlot::Task(_)))
            .count()
    }
}

/// Future returned by [`Sim::sleep`] and [`Sim::sleep_until`].
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            let deadline = self.deadline;
            self.sim.register_timer(deadline, cx.waker().clone());
            self.registered = true;
        }
        Poll::Pending
    }
}

struct JoinState<T> {
    result: Option<T>,
    /// The single task awaiting this handle (handles are not `Clone`,
    /// so at most one awaiter exists; re-polls just replace the waker).
    waiter: Option<Waker>,
}

/// Handle to a spawned task's eventual output.
///
/// Await it to block until the task finishes, or poll [`JoinHandle::try_take`]
/// from outside the executor.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Takes the task's output if it has finished, without blocking.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }

    /// Returns `true` once the task has finished (and the output has not
    /// yet been taken).
    pub fn is_finished(&self) -> bool {
        self.state.borrow().result.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if let Some(out) = st.result.take() {
            Poll::Ready(out)
        } else {
            st.waiter = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Yields once, letting every other ready task run before continuing.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new();
        let s2 = sim.clone();
        let t = sim.run_until(async move {
            s2.sleep(SimDuration::from_millis(7)).await;
            s2.now()
        });
        assert_eq!(t.as_nanos(), 7_000_000);
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Sim::new();
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::ZERO).await;
            assert_eq!(s2.now(), SimTime::ZERO);
        });
    }

    #[test]
    fn sleep_until_past_deadline_is_noop() {
        let sim = Sim::new();
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(10)).await;
            s2.sleep_until(SimTime(5)).await;
            assert_eq!(s2.now().as_nanos(), 10_000);
        });
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let order = Rc::clone(&order);
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(u64::from(3 - i))).await;
                order.borrow_mut().push(i);
            });
        }
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(10)).await;
        });
        // Shorter sleeps finish first: i=2 slept 1us, i=1 slept 2us, i=0 3us.
        assert_eq!(*order.borrow(), vec![2, 1, 0]);
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u32 {
            let order = Rc::clone(&order);
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(5)).await;
                order.borrow_mut().push(i);
            });
        }
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(6)).await;
        });
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let s = sim.clone();
        let v = sim.run_until(async move {
            let h = s.spawn(async { 42 });
            h.await
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn join_handle_waits_for_sleeping_task() {
        let sim = Sim::new();
        let s = sim.clone();
        let v = sim.run_until(async move {
            let s2 = s.clone();
            let h = s.spawn(async move {
                s2.sleep(SimDuration::from_millis(3)).await;
                s2.now().as_nanos()
            });
            h.await
        });
        assert_eq!(v, 3_000_000);
    }

    #[test]
    fn spawn_inside_task_works() {
        let sim = Sim::new();
        let s = sim.clone();
        let v = sim.run_until(async move {
            let inner = s.spawn(async { 7 });
            let s2 = s.clone();
            let outer = s.spawn(async move {
                let j = s2.spawn(async { 35 });
                j.await
            });
            inner.await + outer.await
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn yield_now_lets_others_run() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = Rc::clone(&log);
        let l2 = Rc::clone(&log);
        sim.spawn(async move {
            l1.borrow_mut().push("a1");
            yield_now().await;
            l1.borrow_mut().push("a2");
        });
        sim.spawn(async move {
            l2.borrow_mut().push("b1");
            yield_now().await;
            l2.borrow_mut().push("b2");
        });
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(1)).await;
        });
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn daemons_are_abandoned_after_main_completes() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn({
            let s = sim.clone();
            async move {
                loop {
                    s.sleep(SimDuration::from_secs(1)).await;
                }
            }
        });
        let t = sim.run_until(async move {
            s.sleep(SimDuration::from_millis(1)).await;
            s.now()
        });
        assert_eq!(t.as_nanos(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "simulation deadlock")]
    fn deadlock_detection() {
        let sim = Sim::new();
        sim.run_until(std::future::pending::<()>());
    }

    #[test]
    fn live_task_accounting() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let before = s.live_tasks();
            let h = s.spawn(async {});
            assert_eq!(s.live_tasks(), before + 1);
            h.await;
            assert_eq!(s.live_tasks(), before);
        });
    }

    type EventLog = Rc<RefCell<Vec<(u64, u64)>>>;

    /// Registers a handler that appends `(now, data)` to a shared log.
    fn logging_handler(sim: &Sim) -> (EventHandlerId, EventLog) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let s = sim.clone();
        let h = sim.register_event_handler(Rc::new(move |data| {
            l.borrow_mut().push((s.now().as_nanos(), data));
        }));
        (h, log)
    }

    #[test]
    fn events_fire_in_deadline_order() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            s.schedule_event(SimTime(300), h, 3);
            s.schedule_event(SimTime(100), h, 1);
            s.schedule_event(SimTime(200), h, 2);
            s.sleep(SimDuration::from_nanos(400)).await;
        });
        assert_eq!(*log.borrow(), vec![(100, 1), (200, 2), (300, 3)]);
        assert_eq!(sim.live_events(), 0);
    }

    #[test]
    fn past_deadline_dispatches_without_advancing_clock() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            s.sleep(SimDuration::from_nanos(500)).await;
            s.schedule_event(SimTime(100), h, 7);
            s.post_event(h, 8);
            yield_now().await;
        });
        assert_eq!(*log.borrow(), vec![(500, 7), (500, 8)]);
    }

    #[test]
    fn event_dispatch_counts_one_engine_event() {
        // Same cost as a task: a timer-armed event costs one fire
        // (wheel pop) + one dispatch, exactly like sleep's fire + poll;
        // a posted event costs one dispatch like a poll.
        let sim = Sim::new();
        let (h, _log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            let base = s.events();
            s.post_event(h, 0);
            yield_now().await;
            assert_eq!(s.events() - base, 2); // 1 dispatch + 1 yield poll
        });
    }

    #[test]
    fn cancel_prevents_dispatch_and_frees_slot() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            let ev = s.schedule_event(SimTime(100), h, 1);
            assert_eq!(s.live_events(), 1);
            assert!(s.cancel_event(ev));
            assert_eq!(s.live_events(), 0);
            assert!(!s.cancel_event(ev), "double cancel must be a no-op");
            // The timer still fires (and counts), but the generation
            // mismatch makes the dispatch a silent no-op.
            s.sleep(SimDuration::from_nanos(200)).await;
        });
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn cancelled_slot_reuse_does_not_resurrect_old_event() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            let ev = s.schedule_event(SimTime(100), h, 1);
            assert!(s.cancel_event(ev));
            // Re-arm the same slot with a later deadline. The stale
            // timer fires first; its generation is dead so nothing
            // happens until the fresh event's own timer fires.
            let ev2 = s.schedule_event(SimTime(300), h, 2);
            assert_eq!(ev2.slot, ev.slot, "free list should reuse the slot");
            s.sleep(SimDuration::from_nanos(400)).await;
        });
        assert_eq!(*log.borrow(), vec![(300, 2)]);
    }

    #[test]
    fn event_waker_parks_until_woken() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            let (_ev, waker) = s.event_waker(h, 9);
            s.sleep(SimDuration::from_nanos(50)).await;
            assert!(log.borrow().is_empty());
            waker.wake();
            yield_now().await;
            assert_eq!(*log.borrow(), vec![(50, 9)]);
        });
    }

    #[test]
    fn cleared_handler_discards_pending_events() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            s.schedule_event(SimTime(100), h, 1);
            s.clear_event_handler(h);
            s.sleep(SimDuration::from_nanos(200)).await;
        });
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn events_interleave_deterministically_with_tasks() {
        let run = || {
            let sim = Sim::new();
            let (h, log) = logging_handler(&sim);
            let s = sim.clone();
            sim.run_until(async move {
                for i in 0..8u64 {
                    s.schedule_event(SimTime(10 * i), h, i);
                }
                let l2 = {
                    let (h2, l2) = logging_handler(&s);
                    s.schedule_event(SimTime(35), h2, 100);
                    l2
                };
                s.sleep(SimDuration::from_nanos(200)).await;
                let snap = l2.borrow().clone();
                snap
            });
            let fired = log.borrow().clone();
            (fired, sim.events())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn waker_entries_are_16_bytes() {
        // One entry type backs the task, event and direct arenas.
        assert_eq!(std::mem::size_of::<WakerEntry>(), 16);
    }

    /// Pending on its first poll (stashing the waker), ready on the next.
    struct ParkOnce {
        polls: Rc<Cell<u32>>,
        waker: Rc<RefCell<Option<Waker>>>,
    }

    impl Future for ParkOnce {
        type Output = ();

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            self.polls.set(self.polls.get() + 1);
            if self.polls.get() > 1 {
                return Poll::Ready(());
            }
            *self.waker.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    #[test]
    fn early_wakers_survive_arena_growth() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let polls = Rc::new(Cell::new(0));
        let parked = Rc::new(RefCell::new(None));
        let s = sim.clone();
        let (p, w) = (Rc::clone(&polls), Rc::clone(&parked));
        sim.run_until(async move {
            // One waker from the first chunk of each arena.
            s.spawn_detached(ParkOnce { polls: p, waker: w });
            yield_now().await;
            let task_waker = parked.borrow_mut().take().expect("task parked");
            let (ev, event_waker) = s.event_waker(h, 1);
            let direct = s.reserve_direct_waker(h, 2);
            let direct_waker = s.direct_waker(direct);
            assert!((ev.slot as usize) < WAKER_CHUNK && (direct.0 as usize) < WAKER_CHUNK);

            // Grow every arena past three chunk boundaries: polled tasks,
            // parked events and reserved direct entries.
            let grow = 3 * WAKER_CHUNK + 1;
            for i in 0..grow {
                s.spawn_detached(std::future::pending::<()>());
                s.event_waker(h, 100 + i as u64);
                s.reserve_direct_waker(h, 100 + i as u32);
            }
            yield_now().await;
            for arena in [
                &s.core.task_wakers,
                &s.core.event_wakers,
                &s.core.direct_wakers,
            ] {
                let chunks = arena.borrow().chunks.iter().filter(|c| c.is_some()).count();
                assert!(chunks >= 4, "arena grew to only {chunks} chunks");
            }

            task_waker.wake();
            event_waker.wake();
            direct_waker.wake();
            yield_now().await;
        });
        assert_eq!(
            polls.get(),
            2,
            "the early task was polled again exactly once"
        );
        assert_eq!(
            log.borrow().iter().map(|&(_, d)| d).collect::<Vec<_>>(),
            vec![1, 2],
            "the early event and direct wakers each dispatched exactly once"
        );
    }

    /// One step of the randomized slab-lifecycle interpreter: indexes
    /// refer to the script's table of previously armed events.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum SlabOp {
        Schedule { delay: u64, data: u64 },
        Post { data: u64 },
        Cancel { target: usize },
        Run { nanos: u64 },
    }

    impl crate::proptest::Shrink for SlabOp {
        fn shrink_candidates(&self) -> Vec<SlabOp> {
            match *self {
                SlabOp::Schedule { delay, data } => delay
                    .shrink_candidates()
                    .into_iter()
                    .map(|d| SlabOp::Schedule { delay: d, data })
                    .collect(),
                SlabOp::Post { .. } => Vec::new(),
                SlabOp::Cancel { target } => target
                    .shrink_candidates()
                    .into_iter()
                    .map(|t| SlabOp::Cancel { target: t })
                    .collect(),
                SlabOp::Run { nanos } => nanos
                    .shrink_candidates()
                    .into_iter()
                    .map(|n| SlabOp::Run { nanos: n })
                    .collect(),
            }
        }
    }

    /// ABA / use-after-cancel property (ISSUE 10 S3): over random
    /// schedule/cancel/fire interleavings, every armed event dispatches
    /// exactly once with its own payload unless cancelled first, a
    /// cancelled event never dispatches even when its slot is re-armed
    /// (generation guard), and cancel-after-fire reports `false`.
    #[test]
    fn prop_event_slab_generations_survive_reuse() {
        use crate::proptest::{check, CaseOutcome};
        use crate::{prop_assert, prop_assert_eq};

        check(
            "event_slab_generations_survive_reuse",
            |g| {
                g.vec(1, 48, |g| match g.u8_in(0, 3) {
                    0 => SlabOp::Schedule {
                        delay: g.u64_in(0, 400),
                        data: g.any_u32() as u64,
                    },
                    1 => SlabOp::Post {
                        data: g.any_u32() as u64,
                    },
                    2 => SlabOp::Cancel {
                        target: g.usize_in(0, 63),
                    },
                    _ => SlabOp::Run {
                        nanos: g.u64_in(0, 600),
                    },
                })
            },
            |script| {
                let sim = Sim::new();
                let (h, log) = logging_handler(&sim);
                let s = sim.clone();
                let script = script.clone();
                // Expected-to-fire set, maintained by the reference
                // interpreter: data -> armed deadline.
                let outcome = sim.run_until(async move {
                    let mut armed: Vec<(ScheduledEvent, u64, u64)> = Vec::new(); // (ev, data, deadline)
                    let mut expected: Vec<(u64, u64)> = Vec::new();
                    let mut cancelled: Vec<u64> = Vec::new();
                    // Payloads are re-keyed to a unique counter so the
                    // reference interpreter can match fires to arms.
                    let mut next_data: u64 = 0;
                    for op in script {
                        match op {
                            SlabOp::Schedule { delay, data: _ } => {
                                let data = next_data;
                                next_data += 1;
                                let at = s.now() + SimDuration::from_nanos(delay);
                                let ev = s.schedule_event(at, h, data);
                                armed.push((ev, data, at.as_nanos()));
                            }
                            SlabOp::Post { data: _ } => {
                                let data = next_data;
                                next_data += 1;
                                let ev = s.post_event(h, data);
                                armed.push((ev, data, s.now().as_nanos()));
                            }
                            SlabOp::Cancel { target } => {
                                if armed.is_empty() {
                                    continue;
                                }
                                let (ev, data, deadline) = armed[target % armed.len()];
                                let already_fired =
                                    log.borrow().iter().any(|&(_, d)| d == data);
                                let already_cancelled = cancelled.contains(&data);
                                let ok = s.cancel_event(ev);
                                if ok {
                                    cancelled.push(data);
                                } else if !already_fired && !already_cancelled {
                                    return CaseOutcome::Fail(format!(
                                        "cancel of live unfired event {data} (deadline \
                                         {deadline}) returned false"
                                    ));
                                }
                            }
                            SlabOp::Run { nanos } => {
                                s.sleep(SimDuration::from_nanos(nanos)).await;
                            }
                        }
                    }
                    // Drain everything still pending.
                    s.sleep(SimDuration::from_nanos(1_000)).await;
                    for (_, data, deadline) in &armed {
                        if !cancelled.contains(data) {
                            expected.push((*deadline, *data));
                        }
                    }
                    let mut fired = log.borrow().clone();
                    fired.sort_unstable();
                    expected.sort_unstable();
                    // Non-cancelled events must each fire exactly once at
                    // their deadline; cancelled ones never.
                    prop_assert_eq!(fired, expected);
                    for data in &cancelled {
                        prop_assert!(
                            !log.borrow().iter().any(|(_, d)| d == data),
                            "cancelled event {data} dispatched"
                        );
                    }
                    // All slots must recycle.
                    prop_assert_eq!(s.live_events(), 0);
                    CaseOutcome::Pass
                });
                outcome
            },
        );
    }
}
