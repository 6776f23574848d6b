//! The discrete-event executor.
//!
//! [`Sim`] is a deterministic, single-threaded executor for `!Send` futures.
//! Tasks advance only by awaiting simulated time ([`Sim::sleep`]) or
//! synchronization primitives from [`crate::sync`]; real wall-clock time
//! never enters the model. Determinism is guaranteed by:
//!
//! - a FIFO ready queue (tasks run in wake order),
//! - timers that fire by deadline, equal deadlines in registration
//!   order, and
//! - a seeded pseudo-random number generator ([`crate::rng::SimRng`]).
//!
//! A world lives as long as the handle [`Sim::new`] returned. Its tasks
//! and handlers hold clones of that handle, and the world holds them, so
//! the owner's drop is what ends it: every task, timer and handler is
//! dropped then, and a finished world frees itself. A clone never ends
//! the world.
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
//!   (`ReadyQueue`) rather than a `Mutex` — the `Waker` contract forces
//!   `Send + Sync`, but every waker in this executor is created and invoked
//!   on the simulator's own thread, so the lock was pure overhead;
//! - pending timers live in a hierarchical timer wheel
//!   ([`crate::wheel::TimerWheel`]) instead of a binary heap: `O(1)`
//!   registration, `O(levels)` pops, and the exact
//!   `(deadline, registration-seq)` firing order the heap gave, kept by
//!   FIFO slot chains with no stored sequence number. Each timer is one
//!   ready-queue word (see [`Sim::register_timer`]).

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
/// slot and no generation, for dispatches that are never cancelled (see
/// [`Sim::post_direct`], [`Sim::schedule_direct`] and
/// [`Sim::direct_waker`]).
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

/// `handler`'s id, checked to fit a direct word's 30 handler bits.
#[inline]
fn direct_handler(handler: EventHandlerId) -> u32 {
    assert!(
        handler.0 < DIRECT_HANDLER_MAX,
        "direct dispatches carry 30-bit handler ids"
    );
    handler.0
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

    fn clear(&self) {
        self.assert_owner();
        // SAFETY: as in `push`.
        unsafe { (*self.queue.get()).clear() }
    }
}

/// Backing data for the task and event wakers this executor hands out:
/// the ready-queue word to push and the queue to push it on. One vtable
/// serves both kinds, which differ only in the word:
///
/// - a task slot's entry holds its slot id, fixed for the core's life;
/// - an event slot's entry holds [`encode_event`] of the slot and the
///   generation current at arm time, refreshed by every arm, so a wake
///   that races a completed or cancelled arm pushes a stale generation
///   and is dropped at dispatch.
///
/// These wakers name their queue because code outside a run may wake
/// them (a `JoinHandle`'s output, a channel fed between runs). Direct
/// wakers need no entry: see [`Sim::direct_waker`].
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
/// An event waker must be woken at most once per arm, which every
/// primitive in [`crate::sync`] (and the lane/server ticket handshakes
/// built on the same shape) guarantees.
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

thread_local! {
    /// The ready queue of the world whose run is innermost on this
    /// thread (null outside every run), where a direct waker's word goes.
    /// Set and restored by [`ReadyScope`].
    static CURRENT_READY: Cell<*const ReadyQueue> = const { Cell::new(std::ptr::null()) };
}

/// Makes a world's ready queue this thread's [`CURRENT_READY`] for the
/// guard's life, then restores the one it replaced, so a run nested in
/// another world's run hands the thread back to the outer world.
struct ReadyScope(*const ReadyQueue);

impl ReadyScope {
    fn enter(ready: &ReadyQueue) -> ReadyScope {
        ReadyScope(CURRENT_READY.replace(ready))
    }
}

impl Drop for ReadyScope {
    fn drop(&mut self) {
        CURRENT_READY.set(self.0);
    }
}

/// Pushes a direct waker's word onto the current world's ready queue.
fn wake_direct(data: *const ()) {
    let ready = CURRENT_READY.get();
    assert!(
        !ready.is_null(),
        "direct waker woken with no run on this thread"
    );
    // SAFETY: a non-null `CURRENT_READY` is the queue of a world whose
    // run (or end) is on this thread's stack, which keeps its core,
    // and so the queue, alive until the scope restores the pointer.
    unsafe { (*ready).push(data.addr()) };
}

/// The vtable of [`Sim::direct_waker`]: the waker's data pointer *is*
/// the [`encode_direct`] word, so there is nothing to clone or drop, and
/// a wake pushes the word onto whichever world is running on the thread.
static DIRECT_VTABLE: RawWakerVTable = RawWakerVTable::new(
    |data| RawWaker::new(data, &DIRECT_VTABLE),
    wake_direct,
    wake_direct,
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

/// A slot in the task table: a live task, or a vacant slot whose
/// `next` word says what else it is. The free list is intrusive (vacant
/// slots link to the next free slot through the table itself, with the
/// head in [`SimCore::free_head`]), so claiming and releasing a slot,
/// which the flyweight tier does four times per RPC for its shadows, is
/// one table borrow. Two variants over a boxed future fit in 16 bytes
/// (the box's non-null pointer tells them apart); a third variant would
/// make it 24, and at a million clients the table holds a million launch
/// shadows.
///
/// `next` values at and above [`POLLING`] are reserved; the others are
/// free-list links:
///
/// - a slot index, or [`NO_SLOT`] to end the list: free. The list is
///   LIFO, so slot recycling order, which is observable through where
///   stale wakes land, is that of a free vector.
/// - [`SHADOW`]: a shadow occupant, with no future to run; a wake that
///   reaches it still retires one event (see [`Sim::spawn_shadow`]).
/// - [`POLLING`]: a task whose future is out of the table while it is
///   polled; a wake that reaches it retires none.
enum TaskSlot {
    /// A live task, not being polled.
    Task(LocalFuture),
    /// No future in the table; see the type's docs for `next`.
    Vacant { next: u32 },
}

/// Free-list terminator for [`TaskSlot::Vacant`].
const NO_SLOT: u32 = u32::MAX;
/// [`TaskSlot::Vacant`]'s `next` for a shadow occupant.
const SHADOW: u32 = u32::MAX - 1;
/// [`TaskSlot::Vacant`]'s `next` for a task being polled; the lowest
/// reserved value, so every slot index lies below it.
const POLLING: u32 = u32::MAX - 2;

struct SimCore {
    now: Cell<SimTime>,
    /// Pending timers, each the ready-queue word its firing produces: a
    /// task slot id, an [`encode_event`] snapshot, or an
    /// [`encode_direct`] dispatch.
    timers: RefCell<TimerWheel<usize>>,
    tasks: RefCell<Vec<TaskSlot>>,
    /// One waker entry per polled task-table slot, holding the slot id.
    /// It never goes stale: it is created at the slot's first poll and
    /// serves every later poll of every task that ever occupies the slot.
    task_wakers: RefCell<WakerArena>,
    /// Head of the intrusive free list running through `tasks` (see
    /// [`TaskSlot`]); `NO_SLOT` when the table is full.
    free_head: Cell<u32>,
    /// The timed-event slab: generation-counted single-shot records
    /// dispatched straight off the ready queue with no future, no task
    /// slot and no per-event allocation. Slots are recycled through
    /// `event_free`. A slot parked in a sync primitive
    /// ([`Sim::event_waker`]) gets a waker entry in `event_wakers`, whose
    /// word every later arm of the slot refreshes.
    event_slots: RefCell<Vec<EventSlot>>,
    event_free: RefCell<Vec<u32>>,
    event_wakers: RefCell<WakerArena>,
    /// Registered dispatch targets; an event stores only an index here
    /// plus a `u64` payload, so dispatch is one dynamic call.
    event_handlers: RefCell<Vec<Option<EventHandlerFn>>>,
    /// Handlers cleared while a run is on the stack, dropped when the
    /// outermost run returns: dispatch calls a handler through a pointer
    /// borrowed from `event_handlers`, not a refcount, and a handler may
    /// clear itself.
    retired_handlers: RefCell<Vec<EventHandlerFn>>,
    /// `run_until` calls on the stack.
    runs: Cell<u32>,
    ready: Arc<ReadyQueue>,
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
    /// through its signature. Called when `run_until` returns, so the
    /// count is there while the world still lives.
    fn flush_events_to_profiler(&self) {
        let total = self.events.get();
        profile::note_sim_events(total - self.events_credited.get());
        self.events_credited.set(total);
    }

    /// Drops every task, pending timer and event handler (the end of the
    /// world, see [`Sim`]), with this world's ready queue the thread's
    /// current one, so a drop that wakes a direct waker pushes onto it;
    /// the queue is cleared last.
    fn clear(&self) {
        let _ready = ReadyScope::enter(&self.ready);
        drop(std::mem::take(&mut *self.retired_handlers.borrow_mut()));
        loop {
            let tasks = std::mem::take(&mut *self.tasks.borrow_mut());
            self.free_head.set(NO_SLOT);
            let timers = std::mem::take(&mut *self.timers.borrow_mut());
            let handlers = std::mem::take(&mut *self.event_handlers.borrow_mut());
            if tasks.is_empty() && handlers.is_empty() {
                break;
            }
            drop((tasks, timers, handlers));
        }
        self.ready.clear();
    }
}

/// One `run_until` on the stack, counted in `SimCore::runs` until it
/// returns or unwinds, with the world's ready queue the thread's current
/// one meanwhile. The outermost one frees the handlers cleared during
/// it.
struct RunGuard<'a> {
    core: &'a SimCore,
    _ready: ReadyScope,
}

impl<'a> RunGuard<'a> {
    fn enter(core: &'a SimCore) -> RunGuard<'a> {
        core.runs.set(core.runs.get() + 1);
        RunGuard {
            core,
            _ready: ReadyScope::enter(&core.ready),
        }
    }
}

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        let runs = self.core.runs.get() - 1;
        self.core.runs.set(runs);
        if runs == 0 {
            drop(std::mem::take(
                &mut *self.core.retired_handlers.borrow_mut(),
            ));
        }
    }
}

impl Drop for SimCore {
    fn drop(&mut self) {
        // Backstop for events retired outside any `run_until` call.
        self.flush_events_to_profiler();
        self.clear();
    }
}

/// Handle to a simulated world; cheap to clone and share between tasks.
///
/// The handle [`Sim::new`] returns owns the world: the world lives as
/// long as that handle, and dropping it drops every task, timer and
/// handler of the world. A clone never ends the world; it can read the
/// clock and the counters after the owner is gone, but the world's
/// tasks have been dropped and will not run again.
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
pub struct Sim {
    core: Rc<SimCore>,
    /// Set only on the handle [`Sim::new`] returned: its drop ends the
    /// world.
    owner: bool,
}

/// A handle to the same world that never ends it.
impl Clone for Sim {
    fn clone(&self) -> Sim {
        Sim {
            core: Rc::clone(&self.core),
            owner: false,
        }
    }
}

/// Dropping the owner ends the world: every task, pending timer and
/// event handler the core holds is dropped. Daemon tasks and handlers
/// hold `Sim` clones and the core holds them, so without this a
/// finished world and every layer its tasks reach would stay allocated
/// until the process exits. The task table, the timer wheel and the
/// handlers are taken out of the core before any of them is dropped, so
/// a `Drop` impl that wakes, arms or spawns finds the core unborrowed;
/// whatever such a drop spawns is dropped in turn. The core itself is
/// freed with the last clone.
///
/// # Panics
///
/// Panics if the owner is dropped inside a run of its own world (by one
/// of its tasks or handlers), unless that run is already unwinding, in
/// which case the world is left to leak.
impl Drop for Sim {
    fn drop(&mut self) {
        if !self.owner || (self.core.runs.get() > 0 && std::thread::panicking()) {
            return;
        }
        assert_eq!(
            self.core.runs.get(),
            0,
            "a world's owner dropped inside its own run"
        );
        self.core.clear();
    }
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
                timers: RefCell::new(TimerWheel::new()),
                tasks: RefCell::new(Vec::new()),
                task_wakers: arena(),
                free_head: Cell::new(NO_SLOT),
                event_slots: RefCell::new(Vec::new()),
                event_free: RefCell::new(Vec::new()),
                event_wakers: arena(),
                event_handlers: RefCell::new(Vec::new()),
                retired_handlers: RefCell::new(Vec::new()),
                runs: Cell::new(0),
                ready,
                events: Cell::new(0),
                events_credited: Cell::new(0),
            }),
            owner: true,
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
    /// The timer stores the waker's ready-queue word, not the waker: a
    /// task slot's word never changes, so pushing the stored word when
    /// the timer fires is exactly what waking the waker would do.
    ///
    /// # Panics
    ///
    /// Panics unless `waker` is one of this simulator's own wakers (a
    /// task polled by this `Sim`).
    pub fn register_timer(&self, deadline: SimTime, waker: Waker) {
        assert!(
            std::ptr::eq(waker.vtable(), &WAKER_VTABLE),
            "register_timer needs a waker of this simulator"
        );
        // SAFETY: every waker with this vtable points at a live
        // `WakerEntry` of some core (see `WakerEntry`); the entry's
        // queue pointer is checked before its word is read.
        let entry = unsafe { &*(waker.data() as *const WakerEntry) };
        assert!(
            std::ptr::eq(entry.ready, Arc::as_ptr(&self.core.ready)),
            "register_timer got a waker of another simulator"
        );
        self.push_timer(deadline, entry.word.get());
    }

    /// Registers a timer that produces the ready-queue `word` when it
    /// fires: by deadline, after every timer registered before it for
    /// the same deadline.
    ///
    /// An event timer stores the [`encode_event`] snapshot of its arm,
    /// never the slot's waker: the slot's waker entry holds the generation
    /// of its *current* arm, so a stale timer left in the wheel by a
    /// cancelled arm would otherwise resurrect whatever event occupies the
    /// slot next (the ABA the generation counter exists to prevent).
    fn push_timer(&self, deadline: SimTime, word: usize) {
        self.core
            .timers
            .borrow_mut()
            .push(deadline.as_nanos(), word);
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
        let id = self.insert_slot(TaskSlot::Task(Box::pin(fut)));
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
        self.insert_slot(TaskSlot::Vacant { next: SHADOW })
    }

    /// Reserves `n` fresh shadow slots as one contiguous range, as `n`
    /// calls of [`Sim::spawn_shadow`] on a table with no free slot would,
    /// so a caller can keep one base id instead of `n` ids. The slots are
    /// pushed one at a time, which leaves the table's capacity growth
    /// exactly as those calls would. Fresh slots have no history, so
    /// which of them backs which caller changes no wake and no event.
    ///
    /// # Panics
    ///
    /// Panics if the table has a free slot: [`Sim::spawn_shadow`] would
    /// reuse it first, so the range would not be what those calls claim.
    pub fn spawn_shadows(&self, n: usize) -> std::ops::Range<TaskId> {
        assert_eq!(
            self.core.free_head.get(),
            NO_SLOT,
            "spawn_shadows needs a task table with no free slot"
        );
        let mut tasks = self.core.tasks.borrow_mut();
        let base = tasks.len();
        assert!(
            base + n <= POLLING as usize,
            "task table past {POLLING} slots"
        );
        for _ in 0..n {
            tasks.push(TaskSlot::Vacant { next: SHADOW });
        }
        base..tasks.len()
    }

    /// Frees a slot reserved by [`Sim::spawn_shadow`].
    pub fn drop_shadow(&self, id: TaskId) {
        let mut tasks = self.core.tasks.borrow_mut();
        debug_assert!(
            matches!(tasks.get(id), Some(TaskSlot::Vacant { next: SHADOW })),
            "drop_shadow on a non-shadow slot {id}"
        );
        tasks[id] = TaskSlot::Vacant {
            next: self.core.free_head.get(),
        };
        self.core.free_head.set(id as u32);
    }

    fn insert_slot(&self, slot: TaskSlot) -> TaskId {
        let mut tasks = self.core.tasks.borrow_mut();
        let head = self.core.free_head.get();
        if head != NO_SLOT {
            let TaskSlot::Vacant { next } = tasks[head as usize] else {
                unreachable!("free-list head {head} not vacant");
            };
            self.core.free_head.set(next);
            tasks[head as usize] = slot;
            head as TaskId
        } else {
            assert!(
                tasks.len() < POLLING as usize,
                "task table past {POLLING} slots"
            );
            tasks.push(slot);
            tasks.len() - 1
        }
    }

    /// Drives `main` to completion, running spawned tasks and advancing the
    /// simulated clock as needed, and returns its output.
    ///
    /// Background tasks that are still pending when `main` completes stay
    /// parked, so a later `run_until` can resume them; dropping the
    /// owner drops them when the world is finished.
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
        let _run = RunGuard::enter(&self.core);
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
        self.call_handler(handler, data);
    }

    /// Dispatches one direct ready entry: retires the event and runs the
    /// handler with the word's payload. No slot to free, no generation
    /// to check — the encoding is complete in the word (see
    /// [`Sim::post_direct`]).
    fn dispatch_direct(&self, word: usize) {
        self.core.events.set(self.core.events.get() + 1);
        let handler = (word >> 32) as u32 & (DIRECT_HANDLER_MAX - 1);
        self.call_handler(handler, u64::from(word as u32));
    }

    /// Runs registered handler `handler` on `data`, or nothing if it was
    /// cleared. The call goes through a pointer borrowed from the
    /// handler table, with no refcount traffic and no table borrow held,
    /// so the handler may register handlers (moving the table, not the
    /// closures) or clear any of them, itself included.
    #[inline]
    fn call_handler(&self, handler: u32, data: u64) {
        let Some(h) = self.core.event_handlers.borrow()[handler as usize]
            .as_ref()
            .map(Rc::as_ptr)
        else {
            return;
        };
        // SAFETY: dispatch runs only inside `run_until`, and while a run
        // is on the stack nothing drops a registered handler:
        // `clear_event_handler` moves it to `retired_handlers`, freed
        // when the outermost run returns, and the owner's drop refuses
        // to end the world inside a run. So the closure outlives this
        // call.
        unsafe { (*h)(data) }
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
        if entry.payload & (EVENT_TAG | DIRECT_TAG) == DIRECT_TAG {
            // The ready queue is always drained empty before a timer
            // fires, so dispatching inline observes the exact order (and
            // event count) the push-pop round trip through the ready
            // queue would: one event for the fire above, one for the
            // dispatch.
            self.dispatch_direct(entry.payload);
        } else {
            self.core.ready.push(entry.payload);
        }
        true
    }

    fn poll_task(&self, id: TaskId) {
        // Take the future out of the table so that the task may itself
        // spawn tasks (which re-borrows the table) while being polled.
        let mut fut = {
            let mut tasks = self.core.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(id) else {
                return;
            };
            match std::mem::replace(slot, TaskSlot::Vacant { next: POLLING }) {
                TaskSlot::Task(f) => f,
                vacant => {
                    // A stale wake reached a recycled slot that a shadow
                    // now occupies: retire one event, as a spurious no-op
                    // poll of a task there would. One that reached a free
                    // slot or a task being polled retires none.
                    let shadow = matches!(vacant, TaskSlot::Vacant { next: SHADOW });
                    *slot = vacant;
                    drop(tasks);
                    if shadow {
                        self.core.events.set(self.core.events.get() + 1);
                    }
                    return;
                }
            }
        };

        // Built from the slot's arena entry, created at the slot's first
        // poll: no allocation after that, no refcount.
        let waker = waker_for(self.core.task_wakers.borrow_mut().get_or_init(id, |j| j));
        let mut cx = Context::from_waker(&waker);
        self.core.events.set(self.core.events.get() + 1);
        let poll = fut.as_mut().poll(&mut cx);

        let mut tasks = self.core.tasks.borrow_mut();
        let slot = &mut tasks[id];
        debug_assert!(matches!(slot, TaskSlot::Vacant { next: POLLING }));
        match poll {
            Poll::Ready(()) => {
                *slot = TaskSlot::Vacant {
                    next: self.core.free_head.get(),
                };
                self.core.free_head.set(id as u32);
            }
            Poll::Pending => *slot = TaskSlot::Task(fut),
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
    /// silently discarded at dispatch). Subsystems whose handler keeps
    /// them alive call this when they finish, so they are freed then
    /// rather than when the world ends. Cleared from inside a run (by a
    /// task or by a handler, its own dispatch included), the handler is
    /// dropped when the outermost run returns rather than at once.
    pub fn clear_event_handler(&self, id: EventHandlerId) {
        let cleared = self.core.event_handlers.borrow_mut()[id.0 as usize].take();
        if let Some(h) = cleared {
            if self.core.runs.get() > 0 {
                self.core.retired_handlers.borrow_mut().push(h);
            }
        }
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
    /// no way to cancel it: the timer is one tagged `(handler, data)` word
    /// that dispatches straight off the wheel, touching neither the event slab
    /// nor the ready queue. Cheaper than [`Sim::schedule_event`] on hot
    /// paths that never cancel; identical event arithmetic (fire +
    /// dispatch). The handler receives `data` widened to `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not in the future — there is no inline
    /// path; callers handle elapsed deadlines themselves — or if the
    /// handler id does not fit a direct word's 30 bits.
    pub fn schedule_direct(&self, deadline: SimTime, handler: EventHandlerId, data: u32) {
        assert!(
            deadline > self.now(),
            "schedule_direct needs a future deadline"
        );
        self.push_timer(deadline, encode_direct(direct_handler(handler), data));
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
            self.push_timer(deadline, encode_event(ev.slot, ev.gen));
        } else {
            self.core.ready.push(encode_event(ev.slot, ev.gen));
        }
        ev
    }

    /// Queues `handler(data)` for the next ready-queue drain with no way
    /// to cancel it — the taskless analogue of [`Sim::spawn`]'s initial
    /// poll. Against [`Sim::schedule_event`] at a deadline of now, it
    /// takes the same place in the ready queue and retires one event
    /// at dispatch, but arms no slab slot and no generation; the entry is
    /// one tagged `(handler, data)` word. The handler receives `data`
    /// widened to `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the handler id does not fit a direct word's 30 bits.
    pub fn post_direct(&self, handler: EventHandlerId, data: u32) {
        self.core
            .ready
            .push(encode_direct(direct_handler(handler), data));
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

    /// A waker that dispatches `handler(data)` each time it is woken —
    /// the zero-state spelling of [`Sim::event_waker`] for callers whose
    /// parks are woken exactly once and never cancelled (the flyweight
    /// tier's admission and service waits). The waker's data *is* the
    /// encoded `(handler, data)` word: building one allocates nothing,
    /// keeps no entry and counts no references, waking is a single
    /// ready-queue push, and dispatch touches no slab.
    ///
    /// A wake pushes the word onto the ready queue of the world running
    /// on the waking thread (the innermost `run_until`, or the end of a
    /// world as its owner drops), so wake it only from inside this
    /// world's run: a task, a handler, or a drop as the world ends.
    ///
    /// # Panics
    ///
    /// Panics if the handler id does not fit a direct word's 30 bits.
    /// Waking the waker panics if no world is running on the thread.
    #[inline]
    pub fn direct_waker(&self, handler: EventHandlerId, data: u32) -> Waker {
        let word = encode_direct(direct_handler(handler), data);
        let raw = RawWaker::new(std::ptr::without_provenance(word), &DIRECT_VTABLE);
        // SAFETY: the vtable reads only the word and the thread's
        // current ready queue; see `wake_direct`.
        unsafe { Waker::from_raw(raw) }
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
            .filter(|t| matches!(t, TaskSlot::Task(_) | TaskSlot::Vacant { next: POLLING }))
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

    /// A world whose parked daemon, pending sleeper and event handler
    /// each hold a `Sim` clone and a share of `probe`, with an event of
    /// the handler still armed: the core holds them, so it holds itself.
    fn probed_world(probe: &Rc<()>) -> Sim {
        let sim = Sim::new();
        let queue = Rc::new(crate::WaitQueue::new());
        let (s, q, p) = (sim.clone(), Rc::clone(&queue), Rc::clone(probe));
        sim.spawn_detached(async move {
            let _held = (s, p);
            q.wait().await;
        });
        let (s, p) = (sim.clone(), Rc::clone(probe));
        sim.spawn_detached(async move {
            let _p = p;
            s.sleep(SimDuration::from_secs(9)).await;
        });
        let (s, p) = (sim.clone(), Rc::clone(probe));
        let h = sim.register_event_handler(Rc::new(move |_| {
            let _ = (s.now(), &p);
        }));
        sim.schedule_event(SimTime::ZERO + SimDuration::from_secs(9), h, 0);
        let s = sim.clone();
        sim.run_until(async move { s.sleep(SimDuration::from_secs(1)).await });
        sim
    }

    #[test]
    fn dropping_the_owner_frees_what_the_world_holds() {
        let probe = Rc::new(());
        let sim = probed_world(&probe);
        assert_eq!(Rc::strong_count(&probe), 4, "three holders live");
        drop(sim.clone());
        assert_eq!(Rc::strong_count(&probe), 4, "a clone ends nothing");
        drop(sim);
        assert_eq!(Rc::strong_count(&probe), 1, "the owner's drop freed all");
    }

    #[test]
    fn a_clone_outliving_the_owner_reads_the_clock() {
        let probe = Rc::new(());
        let sim = probed_world(&probe);
        let clone = sim.clone();
        let events = sim.events();
        drop(sim);
        assert_eq!(Rc::strong_count(&probe), 1);
        assert_eq!(clone.now(), SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(clone.events(), events);
        assert_eq!(clone.live_tasks(), 0, "the world's tasks went with it");
    }

    #[test]
    #[should_panic(expected = "a world's owner dropped inside its own run")]
    fn dropping_the_owner_inside_its_own_run_panics() {
        let sim = Sim::new();
        let s = sim.clone();
        s.run_until(async move { drop(sim) });
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
    fn spawn_shadows_claims_one_contiguous_range() {
        let sim = Sim::new();
        let first = sim.spawn_shadow();
        let range = sim.spawn_shadows(3);
        assert_eq!(range, first + 1..first + 4);
        assert_eq!(sim.spawn_shadows(0), first + 4..first + 4);
        assert_eq!(sim.spawn_shadow(), first + 4, "the next claim follows it");
    }

    #[test]
    #[should_panic(expected = "no free slot")]
    fn spawn_shadows_refuses_a_table_with_free_slots() {
        let sim = Sim::new();
        let slot = sim.spawn_shadow();
        sim.drop_shadow(slot);
        sim.spawn_shadows(1);
    }

    /// A scripted world of stale wakes: `slots[k]` is caller `k`'s launch
    /// shadow. For each caller in a fixed order, the main task drops its
    /// shadow, lets a task that stashes its waker run on the freed slot
    /// and finish, claims a shadow that lands back on that slot for every
    /// other caller when `reclaim` is set, and fires every stashed waker;
    /// the stale wakes then land on live shadows or on free slots.
    /// Returns the retired events.
    fn stale_wake_world(sim: &Sim, slots: Vec<TaskId>, reclaim: bool) -> u64 {
        let stash: Rc<RefCell<Vec<Waker>>> = Rc::default();
        let s = sim.clone();
        sim.run_until(async move {
            let mut held = Vec::new();
            for k in [2, 0, 5, 1, 4, 3] {
                s.drop_shadow(slots[k]);
                let st = Rc::clone(&stash);
                s.spawn_detached(std::future::poll_fn(move |cx| {
                    st.borrow_mut().push(cx.waker().clone());
                    Poll::Ready(())
                }));
                yield_now().await;
                if reclaim && k % 2 == 0 {
                    held.push(s.spawn_shadow());
                }
                for w in stash.borrow().iter() {
                    w.wake_by_ref();
                }
                yield_now().await;
                if reclaim && k == 1 {
                    s.drop_shadow(held.remove(0));
                }
            }
        });
        sim.events()
    }

    #[test]
    fn shadows_claimed_as_a_range_retire_the_same_events() {
        const N: usize = 6;
        let one_by_one = Sim::new();
        let slots = (0..N).map(|_| one_by_one.spawn_shadow()).collect();
        let by_claims = stale_wake_world(&one_by_one, slots, true);
        // The range hands caller `k` the slot `N - 1 - k` places in: a
        // relabeling of fresh slots, as the flyweight tier's start order is.
        let ranged = Sim::new();
        let range = ranged.spawn_shadows(N);
        let slots = (0..N).map(|k| range.end - 1 - k).collect();
        assert_eq!(stale_wake_world(&ranged, slots, true), by_claims);
        // Stale wakes did land on reclaimed shadows: without the
        // reclaims the same script retires fewer events.
        let unclaimed = Sim::new();
        let slots = (0..N).map(|_| unclaimed.spawn_shadow()).collect();
        assert!(stale_wake_world(&unclaimed, slots, false) < by_claims);
    }

    #[test]
    fn task_slots_are_16_bytes() {
        // A boxed future's non-null pointer tells the two variants apart;
        // a third variant would cost a tag word.
        assert_eq!(std::mem::size_of::<TaskSlot>(), 16);
    }

    /// A wake that reaches a task while that task is being polled (here
    /// a direct poll of its own slot from inside its poll) retires no
    /// event and runs nothing; the future goes back into its slot when
    /// the poll returns, so a later wake still finishes the task.
    #[test]
    fn a_wake_reaching_a_task_mid_poll_retires_nothing_and_keeps_it() {
        let sim = Sim::new();
        let polls = Rc::new(Cell::new(0));
        let stash: Rc<RefCell<Option<Waker>>> = Rc::default();
        let (s, p, st) = (sim.clone(), Rc::clone(&polls), Rc::clone(&stash));
        sim.spawn_detached(std::future::poll_fn(move |cx| {
            p.set(p.get() + 1);
            if p.get() > 1 {
                return Poll::Ready(());
            }
            let before = s.events();
            s.poll_task(0);
            assert_eq!(s.events(), before, "a wake mid-poll retired an event");
            assert_eq!(p.get(), 1, "a wake mid-poll ran the task again");
            *st.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }));
        sim.run_until(yield_now());
        assert_eq!(polls.get(), 1);
        assert_eq!(sim.live_tasks(), 1, "the pending task left its slot");
        sim.run_until(async move {
            stash.borrow_mut().take().unwrap().wake();
            yield_now().await;
        });
        assert_eq!(polls.get(), 2, "the future was not put back");
        assert_eq!(sim.live_tasks(), 0);
    }

    /// A finished task's slot becomes the free-list head, so slots are
    /// reused last-freed first.
    #[test]
    fn a_finished_task_slot_heads_the_free_list() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn_detached(async {});
        sim.spawn_detached(async move { s.sleep(SimDuration::from_micros(1)).await });
        let s = sim.clone();
        // Slot 0 finishes at once, slot 1 after a microsecond, then the
        // main task in slot 2.
        sim.run_until(async move {
            s.sleep(SimDuration::from_micros(2)).await;
            assert_eq!(s.core.free_head.get(), 1, "the last finished task");
        });
        assert_eq!(sim.core.free_head.get(), 2, "the main task's slot");
        let reused: Vec<_> = (0..4).map(|_| sim.spawn_shadow()).collect();
        assert_eq!(reused, [2, 1, 0, 3]);
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
            s.schedule_event(s.now(), h, 8);
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
            s.schedule_event(s.now(), h, 0);
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
    fn a_handler_outlives_its_own_dispatch_when_it_clears_itself() {
        /// Flags its drop, so a handler freed mid-dispatch shows.
        struct Guard(Rc<Cell<bool>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let dropped = Rc::new(Cell::new(false));
        let own_id = Rc::new(Cell::new(None));
        let quitter = sim.register_event_handler(Rc::new({
            let (s, log, own_id) = (sim.clone(), log.clone(), own_id.clone());
            let guard = Guard(dropped.clone());
            move |data| {
                s.clear_event_handler(own_id.get().unwrap());
                assert!(!guard.0.get(), "a cleared handler was freed mid-dispatch");
                log.borrow_mut().push(("quitter", data));
            }
        }));
        own_id.set(Some(quitter));
        // Registers enough handlers mid-dispatch to move the table
        // under the call, then posts to the last of them.
        let spawner = sim.register_event_handler(Rc::new({
            let (s, log) = (sim.clone(), log.clone());
            move |data| {
                let mut newest = None;
                for _ in 0..64 {
                    let log = log.clone();
                    newest = Some(s.register_event_handler(Rc::new(move |d| {
                        log.borrow_mut().push(("newcomer", d));
                    })));
                }
                s.post_direct(newest.unwrap(), data as u32 + 1);
                log.borrow_mut().push(("spawner", data));
            }
        }));
        let s = sim.clone();
        let still_held = dropped.clone();
        sim.run_until(async move {
            s.post_direct(quitter, 1);
            s.post_direct(spawner, 10);
            s.schedule_direct(SimTime(5), quitter, 2);
            s.schedule_event(SimTime(6), quitter, 3);
            s.sleep(SimDuration::from_nanos(10)).await;
            assert!(!still_held.get(), "freed before the run returned");
        });
        assert!(
            dropped.get(),
            "the cleared handler is freed when the run returns"
        );
        assert_eq!(
            *log.borrow(),
            vec![("quitter", 1), ("spawner", 10), ("newcomer", 11)]
        );
        // As with a refcounted dispatch: the run task's two polls, the
        // sleep's fire, three live dispatches, and a fire plus a
        // discarded dispatch for each timer left to the cleared handler.
        assert_eq!(sim.events(), 2 + 1 + 3 + 2 * 2);
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

    /// Posts a dispatch of `data` to `h`, as a direct word or a slab event.
    fn post(s: &Sim, h: EventHandlerId, data: u32, direct: bool) {
        if direct {
            s.post_direct(h, data);
        } else {
            s.schedule_event(s.now(), h, u64::from(data));
        }
    }

    #[test]
    fn post_direct_takes_the_place_of_a_slab_post() {
        // The same script with slab posts and with direct posts: each
        // dispatch lands between the same task polls and retires one
        // event, but only the slab posts arm event slots.
        let run = |direct: bool| {
            let sim = Sim::new();
            let (h, log) = logging_handler(&sim);
            let s = sim.clone();
            let l = Rc::clone(&log);
            let (events, slots) = sim.run_until(async move {
                let base = s.events();
                for i in 0..3u32 {
                    let l = Rc::clone(&l);
                    s.spawn_detached(async move { l.borrow_mut().push((0, 100 + u64::from(i))) });
                    post(&s, h, i, direct);
                }
                yield_now().await;
                (s.events() - base, s.core.event_slots.borrow().len())
            });
            let order = log.borrow().iter().map(|&(_, d)| d).collect::<Vec<_>>();
            (order, events, slots)
        };
        let (slab, direct) = (run(false), run(true));
        assert_eq!(slab.0, vec![100, 0, 101, 1, 102, 2]);
        assert_eq!(direct.0, slab.0);
        // Three task polls, three dispatches and the main task's re-poll.
        assert_eq!((slab.1, direct.1), (7, 7));
        assert_eq!((slab.2, direct.2), (3, 0));
    }

    #[test]
    fn task_event_and_direct_timers_at_one_deadline_fire_in_registration_order() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        let l = Rc::clone(&log);
        let at = SimTime(1_000);
        sim.run_until(async move {
            s.schedule_event(at, h, 10);
            s.schedule_direct(at, h, 11);
            let s2 = s.clone();
            s.spawn_detached(async move {
                s2.sleep_until(at).await;
                l.borrow_mut().push((s2.now().as_nanos(), 20));
            });
            // The task registers its timer when it is first polled.
            yield_now().await;
            s.schedule_direct(at, h, 12);
            s.schedule_event(at, h, 13);
            s.sleep_until(SimTime(2_000)).await;
        });
        let log = log.borrow();
        assert!(log.iter().all(|&(t, _)| t == 1_000));
        let order: Vec<u64> = log.iter().map(|&(_, d)| d).collect();
        assert_eq!(order, vec![10, 11, 20, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "register_timer needs a waker of this simulator")]
    fn register_timer_rejects_a_noop_waker() {
        Sim::new().register_timer(SimTime(5), Waker::noop().clone());
    }

    #[test]
    #[should_panic(expected = "register_timer got a waker of another simulator")]
    fn register_timer_rejects_a_task_waker_of_another_sim() {
        let (a, b) = (Sim::new(), Sim::new());
        a.run_until(async move {
            let waker = std::future::poll_fn(|cx| Poll::Ready(cx.waker().clone())).await;
            b.register_timer(SimTime(5), waker);
        });
    }

    #[test]
    #[should_panic(expected = "direct dispatches carry 30-bit handler ids")]
    fn schedule_direct_rejects_a_handler_id_past_30_bits() {
        Sim::new().schedule_direct(SimTime(5), EventHandlerId(DIRECT_HANDLER_MAX), 0);
    }

    #[test]
    #[should_panic(expected = "direct dispatches carry 30-bit handler ids")]
    fn post_direct_rejects_a_handler_id_past_30_bits() {
        Sim::new().post_direct(EventHandlerId(DIRECT_HANDLER_MAX), 0);
    }

    #[test]
    fn waker_entries_are_16_bytes() {
        // One entry type backs the task and event arenas.
        assert_eq!(std::mem::size_of::<WakerEntry>(), 16);
    }

    #[test]
    #[should_panic(expected = "direct waker woken with no run on this thread")]
    fn a_direct_wake_with_no_run_on_the_thread_panics() {
        let sim = Sim::new();
        let (h, _log) = logging_handler(&sim);
        sim.direct_waker(h, 1).wake();
    }

    #[test]
    fn a_direct_wake_after_a_nested_run_lands_in_the_outer_world() {
        let (outer, inner) = (Sim::new(), Sim::new());
        let (oh, olog) = logging_handler(&outer);
        let (ih, ilog) = logging_handler(&inner);
        let s = outer.clone();
        outer.run_until(async move {
            s.sleep(SimDuration::from_nanos(10)).await;
            let i = inner.clone();
            inner.run_until(async move {
                i.sleep(SimDuration::from_nanos(3)).await;
                // Inside the nested run, the inner world is current.
                i.direct_waker(ih, 7).wake();
                yield_now().await;
            });
            s.direct_waker(oh, 8).wake();
            yield_now().await;
        });
        assert_eq!(*ilog.borrow(), vec![(3, 7)]);
        assert_eq!(*olog.borrow(), vec![(10, 8)]);
    }

    #[test]
    fn an_ending_world_takes_a_direct_wake_from_a_drop() {
        /// Wakes its waker when dropped, as a released slot wakes the
        /// next waiter.
        struct WakeOnDrop(Waker);
        impl Drop for WakeOnDrop {
            fn drop(&mut self) {
                self.0.wake_by_ref();
            }
        }
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let waker = sim.direct_waker(h, 1);
        sim.spawn_detached(async move {
            let _held = WakeOnDrop(waker);
            std::future::pending::<()>().await;
        });
        sim.run_until(async {});
        drop(sim);
        assert!(log.borrow().is_empty(), "the woken word was dropped unrun");
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
            let direct_waker = s.direct_waker(h, 2);
            assert!((ev.slot as usize) < WAKER_CHUNK);

            // Grow both arenas past three chunk boundaries: polled tasks
            // and parked events. A direct waker has no entry to move.
            let grow = 3 * WAKER_CHUNK + 1;
            for i in 0..grow {
                s.spawn_detached(std::future::pending::<()>());
                s.event_waker(h, 100 + i as u64);
            }
            yield_now().await;
            for arena in [&s.core.task_wakers, &s.core.event_wakers] {
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
                                let ev = s.schedule_event(s.now(), h, data);
                                armed.push((ev, data, s.now().as_nanos()));
                            }
                            SlabOp::Cancel { target } => {
                                if armed.is_empty() {
                                    continue;
                                }
                                let (ev, data, deadline) = armed[target % armed.len()];
                                let already_fired = log.borrow().iter().any(|&(_, d)| d == data);
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
