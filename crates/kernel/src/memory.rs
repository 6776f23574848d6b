//! Client memory model: dirty-page accounting and writer throttling.
//!
//! The paper's Figures 1 and 7 hinge on what happens when the benchmark
//! file outgrows client RAM (256 MB): the VFS blocks the writer until
//! writeback frees pages, so application throughput collapses to
//! network/server/disk speed. This module models that with a CAWL-style
//! page budget: ratio-driven thresholds ([`MemTuning`]), pinned pages
//! segmented by writeback state ([`PageSeg`]), FIFO writer throttling at
//! the hard limit, and an edge-triggered kick for the write-behind daemon
//! at the background threshold.
//!
//! ## Determinism
//!
//! Handoff at the hard limit is grant-based: `release_pages` transfers
//! freed capacity directly to the longest-waiting writer instead of
//! letting woken writers race fresh pinners. A fresh pin joins the back
//! of the queue whenever capacity is already spoken for, so writers pin
//! in strict arrival order and no sleeper can be stranded by a barger.
//! Grants assume a woken writer completes its pin (writer tasks are
//! never cancelled mid-pin in this simulator).

use std::cell::Cell;

use nfsperf_sim::{Sim, SimDuration, SimTime, WaitQueue};

/// Dirty-memory thresholds as a fraction of the page-cache, in 1/256ths.
///
/// Mirrors Linux's `dirty_ratio`/`dirty_background_ratio` sysctls but in
/// per-256 fixed point so the 2.4-era defaults are *exact*: 224/256 is
/// precisely the old hardcoded 7/8 page-cache share, and 112/256 is
/// precisely half of it, so default tuning reproduces the historical
/// limits bit-for-bit at every RAM size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTuning {
    /// Pinned-page hard limit as a fraction of RAM pages, per 256.
    /// Writers block (or, with foreground throttling, do writeback
    /// themselves) above this. Default 224 (= 7/8).
    pub dirty_ratio: u32,
    /// Background writeback threshold, per 256. The write-behind daemon
    /// is kicked when pinned pages cross this. Default 112 (= 7/16,
    /// i.e. half the hard limit — 2.4's `bdflush` ~40–60 % dirty).
    pub dirty_background_ratio: u32,
}

impl Default for MemTuning {
    fn default() -> MemTuning {
        MemTuning {
            dirty_ratio: 224,
            dirty_background_ratio: 112,
        }
    }
}

/// Which writeback stage a pinned page is in.
///
/// A page moves `Dirty` → `Writeback` when its WRITE is put on the wire,
/// `Writeback` → `Unstable` when an UNSTABLE reply pins it awaiting
/// COMMIT, and back to `Dirty` when a write must be redone (transport
/// error, COMMIT verifier mismatch). It is released from `Writeback`
/// (stable write done) or `Unstable` (COMMIT confirmed) — or straight
/// from `Dirty` for local filesystems that write synchronously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageSeg {
    /// Dirtied by the application, not yet scheduled for writeback.
    Dirty,
    /// WRITE in flight (or stable write being performed).
    Writeback,
    /// Unstable WRITE acknowledged; pinned until COMMIT confirms it.
    Unstable,
}

impl PageSeg {
    fn index(self) -> usize {
        match self {
            PageSeg::Dirty => 0,
            PageSeg::Writeback => 1,
            PageSeg::Unstable => 2,
        }
    }
}

/// Dirty-page budget with writer throttling.
///
/// "Dirty" here means *pinned by an outstanding write*: for NFS a page
/// stays pinned until its WRITE (and, for unstable writes, COMMIT) is
/// complete; for ext2 until `bdflush` has written it to disk. The three
/// [`PageSeg`] counters partition the pinned total; the hard and
/// background limits apply to the total, exactly as 2.4 accounted
/// `nr_dirty + nr_writeback` against `bdflush` thresholds.
pub struct MemoryModel {
    sim: Sim,
    /// Pages that may be pinned before writers block.
    hard_limit: usize,
    /// Pinned level above which background writeback should run.
    background_limit: usize,
    /// Pinned pages by segment: `[dirty, writeback, unstable]`.
    segs: [Cell<usize>; 3],
    /// Freed capacity already promised to woken writers (S1 handoff).
    granted: Cell<usize>,
    background_kicks: Cell<u64>,
    peak_dirty: Cell<usize>,
    throttle_events: Cell<u64>,
    throttle_time: Cell<u64>,
    /// Writers blocked on the hard limit, in arrival order.
    throttled: WaitQueue,
    /// Writeback daemons waiting for the background threshold.
    writeback_kick: WaitQueue,
}

impl MemoryModel {
    /// Creates a budget of `hard_limit` pinnable pages with background
    /// writeback starting at `background_limit`.
    ///
    /// # Panics
    ///
    /// Panics if `background_limit > hard_limit` or `hard_limit == 0`.
    pub fn new(sim: &Sim, hard_limit: usize, background_limit: usize) -> MemoryModel {
        assert!(hard_limit > 0, "page budget must be positive");
        assert!(
            background_limit <= hard_limit,
            "background limit {background_limit} exceeds hard limit {hard_limit}"
        );
        MemoryModel {
            sim: sim.clone(),
            hard_limit,
            background_limit,
            segs: [Cell::new(0), Cell::new(0), Cell::new(0)],
            granted: Cell::new(0),
            background_kicks: Cell::new(0),
            peak_dirty: Cell::new(0),
            throttle_events: Cell::new(0),
            throttle_time: Cell::new(0),
            throttled: WaitQueue::new(),
            writeback_kick: WaitQueue::new(),
        }
    }

    /// Builds a model sized for `ram_bytes` of RAM under default (2.4
    /// `bdflush`-era) tuning: hard limit at 7/8 of RAM pages, background
    /// writeback from half of that.
    pub fn for_ram(sim: &Sim, ram_bytes: u64) -> MemoryModel {
        MemoryModel::for_ram_tuned(sim, ram_bytes, MemTuning::default())
    }

    /// Builds a model sized for `ram_bytes` of RAM with explicit
    /// dirty-ratio tuning.
    ///
    /// # Panics
    ///
    /// Panics if `dirty_ratio` is 0 or over 256, or if
    /// `dirty_background_ratio` exceeds `dirty_ratio`.
    pub fn for_ram_tuned(sim: &Sim, ram_bytes: u64, tuning: MemTuning) -> MemoryModel {
        assert!(
            tuning.dirty_ratio > 0 && tuning.dirty_ratio <= 256,
            "dirty_ratio must be in 1..=256 (per-256 fixed point)"
        );
        assert!(
            tuning.dirty_background_ratio <= tuning.dirty_ratio,
            "dirty_background_ratio {} exceeds dirty_ratio {}",
            tuning.dirty_background_ratio,
            tuning.dirty_ratio
        );
        let pages = (ram_bytes / crate::page::PAGE_SIZE) as usize;
        let hard = pages * tuning.dirty_ratio as usize / 256;
        let background = pages * tuning.dirty_background_ratio as usize / 256;
        MemoryModel::new(sim, hard.max(1), background.min(hard.max(1)))
    }

    fn total(&self) -> usize {
        self.segs[0].get() + self.segs[1].get() + self.segs[2].get()
    }

    /// `true` when a fresh pin must join the throttle queue: either all
    /// capacity is pinned or promised to already-woken writers, or older
    /// writers are still queued (FIFO — no barging past them).
    fn must_queue(&self) -> bool {
        self.total() + self.granted.get() >= self.hard_limit || !self.throttled.is_empty()
    }

    /// Hands freed capacity to the longest-waiting writers, one grant per
    /// free page, preserving arrival order.
    fn grant_freed_capacity(&self) {
        while self.total() + self.granted.get() < self.hard_limit && self.throttled.wake_one() {
            self.granted.set(self.granted.get() + 1);
        }
    }

    /// Pins one page as dirty, blocking while the hard limit is reached.
    ///
    /// Wakes background writeback when *crossing* the background
    /// threshold (edge-triggered: one kick per excursion over the limit).
    pub async fn pin_dirty_page(&self) {
        if self.must_queue() {
            self.throttle_events.set(self.throttle_events.get() + 1);
            // Make sure writeback is running before we sleep on it.
            self.writeback_kick.wake_all();
            let began: SimTime = self.sim.now();
            self.throttled.wait().await;
            // Woken only by grant_freed_capacity, which reserved a page
            // for us — consume the grant and pin without re-racing.
            let g = self.granted.get();
            debug_assert!(g > 0, "throttled writer woken without a grant");
            self.granted.set(g - 1);
            let waited = self.sim.now().since(began).as_nanos();
            self.throttle_time.set(self.throttle_time.get() + waited);
        }
        let seg = &self.segs[PageSeg::Dirty.index()];
        seg.set(seg.get() + 1);
        let total = self.total();
        debug_assert!(total <= self.hard_limit, "pinned past the hard limit");
        self.peak_dirty.set(self.peak_dirty.get().max(total));
        if total == self.background_limit + 1 {
            self.background_kicks.set(self.background_kicks.get() + 1);
            self.writeback_kick.wake_all();
        }
    }

    /// Writeback kicks issued from the pin path on the background
    /// threshold (one per excursion over the limit).
    pub fn background_kicks(&self) -> u64 {
        self.background_kicks.get()
    }

    /// Moves `n` pinned pages from one writeback segment to another
    /// (e.g. `Dirty` → `Writeback` when a batch is put on the wire).
    /// The pinned total is unchanged, so no writers are woken.
    ///
    /// # Panics
    ///
    /// Panics if segment `from` holds fewer than `n` pages.
    pub fn move_pages(&self, from: PageSeg, to: PageSeg, n: usize) {
        let src = &self.segs[from.index()];
        let have = src.get();
        assert!(
            have >= n,
            "move_pages underflow: moving {n} from {from:?} with {have} pinned"
        );
        src.set(have - n);
        let dst = &self.segs[to.index()];
        dst.set(dst.get() + n);
    }

    /// Unpins `n` pages from segment `seg` (their writes are durable or
    /// COMMIT-confirmed), handing freed capacity to throttled writers in
    /// FIFO order.
    ///
    /// # Panics
    ///
    /// Panics if segment `seg` holds fewer than `n` pages — a
    /// double-release bug in the caller.
    pub fn release_pages(&self, seg: PageSeg, n: usize) {
        let src = &self.segs[seg.index()];
        let have = src.get();
        assert!(
            have >= n,
            "release_pages underflow: releasing {n} from {seg:?} with {have} pinned"
        );
        src.set(have - n);
        self.grant_freed_capacity();
    }

    /// Unpins one `Dirty` page, waking one throttled writer.
    ///
    /// Shorthand for local filesystems whose pages never leave the
    /// `Dirty` segment; NFS paths release from the segment the page is
    /// actually in via [`MemoryModel::release_pages`].
    ///
    /// # Panics
    ///
    /// Panics if no page is pinned — a double-release bug in the caller.
    pub fn release_page(&self) {
        assert!(
            self.segs[PageSeg::Dirty.index()].get() > 0,
            "release_page with no pinned pages"
        );
        self.release_pages(PageSeg::Dirty, 1);
    }

    /// Parks a writeback daemon until the background threshold is crossed
    /// (or someone kicks writeback explicitly), or until `timeout` elapses.
    pub async fn wait_for_writeback_work(&self, timeout: SimDuration) {
        if self.total() > self.background_limit {
            return;
        }
        let deadline = self.sim.now() + timeout;
        let kicked = self.writeback_kick.wait();
        let timer = self.sim.sleep_until(deadline);
        // Wait for whichever comes first; both are cheap to abandon.
        nfsperf_sim::select2(kicked, timer).await;
    }

    /// Explicitly kicks writeback daemons (e.g. on `fsync`).
    pub fn kick_writeback(&self) {
        self.writeback_kick.wake_all();
    }

    /// Total currently pinned pages across all segments.
    pub fn dirty_pages(&self) -> usize {
        self.total()
    }

    /// Currently pinned pages in one writeback segment.
    pub fn seg_pages(&self, seg: PageSeg) -> usize {
        self.segs[seg.index()].get()
    }

    /// Highest pinned-page level seen.
    pub fn peak_dirty_pages(&self) -> usize {
        self.peak_dirty.get()
    }

    /// `true` if background writeback should run.
    pub fn over_background_limit(&self) -> bool {
        self.total() > self.background_limit
    }

    /// `true` if the pinned total has reached the hard limit — a fresh
    /// pin would block (or should do foreground writeback first).
    pub fn over_hard_limit(&self) -> bool {
        self.total() + self.granted.get() >= self.hard_limit
    }

    /// The hard (blocking) limit in pages.
    pub fn hard_limit(&self) -> usize {
        self.hard_limit
    }

    /// The background-writeback threshold in pages.
    pub fn background_limit(&self) -> usize {
        self.background_limit
    }

    /// How many times a writer hit the hard limit.
    pub fn throttle_events(&self) -> u64 {
        self.throttle_events.get()
    }

    /// Records a foreground-throttle event (a writer over the dirty
    /// ratio doing its own writeback in `balance_dirty_pages` style).
    pub fn note_throttle_event(&self) {
        self.throttle_events.set(self.throttle_events.get() + 1);
    }

    /// Adds time a writer spent doing or awaiting foreground writeback.
    pub fn add_throttle_time(&self, d: SimDuration) {
        self.throttle_time
            .set(self.throttle_time.get() + d.as_nanos());
    }

    /// Total time writers spent blocked on the hard limit (including
    /// foreground writeback time under `balance_dirty_pages` throttling).
    pub fn throttle_time(&self) -> SimDuration {
        SimDuration(self.throttle_time.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::Sim;
    use std::rc::Rc;

    #[test]
    fn pin_and_release_track_counts() {
        let sim = Sim::new();
        let mem = Rc::new(MemoryModel::new(&sim, 10, 5));
        let m = Rc::clone(&mem);
        sim.run_until(async move {
            for _ in 0..7 {
                m.pin_dirty_page().await;
            }
            assert_eq!(m.dirty_pages(), 7);
            assert!(m.over_background_limit());
            m.release_page();
            assert_eq!(m.dirty_pages(), 6);
            assert_eq!(m.peak_dirty_pages(), 7);
        });
    }

    #[test]
    fn writer_blocks_at_hard_limit() {
        let sim = Sim::new();
        let mem = Rc::new(MemoryModel::new(&sim, 2, 1));
        let m = Rc::clone(&mem);
        let s = sim.clone();
        let writer = sim.spawn(async move {
            for _ in 0..3 {
                m.pin_dirty_page().await;
            }
            s.now()
        });
        let m2 = Rc::clone(&mem);
        let s2 = sim.clone();
        let done_at = sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(50)).await;
            assert_eq!(m2.dirty_pages(), 2, "third pin must be blocked");
            m2.release_page();
            writer.await
        });
        assert_eq!(done_at.as_nanos(), 50_000);
        assert_eq!(mem.throttle_events(), 1);
        assert_eq!(mem.throttle_time().as_micros(), 50);
        assert_eq!(mem.dirty_pages(), 2);
    }

    #[test]
    fn for_ram_sizes_sensibly() {
        let sim = Sim::new();
        let mem = MemoryModel::for_ram(&sim, 256 * 1024 * 1024);
        // 65536 pages of RAM; hard limit 7/8 of that.
        assert_eq!(mem.hard_limit(), 57_344);
        assert_eq!(mem.background_limit(), 28_672);
    }

    #[test]
    fn writeback_wait_returns_on_kick() {
        let sim = Sim::new();
        let mem = Rc::new(MemoryModel::new(&sim, 100, 50));
        let m = Rc::clone(&mem);
        let s = sim.clone();
        let daemon = sim.spawn(async move {
            m.wait_for_writeback_work(SimDuration::from_secs(60)).await;
            s.now()
        });
        let m2 = Rc::clone(&mem);
        let s2 = sim.clone();
        let woke_at = sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(10)).await;
            m2.kick_writeback();
            daemon.await
        });
        assert_eq!(woke_at.as_nanos(), 10_000, "kick should beat the timeout");
    }

    #[test]
    fn writeback_wait_returns_on_timeout() {
        let sim = Sim::new();
        let mem = Rc::new(MemoryModel::new(&sim, 100, 50));
        let m = Rc::clone(&mem);
        let s = sim.clone();
        let woke_at = sim.run_until(async move {
            m.wait_for_writeback_work(SimDuration::from_millis(5)).await;
            s.now()
        });
        assert_eq!(woke_at.as_nanos(), 5_000_000);
    }

    #[test]
    fn writeback_wait_immediate_when_over_limit() {
        let sim = Sim::new();
        let mem = Rc::new(MemoryModel::new(&sim, 100, 2));
        let m = Rc::clone(&mem);
        sim.run_until(async move {
            for _ in 0..3 {
                m.pin_dirty_page().await;
            }
            m.wait_for_writeback_work(SimDuration::from_secs(60)).await;
            // Reaching here without the deadlock panic is the assertion.
        });
        assert_eq!(sim.now().as_nanos(), 0);
    }

    #[test]
    fn throttled_writers_hand_off_fifo_without_barging() {
        // Satellite regression: with N writers parked at the hard limit,
        // a fresh pin racing a `release_page` wake must not steal the
        // freed slot from the queue head. Handoff is FIFO: parked writers
        // pin in arrival order, and the late "barger" pins last.
        let sim = Sim::new();
        let mem = Rc::new(MemoryModel::new(&sim, 2, 2));
        let order = Rc::new(std::cell::RefCell::new(Vec::new()));
        let m0 = Rc::clone(&mem);
        let s0 = sim.clone();
        sim.run_until(async move {
            m0.pin_dirty_page().await;
            m0.pin_dirty_page().await;
            // Four writers park on the hard limit in a known order.
            for i in 0..4u32 {
                let m = Rc::clone(&m0);
                let s = s0.clone();
                let ord = Rc::clone(&order);
                s0.spawn(async move {
                    s.sleep(SimDuration::from_micros(u64::from(i) + 1)).await;
                    m.pin_dirty_page().await;
                    ord.borrow_mut().push(i);
                });
            }
            // At t=10 µs a page is released and, in the same task before
            // the woken writer can run, a fresh writer pins ("barger").
            {
                let m = Rc::clone(&m0);
                let ord = Rc::clone(&order);
                let s = s0.clone();
                s0.spawn(async move {
                    s.sleep(SimDuration::from_micros(10)).await;
                    m.release_page();
                    m.pin_dirty_page().await;
                    ord.borrow_mut().push(99);
                });
            }
            // Four more releases let everyone through.
            let m = Rc::clone(&m0);
            let s = s0.clone();
            s0.spawn(async move {
                for k in 0..4u64 {
                    s.sleep(SimDuration::from_micros(20 + k)).await;
                    m.release_page();
                }
            });
            s0.sleep(SimDuration::from_millis(1)).await;
            assert_eq!(
                *order.borrow(),
                vec![0, 1, 2, 3, 99],
                "handoff must be FIFO: parked writers first, barger last"
            );
        });
        assert_eq!(mem.dirty_pages(), 2, "5 pins released 5 times from 2+5");
    }

    #[test]
    fn background_kick_fires_once_per_excursion() {
        // Satellite regression: crossing the background threshold kicks
        // writeback exactly once; pins while already over the limit must
        // not re-kick (the old code called `wake_all` on every pin).
        let sim = Sim::new();
        let mem = Rc::new(MemoryModel::new(&sim, 100, 2));
        let m = Rc::clone(&mem);
        sim.run_until(async move {
            for _ in 0..10 {
                m.pin_dirty_page().await;
            }
            assert_eq!(m.background_kicks(), 1, "one kick per excursion");
            // Drain below the threshold and cross it again: a second
            // excursion earns exactly one more kick.
            for _ in 0..10 {
                m.release_page();
            }
            for _ in 0..3 {
                m.pin_dirty_page().await;
            }
            assert_eq!(m.background_kicks(), 2);
        });
    }

    #[test]
    fn parked_daemon_wakes_once_per_excursion() {
        // The daemon side of the same regression: a parked daemon is
        // woken once when the threshold is crossed, drains, re-parks, and
        // is woken once more by the next excursion — and the entry check
        // in `wait_for_writeback_work` still catches work that arrived
        // while the daemon was busy (no lost kick).
        let sim = Sim::new();
        let mem = Rc::new(MemoryModel::new(&sim, 100, 2));
        let wakes = Rc::new(Cell::new(0u32));
        let m = Rc::clone(&mem);
        let w = Rc::clone(&wakes);
        let s = sim.clone();
        sim.spawn(async move {
            loop {
                m.wait_for_writeback_work(SimDuration::from_secs(3600))
                    .await;
                w.set(w.get() + 1);
                // "Writeback": drain everything, then re-park.
                s.sleep(SimDuration::from_micros(5)).await;
                while m.dirty_pages() > 0 {
                    m.release_page();
                }
            }
        });
        let m2 = Rc::clone(&mem);
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(1)).await;
            for _ in 0..10 {
                m2.pin_dirty_page().await;
            }
            s2.sleep(SimDuration::from_micros(50)).await;
            assert_eq!(wakes.get(), 1, "first excursion: exactly one wake");
            for _ in 0..5 {
                m2.pin_dirty_page().await;
            }
            s2.sleep(SimDuration::from_micros(50)).await;
            assert_eq!(wakes.get(), 2, "second excursion: exactly one more");
        });
    }

    #[test]
    #[should_panic(expected = "release_page with no pinned pages")]
    fn double_release_panics() {
        let sim = Sim::new();
        let mem = MemoryModel::new(&sim, 4, 2);
        mem.release_page();
    }

    #[test]
    #[should_panic(expected = "release_pages underflow")]
    fn segment_release_underflow_panics() {
        let sim = Sim::new();
        let mem = MemoryModel::new(&sim, 4, 2);
        mem.release_pages(PageSeg::Unstable, 1);
    }

    #[test]
    #[should_panic(expected = "move_pages underflow")]
    fn segment_move_underflow_panics() {
        let sim = Sim::new();
        let mem = MemoryModel::new(&sim, 4, 2);
        mem.move_pages(PageSeg::Dirty, PageSeg::Writeback, 1);
    }

    #[test]
    fn default_tuning_matches_bdflush_constants() {
        // The per-256 ratios must reproduce the historical hardcoded
        // thresholds exactly — hard = pages*7/8, background = hard/2 —
        // at every RAM size, so default-tuning sweeps stay bit-identical.
        let sim = Sim::new();
        for ram in [
            16u64 << 20,
            64 << 20,
            256 << 20,
            1 << 30,
            4u64 << 30,
            123_456_789,
            (512 << 20) + 4096 * 3,
        ] {
            let mem = MemoryModel::for_ram(&sim, ram);
            let pages = (ram / crate::page::PAGE_SIZE) as usize;
            let old_hard = pages * 7 / 8;
            assert_eq!(mem.hard_limit(), old_hard, "ram={ram}");
            assert_eq!(mem.background_limit(), old_hard / 2, "ram={ram}");
            let tuned = MemoryModel::for_ram_tuned(&sim, ram, MemTuning::default());
            assert_eq!(tuned.hard_limit(), mem.hard_limit());
            assert_eq!(tuned.background_limit(), mem.background_limit());
        }
    }

    #[test]
    fn segments_partition_the_pinned_total() {
        let sim = Sim::new();
        let mem = Rc::new(MemoryModel::new(&sim, 10, 5));
        let m = Rc::clone(&mem);
        sim.run_until(async move {
            for _ in 0..6 {
                m.pin_dirty_page().await;
            }
            m.move_pages(PageSeg::Dirty, PageSeg::Writeback, 4);
            m.move_pages(PageSeg::Writeback, PageSeg::Unstable, 3);
            assert_eq!(m.seg_pages(PageSeg::Dirty), 2);
            assert_eq!(m.seg_pages(PageSeg::Writeback), 1);
            assert_eq!(m.seg_pages(PageSeg::Unstable), 3);
            assert_eq!(m.dirty_pages(), 6, "moves must not change the total");
            assert!(m.over_background_limit());
            m.release_pages(PageSeg::Unstable, 3);
            m.release_pages(PageSeg::Writeback, 1);
            assert_eq!(m.dirty_pages(), 2);
            assert_eq!(m.peak_dirty_pages(), 6);
        });
    }

    #[test]
    fn moves_do_not_wake_throttled_writers() {
        // A Dirty → Writeback transition changes no capacity; a writer
        // blocked at the hard limit must stay blocked until a release.
        let sim = Sim::new();
        let mem = Rc::new(MemoryModel::new(&sim, 2, 1));
        let m = Rc::clone(&mem);
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            for _ in 0..3 {
                m.pin_dirty_page().await;
            }
            d.set(true);
        });
        let m2 = Rc::clone(&mem);
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(10)).await;
            m2.move_pages(PageSeg::Dirty, PageSeg::Writeback, 2);
            s2.sleep(SimDuration::from_micros(10)).await;
            assert!(!done.get(), "move must not unblock the writer");
            m2.release_pages(PageSeg::Writeback, 1);
            s2.sleep(SimDuration::from_micros(10)).await;
            assert!(done.get(), "release must unblock the writer");
        });
        assert_eq!(mem.dirty_pages(), 2);
    }

    /// One generated op-script case for the segmented-model proptest:
    /// random limits plus a byte-coded sequence of pin/move/release ops.
    fn run_memory_script(hard: usize, background: usize, ops: &[u8]) -> Result<(), String> {
        use std::cell::RefCell;

        let sim = Sim::new();
        let mem = Rc::new(MemoryModel::new(&sim, hard, background));
        let errors: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let pins_started = Rc::new(Cell::new(0usize));
        let pins_done = Rc::new(Cell::new(0usize));
        let m = Rc::clone(&mem);
        let errs = Rc::clone(&errors);
        let started = Rc::clone(&pins_started);
        let finished = Rc::clone(&pins_done);
        let s = sim.clone();
        let ops = ops.to_vec();
        sim.run_until(async move {
            let mut last_throttle = SimDuration(0);
            for &op in &ops {
                match op % 6 {
                    // Writers may block at the hard limit; run each as a
                    // task so the script keeps executing (and releasing).
                    0 | 1 => {
                        started.set(started.get() + 1);
                        let m = Rc::clone(&m);
                        let fin = Rc::clone(&finished);
                        s.spawn(async move {
                            m.pin_dirty_page().await;
                            fin.set(fin.get() + 1);
                        });
                    }
                    2 => {
                        if m.seg_pages(PageSeg::Dirty) > 0 {
                            m.move_pages(PageSeg::Dirty, PageSeg::Writeback, 1);
                        }
                    }
                    3 => {
                        if m.seg_pages(PageSeg::Writeback) > 0 {
                            m.move_pages(PageSeg::Writeback, PageSeg::Unstable, 1);
                        }
                    }
                    4 => {
                        if m.seg_pages(PageSeg::Unstable) > 0 {
                            m.release_pages(PageSeg::Unstable, 1);
                        } else if m.seg_pages(PageSeg::Writeback) > 0 {
                            m.release_pages(PageSeg::Writeback, 1);
                        } else if m.seg_pages(PageSeg::Dirty) > 0 {
                            m.release_page();
                        }
                    }
                    _ => s.sleep(SimDuration::from_micros(1)).await,
                }
                s.sleep(SimDuration::from_nanos(100)).await;
                if m.dirty_pages() > hard {
                    errs.borrow_mut()
                        .push(format!("total {} over hard limit {hard}", m.dirty_pages()));
                }
                if m.throttle_time() < last_throttle {
                    errs.borrow_mut()
                        .push("throttle_time went backwards".into());
                }
                last_throttle = m.throttle_time();
            }
            // Full drain: release whatever is pinned until every writer
            // has pinned and released; bounded so a stranded writer (a
            // lost wakeup) fails the property instead of hanging it.
            let mut steps = 0usize;
            while finished.get() < started.get() || m.dirty_pages() > 0 {
                steps += 1;
                if steps > 10 * ops.len() + 100 {
                    errs.borrow_mut().push(format!(
                        "drain stuck: {}/{} pins done, {} pages pinned",
                        finished.get(),
                        started.get(),
                        m.dirty_pages()
                    ));
                    break;
                }
                for seg in [PageSeg::Unstable, PageSeg::Writeback, PageSeg::Dirty] {
                    if m.seg_pages(seg) > 0 {
                        m.release_pages(seg, 1);
                        break;
                    }
                }
                s.sleep(SimDuration::from_micros(1)).await;
            }
        });
        let errs = errors.borrow();
        if let Some(e) = errs.first() {
            return Err(e.clone());
        }
        if mem.dirty_pages() != 0 {
            return Err(format!(
                "{} pages pinned after full drain",
                mem.dirty_pages()
            ));
        }
        Ok(())
    }

    #[test]
    fn prop_segmented_model_invariants() {
        use nfsperf_sim::proptest::{check, CaseOutcome};

        // Random limits and op scripts: the pinned total never exceeds
        // the hard limit, throttle_time is monotone, no writer is ever
        // stranded, and a full drain leaves zero pinned pages.
        check(
            "memory_segment_invariants",
            |g| {
                let hard = g.usize_in(1, 12);
                let background = g.usize_in(0, hard + 1);
                let ops = g.vec(0, 120, |g| g.any_u8());
                (hard, background, ops)
            },
            |(hard, background, ops)| {
                // Shrunk candidates may fall outside the generated
                // ranges; clamp to the constructor's invariants.
                let hard = (*hard).max(1);
                match run_memory_script(hard, (*background).min(hard), ops) {
                    Ok(()) => CaseOutcome::Pass,
                    Err(e) => CaseOutcome::Fail(e),
                }
            },
        );
    }
}
