//! Hierarchical timer wheel: the executor's pending-timer store.
//!
//! Replaces the original `BinaryHeap<Reverse<TimerEntry>>` on the
//! simulator's hottest path. Every `Sim::sleep` is one insert and one
//! pop; with tens of millions of timers per benchmark run the heap's
//! `O(log n)` sift and its comparator dominated the profile. The wheel
//! makes inserts `O(1)` and pops one slot lookup plus, only for slots
//! holding several entries, a cascade:
//!
//! - 11 levels of 64 slots each (6 bits per level, 66 bits ≥ the full
//!   `u64` nanosecond clock); level `l` slots are `64^l` ns wide,
//! - an entry's level is the highest 6-bit group in which its deadline
//!   differs from the wheel's position (the *horizon*), and its slot is
//!   its deadline's group at that level,
//! - one occupancy bitmask word per level plus one word of occupied
//!   levels, so "earliest occupied slot" is two trailing-zeros counts.
//!
//! **Invariant.** An entry at level `l` shares every group above `l`
//! with the horizon and is strictly ahead of it in group `l` (level 0:
//! at or ahead), so every slot of a level lies ahead of the horizon's
//! slot there and the lowest set bit is the earliest slot, with no
//! wrap. It also orders the levels: level-`l` entries lie before the
//! end of the horizon's current level-`(l+1)` slot, and every entry
//! above level `l` at or after it. `pop` therefore claims the lowest
//! set bit of the lowest occupied level and looks at no other level.
//! Then:
//!
//! - a claimed slot holding one entry fires it at once, at any level,
//!   and moves the horizon to its deadline: every lower level is empty
//!   and the new horizon stays inside the same level-`(l+1)` slot, so
//!   every remaining entry keeps its level;
//! - a claimed slot holding several entries moves the horizon to the
//!   slot's start and cascades them, each to a strictly lower level;
//! - a level-0 slot is one nanosecond wide, so its entries share one
//!   deadline and fire in chain order.
//!
//! **Ties.** Equal deadlines fire in push order, the order the heap's
//! `(deadline, registration-seq)` key gave, with no sequence number
//! stored. Like 2.4's timer lists, every slot chain is FIFO: a push
//! appends at the chain's tail, and a cascade walks the chain from its
//! oldest block, re-appending each entry in turn. Every stored entry
//! sits in the slot that `store` would pick for it at the current
//! horizon (neither a lone pop nor a cascade's new horizon moves any
//! other entry's level or slot), so all entries of one deadline share
//! one chain, in push order, and a cascade moves them together and in
//! order into one chain below.
//!
//! The executor pops entries one at a time (each wake can re-arm
//! timers), so the wheel buffers a multi-entry level-0 slot in
//! `TimerWheel::pending` and drains it before advancing. New
//! registrations carry deadlines at or after the buffered batch's
//! (simulated time never runs backwards) and were pushed after it, so
//! they can never fire ahead of it.

/// Bits of the clock consumed per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed so `LEVELS * SLOT_BITS >= 64`.
const LEVELS: usize = 11;
/// Entries per pooled block: with the executor's one-word payload, 31
/// 16-byte entries and the 8-byte header make a 504-byte block.
const BLOCK_ENTRIES: usize = 31;
/// Chain terminator for slot heads, block links and the free list.
const NIL: u32 = u32::MAX;

/// One pending timer: fires at `deadline`; equal deadlines fire in push
/// order.
#[derive(Debug)]
pub struct WheelEntry<T> {
    /// Absolute deadline in nanoseconds.
    pub deadline: u64,
    /// The registered payload (the executor stores one ready-queue word).
    pub payload: T,
}

impl<T: Copy> WheelEntry<T> {
    #[inline]
    fn copied(&self) -> WheelEntry<T> {
        WheelEntry {
            deadline: self.deadline,
            payload: self.payload,
        }
    }
}

/// A pooled run of entries kept by value. A slot is a chain of blocks,
/// oldest first, whose last block is the only one that may be partly
/// filled; a free block links the pool's free list through `next`.
/// Every block with a successor is full, so its count is free to hold
/// something else: a chain's first block keeps the index of its last
/// there, and a push finds the tail with no per-slot table (one more
/// 2.75 KiB table per wheel measurably slowed world setup). (No
/// cache-line alignment: above 16 bytes the system allocator cannot
/// grow the pool in place and copies it at every doubling.)
#[repr(C)]
struct Block<T> {
    /// Next block of the slot's chain (or of the free list), or [`NIL`].
    next: u32,
    /// In a chain's last block, its filled entries, from the front; in
    /// the first block of a longer chain, the index of the last block.
    len_or_tail: u32,
    entries: [WheelEntry<T>; BLOCK_ENTRIES],
}

impl<T> Block<T> {
    /// The filled entries: all of them, unless this is a chain's last.
    #[inline]
    fn filled(&self) -> usize {
        if self.next == NIL {
            self.len_or_tail as usize
        } else {
            BLOCK_ENTRIES
        }
    }
}

/// The wheel itself, generic over a `Copy` payload so tests can model
/// it with plain integers. The executor stores one ready-queue word per
/// timer, so an entry is 16 bytes.
///
/// Entries live by value in 504-byte blocks drawn from one pool
/// (`blocks` plus a free list threaded through the vacant blocks);
/// `slots[level][slot]` heads a chain of blocks, and the head names the
/// chain's last. Pushing appends to the slot's last block, a cascade
/// streams each claimed block into its targets, oldest first, and
/// returns it to the pool, and a multi-entry level-0 slot is copied
/// into the reused `TimerWheel::pending` buffer. The pool holds at most
/// `ceil(live / 31)` full blocks plus one partial block per slot (704),
/// and once it and the buffer have grown to the working set,
/// steady-state operation performs no allocation at all, no matter
/// which slots the advancing horizon touches next.
pub struct TimerWheel<T: Copy> {
    /// Every block ever allocated, in use or on the free list.
    blocks: Vec<Block<T>>,
    /// Head of the free-block list (LIFO, so a block freed by a cascade
    /// is the next one reused while it is still in cache).
    free: u32,
    /// `slots[level][slot]` heads the block chain (or is [`NIL`]) of the
    /// entries whose deadline maps there relative to `horizon`, oldest
    /// block first.
    slots: Box<[[u32; SLOTS]; LEVELS]>,
    /// Per-level occupancy bitmasks; bit `s` set iff `slots[level][s]`
    /// is non-empty.
    occupied: [u64; LEVELS],
    /// Bit `l` set iff `occupied[l] != 0`.
    level_mask: u16,
    /// The wheel's position: no stored entry's deadline is below it.
    horizon: u64,
    /// The currently expiring multi-entry level-0 slot in reverse chain
    /// order, drained from the back (push order), so draining is a pop
    /// with no element shifting.
    pending: Vec<WheelEntry<T>>,
    /// Live entry count (stored + still pending).
    len: usize,
    /// Claimed slots whose entries were cascaded to lower levels.
    #[cfg(test)]
    cascades: usize,
}

impl<T: Copy> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T: Copy> TimerWheel<T> {
    /// Creates an empty wheel positioned at time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            blocks: Vec::new(),
            free: NIL,
            slots: Box::new([[NIL; SLOTS]; LEVELS]),
            occupied: [0; LEVELS],
            level_mask: 0,
            horizon: 0,
            pending: Vec::new(),
            len: 0,
            #[cfg(test)]
            cascades: 0,
        }
    }

    /// Number of timers waiting to fire.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The level at which `deadline` and the horizon first share a slot
    /// index: the highest 6-bit group where they differ. Picking the
    /// level from the XOR (rather than from the magnitude of the delay)
    /// guarantees the target slot is strictly ahead of the wheel's
    /// position at that level — a pure-delay rule can wrap a deadline
    /// like `horizon=63, deadline=4158` into a slot the wheel believes
    /// it has already passed.
    #[inline]
    fn level_for(xor: u64) -> usize {
        if xor == 0 {
            0
        } else {
            ((63 - xor.leading_zeros()) / SLOT_BITS) as usize
        }
    }

    #[inline]
    fn slot_index(deadline: u64, level: usize) -> usize {
        ((deadline >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
    }

    /// Appends `entry` at the end of the slot its deadline maps to.
    #[inline]
    fn store(&mut self, entry: WheelEntry<T>) {
        debug_assert!(entry.deadline >= self.horizon, "timer below the horizon");
        let level = Self::level_for(entry.deadline ^ self.horizon);
        let slot = Self::slot_index(entry.deadline, level);
        let head = self.slots[level][slot];
        if head == NIL {
            self.slots[level][slot] = self.take_block(entry);
            self.occupied[level] |= 1 << slot;
            self.level_mask |= 1 << level;
            return;
        }
        let first = &self.blocks[head as usize];
        let tail = if first.next == NIL {
            head
        } else {
            first.len_or_tail
        };
        let last = &mut self.blocks[tail as usize];
        let n = last.len_or_tail as usize;
        if n < BLOCK_ENTRIES {
            last.entries[n] = entry;
            last.len_or_tail += 1;
            return;
        }
        // The full last block links a new one, which the head now names.
        let idx = self.take_block(entry);
        self.blocks[tail as usize].next = idx;
        self.blocks[head as usize].len_or_tail = idx;
    }

    /// A block from the pool (or a new one) holding just `entry`, ending
    /// its chain.
    fn take_block(&mut self, entry: WheelEntry<T>) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let block = &mut self.blocks[idx as usize];
            self.free = block.next;
            block.next = NIL;
            block.len_or_tail = 1;
            block.entries[0] = entry;
            return idx;
        }
        let idx = u32::try_from(self.blocks.len()).expect("timer block pool overflow");
        self.blocks.push(Block {
            next: NIL,
            len_or_tail: 1,
            entries: std::array::from_fn(|_| entry.copied()),
        });
        idx
    }

    /// Returns block `idx` to the pool and yields the block it chained to.
    #[inline]
    fn release_block(&mut self, idx: u32) -> u32 {
        let block = &mut self.blocks[idx as usize];
        let next = block.next;
        block.next = self.free;
        self.free = idx;
        next
    }

    /// Registers a timer. Among equal deadlines it fires after every
    /// timer pushed before it.
    ///
    /// `deadline` must be at or after the last popped entry's deadline
    /// (simulated time never runs backwards).
    pub fn push(&mut self, deadline: u64, payload: T) {
        self.store(WheelEntry { deadline, payload });
        self.len += 1;
    }

    /// Absolute start time of `slot` at `level` within the horizon's
    /// current level-`(level + 1)` slot.
    #[inline]
    fn slot_start(&self, level: usize, slot: usize) -> u64 {
        let shift = SLOT_BITS * level as u32;
        let above = u64::MAX.checked_shl(shift + SLOT_BITS).unwrap_or(0);
        (self.horizon & above) | ((slot as u64) << shift)
    }

    /// Checks the invariant `pop` relies on when it claims `slot` of
    /// `level`: no lower level is occupied, and every occupied slot of
    /// this and every higher level lies ahead of the horizon's slot at
    /// that level (at or ahead, at level 0), so no higher-level entry
    /// can precede or tie with the claimed slot.
    fn debug_check_claim(&self, level: usize, slot: usize) {
        debug_assert_eq!(self.level_mask & ((1 << level) - 1), 0);
        debug_assert_eq!(slot, self.occupied[level].trailing_zeros() as usize);
        for l in level..LEVELS {
            if self.occupied[l] != 0 {
                let first = self.occupied[l].trailing_zeros() as usize;
                let cur = Self::slot_index(self.horizon, l);
                debug_assert!(
                    first > cur || (l == 0 && first == cur),
                    "level {l} slot {first} is not ahead of the horizon's slot {cur}"
                );
            }
        }
    }

    /// Removes and returns the earliest timer: the smallest deadline over
    /// everything pushed and not yet popped, the first pushed among
    /// equals.
    pub fn pop(&mut self) -> Option<WheelEntry<T>> {
        if let Some(entry) = self.pending.pop() {
            self.len -= 1;
            return Some(entry);
        }
        if self.len == 0 {
            return None;
        }
        loop {
            // The lowest occupied level holds the earliest entries, and
            // its lowest set bit their slot (see the module invariant).
            let level = self.level_mask.trailing_zeros() as usize;
            let slot = self.occupied[level].trailing_zeros() as usize;
            self.debug_check_claim(level, slot);
            let head = std::mem::replace(&mut self.slots[level][slot], NIL);
            self.occupied[level] &= !(1 << slot);
            if self.occupied[level] == 0 {
                self.level_mask &= !(1 << level);
            }
            let block = &self.blocks[head as usize];
            if block.filled() == 1 {
                // A lone entry fires from any level without cascading.
                let entry = block.entries[0].copied();
                self.release_block(head);
                debug_assert!(entry.deadline >= self.horizon);
                self.horizon = entry.deadline;
                self.len -= 1;
                return Some(entry);
            }
            let start = self.slot_start(level, slot);
            debug_assert!(start >= self.horizon);
            self.horizon = start;
            let mut idx = head;
            if level == 0 {
                // One-nanosecond slot: every entry's deadline is `start`,
                // and chain order is push order. Reversed so the back of
                // `pending` is the next to fire.
                debug_assert!(self.pending.is_empty());
                while idx != NIL {
                    let block = &self.blocks[idx as usize];
                    let filled = &block.entries[..block.filled()];
                    self.pending.extend(filled.iter().map(WheelEntry::copied));
                    idx = self.release_block(idx);
                }
                self.pending.reverse();
                self.len -= 1;
                return self.pending.pop();
            }
            // Cascade, oldest block first: relative to the new horizon
            // each entry's deadline now shares this level's group too, so
            // each lands strictly lower and the loop terminates.
            #[cfg(test)]
            {
                self.cascades += 1;
            }
            while idx != NIL {
                for i in 0..self.blocks[idx as usize].filled() {
                    let entry = self.blocks[idx as usize].entries[i].copied();
                    self.store(entry);
                }
                idx = self.release_block(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops everything left as `(deadline, payload)` pairs.
    fn drain(wheel: &mut TimerWheel<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = wheel.pop() {
            out.push((e.deadline, e.payload));
        }
        out
    }

    #[test]
    fn empty_wheel_pops_none() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert!(w.is_empty());
        assert!(w.pop().is_none());
    }

    #[test]
    fn single_timer_round_trips() {
        let mut w = TimerWheel::new();
        w.push(1_000_000, 7u32);
        let e = w.pop().unwrap();
        assert_eq!((e.deadline, e.payload), (1_000_000, 7));
        assert!(w.pop().is_none());
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut w = TimerWheel::new();
        for (i, d) in [5_000u64, 10, 1 << 40, 64, 63, 4096, 1].iter().enumerate() {
            w.push(*d, i as u32);
        }
        let fired: Vec<u64> = drain(&mut w).iter().map(|(d, _)| *d).collect();
        assert_eq!(fired, vec![1, 10, 63, 64, 4096, 5_000, 1 << 40]);
    }

    #[test]
    fn equal_deadlines_fire_in_push_order() {
        // Past one block, so the level-0 batch spans a chain of three.
        let n = 2 * BLOCK_ENTRIES as u32 + 5;
        let mut w = TimerWheel::new();
        for i in 0..n {
            w.push(777, i);
        }
        assert_eq!(drain(&mut w), (0..n).map(|i| (777, i)).collect::<Vec<_>>());
    }

    #[test]
    fn a_cascade_keeps_push_order_across_blocks() {
        // Three blocks of one far slot, their deadlines interleaved, so
        // the cascade must walk the chain oldest block first for each
        // deadline's entries to reach level 0 in push order.
        let n = 3 * BLOCK_ENTRIES as u32;
        let mut w = TimerWheel::new();
        for i in 0..n {
            w.push((9 << 30) + u64::from(i % 3), i);
        }
        let fired = drain(&mut w);
        let mut expected: Vec<(u64, u32)> =
            (0..n).map(|i| ((9 << 30) + u64::from(i % 3), i)).collect();
        expected.sort_unstable();
        assert_eq!(fired, expected);
        assert!(w.cascades >= 1);
    }

    #[test]
    fn late_push_of_an_early_pushed_deadline_fires_after_it() {
        // A far timer pushed first cascades down next to a later push of
        // the same deadline; push order still breaks the tie.
        let mut w = TimerWheel::new();
        w.push(100_000, 0u32); // pushed early, far away
        w.push(50, 1);
        assert_eq!(w.pop().unwrap().deadline, 50);
        // Now the wheel sits at 50; push the same deadline again.
        w.push(100_000, 2);
        assert_eq!(drain(&mut w), vec![(100_000, 0), (100_000, 2)]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut w = TimerWheel::new();
        w.push(10, 0u32);
        w.push(20, 1);
        assert_eq!(w.pop().unwrap().deadline, 10);
        // Push between pops, after the wheel advanced to 10.
        w.push(15, 2);
        w.push(1 << 30, 3);
        assert_eq!(w.pop().unwrap().deadline, 15);
        assert_eq!(w.pop().unwrap().deadline, 20);
        assert_eq!(w.pop().unwrap().deadline, 1 << 30);
        assert!(w.pop().is_none());
    }

    #[test]
    fn len_tracks_push_and_pop() {
        let mut w = TimerWheel::new();
        for i in 0..5u32 {
            w.push(100 + u64::from(i), i);
        }
        assert_eq!(w.len(), 5);
        w.pop();
        assert_eq!(w.len(), 4);
        drain(&mut w);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn huge_deadline_span() {
        let mut w = TimerWheel::new();
        w.push(u64::MAX - 1, 0u32);
        w.push(1, 1);
        assert_eq!(w.pop().unwrap().deadline, 1);
        assert_eq!(w.pop().unwrap().deadline, u64::MAX - 1);
    }

    #[test]
    fn one_word_payload_entries_are_16_bytes_in_504_byte_blocks() {
        // The executor's timers are one ready-queue word each.
        assert_eq!(std::mem::size_of::<WheelEntry<usize>>(), 16);
        assert_eq!(std::mem::size_of::<Block<usize>>(), 504);
    }

    #[test]
    fn lone_entries_fire_from_any_level_without_cascading() {
        let mut w = TimerWheel::new();
        let far = [
            1u64 << 10,
            1 << 20,
            1 << 40,
            17 << 36,
            (1 << 41) + 5,
            u64::MAX,
        ];
        for (i, &d) in far.iter().enumerate() {
            w.push(d, i as u32);
        }
        for &d in &far {
            let e = w.pop().unwrap();
            assert_eq!(e.deadline, d);
            assert_eq!(w.horizon, d, "a lone entry moves the horizon to itself");
        }
        assert_eq!(w.cascades, 0);
        // Two entries in one slot do cascade, once, then fire alone.
        let mut w = TimerWheel::new();
        w.push(5 << 30, 0u32);
        w.push((5 << 30) + 7, 1);
        assert_eq!(drain(&mut w), vec![(5 << 30, 0), ((5 << 30) + 7, 1)]);
        assert_eq!(w.cascades, 1);
    }

    #[test]
    fn equal_deadlines_pushed_at_different_horizons_fire_in_push_order() {
        // The same deadline lands at level 4 when pushed at time 0 and
        // ever lower as lone timers walk the horizon towards it, down to
        // level 0 once the horizon reaches it; each cascade carries the
        // earlier entries down, in order, to the chain the later ones join.
        let d = (3 << 24) + 100;
        let mut w = TimerWheel::new();
        w.push(d, 0u32);
        let mut i = 1;
        for step in [1, 1 << 20, 3 << 24, (3 << 24) + 64, d - 1] {
            w.push(step, i);
            assert_eq!(w.pop().unwrap().deadline, step);
            w.push(d, i + 1);
            i += 2;
        }
        assert_eq!(w.pop().unwrap().payload, 0);
        // Pushed at the horizon, behind the buffered batch.
        w.push(d, i);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, p)| p).collect();
        assert_eq!(order, vec![2, 4, 6, 8, 10, 11]);
    }

    #[test]
    fn block_pool_stays_bounded_and_a_repeated_cycle_allocates_nothing() {
        // One launch-burst cycle: 5,000 timers spread over ~1 ms pushed
        // at once, drained with a short re-arm after every fifth pop.
        // The second cycle runs the same offsets from horizon 2^60,
        // whose bits below 60 are all zero, so every entry lands on the
        // same level and slot as in the first.
        fn cycle(w: &mut TimerWheel<u32>, base: u64, marker: u64) -> usize {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut peak = 0;
            for _ in 0..5_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                w.push(base + 1 + (x % 1_000_000), 0);
            }
            w.push(marker, 0);
            let mut n = 0;
            while let Some(e) = w.pop() {
                peak = peak.max(w.len() + 1);
                let bound = w.len().div_ceil(BLOCK_ENTRIES) + LEVELS * SLOTS;
                assert!(w.blocks.len() - free_blocks(w) <= bound);
                n += 1;
                if n % 5 == 0 && e.deadline < base + 1_000_000 {
                    w.push(e.deadline + 1 + (n as u64 % 300), 0);
                }
                if e.deadline == marker {
                    break;
                }
            }
            peak
        }
        fn free_blocks(w: &TimerWheel<u32>) -> usize {
            let mut n = 0;
            let mut idx = w.free;
            while idx != NIL {
                n += 1;
                idx = w.blocks[idx as usize].next;
            }
            n
        }
        let mut w = TimerWheel::new();
        let peak = cycle(&mut w, 0, 1 << 60);
        assert!(w.is_empty());
        assert!(w.blocks.len() <= peak.div_ceil(BLOCK_ENTRIES) + LEVELS * SLOTS);
        let (blocks, pending) = (w.blocks.capacity(), w.pending.capacity());
        cycle(&mut w, 1 << 60, 1 << 61);
        assert!(w.is_empty());
        assert_eq!(free_blocks(&w), w.blocks.len());
        assert_eq!(w.blocks.capacity(), blocks, "second cycle grew the pool");
        assert_eq!(w.pending.capacity(), pending);
    }
}
