//! Hierarchical timer wheel: the executor's pending-timer store.
//!
//! Replaces the original `BinaryHeap<Reverse<TimerEntry>>` on the
//! simulator's hottest path. Every `Sim::sleep` is one insert and one
//! pop; with tens of millions of timers per benchmark run the heap's
//! `O(log n)` sift and its comparator dominated the profile. The wheel
//! makes inserts `O(1)` and pops `O(levels)` with small constants:
//!
//! - 11 levels of 64 slots each (6 bits per level, 66 bits ≥ the full
//!   `u64` nanosecond clock); level `l` slots are `64^l` ns wide,
//! - one occupancy bitmask word per level, so "earliest non-empty slot"
//!   is a rotate plus a trailing-zeros count, never a scan,
//! - expiring slots above level 0 cascade their entries down; level-0
//!   slots are one nanosecond wide, so every entry in one holds the
//!   same deadline and a sort by registration sequence reproduces the
//!   heap's exact `(deadline, seq)` firing order bit for bit.
//!
//! The executor pops entries one at a time (each wake can re-arm
//! timers), so the wheel buffers the current expiring slot in
//! `TimerWheel::pending` and drains it before advancing. New
//! registrations always carry deadlines strictly after `now`, so they
//! can never tie with (or precede) the buffered batch.

/// Bits of the clock consumed per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels needed so `LEVELS * SLOT_BITS >= 64`.
const LEVELS: usize = 11;

/// One pending timer: fires at `deadline`; equal deadlines fire in
/// ascending `seq` (registration) order.
#[derive(Debug)]
pub struct WheelEntry<T> {
    /// Absolute deadline in nanoseconds.
    pub deadline: u64,
    /// Registration sequence number, unique per wheel.
    pub seq: u64,
    /// The registered payload (the executor stores one ready-queue word).
    pub payload: T,
}

/// The wheel itself, generic over a `Copy` payload so tests can model
/// it with plain integers. The executor stores one ready-queue word per
/// timer, so a slab record is 32 bytes.
///
/// Entries live in one slab (`entries` plus a `free` index list); each
/// `slots[level][slot]` is just the head of an intrusive singly-linked
/// chain through the slab's `next` fields. Pushing links an index,
/// cascading relinks indices (no entry is moved or copied), and
/// draining a level-0 slot collects indices into the reused
/// `TimerWheel::pending` buffer — so once the slab and the two index
/// buffers have grown to the working set, steady-state operation
/// performs no allocation at all, no matter which slots the advancing
/// horizon touches next. (The previous per-slot `Vec` storage recycled
/// only one scratch buffer, so every first touch of a slot — and every
/// capacity redistribution after a drain — still allocated.)
pub struct TimerWheel<T: Copy> {
    /// Slab of entry records; `free` lists the vacant indices.
    entries: Vec<SlabEntry<T>>,
    free: Vec<u32>,
    /// `slots[level][slot]` holds the chain head (or [`NIL`]) of entries
    /// whose deadline maps there relative to `horizon`.
    slots: Box<[[u32; SLOTS]; LEVELS]>,
    /// Per-level occupancy bitmasks; bit `s` set iff `slots[level][s]`
    /// is non-empty.
    occupied: [u64; LEVELS],
    /// Bit `l` set iff `occupied[l] != 0`, so the pop scan visits only
    /// levels that hold timers (typically two or three of the eleven).
    level_mask: u16,
    /// The wheel's position: no stored entry's deadline is below it.
    horizon: u64,
    /// Indices of the currently expiring (level-0) slot, sorted by
    /// *descending* `seq` and drained from the back (ascending `seq`),
    /// so draining is a pop with no element shifting.
    pending: Vec<u32>,
    /// Live entry count (stored + still pending).
    len: usize,
}

/// Chain terminator / vacant-slot marker.
const NIL: u32 = u32::MAX;

/// One slab record: a [`WheelEntry`] plus its chain link. The payload is
/// `Copy`, so removal copies it out and a vacant record needs no marker.
struct SlabEntry<T> {
    deadline: u64,
    seq: u64,
    next: u32,
    payload: T,
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
            entries: Vec::new(),
            free: Vec::new(),
            slots: Box::new([[NIL; SLOTS]; LEVELS]),
            occupied: [0; LEVELS],
            level_mask: 0,
            horizon: 0,
            pending: Vec::new(),
            len: 0,
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

    /// Links slab index `idx` into the slot its deadline maps to.
    fn store(&mut self, idx: u32) {
        let deadline = self.entries[idx as usize].deadline;
        debug_assert!(deadline >= self.horizon, "timer below the horizon");
        let level = Self::level_for(deadline ^ self.horizon);
        let slot = Self::slot_index(deadline, level);
        self.entries[idx as usize].next = self.slots[level][slot];
        self.slots[level][slot] = idx;
        self.occupied[level] |= 1 << slot;
        self.level_mask |= 1 << level;
    }

    /// Registers a timer.
    ///
    /// `deadline` must be at or after the last popped entry's deadline
    /// (simulated time never runs backwards).
    pub fn push(&mut self, deadline: u64, seq: u64, payload: T) {
        let entry = SlabEntry {
            deadline,
            seq,
            next: NIL,
            payload,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.entries[idx as usize] = entry;
                idx
            }
            None => {
                let idx = u32::try_from(self.entries.len()).expect("timer slab overflow");
                self.entries.push(entry);
                idx
            }
        };
        self.store(idx);
        self.len += 1;
    }

    /// Absolute start time of the next pass over `slot` at `level`,
    /// given the wheel's current position.
    #[inline]
    fn slot_start(&self, level: usize, slot: usize) -> u64 {
        let shift = SLOT_BITS as usize * level;
        let cur = self.horizon >> shift;
        let cur_slot = (cur & (SLOTS as u64 - 1)) as usize;
        let base = cur - cur_slot as u64;
        let passed = slot < cur_slot;
        (base + slot as u64 + if passed { SLOTS as u64 } else { 0 }) << shift
    }

    /// Earliest occupied slot of `level` as `(start_time, slot)`, if any.
    #[inline]
    fn earliest_slot(&self, level: usize) -> Option<(u64, usize)> {
        let mask = self.occupied[level];
        if mask == 0 {
            return None;
        }
        let shift = SLOT_BITS as usize * level;
        let cur_slot = ((self.horizon >> shift) & (SLOTS as u64 - 1)) as u32;
        // Rotate so the current slot is bit 0; the first set bit of the
        // rotated mask is then the next slot the wheel reaches.
        let rel = mask.rotate_right(cur_slot).trailing_zeros() as usize;
        let slot = (cur_slot as usize + rel) % SLOTS;
        Some((self.slot_start(level, slot), slot))
    }

    /// Removes and returns the earliest timer: smallest `(deadline,
    /// seq)` over everything pushed and not yet popped.
    pub fn pop(&mut self) -> Option<WheelEntry<T>> {
        if let Some(entry) = self.take_pending() {
            return Some(entry);
        }
        if self.len == 0 {
            return None;
        }
        loop {
            // The globally earliest entry lives in the occupied slot with
            // the smallest start time; on ties the *highest* level must
            // cascade first, since its slot may contain deadlines equal
            // to the lower level's (with earlier registration seqs).
            let mut best: Option<(u64, usize, usize)> = None;
            let mut lvls = self.level_mask;
            while lvls != 0 {
                let level = lvls.trailing_zeros() as usize;
                lvls &= lvls - 1;
                if let Some((start, slot)) = self.earliest_slot(level) {
                    match best {
                        Some((bs, _, _)) if bs < start => {}
                        _ => best = Some((start, level, slot)),
                    }
                }
            }
            let (start, level, slot) = best.expect("len > 0 but wheel empty");
            // Claim the slot's whole chain and advance; every stored
            // entry fires at or after the slot's start.
            let mut head = std::mem::replace(&mut self.slots[level][slot], NIL);
            self.occupied[level] &= !(1 << slot);
            if self.occupied[level] == 0 {
                self.level_mask &= !(1 << level);
            }
            debug_assert!(start >= self.horizon);
            self.horizon = start;
            if level == 0 {
                // Single-entry slot — the overwhelmingly common case at
                // nanosecond granularity: return it without the pending
                // buffer round trip (push, sort check, pop).
                if self.entries[head as usize].next == NIL {
                    let slot = &self.entries[head as usize];
                    let entry = WheelEntry {
                        deadline: slot.deadline,
                        seq: slot.seq,
                        payload: slot.payload,
                    };
                    self.free.push(head);
                    self.len -= 1;
                    return Some(entry);
                }
                // One-nanosecond slot: every entry shares `start` as its
                // deadline; seq order is the heap's tie-break. Descending
                // sort so `take_pending` pops ascending from the back.
                debug_assert!(self.pending.is_empty());
                while head != NIL {
                    self.pending.push(head);
                    head = self.entries[head as usize].next;
                }
                if self.pending.len() > 1 {
                    let entries = &self.entries;
                    self.pending
                        .sort_unstable_by_key(|&i| std::cmp::Reverse(entries[i as usize].seq));
                }
                return self.take_pending();
            }
            // Cascade the whole chain in one relink pass: relative to the
            // new horizon each entry's delta shrank below this level's
            // span, so each lands strictly lower and the loop terminates.
            // Payloads never move — only the `next` links change.
            while head != NIL {
                let next = self.entries[head as usize].next;
                self.store(head);
                head = next;
            }
        }
    }

    fn take_pending(&mut self) -> Option<WheelEntry<T>> {
        let idx = self.pending.pop()?;
        let slot = &self.entries[idx as usize];
        let entry = WheelEntry {
            deadline: slot.deadline,
            seq: slot.seq,
            payload: slot.payload,
        };
        self.free.push(idx);
        self.len -= 1;
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = wheel.pop() {
            out.push((e.deadline, e.seq));
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
        w.push(1_000_000, 0, 7u32);
        let e = w.pop().unwrap();
        assert_eq!((e.deadline, e.seq, e.payload), (1_000_000, 0, 7));
        assert!(w.pop().is_none());
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut w = TimerWheel::new();
        for (i, d) in [5_000u64, 10, 1 << 40, 64, 63, 4096, 1].iter().enumerate() {
            w.push(*d, i as u64, 0u32);
        }
        let fired: Vec<u64> = drain(&mut w).iter().map(|(d, _)| *d).collect();
        assert_eq!(fired, vec![1, 10, 63, 64, 4096, 5_000, 1 << 40]);
    }

    #[test]
    fn equal_deadlines_fire_in_seq_order() {
        let mut w = TimerWheel::new();
        for seq in 0..10u64 {
            w.push(777, seq, 0u32);
        }
        assert_eq!(drain(&mut w), (0..10).map(|s| (777, s)).collect::<Vec<_>>());
    }

    #[test]
    fn late_registration_with_earlier_seqless_deadline_still_sorts() {
        // A far timer registered first (low seq) cascades down next to a
        // near-in-time registration made later (high seq) for the same
        // deadline; seq must still break the tie.
        let mut w = TimerWheel::new();
        w.push(100_000, 0, 0u32); // registered early, far away
        w.push(50, 1, 0u32);
        assert_eq!(w.pop().unwrap().deadline, 50);
        // Now the wheel sits at 50; register the same deadline again
        // with a later seq.
        w.push(100_000, 2, 0u32);
        assert_eq!(drain(&mut w), vec![(100_000, 0), (100_000, 2)]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut w = TimerWheel::new();
        w.push(10, 0, 0u32);
        w.push(20, 1, 0u32);
        assert_eq!(w.pop().unwrap().deadline, 10);
        // Push between pops, after the wheel advanced to 10.
        w.push(15, 2, 0u32);
        w.push(1 << 30, 3, 0u32);
        assert_eq!(w.pop().unwrap().deadline, 15);
        assert_eq!(w.pop().unwrap().deadline, 20);
        assert_eq!(w.pop().unwrap().deadline, 1 << 30);
        assert!(w.pop().is_none());
    }

    #[test]
    fn len_tracks_push_and_pop() {
        let mut w = TimerWheel::new();
        for i in 0..5u64 {
            w.push(100 + i, i, 0u32);
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
        w.push(u64::MAX - 1, 0, 0u32);
        w.push(1, 1, 0u32);
        assert_eq!(w.pop().unwrap().deadline, 1);
        assert_eq!(w.pop().unwrap().deadline, u64::MAX - 1);
    }

    #[test]
    fn one_word_payload_records_stay_32_bytes() {
        // The executor's timers are one ready-queue word each.
        assert!(std::mem::size_of::<SlabEntry<usize>>() <= 32);
    }
}
