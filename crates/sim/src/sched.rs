//! Hierarchical bucketed calendar queue: the engine's event scheduler.
//!
//! The queue keeps near-future events in a power-of-two ring of time
//! slots (each `slot_width` nanoseconds wide) with a hierarchical
//! occupancy bitmap for O(1) next-slot search, and far-future events
//! (beyond one full ring revolution) in an overflow binary heap.
//! Events of the slot under the cursor drain as one *batch*, sorted
//! once by `(at, seq)`, so same-instant events pop in FIFO insertion
//! order without per-event heap rebalancing. Events pushed into the
//! window that is already draining go to a small *late* min-heap beside
//! the batch; the next event is the smaller of the two heads, so every
//! push is O(log n) however long the batch is. Payloads live in a
//! reusable slab with a free list; slot vectors, the batch buffer, the
//! heaps and the slab all recycle their capacity, so the steady-state
//! push/pop loop performs no allocation.
//!
//! Pop order is exactly ascending `(at, seq)` — byte-identical to the
//! `BinaryHeap<Reverse<(at, seq)>>` scheduler it replaces (the
//! differential suite in `tests/sched_diff.rs` pins this over randomized
//! workloads).
//!
//! # Invariants
//!
//! * `cursor` is slot-aligned and equals the end of the most recently
//!   drained window; it never moves backwards.
//! * Every ring entry's `at` lies in `[cursor - width, cursor + N·width)`
//!   and each slot holds entries of exactly one window (two times within
//!   one revolution can never share a slot index).
//! * Every overflow entry satisfies `at ≥ cursor + N·width` — the
//!   *promotion rule* moves entries out of the heap into the ring
//!   whenever the cursor advances past this bound, so ring order alone
//!   decides the next event.
//! * Pushes earlier than `cursor` (same-window or past-time events, e.g.
//!   zero-delay timers) go to the `late` heap. Every `late` and batch
//!   entry is earlier than `cursor` and every ring entry is not, so the
//!   next window is drained only once both are empty, and the smaller
//!   of `late`'s minimum and the batch's back is the queue's minimum.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

// AUDIT:HOT-BEGIN — scheduler hot path: no formatting, no string-keyed
// metric lookups, no per-event allocation beyond amortized growth.

/// One scheduled entry: time, global insertion sequence, a caller-owned
/// tag (the engine stores the event's queue-depth class here) and the
/// payload's slab index. The derived order is `(at, seq)`: `seq` is
/// unique, so `tag` and `idx` never decide a comparison.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: u64,
    seq: u64,
    tag: u32,
    idx: u32,
}

/// A bucketed calendar queue ordered by `(at, seq)`.
///
/// `seq` is assigned by the caller and must be unique per entry (the
/// engine uses its global event sequence); ties on `at` pop in `seq`
/// order, which is exactly same-instant FIFO.
pub struct CalendarQueue<T> {
    /// Ring of slots; length is a power of two.
    slots: Vec<Vec<Entry>>,
    /// Occupancy bitmap over `slots` (one bit per slot).
    occupied: Vec<u64>,
    /// Entries of the window currently draining, sorted descending by
    /// `(at, seq)` so `pop` is a cheap `Vec::pop` from the back.
    batch: Vec<Entry>,
    /// Entries pushed into the draining window (or before it) after its
    /// batch was sorted, min-ordered by `(at, seq)`.
    late: BinaryHeap<Reverse<Entry>>,
    /// End of the most recently drained window (slot-aligned). Pushes
    /// before this instant go to `late`.
    cursor: u64,
    /// Far-future events, min-ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Payload slab; `Entry::idx` points here.
    slab: Vec<Option<T>>,
    /// Free slab indices available for reuse.
    free: Vec<u32>,
    /// log2 of the slot width in nanoseconds.
    width_shift: u32,
    /// Total entries (ring + batch + late + overflow).
    len: usize,
    /// Entries currently in ring slots (excludes batch, late and overflow).
    ring_len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Default geometry: 1024 slots of 2²⁰ ns (≈1.05 ms) — a horizon of
    /// ≈1.07 s, sized so millisecond-scale protocol traffic lands in the
    /// ring and only long retry/chaos horizons touch the overflow heap.
    pub fn new() -> Self {
        Self::with_geometry(1024, 20)
    }

    /// Creates a queue with `n_slots` slots (power of two, ≥ 64) of
    /// `2^width_shift` nanoseconds each.
    pub fn with_geometry(n_slots: usize, width_shift: u32) -> Self {
        assert!(n_slots.is_power_of_two() && n_slots >= 64, "slot count");
        assert!(width_shift < 40, "slot width too large");
        CalendarQueue {
            slots: (0..n_slots).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; n_slots / 64],
            batch: Vec::new(),
            late: BinaryHeap::new(),
            cursor: 0,
            overflow: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            width_shift,
            len: 0,
            ring_len: 0,
        }
    }

    /// Total pending entries across batch, late heap, slot ring and
    /// overflow heap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries currently in the overflow heap (observability/tests).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    fn width(&self) -> u64 {
        1u64 << self.width_shift
    }

    fn slot_of(&self, at: u64) -> usize {
        ((at >> self.width_shift) as usize) & (self.slots.len() - 1)
    }

    /// `true` if `at` lies within one ring revolution of the cursor.
    fn in_ring(&self, at: u64) -> bool {
        ((at - self.cursor) >> self.width_shift) < self.slots.len() as u64
    }

    fn slab_alloc(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(value);
                i
            }
            None => {
                let i = u32::try_from(self.slab.len()).expect("slab overflow");
                self.slab.push(Some(value));
                i
            }
        }
    }

    fn slab_take(&mut self, i: u32) -> T {
        self.free.push(i);
        self.slab[i as usize].take().expect("slab slot occupied")
    }

    /// Schedules `value` at `at` nanoseconds with insertion sequence
    /// `seq` (unique, caller-assigned) and an opaque `tag` returned by
    /// [`peek`](Self::peek).
    pub fn push(&mut self, at: u64, seq: u64, tag: u32, value: T) {
        let idx = self.slab_alloc(value);
        let e = Entry { at, seq, tag, idx };
        self.len += 1;
        if at < self.cursor {
            // Current (or past) window: its batch is already sorted.
            self.late.push(Reverse(e));
        } else if self.in_ring(at) {
            let slot = self.slot_of(at);
            self.slots[slot].push(e);
            self.occupied[slot >> 6] |= 1u64 << (slot & 63);
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    /// Time, sequence and tag of the next entry without removing it.
    /// Advances the cursor to the next occupied window if the live
    /// window is drained (which never changes pop order).
    pub fn peek(&mut self) -> Option<(u64, u64, u32)> {
        if self.batch.is_empty() && self.late.is_empty() {
            self.prepare();
        }
        let next = if self.late_is_next() {
            self.late.peek().map(|Reverse(e)| e)
        } else {
            self.batch.last()
        };
        next.map(|e| (e.at, e.seq, e.tag))
    }

    /// Removes and returns the next entry as `(at, seq, value)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.batch.is_empty() && self.late.is_empty() {
            self.prepare();
        }
        let e = if self.late_is_next() {
            self.late.pop().map(|Reverse(e)| e)
        } else {
            self.batch.pop()
        }?;
        self.len -= 1;
        let value = self.slab_take(e.idx);
        Some((e.at, e.seq, value))
    }

    /// `true` when the live window's next entry is `late`'s minimum
    /// rather than the batch's back.
    fn late_is_next(&self) -> bool {
        match (self.late.peek(), self.batch.last()) {
            (Some(Reverse(late)), Some(b)) => late < b,
            (late, _) => late.is_some(),
        }
    }

    /// Drains the next occupied window into the batch: jump the cursor
    /// to the overflow minimum if the ring is empty, promote overflow
    /// entries that the advance brought within the horizon, scan the
    /// occupancy bitmap for the next slot, and sort its entries once.
    fn prepare(&mut self) {
        debug_assert!(self.batch.is_empty() && self.late.is_empty());
        if self.ring_len == 0 {
            let Some(&Reverse(Entry { at, .. })) = self.overflow.peek() else {
                return;
            };
            // Align the cursor down to the minimum's window; promotion
            // below brings (at least) that entry into the ring.
            self.cursor = at & !(self.width() - 1);
            self.promote();
        }
        let start = self.slot_of(self.cursor);
        let rel = self.next_occupied(start);
        let slot = (start + rel) & (self.slots.len() - 1);
        let window_start = self.cursor + ((rel as u64) << self.width_shift);
        // Reuse the batch buffer's capacity by swapping it into the slot.
        std::mem::swap(&mut self.slots[slot], &mut self.batch);
        self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
        self.ring_len -= self.batch.len();
        self.batch
            .sort_unstable_by(|a, b| (b.at, b.seq).cmp(&(a.at, a.seq)));
        debug_assert!(self
            .batch
            .iter()
            .all(|e| e.at >= window_start && e.at - window_start < self.width()));
        self.cursor = window_start + self.width();
        self.promote();
    }

    /// Promotion rule: after every cursor advance, move overflow entries
    /// now within one revolution of the cursor into their ring slots, so
    /// `overflow.min ≥ cursor + N·width` always holds and ring order
    /// alone decides the next event.
    fn promote(&mut self) {
        while let Some(&Reverse(e)) = self.overflow.peek() {
            if !self.in_ring(e.at) {
                break;
            }
            self.overflow.pop();
            let slot = self.slot_of(e.at);
            self.slots[slot].push(e);
            self.occupied[slot >> 6] |= 1u64 << (slot & 63);
            self.ring_len += 1;
        }
    }

    /// Offset (0..N) of the first occupied slot at or after `start`,
    /// wrapping around the ring. Requires `ring_len > 0`.
    fn next_occupied(&self, start: usize) -> usize {
        debug_assert!(self.ring_len > 0);
        let n = self.slots.len();
        let nwords = self.occupied.len();
        let start_word = start >> 6;
        for i in 0..=nwords {
            let w = (start_word + i) % nwords;
            let mut bits = self.occupied[w];
            if i == 0 {
                bits &= !0u64 << (start & 63);
            } else if i == nwords {
                bits &= !(!0u64 << (start & 63));
            }
            if bits != 0 {
                let slot = (w << 6) + bits.trailing_zeros() as usize;
                return (slot + n - start) & (n - 1);
            }
        }
        unreachable!("occupancy bitmap empty with ring_len > 0")
    }
}

// AUDIT:HOT-END

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(30, 0, 0, "c");
        q.push(10, 1, 0, "a");
        q.push(10, 2, 0, "a2");
        q.push(20, 3, 0, "b");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((10, 1, "a")));
        assert_eq!(q.pop(), Some((10, 2, "a2")));
        assert_eq!(q.pop(), Some((20, 3, "b")));
        assert_eq!(q.pop(), Some((30, 0, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_entries_route_through_overflow_and_back() {
        let mut q = CalendarQueue::with_geometry(64, 10); // horizon 64·1024 ns
        let horizon = 64 * 1024;
        q.push(horizon * 3, 0, 0, "far");
        q.push(5, 1, 0, "near");
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.pop(), Some((5, 1, "near")));
        assert_eq!(q.pop(), Some((horizon * 3, 0, "far")));
        assert_eq!(q.overflow_len(), 0);
    }

    #[test]
    fn same_window_push_during_drain_keeps_order() {
        let mut q = CalendarQueue::with_geometry(64, 10);
        q.push(100, 0, 0, 0u32);
        q.push(300, 1, 0, 1);
        assert_eq!(q.pop(), Some((100, 0, 0)));
        // The batch for window [0, 1024) is live; a same-window push
        // must land between the popped entry and the pending one.
        q.push(200, 2, 0, 2);
        q.push(100, 3, 0, 3); // past time: still before 200
        assert_eq!(q.pop(), Some((100, 3, 3)));
        assert_eq!(q.pop(), Some((200, 2, 2)));
        assert_eq!(q.pop(), Some((300, 1, 1)));
    }

    #[test]
    fn peek_matches_pop_and_carries_tag() {
        let mut q = CalendarQueue::new();
        q.push(7, 0, 42, "x");
        assert_eq!(q.peek(), Some((7, 0, 42)));
        assert_eq!(q.pop(), Some((7, 0, "x")));
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn wrapping_windows_never_collide() {
        // Entries more than one revolution apart must not share a slot:
        // the second lands in overflow and is promoted only after the
        // cursor passes its window.
        let mut q = CalendarQueue::with_geometry(64, 10);
        for lap in 0u64..5 {
            q.push(lap * 64 * 1024 + 512, lap, 0, lap);
        }
        assert_eq!(q.overflow_len(), 4);
        for lap in 0u64..5 {
            assert_eq!(q.pop(), Some((lap * 64 * 1024 + 512, lap, lap)));
        }
    }

    #[test]
    fn slab_reuses_slots_after_pop() {
        let mut q = CalendarQueue::new();
        for round in 0u64..10 {
            for i in 0u64..100 {
                q.push(round * 1000 + i, round * 100 + i, 0, i);
            }
            for _ in 0..100 {
                q.pop().unwrap();
            }
        }
        assert!(q.slab.len() <= 100, "slab grew past high-water mark");
    }

    #[test]
    fn interleaved_random_workload_matches_reference_heap() {
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut q = CalendarQueue::with_geometry(64, 12);
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..5000 {
            if rng.gen_range(0u32..3) > 0 || reference.is_empty() {
                let at = now + rng.gen_range(0u64..2_000_000);
                q.push(at, seq, 0, at);
                reference.push(Reverse((at, seq)));
                seq += 1;
            } else {
                let Reverse(want) = reference.pop().unwrap();
                let (at, s, v) = q.pop().unwrap();
                assert_eq!((at, s), want);
                assert_eq!(v, at);
                now = at;
            }
        }
        while let Some(Reverse(want)) = reference.pop() {
            let (at, s, _) = q.pop().unwrap();
            assert_eq!((at, s), want);
        }
        assert!(q.is_empty());
    }
}
