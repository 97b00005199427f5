//! Differential honesty harness for the calendar-queue scheduler.
//!
//! PR 9 replaced the engine's `BinaryHeap<QueuedEvent>` with
//! [`cmi_sim::CalendarQueue`]. The pop order contract is unchanged —
//! strictly `(at, seq)` ascending, i.e. time order with FIFO insertion
//! order breaking ties — so byte-identical replay of every committed
//! experiment hinges on the two structures agreeing on *every* workload,
//! not just the unit-test shapes. This suite drives ≥1000 seeded random
//! workloads through both a reference `BinaryHeap<Reverse<(at, seq)>>`
//! and the calendar queue, mixing the regimes that stress each internal
//! path:
//!
//! * same-instant bursts (slot batches drained in `seq` order),
//! * far-future spikes (overflow heap routing and promotion),
//! * zero-delay pushes at the cursor (the late heap beside the live
//!   batch),
//! * interleaved pops, including draining to empty and refilling
//!   (empty-ring cursor jumps).
//!
//! The same-window path — pushes into the window whose batch is already
//! sorted and draining — gets its own cases at the end of the file: a
//! window of 10⁵ entries taking 10⁴ such pushes at each of its far end,
//! near end and middle; equal-`at` ties against batch entries; a push
//! into a window whose batch has run empty; zero-delay timer chains. A
//! positional insert into the sorted batch makes the first of them move
//! ~10⁹ entries.

use cmi_sim::rng::derive_rng;
use cmi_sim::CalendarQueue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Drive one seeded workload through both queues, asserting lock-step
/// agreement on every pop and on the final drain.
fn differential_run(seed: u64, ops: usize) {
    let mut rng = derive_rng(seed, 0xd1ff);
    let mut cq: CalendarQueue<u64> = CalendarQueue::new();
    let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    // `now` tracks the largest popped timestamp: pushes must never go
    // backwards past it, matching the engine's monotonic clock.
    let mut now: u64 = 0;
    let mut popped = 0u64;

    for _ in 0..ops {
        match rng.gen_range(0u32..10) {
            // Same-instant burst: several entries at one timestamp, so
            // the slot batch must preserve seq order.
            0 | 1 => {
                let at = now + rng.gen_range(0u64..2_000_000);
                for _ in 0..rng.gen_range(2usize..6) {
                    cq.push(at, seq, 0, seq);
                    reference.push(Reverse((at, seq)));
                    seq += 1;
                }
            }
            // Far-future spike: beyond the default ring horizon
            // (1024 slots × 2^20 ns ≈ 1.07 s), forcing overflow.
            2 => {
                let at = now + 2_000_000_000 + rng.gen_range(0u64..8_000_000_000);
                cq.push(at, seq, 0, seq);
                reference.push(Reverse((at, seq)));
                seq += 1;
            }
            // Zero-delay push at the current instant (late heap).
            3 => {
                cq.push(now, seq, 0, seq);
                reference.push(Reverse((now, seq)));
                seq += 1;
            }
            // Near-future push inside the ring.
            4 | 5 | 6 => {
                let at = now + rng.gen_range(0u64..500_000_000);
                cq.push(at, seq, 0, seq);
                reference.push(Reverse((at, seq)));
                seq += 1;
            }
            // Pop a few — possibly draining to empty, which exercises
            // the empty-ring cursor jump on the next push.
            _ => {
                for _ in 0..rng.gen_range(1usize..8) {
                    let got = cq.pop();
                    let want = reference.pop();
                    match (got, want) {
                        (None, None) => break,
                        (Some((at, s, v)), Some(Reverse((rat, rs)))) => {
                            assert_eq!((at, s), (rat, rs), "seed {seed}: pop #{popped} diverged");
                            assert_eq!(v, s, "seed {seed}: payload slab corrupted");
                            now = at;
                            popped += 1;
                        }
                        (got, want) => {
                            panic!("seed {seed}: emptiness diverged: {got:?} vs {want:?}")
                        }
                    }
                }
            }
        }
        assert_eq!(cq.len(), reference.len(), "seed {seed}: length diverged");
    }

    // Full drain: remaining order must match exactly.
    while let Some(Reverse((rat, rs))) = reference.pop() {
        let (at, s, v) = cq
            .pop()
            .unwrap_or_else(|| panic!("seed {seed}: calendar queue ran dry before the reference"));
        assert_eq!((at, s), (rat, rs), "seed {seed}: drain diverged");
        assert_eq!(v, s, "seed {seed}: payload slab corrupted during drain");
    }
    assert!(
        cq.is_empty(),
        "seed {seed}: calendar queue kept stale entries"
    );
}

#[test]
fn thousand_seeded_workloads_match_reference_heap() {
    // ≥1000 seeds, moderate length each: covers slot wrap-around,
    // overflow promotion and same-window pushes across many random
    // interleavings while staying fast enough for tier-1.
    for seed in 0..1024u64 {
        differential_run(seed, 160);
    }
}

#[test]
fn long_workloads_cross_many_ring_revolutions() {
    // Fewer seeds, much longer runs: the ring wraps dozens of times and
    // the overflow heap repeatedly promotes into freshly-cleared slots.
    for seed in 0..16u64 {
        differential_run(0x5000 + seed, 6_000);
    }
}

#[test]
fn one_revolution_boundary_routes_exactly() {
    // Pin the overflow boundary: with the cursor at 0, an event at
    // exactly `N·width` (one full ring revolution ahead) must route to
    // the overflow heap — the ring invariant reserves slot indices for
    // `[cursor, cursor + N·width)` only, and an entry at `N·width`
    // would alias slot 0 of the *current* window. `N·width − 1` is the
    // last ring-resident instant; `N·width + 1` is overflow like its
    // neighbor. All three must still pop in exact `(at, seq)` order,
    // and the boundary entries must promote back into the ring once
    // the cursor's advance brings their window inside the horizon.
    let n: u64 = 64;
    let shift: u32 = 24;
    let horizon = n << shift; // cursor starts at 0
    let mut cq: CalendarQueue<u64> = CalendarQueue::with_geometry(n as usize, shift);
    cq.push(horizon - 1, 0, 0, 0);
    cq.push(horizon, 1, 0, 1);
    cq.push(horizon + 1, 2, 0, 2);
    assert_eq!(
        cq.overflow_len(),
        2,
        "exactly the at ≥ horizon entries belong to overflow"
    );
    // An anchor in slot 0 of the current window: if `horizon` had been
    // ringed it would share this slot and pop interleaved/misordered.
    cq.push(1, 3, 0, 3);
    assert_eq!(cq.pop(), Some((1, 3, 3)));
    assert_eq!(cq.pop(), Some((horizon - 1, 0, 0)));
    assert_eq!(cq.pop(), Some((horizon, 1, 1)));
    assert_eq!(cq.pop(), Some((horizon + 1, 2, 2)));
    assert_eq!(cq.overflow_len(), 0, "boundary entries were promoted");
    assert!(cq.is_empty());

    // Same boundary relative to a non-zero cursor: drain one window
    // first so the cursor sits mid-ring, then place an entry exactly
    // one revolution past it.
    let mut cq: CalendarQueue<u64> = CalendarQueue::with_geometry(n as usize, shift);
    let width = 1u64 << shift;
    cq.push(5 * width + 7, 0, 0, 0);
    assert_eq!(cq.pop(), Some((5 * width + 7, 0, 0))); // cursor → 6·width
    let cursor = 6 * width;
    cq.push(cursor + horizon - 1, 1, 0, 1);
    cq.push(cursor + horizon, 2, 0, 2);
    assert_eq!(cq.overflow_len(), 1, "cursor-relative boundary drifted");
    assert_eq!(cq.pop(), Some((cursor + horizon - 1, 1, 1)));
    assert_eq!(cq.pop(), Some((cursor + horizon, 2, 2)));
    assert!(cq.is_empty());
}

#[test]
fn adversarial_geometry_small_ring() {
    // A tiny 64-slot ring with wide 2^24 ns buckets forces constant
    // overflow traffic and promotion on nearly every window advance.
    for seed in 0..64u64 {
        let mut rng = derive_rng(0x9e0_0000 + seed, 1);
        let mut cq: CalendarQueue<u64> = CalendarQueue::with_geometry(64, 24);
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        for s in 0..4_000u64 {
            let at = now + rng.gen_range(0u64..40_000_000_000);
            cq.push(at, s, 0, s);
            reference.push(Reverse((at, s)));
            if rng.gen_bool(0.6) {
                if let Some(Reverse((rat, rs))) = reference.pop() {
                    let (gat, gs, _) = cq.pop().expect("non-empty");
                    assert_eq!((gat, gs), (rat, rs), "seed {seed} step {s}");
                    now = gat;
                }
            }
        }
        while let Some(Reverse((rat, rs))) = reference.pop() {
            let (gat, gs, _) = cq.pop().expect("drain");
            assert_eq!((gat, gs), (rat, rs), "seed {seed} drain");
        }
        assert!(cq.is_empty());
    }
}

/// Both queues in lock step for the hand-built same-window cases:
/// `push` feeds both, `pop` asserts they agree and returns the entry.
struct LockStep {
    cq: CalendarQueue<u64>,
    reference: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
}

impl LockStep {
    fn new() -> Self {
        LockStep {
            cq: CalendarQueue::new(),
            reference: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, at: u64) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.cq.push(at, seq, 0, seq);
        self.reference.push(Reverse((at, seq)));
        seq
    }

    #[track_caller]
    fn pop(&mut self) -> Option<(u64, u64)> {
        let want = self.reference.pop().map(|Reverse(k)| k);
        assert_eq!(
            self.cq.peek().map(|(at, seq, _)| (at, seq)),
            want,
            "peek diverged"
        );
        let got = self.cq.pop();
        assert_eq!(got.map(|(at, seq, _)| (at, seq)), want, "pop diverged");
        if let Some((_, seq, value)) = got {
            assert_eq!(value, seq, "payload slab corrupted");
        }
        assert_eq!(self.cq.len(), self.reference.len());
        want
    }

    #[track_caller]
    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.cq.is_empty());
    }
}

/// Width of one default-geometry slot (2²⁰ ns).
const WIDTH: u64 = 1 << 20;

#[test]
fn wide_window_takes_same_window_pushes_at_both_ends_and_the_middle() {
    // One window holding 120 000 entries (hub256_wide's live batch peaks
    // at 105 123), then 30 000 pushes into it while it drains: a third
    // at its far end (where hub256_wide's land), a third at the current
    // instant, a third in between, two pops after every push.
    let mut rng = derive_rng(0x51de, 0);
    let mut q = LockStep::new();
    let window = 7 * WIDTH;
    for _ in 0..120_000 {
        q.push(window + rng.gen_range(0u64..WIDTH));
    }
    q.push(window + 3 * WIDTH); // a later window that must wait its turn
    let (mut now, _) = q.pop().expect("non-empty");
    for i in 0..30_000u32 {
        let at = match i % 3 {
            0 => window + WIDTH - 1 - rng.gen_range(0u64..64),
            1 => now,
            _ => rng.gen_range(now..window + WIDTH),
        };
        q.push(at);
        for _ in 0..2 {
            (now, _) = q.pop().expect("non-empty");
        }
    }
    assert!(now < window + WIDTH, "the window is still draining");
    q.drain();
}

#[test]
fn equal_time_pushes_pop_after_the_batch_entries_they_tie_with() {
    let mut q = LockStep::new();
    let t = 5 * WIDTH + 100;
    let in_batch: Vec<u64> = (0..4).map(|_| q.push(t)).collect();
    let after = q.push(t + 50);
    assert_eq!(q.pop(), Some((t, in_batch[0])));
    // The batch for t's window is live; these tie with its entries on
    // `at` and must queue behind them (FIFO by seq), ahead of t + 50.
    let late: Vec<u64> = (0..3).map(|_| q.push(t)).collect();
    let late_after = q.push(t + 50);
    for &seq in in_batch[1..].iter().chain(&late) {
        assert_eq!(q.pop(), Some((t, seq)));
    }
    assert_eq!(q.pop(), Some((t + 50, after)));
    assert_eq!(q.pop(), Some((t + 50, late_after)));
    assert_eq!(q.pop(), None);
}

#[test]
fn same_window_push_after_the_batch_ran_empty_pops_before_later_windows() {
    let mut q = LockStep::new();
    let first = q.push(100);
    let next_window = q.push(WIDTH + 5);
    assert_eq!(q.pop(), Some((100, first)));
    // Window [0, WIDTH) has nothing left, but the cursor already sits
    // at its end: these are same-window pushes into an empty batch.
    let b = q.push(300);
    let a = q.push(200);
    assert_eq!(q.pop(), Some((200, a)));
    let c = q.push(250);
    assert_eq!(q.pop(), Some((250, c)));
    assert_eq!(q.pop(), Some((300, b)));
    assert_eq!(q.pop(), Some((WIDTH + 5, next_window)));
    // Drained to empty with the cursor past it: still same-window.
    let d = q.push(WIDTH + 9);
    assert_eq!(q.pop(), Some((WIDTH + 9, d)));
    assert_eq!(q.pop(), None);
}

#[test]
fn zero_delay_timer_chains_run_before_the_rest_of_the_instant() {
    // Each popped entry schedules a successor at its own instant, as a
    // zero-delay timer does; every 40th pop ends a chain instead. The
    // chains of instant t run, FIFO, until all of them have ended, and
    // only then does t + 1 start.
    let mut q = LockStep::new();
    let t = 9 * WIDTH + 17;
    for k in 0..50 {
        q.push(t + k % 2);
    }
    let mut pops = 0u32;
    let mut at_t = 0u32;
    while let Some((at, _)) = q.pop() {
        pops += 1;
        at_t += u32::from(at == t);
        assert_eq!(at == t, pops == at_t, "t + 1 popped before t ran out");
        if !pops.is_multiple_of(40) {
            q.push(at);
        }
    }
    assert_eq!((pops, at_t), (2_000, 1_000));
}
