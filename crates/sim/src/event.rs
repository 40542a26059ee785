//! Deterministic event queue.
//!
//! The queue orders events by `(time, sequence)`, where the sequence number
//! is assigned at insertion. Two events scheduled for the same instant are
//! therefore delivered in insertion order, which keeps simulations
//! reproducible bit-for-bit regardless of queue internals.
//!
//! # Implementation
//!
//! A MicroEdge world schedules two kinds of future. Most events land
//! within a few milliseconds (pre-processing, a network hop, a TPU
//! invocation), but every camera also re-arms its next frame tick one
//! frame interval ahead — a full second for the paper's 1 FPS sources.
//! The queue is a two-level hashed timing wheel (Varghese & Lauck) over a
//! fallback heap, in three tiers:
//!
//! * the **fine ring**: 64 buckets, each 2^21 ns (≈ 2.1 ms) wide,
//!   covering exactly the current *block* — the aligned 2^27 ns
//!   (≈ 134 ms) window that holds the clock. Because blocks are aligned,
//!   an instant's fine slot is just bits 21–26 of its nanosecond count,
//!   and the earliest occupied bucket is the lowest set bit of an
//!   occupancy mask. Buckets stay unordered: scheduling is a plain
//!   `Vec::push` and delivery scans the (short) head bucket for its
//!   `(time, seq)` minimum;
//! * the **coarse ring**: 64 unordered buckets, one per block, holding
//!   the next 64 blocks (≈ 8.6 s). Each bucket remembers its earliest
//!   instant. When the fine ring drains, the earliest occupied coarse
//!   bucket cascades into it: every event moves once, with no comparison
//!   against its neighbours;
//! * a **fallback binary heap** holds the rare event more than 64 blocks
//!   ahead (stream start offsets, long experiment timers). Whenever the
//!   block advances, heap events that came within the coarse horizon
//!   migrate into the rings.
//!
//! The coarse ring exists for periodic sources: a fine ring alone reaches
//! only 134 ms ahead, so every tick of a 1 FPS camera would go through the
//! heap, a push and a pop each sifting over the thousands of ticks pending
//! on a shard. Through the coarse ring a tick costs two pushes and a
//! bucket scan.
//!
//! The block advances only to deliver an event from it, or when
//! [`EventQueue::advance_to`] moves the clock into it — never past the
//! clock. So an event scheduled "now" after [`EventQueue::pop_due`]
//! returned `None` still lands in the current block or a later one.
//! A drained coarse bucket's storage is kept as one spare vector for the
//! next bucket to fill: retaining it in every slot would hold 64 blocks'
//! worth of capacity per queue, and freeing it would reallocate on every
//! cascade.
//!
//! Every tier compares `(time, seq)`, so delivery order is bit-for-bit
//! identical to a single global heap — the property the
//! `sim_properties::event_queue_matches_a_reference_heap` test pins down.
//!
//! # Examples
//!
//! ```
//! use microedge_sim::event::EventQueue;
//! use microedge_sim::time::{SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::from_millis(10), "b");
//! q.schedule_at(SimTime::from_millis(5), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_millis(5), "a"));
//! assert_eq!(q.now(), SimTime::from_millis(5));
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// log2 of the fine bucket width in nanoseconds (2^21 ns ≈ 2.1 ms).
const FINE_SHIFT: u32 = 21;

/// log2 of the block width in nanoseconds: one block is [`SLOTS`] fine
/// buckets (2^27 ns ≈ 134 ms).
const BLOCK_SHIFT: u32 = FINE_SHIFT + 6;

/// Buckets per ring. 64, so each ring's occupancy fits one `u64` mask.
const SLOTS: u64 = 64;

/// The aligned block an instant falls into.
#[inline]
fn block_of(time: SimTime) -> u64 {
    time.as_nanos() >> BLOCK_SHIFT
}

/// The ring-array slot for a global bucket or block index.
#[inline]
fn ring_slot(index: u64) -> usize {
    usize::try_from(index % SLOTS).expect("ring slot fits usize")
}

/// An event staged in the queue, ordered by `(time, seq)` ascending.
#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.key().cmp(&self.key())
    }
}

/// One coarse-ring slot: the events of one future block.
#[derive(Debug)]
struct CoarseBucket<E> {
    /// Unordered; cascaded into the fine ring when its block begins.
    events: Vec<Scheduled<E>>,
    /// The earliest instant among `events`; meaningful only while the
    /// slot's occupancy bit is set.
    earliest: SimTime,
}

/// A deterministic future-event list for discrete-event simulation.
///
/// The queue carries the simulation clock: popping an event advances
/// [`EventQueue::now`] to that event's timestamp. Time never moves backwards
/// and events may never be scheduled in the past.
///
/// # Examples
///
/// ```
/// use microedge_sim::event::EventQueue;
/// use microedge_sim::time::SimDuration;
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { FrameArrived(u32) }
///
/// let mut q = EventQueue::new();
/// q.schedule_after(SimDuration::from_millis(66), Ev::FrameArrived(0));
/// while let Some((t, ev)) = q.pop() {
///     assert_eq!(ev, Ev::FrameArrived(0));
///     assert_eq!(t.as_millis_f64(), 66.0);
/// }
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Fine tier: slot `s` holds the current block's events whose fine
    /// bucket is `s`.
    fine: Box<[Vec<Scheduled<E>>; 64]>,
    /// Bit `s` set ⇔ fine slot `s` is non-empty. The block is aligned, so
    /// the earliest occupied bucket is `trailing_zeros`.
    fine_occupancy: u64,
    /// Coarse tier: slot `b % 64` holds block `b`, for the blocks
    /// `block + 1 ..= block + 64`.
    coarse: Box<[CoarseBucket<E>; 64]>,
    /// Bit `s` set ⇔ coarse slot `s` is non-empty.
    coarse_occupancy: u64,
    /// The current block. Never beyond `block_of(now)`, so every pending
    /// event and every future `schedule_at` lies in it or later.
    block: u64,
    /// Far-future tier: events beyond block `block + 64`.
    overflow: BinaryHeap<Scheduled<E>>,
    /// The storage of the last drained coarse bucket, reused by the next
    /// coarse bucket that fills.
    spare: Vec<Scheduled<E>>,
    /// Events pending across all three tiers.
    len: usize,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            fine: Box::new(std::array::from_fn(|_| Vec::new())),
            fine_occupancy: 0,
            coarse: Box::new(std::array::from_fn(|_| CoarseBucket {
                events: Vec::new(),
                earliest: SimTime::ZERO,
            })),
            coarse_occupancy: 0,
            block: 0,
            overflow: BinaryHeap::new(),
            spare: Vec::new(),
            len: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// The current simulation time (the timestamp of the most recently
    /// popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events delivered so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time —
    /// scheduling into the past is always a logic error.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule event at {time} before current time {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.file(Scheduled { time, seq, event });
    }

    /// Schedules `event` at `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let time = self
            .now
            .checked_add(delay)
            .expect("simulation clock overflow");
        self.schedule_at(time, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// [`EventQueue::pop`], but only when the earliest event is at or before
    /// `until`; otherwise the queue is left untouched and `None` is
    /// returned. Event-loop drivers call this instead of a peek/pop pair so
    /// each delivered event costs a single bucket scan.
    pub fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.fine_occupancy == 0 {
            // The current block is drained. Enter the next occupied one, but
            // only to deliver from it: entering a block past `until` would
            // move the cursor past the clock and strand a later "now".
            let next = self.earliest_beyond_block()?;
            if next > until {
                return None;
            }
            self.enter_block(block_of(next));
        }
        let slot = self.first_fine_slot();
        let bucket = &mut self.fine[slot];
        let mut best = 0;
        let mut best_key = bucket[0].key();
        for (i, e) in bucket.iter().enumerate().skip(1) {
            let key = e.key();
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        if best_key.0 > until {
            return None;
        }
        let scheduled = bucket.swap_remove(best);
        if bucket.is_empty() {
            self.fine_occupancy &= !(1u64 << slot);
        }
        self.len -= 1;
        debug_assert!(scheduled.time >= self.now, "event queue went backwards");
        self.now = scheduled.time;
        self.popped += 1;
        Some((scheduled.time, scheduled.event))
    }

    /// Advances the clock to `time` without delivering anything — the epoch
    /// barrier primitive. A sharded replay drains each shard with
    /// [`EventQueue::pop_due`]`(barrier)` and then aligns every shard's
    /// clock to the barrier so cross-shard messages can be scheduled "now"
    /// on any shard regardless of when its own last event fired.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past, or if an event at or before `time`
    /// is still pending (the caller must drain due events first; skipping
    /// one would silently reorder the replay).
    pub fn advance_to(&mut self, time: SimTime) {
        assert!(
            time >= self.now,
            "cannot advance clock to {time} before current time {now}",
            now = self.now
        );
        if let Some(next) = self.peek_time() {
            assert!(
                next > time,
                "cannot advance clock past a pending event at {next}"
            );
        }
        self.now = time;
        // Every pending event is strictly after `time`, so a block that
        // begins at or before `time` can only follow a drained one: enter
        // it, so events scheduled from the new clock file into the fine
        // ring.
        let block = block_of(time);
        if block > self.block {
            self.enter_block(block);
        }
    }

    /// The timestamp of the earliest pending event, if any, without popping.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.fine_occupancy == 0 {
            return self.earliest_beyond_block();
        }
        self.fine[self.first_fine_slot()]
            .iter()
            .map(|s| s.time)
            .min()
    }

    /// The earliest occupied fine slot.
    #[inline]
    fn first_fine_slot(&self) -> usize {
        debug_assert!(self.fine_occupancy != 0, "fine ring accounting is off");
        ring_slot(u64::from(self.fine_occupancy.trailing_zeros()))
    }

    /// The earliest pending instant outside the current block: the
    /// earliest occupied coarse bucket's, else the heap's. The coarse ring
    /// covers `block + 1 ..= block + 64`, so rotating its mask by the slot
    /// of `block + 1` turns "earliest block" into `trailing_zeros`.
    fn earliest_beyond_block(&self) -> Option<SimTime> {
        if self.coarse_occupancy == 0 {
            return self.overflow.peek().map(|s| s.time);
        }
        let first = self.block + 1;
        let rot = u32::try_from(first % SLOTS).expect("ring slot fits u32");
        let block = first + u64::from(self.coarse_occupancy.rotate_right(rot).trailing_zeros());
        Some(self.coarse[ring_slot(block)].earliest)
    }

    /// Files an event into the tier its block belongs to.
    #[inline]
    fn file(&mut self, scheduled: Scheduled<E>) {
        debug_assert!(
            block_of(scheduled.time) >= self.block,
            "event behind the cursor"
        );
        let ahead = block_of(scheduled.time) - self.block;
        if ahead == 0 {
            self.file_fine(scheduled);
        } else if ahead <= SLOTS {
            self.file_coarse(scheduled);
        } else {
            self.overflow.push(scheduled);
        }
    }

    /// Files an event of the current block into its fine bucket.
    #[inline]
    fn file_fine(&mut self, scheduled: Scheduled<E>) {
        let slot = ring_slot(scheduled.time.as_nanos() >> FINE_SHIFT);
        self.fine[slot].push(scheduled);
        self.fine_occupancy |= 1u64 << slot;
    }

    /// Files an event of one of the next 64 blocks into its coarse bucket,
    /// handing an empty slot the spare storage.
    #[inline]
    fn file_coarse(&mut self, scheduled: Scheduled<E>) {
        let slot = ring_slot(block_of(scheduled.time));
        let bit = 1u64 << slot;
        let bucket = &mut self.coarse[slot];
        if self.coarse_occupancy & bit == 0 {
            // An empty slot has no storage: the cascade that emptied it
            // took its vector.
            debug_assert_eq!(bucket.events.capacity(), 0, "empty slot kept storage");
            self.coarse_occupancy |= bit;
            bucket.earliest = scheduled.time;
            bucket.events = std::mem::take(&mut self.spare);
        } else if scheduled.time < bucket.earliest {
            bucket.earliest = scheduled.time;
        }
        debug_assert!(
            bucket
                .events
                .first()
                .is_none_or(|e| block_of(e.time) == block_of(scheduled.time)),
            "coarse slot holds two blocks"
        );
        bucket.events.push(scheduled);
    }

    /// Makes `block` current: cascades its coarse bucket into the fine
    /// ring and migrates heap events that came within the coarse horizon.
    /// The fine ring must be drained and every block before `block` empty.
    fn enter_block(&mut self, block: u64) {
        debug_assert!(
            self.fine_occupancy == 0 && block > self.block,
            "entering a block while the current one holds events"
        );
        let ahead = block - self.block;
        self.block = block;
        if ahead <= SLOTS {
            let slot = ring_slot(block);
            let bit = 1u64 << slot;
            if self.coarse_occupancy & bit != 0 {
                self.coarse_occupancy &= !bit;
                let mut events = std::mem::take(&mut self.coarse[slot].events);
                for scheduled in events.drain(..) {
                    self.file_fine(scheduled);
                }
                self.spare = events;
            }
        } else {
            debug_assert!(self.coarse_occupancy == 0, "skipped an occupied block");
        }
        let horizon = block + SLOTS;
        while let Some(next) = self.overflow.peek() {
            if block_of(next.time) > horizon {
                break;
            }
            let scheduled = self.overflow.pop().expect("peeked event exists");
            self.file(scheduled);
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// The manual `PartialOrd` on `Scheduled` must agree with its `Ord`
        /// impl — `partial_cmp` is always `Some(cmp)` — or heap ordering
        /// could diverge depending on which trait a caller goes through
        /// (the PR 4 float-comparison audit, applied to the event queue).
        #[test]
        fn scheduled_partial_cmp_agrees_with_cmp(
            t1 in 0u64..5_000,
            s1 in 0u64..64,
            t2 in 0u64..5_000,
            s2 in 0u64..64,
        ) {
            let a = Scheduled { time: SimTime::from_nanos(t1), seq: s1, event: () };
            let b = Scheduled { time: SimTime::from_nanos(t2), seq: s2, event: () };
            prop_assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
            prop_assert_eq!(b.partial_cmp(&a), Some(b.cmp(&a)));
            prop_assert_eq!(a.partial_cmp(&a), Some(Ordering::Equal));
            // Antisymmetry ties the two orders together end to end.
            prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), 3);
        q.schedule_at(SimTime::from_millis(10), 1);
        q.schedule_at(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), 1);
        q.pop();
        q.schedule_after(SimDuration::from_millis(5), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(15));
    }

    #[test]
    fn peek_does_not_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_cross_the_overflow_tier() {
        // Far beyond the coarse horizon (≈ 8.6 s): the event parks in the
        // overflow heap and migrates into the rings when the clock jumps.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3600), "far");
        q.schedule_at(SimTime::from_millis(1), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3600)));
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(3600), "far"));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_tiers_keep_global_order() {
        // Mix near, mid and far events, re-scheduling as time advances, and
        // check against a straight sort of the (time, insertion) pairs.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let offsets_ms = [0, 1, 70, 200, 3, 500, 65, 2, 1000, 130, 4, 260];
        for (i, ms) in offsets_ms.into_iter().enumerate() {
            q.schedule_at(SimTime::from_millis(ms), i);
            expected.push((SimTime::from_millis(ms), i));
        }
        expected.sort_by_key(|&(t, i)| (t, i));
        let popped: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, expected);
        assert_eq!(q.events_processed(), offsets_ms.len() as u64);
    }

    #[test]
    fn insert_into_live_bucket_preserves_order() {
        // Pop one event from a bucket, then schedule more into the same
        // bucket: delivery order must still follow (time, seq).
        let mut q = EventQueue::new();
        let base = SimTime::from_millis(1);
        q.schedule_at(base, 0);
        q.schedule_at(base + SimDuration::from_micros(100), 2);
        assert_eq!(q.pop().unwrap().1, 0);
        q.schedule_at(base + SimDuration::from_micros(50), 1);
        q.schedule_at(base + SimDuration::from_micros(100), 3); // tie with 2
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "near");
        q.schedule_at(SimTime::from_secs(900), "far"); // overflow tier
        assert_eq!(q.pop_due(SimTime::from_millis(5)), None);
        assert_eq!(
            q.pop_due(SimTime::from_millis(10)),
            Some((SimTime::from_millis(10), "near"))
        );
        // The far event sits beyond the deadline in the overflow tier.
        assert_eq!(q.pop_due(SimTime::from_secs(899)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_due(SimTime::from_secs(900)),
            Some((SimTime::from_secs(900), "far"))
        );
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_drains_epoch_boundary_ties_in_stable_id_order() {
        // Events landing exactly on an epoch barrier are due in that epoch
        // (`pop_due` is inclusive) and ties on the boundary instant must
        // drain in stable insertion-id order — the sharded replay depends on
        // both to keep epoch partitioning worker-count-invariant.
        let mut q = EventQueue::new();
        let barrier = SimTime::from_millis(500);
        q.schedule_at(barrier + SimDuration::from_nanos(1), 100);
        for i in 0..5 {
            q.schedule_at(barrier, i);
        }
        q.schedule_at(SimTime::from_millis(499), -1);
        assert_eq!(q.pop_due(barrier), Some((SimTime::from_millis(499), -1)));
        for i in 0..5 {
            let (t, ev) = q.pop_due(barrier).expect("boundary event is due");
            assert_eq!((t, ev), (barrier, i));
        }
        // One nanosecond past the barrier belongs to the next epoch.
        assert_eq!(q.pop_due(barrier), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_due(barrier + SimDuration::from_nanos(1)),
            Some((barrier + SimDuration::from_nanos(1), 100))
        );
    }

    #[test]
    fn advance_to_aligns_the_clock_between_epochs() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(3), "a");
        // Beyond the current block: parks in the coarse ring.
        q.schedule_at(SimTime::from_millis(600), "b");
        let barrier = SimTime::from_millis(500);
        assert_eq!(q.pop_due(barrier).unwrap().1, "a");
        assert_eq!(q.pop_due(barrier), None);
        q.advance_to(barrier);
        assert_eq!(q.now(), barrier);
        // Advancing is idempotent at the same instant and scheduling "now"
        // on the aligned clock works even though no event fired at 500 ms.
        q.advance_to(barrier);
        q.schedule_at(barrier, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["c", "b"]);
    }

    #[test]
    #[should_panic(expected = "pending event")]
    fn advance_to_refuses_to_skip_pending_events() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.advance_to(SimTime::from_millis(10));
    }

    #[test]
    fn ring_slots_are_reused_across_wraps() {
        // March the clock across three blocks, one event per fine bucket
        // width, so every fine slot is refilled at least twice and every
        // block after the first arrives through the coarse ring.
        let mut q = EventQueue::new();
        let step = SimDuration::from_nanos(1 << FINE_SHIFT);
        let mut t = SimTime::ZERO;
        for i in 0..(SLOTS * 3) {
            q.schedule_at(t, i);
            t = t.checked_add(step).unwrap();
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..SLOTS * 3).collect::<Vec<_>>());
    }

    #[test]
    fn one_fps_ticks_ride_the_coarse_ring() {
        // A 1 FPS source re-arms one second ahead: beyond the fine block,
        // within the coarse horizon, so the heap stays empty throughout.
        let mut q = EventQueue::new();
        let second = SimDuration::from_secs(1);
        for cam in 0..4u64 {
            q.schedule_at(SimTime::from_millis(cam * 7), cam);
        }
        let mut delivered = Vec::new();
        while let Some((t, cam)) = q.pop() {
            assert!(q.overflow.is_empty(), "a 1 s tick reached the heap");
            delivered.push((t, cam));
            if t < SimTime::from_secs(20) {
                q.schedule_at(t + second, cam);
            }
        }
        assert_eq!(delivered.len(), 4 * 21);
        assert!(delivered.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pop_due_does_not_enter_a_block_past_the_deadline() {
        // The next event sits in a later block than the deadline. Refusing
        // it must leave the cursor at the clock's block, so an event then
        // scheduled "now" is still delivered first.
        let mut q = EventQueue::new();
        let next_block = SimTime::from_nanos(1 << BLOCK_SHIFT);
        q.schedule_at(next_block + SimDuration::from_millis(3), "late");
        let barrier = SimTime::from_millis(100);
        assert_eq!(q.pop_due(barrier), None);
        assert_eq!(q.block, 0);
        q.advance_to(barrier);
        q.schedule_at(barrier, "now");
        assert_eq!(q.pop_due(barrier), Some((barrier, "now")));
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn advance_to_jumps_past_the_coarse_horizon() {
        // Nothing pending for minutes: the clock jumps straight into a far
        // block, and heap events migrate in relative to the new block.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(300), "far");
        q.schedule_at(SimTime::from_secs(305), "farther");
        q.advance_to(SimTime::from_secs(299));
        assert_eq!(q.block, block_of(SimTime::from_secs(299)));
        assert!(q.overflow.is_empty());
        q.schedule_at(SimTime::from_secs(299), "now");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["now", "far", "farther"]);
    }

    #[test]
    fn drained_coarse_storage_is_recycled() {
        // A cascade leaves its slot without storage and keeps the drained
        // vector as the spare; the next coarse bucket to fill takes it.
        let mut q = EventQueue::new();
        let block = SimDuration::from_nanos(1 << BLOCK_SHIFT);
        let first = SimTime::ZERO + block;
        for i in 0..100u64 {
            q.schedule_at(first + SimDuration::from_micros(i), i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.coarse[ring_slot(1)].events.capacity(), 0);
        let spare = q.spare.capacity();
        assert!(spare >= 100);
        q.schedule_at(first + block, 100);
        assert_eq!(q.coarse[ring_slot(2)].events.capacity(), spare);
        assert_eq!(q.spare.capacity(), 0);
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, (1..=100).collect::<Vec<_>>());
    }
}
