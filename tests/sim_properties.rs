//! Property-based tests for the simulation kernel and the TPU-units
//! arithmetic the whole system rests on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use microedge::core::units::TpuUnits;
use microedge::sim::event::EventQueue;
use microedge::sim::series::StepSeries;
use microedge::sim::stats::{Histogram, OnlineStats};
use microedge::sim::time::{SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The event queue is a total order: pops are sorted by time, and
    /// same-time events preserve insertion order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_millis(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "insertion order broken on ties");
                }
            }
            prop_assert_eq!(SimTime::from_millis(times[idx]), t);
            last = Some((t, idx));
        }
        prop_assert_eq!(q.events_processed(), times.len() as u64);
    }

    /// StepSeries conserves mass: the weighted sum of window averages
    /// equals the exact integral of the step function.
    #[test]
    fn step_series_conserves_integral(
        steps in prop::collection::vec((1u64..5_000, 0u32..20), 1..50),
        window_ms in 100u64..5_000,
    ) {
        let mut series = StepSeries::new(SimDuration::from_millis(window_ms));
        let mut t = 0u64;
        let mut exact = 0.0f64;
        let mut level = 0.0f64;
        let mut last = 0u64;
        for (gap, value) in steps {
            t += gap;
            exact += level * (t - last) as f64;
            series.set(SimTime::from_millis(t), f64::from(value));
            level = f64::from(value);
            last = t;
        }
        let end = t + 1;
        exact += level * (end - last) as f64;
        let buckets = series.finish(SimTime::from_millis(end));
        let mut reconstructed = 0.0;
        for (i, avg) in buckets.iter().enumerate() {
            let start = i as u64 * window_ms;
            let width = window_ms.min(end - start);
            reconstructed += avg * width as f64;
        }
        prop_assert!(
            (reconstructed - exact).abs() < 1e-6 * exact.max(1.0),
            "integral {exact} vs reconstructed {reconstructed}"
        );
    }

    /// Welford merge is equivalent to sequential accumulation.
    #[test]
    fn stats_merge_equals_sequential(
        xs in prop::collection::vec(-1_000.0f64..1_000.0, 1..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..split] {
            left.record(x);
        }
        for &x in &xs[split..] {
            right.record(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-6);
    }

    /// Histogram percentiles are monotone and bounded by min/max.
    #[test]
    fn percentiles_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut h: Histogram = xs.iter().copied().collect();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p).unwrap();
            prop_assert!(v >= prev);
            prop_assert!((lo..=hi).contains(&v));
            prev = v;
        }
    }

    /// TPU-units duty cycles never understate demand, and float round-trips
    /// are exact at micro-unit precision.
    #[test]
    fn units_roundtrip_and_duty_cycle(micro in 0u64..10_000_000, service_ns in 1u64..10u64.pow(9), period_ns in 1u64..10u64.pow(9)) {
        let u = TpuUnits::from_micro(micro);
        prop_assert_eq!(TpuUnits::from_f64(u.as_f64()), u, "float round-trip");

        let duty = TpuUnits::from_duty_cycle(
            SimDuration::from_nanos(service_ns),
            SimDuration::from_nanos(period_ns),
        );
        let exact = service_ns as f64 / period_ns as f64;
        prop_assert!(duty.as_f64() >= exact - 1e-12, "never understates");
        prop_assert!(duty.as_f64() <= exact + 1e-6, "rounds up by < 1 micro-unit");
    }

    /// Units addition is associative and ordered (the exactness the
    /// admission proofs rely on).
    #[test]
    fn units_arithmetic_exact(a in 0u64..2_000_000, b in 0u64..2_000_000, c in 0u64..2_000_000) {
        let (ua, ub, uc) = (TpuUnits::from_micro(a), TpuUnits::from_micro(b), TpuUnits::from_micro(c));
        prop_assert_eq!((ua + ub) + uc, ua + (ub + uc));
        prop_assert_eq!((ua + ub).saturating_sub(ub), ua);
        prop_assert_eq!(ua.checked_add(ub), Some(ua + ub));
    }
}

/// Width of one aligned block of the event queue's fine ring (2^27 ns).
/// Events one nanosecond either side of a block edge land in different
/// tiers, so the differential test aims at these instants on purpose.
const BLOCK_NS: u64 = 1 << 27;

/// One call against the queue under test and the reference heap.
#[derive(Debug, Clone)]
enum QueueOp {
    /// `schedule_at(now + delay)`.
    Schedule(u64),
    /// `schedule_at` at the edge of the `k`-th block after the current one,
    /// offset by -1, 0 or +1 ns.
    ScheduleAtEdge(u64, i8),
    /// `pop_due(now + horizon)`.
    PopDue(u64),
    /// `pop_due(now + horizon)`; when it returns `None`, `schedule_at(now)`
    /// — the barrier pattern of a sharded replay.
    PopDueThenNow(u64),
    /// `advance_to(now + delta)`, clamped to just before the earliest
    /// pending event.
    AdvanceTo(u64),
}

/// Delays from 0 ns to 20 s, weighted so every tier sees traffic: the
/// fine block (≈ 134 ms), the coarse ring (≈ 8.6 s) and the heap beyond.
fn delay_ns() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => 0u64..5_000_000,
        3 => 0u64..1_000_000_000,
        2 => 0u64..20_000_000_000,
        1 => Just(0u64),
    ]
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        6 => delay_ns().prop_map(QueueOp::Schedule),
        2 => (1u64..80, -1i8..=1).prop_map(|(k, off)| QueueOp::ScheduleAtEdge(k, off)),
        4 => delay_ns().prop_map(QueueOp::PopDue),
        2 => delay_ns().prop_map(QueueOp::PopDueThenNow),
        1 => delay_ns().prop_map(QueueOp::AdvanceTo),
    ]
}

/// The reference: a plain min-heap of `(time, seq)` plus its own clock.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    now: u64,
    next_seq: u64,
}

impl ReferenceQueue {
    fn schedule_at(&mut self, time: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq)));
        seq
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _))| *t)
    }

    fn pop_due(&mut self, until: u64) -> Option<(u64, u64)> {
        let &Reverse((time, seq)) = self.heap.peek()?;
        if time > until {
            return None;
        }
        self.heap.pop();
        self.now = time;
        Some((time, seq))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tiered event queue is observationally a plain `(time, seq)`
    /// min-heap under any interleaving of scheduling (0 ns to 20 s ahead,
    /// block edges ± 1 ns), bounded pops, clock advances and the
    /// schedule-"now"-after-an-empty-`pop_due` barrier pattern: every
    /// delivery, clock reading, length and peek agrees, and so does the
    /// final drain.
    #[test]
    fn event_queue_matches_a_reference_heap(ops in prop::collection::vec(queue_op(), 1..300)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        for op in ops {
            let now = reference.now;
            match op {
                QueueOp::Schedule(delay) => {
                    let seq = reference.schedule_at(now + delay);
                    q.schedule_at(SimTime::from_nanos(now + delay), seq);
                }
                QueueOp::ScheduleAtEdge(k, off) => {
                    let edge = (now / BLOCK_NS + k) * BLOCK_NS;
                    let time = edge.saturating_add_signed(i64::from(off));
                    let seq = reference.schedule_at(time);
                    q.schedule_at(SimTime::from_nanos(time), seq);
                }
                QueueOp::PopDue(horizon) | QueueOp::PopDueThenNow(horizon) => {
                    let until = now + horizon;
                    let expected = reference.pop_due(until);
                    let got = q.pop_due(SimTime::from_nanos(until));
                    prop_assert_eq!(got.map(|(t, seq)| (t.as_nanos(), seq)), expected);
                    if expected.is_none() && matches!(op, QueueOp::PopDueThenNow(_)) {
                        let seq = reference.schedule_at(now);
                        q.schedule_at(SimTime::from_nanos(now), seq);
                    }
                }
                QueueOp::AdvanceTo(delta) => {
                    let mut target = now + delta;
                    if let Some(next) = reference.peek_time() {
                        if next == now {
                            continue;
                        }
                        target = target.min(next - 1);
                    }
                    reference.now = target;
                    q.advance_to(SimTime::from_nanos(target));
                }
            }
            prop_assert_eq!(q.now().as_nanos(), reference.now);
            prop_assert_eq!(q.len(), reference.heap.len());
            prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), reference.peek_time());
        }
        while let Some(expected) = reference.pop_due(u64::MAX) {
            let (t, seq) = q.pop().expect("queue drained before the reference");
            prop_assert_eq!((t.as_nanos(), seq), expected);
        }
        prop_assert!(q.is_empty());
    }
}
