//! Property tests of the event calendar's determinism contract.
//!
//! The service fabric (and every hand-written simulator) rests on two
//! calendar invariants: events always pop in `(time, sequence)` order
//! whatever the interleaving of schedules and pops, and simultaneous
//! events resolve in first-scheduled-first-served order however many of
//! them pile up.  These tests pin both under generated workloads, and
//! pin the whole pop sequence, bit for bit, against a naive reference
//! model of the calendar.

use proptest::prelude::*;
use ss_sim::events::EventQueue;

/// Decode one raw op word: low bits pick the coarse time bucket (so time
/// collisions are common), bit 31 decides pop vs schedule (biased 1:3
/// towards scheduling so the queue actually fills up).
fn decode(raw: u32, buckets: u32) -> (bool, f64) {
    let do_pop = raw.is_multiple_of(4);
    let time = ((raw >> 2) % buckets) as f64 * 0.5;
    (do_pop, time)
}

/// The reference calendar: a plain `Vec` searched for the `(time, seq)`
/// minimum on every pop, with the same `<`/`==` comparisons on times (so
/// `-0.0` and `+0.0` are one instant).
#[derive(Default)]
struct Model {
    pending: Vec<(f64, u64, u64)>, // (time, seq, payload)
    next_seq: u64,
}

impl Model {
    fn schedule(&mut self, time: f64, payload: u64) {
        self.pending.push((time, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(f64, u64)> {
        if self.pending.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &(t, s, _)) in self.pending.iter().enumerate().skip(1) {
            let (bt, bs, _) = self.pending[best];
            if t < bt || (t == bt && s < bs) {
                best = i;
            }
        }
        let (t, _, p) = self.pending.remove(best);
        Some((t, p))
    }

    fn pop_at_or_before(&mut self, horizon: f64) -> Option<(f64, u64)> {
        let earliest = self
            .pending
            .iter()
            .map(|&(t, _, _)| t)
            .fold(f64::INFINITY, f64::min);
        if earliest <= horizon {
            self.pop()
        } else {
            None
        }
    }
}

/// Decode one op word for the model comparison: the low bits pick the
/// operation (schedule 5/8, pop 2/8, horizon pop 1/8, with a clear on 1 in
/// 128 words), the rest a coarse signed time bucket, so ties, `-0.0`/`+0.0`
/// ties and negative times are all common.
fn apply(raw: u32, buckets: u32, payload: &mut u64, q: &mut EventQueue<u64>, m: &mut Model) {
    let bucket = ((raw >> 8) % buckets) as f64 * 0.5;
    let time = if raw & 0x80 != 0 { -bucket } else { bucket };
    let (got, want) = match raw & 0x7 {
        _ if raw & 0x7f == 0x7f => {
            q.clear();
            m.pending.clear();
            assert!(q.is_empty() && q.peek_time().is_none());
            return;
        }
        0..=4 => {
            q.schedule(time, *payload);
            m.schedule(time, *payload);
            *payload += 1;
            return;
        }
        5 | 6 => (q.pop(), m.pop()),
        _ => (q.pop_at_or_before(time), m.pop_at_or_before(time)),
    };
    assert_eq!(
        got.map(|(t, p)| (t.to_bits(), p)),
        want.map(|(t, p)| (t.to_bits(), p)),
        "calendar and reference model disagree"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleaved `schedule` / `pop` / `pop_at_or_before` / `clear`
    /// sequences pop exactly what the reference model pops, in the same
    /// order, with the same time bits and payloads; draining the rest
    /// agrees too.
    #[test]
    fn matches_the_reference_model_bit_for_bit(
        ops in prop::collection::vec(0u32..u32::MAX, 1..600),
        buckets in 1u32..20,
    ) {
        let (mut q, mut m, mut payload) = (EventQueue::new(), Model::default(), 0u64);
        for &raw in &ops {
            apply(raw, buckets, &mut payload, &mut q, &mut m);
            prop_assert_eq!(q.len(), m.pending.len());
        }
        loop {
            let (got, want) = (q.pop(), m.pop());
            prop_assert_eq!(
                got.map(|(t, p)| (t.to_bits(), p)),
                want.map(|(t, p)| (t.to_bits(), p))
            );
            if got.is_none() {
                break;
            }
        }
    }

    /// A long hold (pop one, schedule one, at a steady depth) recycles the
    /// same payload slots thousands of times and still matches the model;
    /// every popped time keeps its sign bit, so `-0.0` never comes back as
    /// `+0.0`.
    #[test]
    fn slot_reuse_over_a_long_hold_matches_the_reference_model(
        depth in 1usize..40,
        steps in prop::collection::vec(0u32..6, 64..128),
    ) {
        let (mut q, mut m) = (EventQueue::new(), Model::default());
        let mut payload = 0u64;
        for i in 0..depth {
            let t = if i % 2 == 0 { 0.0 } else { -0.0 };
            q.schedule(t, payload);
            m.schedule(t, payload);
            payload += 1;
        }
        for round in 0..4000usize {
            let got = q.pop().expect("the hold keeps the calendar nonempty");
            let want = m.pop().expect("the model holds the same events");
            prop_assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
            // Coarse steps: many reinsertions land on an existing instant.
            let dt = steps[round % steps.len()] as f64 * 0.25;
            let t = if dt == 0.0 && round % 3 == 0 { -got.0 } else { got.0 + dt };
            q.schedule(t, payload);
            m.schedule(t, payload);
            payload += 1;
        }
        prop_assert_eq!(q.len(), depth);
    }

    /// Interleaved schedule/pop sequences always pop in `(time, seq)`
    /// order: within any run of pops (no intervening schedules), times are
    /// nondecreasing, and equal times pop in increasing payload (insertion)
    /// order.
    #[test]
    fn interleaved_ops_pop_in_time_then_seq_order(
        ops in prop::collection::vec(0u32..u32::MAX, 1..300),
        buckets in 1u32..25,
    ) {
        let mut q = EventQueue::new();
        let mut payload = 0u64;
        let mut scheduled_at: Vec<f64> = Vec::new();
        let mut last: Option<(f64, u64)> = None;
        for &raw in &ops {
            let (do_pop, time) = decode(raw, buckets);
            if do_pop {
                if let Some((t, p)) = q.pop() {
                    // The popped event really was scheduled at that time.
                    prop_assert_eq!(scheduled_at[p as usize].to_bits(), t.to_bits());
                    if let Some((lt, lp)) = last {
                        prop_assert!(
                            t > lt || (t == lt && p > lp),
                            "pop order violated: ({}, {}) then ({}, {})", lt, lp, t, p
                        );
                    }
                    last = Some((t, p));
                }
            } else {
                q.schedule(time, payload);
                scheduled_at.push(time);
                payload += 1;
                // A schedule may introduce an earlier event; the intra-run
                // monotonicity chain restarts.
                last = None;
            }
        }
        // Draining the rest is globally sorted by (time, seq).
        let mut drained = Vec::new();
        while let Some(pair) = q.pop() {
            drained.push(pair);
        }
        for w in drained.windows(2) {
            let ((t1, p1), (t2, p2)) = (w[0], w[1]);
            prop_assert!(t1 < t2 || (t1 == t2 && p1 < p2));
        }
    }

    /// Every scheduled event is popped exactly once, whatever the
    /// interleaving: the calendar neither loses nor duplicates events.
    #[test]
    fn no_event_is_lost_or_duplicated(
        ops in prop::collection::vec(0u32..u32::MAX, 1..200),
        buckets in 1u32..12,
    ) {
        let mut q = EventQueue::new();
        let mut payload = 0u64;
        let mut popped: Vec<u64> = Vec::new();
        for &raw in &ops {
            let (do_pop, time) = decode(raw, buckets);
            if do_pop {
                if let Some((_, p)) = q.pop() {
                    popped.push(p);
                }
            } else {
                q.schedule(time, payload);
                payload += 1;
            }
        }
        while let Some((_, p)) = q.pop() {
            popped.push(p);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..payload).collect::<Vec<_>>());
    }

    /// Tie-break stability under mass simultaneity: hundreds of events at
    /// the same instant pop in exactly insertion order, even interleaved
    /// with events at other times.
    #[test]
    fn simultaneous_events_pop_in_insertion_order(
        n_ties in 50usize..400,
        tie_time in 0u32..10,
        spread in prop::collection::vec(0u32..10, 0..50),
    ) {
        let mut q = EventQueue::new();
        let tie = tie_time as f64;
        let mut payload = 0u64;
        let mut tied: Vec<u64> = Vec::new();
        let mut spread_it = spread.iter();
        for i in 0..n_ties {
            q.schedule(tie, payload);
            tied.push(payload);
            payload += 1;
            // Interleave unrelated events so heap sift ordering is stressed.
            if i % 3 == 0 {
                if let Some(&s) = spread_it.next() {
                    q.schedule(s as f64, payload);
                    payload += 1;
                }
            }
        }
        let tied_set: std::collections::HashSet<u64> = tied.iter().copied().collect();
        let mut got: Vec<u64> = Vec::new();
        while let Some((t, p)) = q.pop() {
            if t == tie && tied_set.contains(&p) {
                got.push(p);
            }
        }
        prop_assert_eq!(got, tied);
    }

    /// `pop_at_or_before` never loses events: popping everything through a
    /// staircase of growing horizons equals popping with no horizon at all.
    #[test]
    fn horizon_staircase_equals_unbounded_pop(
        times in prop::collection::vec(0u32..40, 1..150),
        step in 1u32..7,
    ) {
        let mut bounded = EventQueue::new();
        let mut unbounded = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            bounded.schedule(t as f64 * 0.25, i);
            unbounded.schedule(t as f64 * 0.25, i);
        }
        let mut via_horizons = Vec::new();
        let mut horizon = 0.0f64;
        while !bounded.is_empty() {
            while let Some(pair) = bounded.pop_at_or_before(horizon) {
                via_horizons.push(pair);
            }
            horizon += step as f64 * 0.25;
        }
        let mut direct = Vec::new();
        while let Some(pair) = unbounded.pop() {
            direct.push(pair);
        }
        prop_assert_eq!(via_horizons, direct);
    }
}
