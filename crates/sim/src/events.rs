//! Deterministic event calendar.
//!
//! Events are ordered by `(time, sequence)`, where the sequence number is
//! assigned at insertion.  This makes simultaneous events (common in
//! preemptive schedulers and in deterministic-service models) resolve in a
//! deterministic first-scheduled-first-served order, so every simulation in
//! the workspace is exactly reproducible from its seed.
//!
//! ## Layout
//!
//! The calendar is a binary min-heap of 24-byte `(time, seq, slot)` keys
//! over a payload slab: the event itself sits in `slab[slot]` from
//! `schedule` to `pop` and never moves, and a freed slot is reused by the
//! next `schedule`.  A sift therefore copies 24 bytes per level instead of
//! a whole `(time, seq, event)` entry (72 bytes for the fabric's events).
//!
//! ## Order contract
//!
//! Times are finite (checked in release builds by
//! [`EventQueue::schedule`]), so `(time, seq)` is a strict total order
//! compared with `<` and `==` on the times: `-0.0` and `+0.0` are the same
//! instant and fall through to `seq`.  Sequence numbers are unique, so the
//! pop order is fully determined by the schedule calls — any correct heap
//! gives the same sequence — and a popped time carries the exact bits it
//! was scheduled with.

/// One calendar entry's ordering key and the slab slot of its payload.
#[derive(Clone, Copy)]
struct Key {
    time: f64,
    seq: u64,
    slot: usize,
}

impl Key {
    /// Strict `(time, seq)` order; times are finite, so `==` makes `-0.0`
    /// and `+0.0` one instant and the tie goes to the earlier `seq`.
    #[inline]
    fn before(&self, other: &Key) -> bool {
        self.time < other.time || (self.time == other.time && self.seq < other.seq)
    }
}

/// A future-event list.
pub struct EventQueue<E> {
    /// Binary min-heap of keys: `heap[0]` is the earliest event.
    heap: Vec<Key>,
    /// Payloads, addressed by `Key::slot`; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slots of `slab`, reused last-freed-first.
    free: Vec<usize>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty calendar.
    pub fn new() -> Self {
        Self {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute time `time` (must be finite, not NaN).
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        let key = Key { time, seq, slot };
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1, key);
    }

    /// Remove and return the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&top) => {
                self.sift_down_from_root(last);
                top
            }
            None => last,
        };
        let event = self.slab[top.slot]
            .take()
            .expect("a queued key owns a filled slot");
        self.free.push(top.slot);
        Some((top.time, event))
    }

    /// Remove and return the earliest event only if it occurs at or before
    /// `horizon`; otherwise leave the calendar untouched and return `None`.
    ///
    /// This is the horizon-respecting pop [`crate::engine::Engine::run`] is
    /// built on: an event past the horizon stays scheduled, so a run can be
    /// resumed later with a larger horizon without losing events.
    pub fn pop_at_or_before(&mut self, horizon: f64) -> Option<(f64, E)> {
        match self.heap.first() {
            Some(k) if k.time <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.first().map(|k| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }

    /// Place `key` at the hole `pos` or above it, moving later parents
    /// down.
    fn sift_up(&mut self, mut pos: usize, key: Key) {
        let heap = &mut self.heap[..];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !key.before(&heap[parent]) {
                break;
            }
            heap[pos] = heap[parent];
            pos = parent;
        }
        heap[pos] = key;
    }

    /// Place `key` at the vacated root or below it, moving earlier
    /// children up.
    fn sift_down_from_root(&mut self, key: Key) {
        let heap = &mut self.heap[..];
        let end = heap.len();
        let mut pos = 0;
        let mut child = 1;
        while child < end {
            if child + 1 < end {
                child += usize::from(heap[child + 1].before(&heap[child]));
            }
            if !heap[child].before(&key) {
                break;
            }
            heap[pos] = heap[child];
            pos = child;
            child = 2 * pos + 1;
        }
        heap[pos] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "event time must be finite, got inf")]
    fn rejects_infinite_times() {
        let mut q = EventQueue::new();
        q.schedule(f64::INFINITY, ());
    }

    #[test]
    fn keys_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..100 {
            q.schedule(round as f64, round);
            q.schedule(round as f64 + 0.5, round);
            assert_eq!(q.pop(), Some((round as f64, round)));
            assert_eq!(q.pop(), Some((round as f64 + 0.5, round)));
        }
        assert!(q.is_empty());
        assert_eq!(q.slab.len(), 2);
    }

    #[test]
    #[should_panic]
    fn rejects_nan_times() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn many_events_sorted() {
        let mut q = EventQueue::new();
        // Insert pseudo-random times and verify the pop order is sorted.
        let mut t = 0.5f64;
        for _ in 0..1000 {
            t = (t * 997.0 + 0.123).fract() * 100.0;
            q.schedule(t, t);
        }
        let mut prev = f64::NEG_INFINITY;
        while let Some((time, _)) = q.pop() {
            assert!(time >= prev);
            prev = time;
        }
    }
}
