//! Discrete-event simulation engine.
//!
//! Events carry a payload `E`, are scheduled at absolute [`SimTime`]
//! instants, and are delivered in non-decreasing time order. Ties are broken
//! by insertion order, which makes event delivery *fully deterministic* —
//! two events scheduled at the same instant always fire in the order they
//! were scheduled, regardless of payload or queue internals.
//!
//! [`Simulator`] schedules through a monotone radix heap (Ahuja, Mehlhorn,
//! Orlin & Tarjan, JACM 1990). It relies on the one property every
//! simulation has — nothing is scheduled before the current clock — and
//! costs O(1) per push and amortized O(log₂ of the time span) moves per
//! event, with no comparisons between payloads. [`EventQueue`], a binary
//! heap keyed on `(time, insertion seq)`, accepts any time order and is the
//! oracle the simulator is property-tested against.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A scheduled event: delivery instant plus a tie-breaking sequence number.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // BinaryHeap is a max-heap; reverse to get earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of timestamped events, in `(time,
/// insertion seq)` order. Unlike [`Simulator`] it accepts pushes in any
/// time order, which makes it the reference the simulator is checked
/// against (and the scheduler of the DES oracle,
/// `fabric::des::simulate_reference`).
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A queue whose heap is pre-sized for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` for delivery at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.payload))
    }

    /// The delivery instant of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }
}

/// A monotone radix heap over picosecond timestamps.
///
/// `last` is the time of the most recent pop, and every pending event is
/// at or after it. Events at exactly `last` wait in `front`; any other
/// event at `t` waits in bucket `63 − lzcnt(t ^ last)`, the highest bit
/// where `t` and `last` differ. A pop with `front` empty takes the lowest
/// non-empty bucket, advances `last` to that bucket's minimum and
/// re-pushes the bucket's events in order; each lands in `front` or a
/// strictly lower bucket, and buckets above it keep their index because
/// the new `last` agrees with the old one on every bit above the bucket's.
///
/// Ties pop in push order without a sequence number: two events at the
/// same `t` always sit in the same bucket (the index depends only on `t`
/// and `last`), every bucket and `front` are appended to and drained in
/// order, so the earlier push stays ahead through every redistribution.
struct RadixQueue<E> {
    /// Events at exactly `last`, in push order.
    front: VecDeque<E>,
    /// `buckets[i]`: events whose time first differs from `last` at bit
    /// `i`, in push order.
    buckets: [Vec<(u64, E)>; 64],
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    occupied: u64,
    last: u64,
}

impl<E> RadixQueue<E> {
    fn new() -> Self {
        RadixQueue {
            front: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: 0,
        }
    }

    /// Queue `payload` at `t`, which must be at or after `last`.
    fn push(&mut self, t: u64, payload: E) {
        debug_assert!(t >= self.last, "radix queue push before the last pop");
        if t == self.last {
            self.front.push_back(payload);
        } else {
            let b = 63 - (t ^ self.last).leading_zeros() as usize;
            self.buckets[b].push((t, payload));
            self.occupied |= 1 << b;
        }
    }

    fn pop(&mut self) -> Option<(u64, E)> {
        if self.front.is_empty() && self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            // Take the bucket out so its events can be re-pushed, then put
            // the emptied vector back to keep its allocation.
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            self.last = bucket.iter().map(|&(t, _)| t).min()?;
            for (t, payload) in bucket.drain(..) {
                self.push(t, payload);
            }
            self.buckets[b] = bucket;
        }
        self.front.pop_front().map(|e| (self.last, e))
    }
}

/// A discrete-event simulator: a monotone clock over a radix-heap event
/// queue.
///
/// The simulator enforces causality: events cannot be scheduled in the past,
/// and [`Simulator::now`] never decreases. Events at the same instant are
/// delivered in the order they were scheduled — the same order as
/// [`EventQueue`].
///
/// # Examples
///
/// ```
/// use frontier_sim_core::prelude::*;
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Start, Stop }
///
/// let mut sim = Simulator::new();
/// sim.schedule_in(SimTime::from_micros(5), Ev::Stop);
/// sim.schedule_in(SimTime::from_micros(1), Ev::Start);
///
/// let mut order = vec![];
/// while let Some((t, ev)) = sim.pop() {
///     order.push((t.as_micros_f64() as u64, ev));
/// }
/// assert_eq!(order, vec![(1, Ev::Start), (5, Ev::Stop)]);
/// ```
pub struct Simulator<E> {
    queue: RadixQueue<E>,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    pub fn new() -> Self {
        Simulator {
            queue: RadixQueue::new(),
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or zero before any event has fired).
    pub fn now(&self) -> SimTime {
        SimTime::from_picos(self.queue.last)
    }

    /// Schedule an event at an absolute instant.
    ///
    /// # Panics
    /// Panics if `time` is before the current clock (causality violation).
    pub fn schedule_at(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now(),
            "causality violation: scheduling at {time} but now is {}",
            self.now()
        );
        self.queue.push(time.as_picos(), payload);
    }

    /// Schedule an event `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        let t = self
            .now()
            .checked_add(delay)
            // simlint::allow(panic-in-lib): clock overflow (~584 years at ns ticks) is unrepresentable state, not a recoverable error; a Result here would infect every schedule site
            .expect("simulation clock overflow");
        self.queue.push(t.as_picos(), payload);
    }

    /// Deliver the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        Some((SimTime::from_picos(t), e))
    }

    /// Run the handler over every event until the queue drains or the
    /// handler returns `false`. Returns the number of events delivered.
    pub fn run<F>(&mut self, mut handler: F) -> u64
    where
        F: FnMut(&mut Self, SimTime, E) -> bool,
    {
        let mut delivered = 0;
        while let Some((t, e)) = self.pop() {
            delivered += 1;
            if !handler(self, t, e) {
                break;
            }
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(30), "c");
        sim.schedule_at(SimTime::from_nanos(10), "a");
        sim.schedule_at(SimTime::from_nanos(20), "b");
        let mut seen = vec![];
        while let Some((_, e)) = sim.pop() {
            seen.push(e);
        }
        assert_eq!(seen, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Simulator::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            sim.schedule_at(t, i);
        }
        let mut seen = vec![];
        while let Some((_, e)) = sim.pop() {
            seen.push(e);
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(10), ());
        sim.schedule_at(SimTime::from_nanos(10), ());
        sim.schedule_at(SimTime::from_nanos(40), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = sim.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(sim.now(), t);
        }
        assert_eq!(last, SimTime::from_nanos(40));
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn cannot_schedule_in_the_past() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(10), ());
        sim.pop();
        sim.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn handler_can_schedule_followups() {
        // A self-perpetuating "clock tick" that stops after 5 ticks.
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_micros(1), 1u32);
        let delivered = sim.run(|sim, _, tick| {
            if tick < 5 {
                sim.schedule_in(SimTime::from_micros(1), tick + 1);
            }
            true
        });
        assert_eq!(delivered, 5);
        assert_eq!(sim.now(), SimTime::from_micros(5));
    }

    #[test]
    fn run_handler_early_stop() {
        let mut sim = Simulator::new();
        for i in 1..=10u64 {
            sim.schedule_at(SimTime::from_micros(i), i);
        }
        let n = sim.run(|_, _, v| v < 3);
        assert_eq!(n, 3); // stops after delivering v == 3
        assert_eq!(sim.pop(), Some((SimTime::from_micros(4), 4)));
    }

    #[test]
    fn same_instant_push_after_pop_queues_behind_earlier_ties() {
        // An event scheduled at exactly `now` goes behind the events
        // already pending at that instant, as in the heap.
        let mut sim = Simulator::new();
        let t = SimTime::from_nanos(7);
        sim.schedule_at(t, 0);
        sim.schedule_at(t, 1);
        assert_eq!(sim.pop(), Some((t, 0)));
        sim.schedule_in(SimTime::ZERO, 2);
        sim.schedule_at(SimTime::from_nanos(8), 3);
        let rest: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![1, 2, 3]);
    }

    #[test]
    fn event_queue_standalone() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_nanos(2), 2);
        q.push(SimTime::from_nanos(1), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), 2)));
        assert_eq!(q.pop(), None);
    }
}
