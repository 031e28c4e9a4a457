//! The event queue at the heart of the discrete-event kernel.
//!
//! Events are generic: each simulation defines its own event type `E` and a
//! [`Actor`] that consumes them. Ties in time break by
//! insertion order (a monotone sequence number), which keeps runs fully
//! deterministic for a given seed.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the earliest entry.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// # Examples
///
/// ```
/// use bcwan_sim::{EventQueue, SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_in(SimDuration::from_secs(2), "later");
/// q.schedule_in(SimDuration::from_secs(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(e, "sooner");
/// assert_eq!(t, SimTime::from_micros(1_000_000));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// Scheduling in the past is clamped to `now` — the event fires
    /// immediately-next rather than violating clock monotonicity.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Timestamp of the next event without popping it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

/// A simulation world that reacts to events of type `E`.
///
/// The kernel pops events in time order and hands each to
/// [`Actor::handle`], which may schedule follow-up events on the queue.
pub trait Actor<E> {
    /// Processes one event at simulated instant `now`.
    fn handle(&mut self, now: SimTime, event: E, queue: &mut EventQueue<E>);
}

/// Runs the simulation until the queue drains or `until` is passed.
///
/// Returns the number of events processed. When `until` is given, events
/// with a timestamp strictly after it remain unprocessed (and the clock
/// stops at the last processed event).
pub fn run<E, W: Actor<E>>(
    world: &mut W,
    queue: &mut EventQueue<E>,
    until: Option<SimTime>,
) -> u64 {
    let mut processed = 0;
    while let Some(next) = queue.peek_time() {
        if let Some(limit) = until {
            if next > limit {
                break;
            }
        }
        let (now, event) = queue.pop().expect("peeked non-empty");
        world.handle(now, event, queue);
        processed += 1;
    }
    processed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(30), "c");
        q.schedule_at(SimTime::from_micros(10), "a");
        q.schedule_at(SimTime::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(1), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now().as_secs(), 1);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(100), "first");
        q.pop();
        q.schedule_at(SimTime::from_micros(50), "late");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(100));
    }

    struct Counter {
        fired: Vec<u32>,
    }

    impl Actor<u32> for Counter {
        fn handle(&mut self, _now: SimTime, event: u32, queue: &mut EventQueue<u32>) {
            self.fired.push(event);
            if event < 3 {
                queue.schedule_in(SimDuration::from_secs(1), event + 1);
            }
        }
    }

    #[test]
    fn run_drives_cascading_events() {
        let mut world = Counter { fired: Vec::new() };
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 0);
        let n = run(&mut world, &mut q, None);
        assert_eq!(n, 4);
        assert_eq!(world.fired, vec![0, 1, 2, 3]);
        assert_eq!(q.now().as_secs(), 3);
    }

    #[test]
    fn run_respects_until() {
        let mut world = Counter { fired: Vec::new() };
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 0);
        run(&mut world, &mut q, Some(SimTime::from_micros(1_500_000)));
        assert_eq!(world.fired, vec![0, 1]);
        assert_eq!(q.len(), 1); // event at t=2s still pending
    }
}
