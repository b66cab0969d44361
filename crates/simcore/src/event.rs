//! A cancellable discrete-event queue with a built-in virtual clock.
//!
//! The queue is the engine of the whole simulation: the microkernel
//! scheduler, device models, heartbeat timers and policy-script `sleep`s all
//! schedule payloads here. Events at equal timestamps are delivered in
//! insertion order (FIFO), which keeps runs deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled.
///
/// Ids are unique for the lifetime of one [`EventQueue`] and are never
/// reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    id: EventId,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // breaking ties by insertion order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of timed events driving a virtual clock.
///
/// Popping an event advances [`EventQueue::now`] to that event's timestamp.
/// Scheduling in the past is not allowed and panics, because it would break
/// causality within the simulation.
///
/// # Example
///
/// ```
/// use phoenix_simcore::event::EventQueue;
/// use phoenix_simcore::time::SimDuration;
///
/// let mut q = EventQueue::new();
/// let doomed = q.schedule_after(SimDuration::from_secs(1), "never");
/// q.schedule_after(SimDuration::from_secs(2), "survivor");
/// q.cancel(doomed);
/// assert_eq!(q.pop().map(|(_, e)| e), Some("survivor"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
    pending: std::collections::BTreeSet<EventId>,
    cancelled: std::collections::BTreeSet<EventId>,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            pending: std::collections::BTreeSet::new(),
            cancelled: std::collections::BTreeSet::new(),
            popped: 0,
        }
    }

    /// The current virtual time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `payload` for delivery at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`].
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: {at:?} < now {:?}",
            self.now
        );
        let id = EventId(self.next_seq);
        self.heap.push(Scheduled {
            at,
            seq: self.next_seq,
            id,
            payload,
        });
        self.pending.insert(id);
        self.next_seq += 1;
        id
    }

    /// Schedules `payload` for delivery `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Schedules `payload` for immediate delivery (at the current time, after
    /// already-pending events with the same timestamp).
    pub fn schedule_now(&mut self, payload: E) -> EventId {
        self.schedule_at(self.now, payload)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an already
    /// delivered or already cancelled event returns `false` and is harmless.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // We cannot remove from the middle of a BinaryHeap; remember the id
        // and skip it at pop time (lazy deletion).
        if self.pending.remove(&id) {
            self.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// Pops the earliest live event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted; the clock then stays at
    /// the time of the last delivered event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(s) = self.heap.pop() {
            if self.cancelled.remove(&s.id) {
                continue;
            }
            self.pending.remove(&s.id);
            debug_assert!(s.at >= self.now, "event queue produced out-of-order event");
            self.now = s.at;
            self.popped += 1;
            return Some((s.at, s.payload));
        }
        None
    }

    /// Advances the clock to `t` without delivering anything.
    ///
    /// Used to account for idle periods at the end of a run.
    ///
    /// # Panics
    ///
    /// Panics if a live event is scheduled before `t` (that event must be
    /// popped first) or if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance clock backwards");
        if let Some(next) = self.peek_time() {
            assert!(
                next >= t,
                "cannot skip over pending event at {next:?} while advancing to {t:?}"
            );
        }
        self.now = t;
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled events off the top first so the answer is live.
        while let Some(top) = self.heap.peek() {
            if self.cancelled.contains(&top.id) {
                // analyze:allow(panic-reach): the heap was non-empty one
                // line up (peek returned Some); pop cannot miss.
                let s = self.heap.pop().expect("peeked event vanished");
                self.cancelled.remove(&s.id);
            } else {
                return Some(top.at);
            }
        }
        None
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("delivered", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(30), 3);
        q.schedule_at(SimTime::from_micros(10), 1);
        q.schedule_at(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.delivered(), 3);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_micros(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(2_000_000));
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule_after(SimDuration::from_micros(1), 'a');
        let b = q.schedule_after(SimDuration::from_micros(2), 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
        assert!(!q.cancel(b), "cancelling delivered event reports false");
    }

    #[test]
    fn cancel_unknown_id_is_harmless() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(999)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_after(SimDuration::from_micros(1), 'a');
        q.schedule_after(SimDuration::from_micros(5), 'b');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_secs(1), ());
        q.pop();
        q.schedule_at(SimTime::from_micros(1), ());
    }

    #[test]
    fn schedule_now_runs_at_current_time() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_secs(1), 1);
        q.pop();
        q.schedule_now(2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_micros(1_000_000));
    }
}
